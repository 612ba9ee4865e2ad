"""Benchmark of `sgp`: live harvest, dump replay and audit against a
publisher stand-in that runs in a process of its own.

    python3 perfbench/run.py --workload harvest-live --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: `sgp` is imported from its `src`
directory. Workloads: harvest-live, replay-dump, audit (see README.md).
The client drives `sgp.cli.run` in this process, on one thread, with
the arguments an operator would type, for whole rounds over the corpus
until `--seconds` of timed work have passed, and checks every output.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics from a traced run with `--trace 1`. Every timing is
scaled to a reference speed measured in the same run (see
REFERENCE_CHUNK_S); standard error also gives the unscaled figures.

`--plant payload` (harvest-live) or `--plant dump-byte` (replay-dump)
plants one fault in the first object; the run must then report that
object as failed in every round, and nothing else.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import signal
import sys
import zlib
from pathlib import Path
from time import perf_counter, process_time, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
# a run must end well within three minutes whatever a round costs
WALL_LIMIT_S = 140.0
# Timings are scaled to a reference speed: the host on which one
# reference chunk (below) takes REFERENCE_CHUNK_S of CPU. During the
# timed calls a profiling timer interrupts the client after every
# REFERENCE_PERIOD_S of CPU it uses and runs one chunk in its place;
# during set-up, REFERENCE_SAMPLES_PER_SETUP chunks run after each
# stand-in start-up. A change of the host's speed (raw timings moved by
# 2x within an hour on a shared 2-core host) so cancels out of the scaled
# figures. The chunks' own time is not counted as the client's.
REFERENCE_CHUNK_S = 0.001
REFERENCE_PERIOD_S = 0.02
REFERENCE_SAMPLES_PER_SETUP = 40

END_TO_END_UNITS = {
    "setup_s": "s",
    "user_cpu_ms_per_object": "ms",
    "requests_per_object": "count",
    "response_kib_per_object": "KiB",
    "peak_rss_mib": "MiB",
}

_LINK_FIELD = ", ".join(
    f'<https://example.org/10.5555/x{i:03d}/file.pdf>; rel="item"; type="application/pdf"'
    for i in range(12)
)
_PACKED = zlib.compress(bytes(range(256)) * 256)


def _reference_chunk() -> None:
    """A fixed mix of the kinds of work `sgp` does: splitting header
    fields, building and serialising dicts, inflating and hashing."""
    for _ in range(18):
        fields = {}
        for part in _LINK_FIELD.split(","):
            target, _, params = part.partition(";")
            fields[target.strip(" <>")] = [p.strip().split("=", 1) for p in params.split(";")]
        json.loads(json.dumps(fields))
    for _ in range(3):
        hashlib.sha256(zlib.decompress(_PACKED)).digest()


def _user_cpu_s() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


class Phase:
    """Time taken by the reference chunks run during one phase of a run."""

    def __init__(self) -> None:
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.samples = 0

    def sample(self, *_signal) -> None:
        """Runs one chunk; also a signal handler."""
        # the process CPU clock can lag by a scheduler tick, the thread's does not
        wall, cpu = perf_counter(), thread_time()
        _reference_chunk()
        self.cpu_s += thread_time() - cpu
        self.wall_s += perf_counter() - wall
        self.samples += 1

    def scale(self) -> float:
        """Factor from this phase's seconds to seconds at reference speed."""
        if not self.samples:
            raise RuntimeError("the phase was too short to sample the host's speed")
        return REFERENCE_CHUNK_S * self.samples / self.cpu_s


class StandInError(RuntimeError):
    pass


class StandIn:
    """The stand-in process: started ready to serve, stopped on close()."""

    def __init__(self, args: argparse.Namespace, src: Path, work: Path):
        command = [
            sys.executable,
            str(HERE / "standin.py"),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--work",
            str(work),
        ]
        if args.plant:
            command += ["--plant", args.plant]
        self._process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        line = self._process.stdout.readline()
        if not line:
            self.close()
            raise StandInError(f"stand-in exited with code {self._process.returncode}")
        self.ready = json.loads(line)

    def command(self, word: str) -> dict | None:
        self._process.stdin.write(word + "\n")
        self._process.stdin.flush()
        line = self._process.stdout.readline()
        return json.loads(line) if line else None

    def close(self) -> None:
        if self._process.poll() is None:
            try:
                self._process.stdin.write("quit\n")
                self._process.stdin.flush()
            except BrokenPipeError:
                pass
            try:
                self._process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
        self._process.stdin.close()
        self._process.stdout.close()


class Client:
    """Drives `sgp` for one workload and keeps the tallies."""

    def __init__(self, args, ready: dict, work: Path, tracer):
        from sgp import cli
        from sgp.harvester import IngestStore

        self._cli = cli
        self._store_class = IngestStore
        self.workload = args.workload
        self.planted = args.plant is not None
        self.ready = ready
        self.work = work
        self.tracer = tracer
        self.timed_s = 0.0
        self.cpu_s = 0.0
        self.user_s = 0.0
        self.reference = Phase()
        self.attempted = 0
        self.failed = 0
        self.runs = 0
        self.unexpected: list[str] = []
        self._rounds = 0

    def _sgp(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self._cli.run(argv)
        self.runs += 1
        return code, out.getvalue()

    def _timed(self, call):
        if self.tracer is not None:
            self.tracer.active = True
        reference = self.reference
        wall = perf_counter() - reference.wall_s
        cpu = process_time() - reference.cpu_s
        user = _user_cpu_s() - reference.cpu_s
        signal.setitimer(signal.ITIMER_PROF, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)
        try:
            return call()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            self.timed_s += perf_counter() - reference.wall_s - wall
            self.cpu_s += process_time() - reference.cpu_s - cpu
            self.user_s += _user_cpu_s() - reference.cpu_s - user
            if self.tracer is not None:
                self.tracer.active = False

    def _tally(self, problems: list[str], expected_failure: bool, label: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
        if bool(problems) != expected_failure:
            what = "; ".join(problems) if problems else "did not fail"
            self.unexpected.append(f"{label}: {what}")

    def round(self) -> None:
        self._rounds += 1
        if self.workload == "audit":
            self._audit_round()
        else:
            self._ingest_round()

    def _ingest_round(self) -> None:
        import checks

        ready = self.ready
        directory = self.work / f"store-{self._rounds}"
        argv = ["harvest", "--feed", ready["feed"], "--store", str(directory)]
        if ready["dump"]:
            argv += ["--dump", ready["dump"]]

            def call():
                code, out = self._sgp(argv)
                return code, out, self._store_class(directory).fsck()

            code, out, fsck = self._timed(call)
            store = self._store_class(directory)
        else:
            argv += ["--api-base", ready["hosts"][0]]
            code, out = self._timed(lambda: self._sgp(argv))
            store = self._store_class(directory)
            fsck = store.fsck()
        results = checks.check_ingest(out, code, store, ready["expect"], fsck)
        for index, (want, problems) in enumerate(zip(ready["expect"], results)):
            self._tally(problems, self.planted and index == 0, want["entry"])

    def _audit_round(self) -> None:
        import checks

        for want in self.ready["expect"]:
            argv = ["audit", "--entry", want["entry"], "--format", "json"]
            code, out = self._timed(lambda: self._sgp(argv))
            problems, known = checks.check_audit(out, code, want)
            self._tally(problems, known, f"{want['host']} {want['entry']}")


def _bench(args: argparse.Namespace, src: Path, work: Path, started: float) -> dict:
    import sgp.cli  # noqa: F401  (the import is part of set-up)

    import_s = perf_counter() - started
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    setups = []
    setup_reference = Phase()
    standin = None
    try:
        for _ in range(SETUP_REPEATS):
            if standin is not None:
                standin.close()
            mark = perf_counter()
            standin = StandIn(args, src, work)
            setups.append(perf_counter() - mark)
            for _ in range(REFERENCE_SAMPLES_PER_SETUP):
                setup_reference.sample()
        client = Client(args, standin.ready, work, tracer)
        signal.signal(signal.SIGPROF, client.reference.sample)
        standin.command("reset")
        while client.timed_s < args.seconds and perf_counter() - started < WALL_LIMIT_S:
            client.round()
        server = standin.command("stats")
    finally:
        if standin is not None:
            standin.close()

    objects = client.attempted
    scale = client.reference.scale()
    setup_scale = setup_reference.scale()
    # Reference figures, not metrics: throughput also holds the stand-in's
    # share of the wall clock, and system CPU the file system's state.
    user_ms = client.user_s * 1000.0 / objects
    system_ms = client.cpu_s * 1000.0 / objects - user_ms
    print(
        f"{args.workload} seed {args.seed}: {objects} operations, {client.failed} failed,"
        f" {client.timed_s:.2f} s timed; scaled {objects / (client.timed_s * scale):.2f}"
        f" objects/s; unscaled {objects / client.timed_s:.2f} objects/s, {user_ms:.3f} ms"
        f" user and {system_ms:.3f} ms system CPU/object; speed scale {scale:.3f} timed,"
        f" {setup_scale:.3f} set-up",
        file=sys.stderr,
    )
    for line in client.unexpected[:10]:
        print(f"unexpected: {line}", file=sys.stderr)
    if tracer is not None:
        tracer.uninstall()
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        tracer.write(results / f"trace-{args.workload}.jsonl")
        values = tracer.metrics(objects, client.runs, server, scale)
        from tracing import PER_LAYER_METRICS as units
    else:
        values = {
            "setup_s": (import_s + statistics.median(setups)) * setup_scale,
            "user_cpu_ms_per_object": user_ms * scale,
            "requests_per_object": server["requests"] / objects,
            "response_kib_per_object": server["bytes"] / 1024.0 / objects,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    return {
        "correct": not client.unexpected,
        "attempted": objects,
        "failed": client.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    src = ROOT / "src"
    if not (src / "sgp" / "__init__.py").is_file():
        print(f"no sgp sources under {src}; run from a checkout", file=sys.stderr)
        return 2
    started = perf_counter()
    sys.path.insert(0, str(src))
    import corpus  # imports part of sgp, which set-up counts

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant", choices=corpus.PLANTS, default=None)
    args = parser.parse_args(argv)
    if args.plant and corpus.PLANTS[args.plant] != args.workload:
        parser.error(f"--plant {args.plant} applies to {corpus.PLANTS[args.plant]}")

    work = HERE / "runs" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        result = _bench(args, src, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
