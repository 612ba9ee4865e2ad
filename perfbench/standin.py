"""Publisher stand-in: serves one workload's seeded corpus from
`sgp.fixtures` in a process of its own and reports its own load.

    python3 perfbench/standin.py --workload W --seed N --work DIR [--plant KIND]

`sgp` must be importable (the benchmark sets PYTHONPATH to the
checkout's `src`). When the hosts are up the stand-in prints one JSON
line: the host base URIs, the publisher feed, the dump path (on
replay-dump) and the expectations for the client's checks. It then
answers commands read line by line on stdin:

    reset   forget the request log, the byte count and the handler CPU;
            print {"reset": true}
    stats   print {"requests", "bytes", "cpu_s"} since the last reset,
            where cpu_s is the CPU the handler threads spent on requests
            (idle polling of the listening sockets is not counted)
    quit    close every host and exit (so does end of input)
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

import corpus


class _CountingWriter:
    """Wraps a handler's wfile and adds every byte written to a total."""

    def __init__(self, inner, tally: "_Tally"):
        self._inner = inner
        self._tally = tally

    def write(self, data) -> int:
        self._tally.add(len(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Tally:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.total = 0

    def add(self, count) -> None:
        with self._lock:
            self.total += count

    def reset(self) -> None:
        with self._lock:
            self.total = 0


def _instrument(handler_class, sent: _Tally, cpu: _Tally) -> None:
    # Headers and body leave in two writes; with Nagle's algorithm on,
    # each response then waits for the client's delayed ACK (~40 ms).
    handler_class.disable_nagle_algorithm = True
    original_setup = handler_class.setup
    original_handle_one_request = handler_class.handle_one_request

    def setup(self) -> None:
        original_setup(self)
        self.wfile = _CountingWriter(self.wfile, sent)

    def handle_one_request(self) -> None:
        # each connection has its own thread; the wait for the next
        # request blocks and costs no CPU
        mark = time.thread_time()
        try:
            original_handle_one_request(self)
        finally:
            cpu.add(time.thread_time() - mark)

    handler_class.setup = setup
    handler_class.handle_one_request = handle_one_request


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--plant", choices=corpus.PLANTS, default=None)
    args = parser.parse_args(argv)

    from sgp import fixtures

    sent, cpu = _Tally(), _Tally()
    _instrument(fixtures._Handler, sent, cpu)

    hosts = corpus.host_specs(args.workload, args.seed)
    served = [list(specs) for _, specs in hosts]
    if args.plant == "payload":
        served[0][0] = corpus.plant_payload_fault(served[0][0])
    endpoints = []
    try:
        for specs in served:
            endpoints.append(fixtures.serve(*specs))
        ready: dict = {
            "hosts": [endpoint.base_uri for endpoint in endpoints],
            "feed": endpoints[0].publisher_feed_uri,
            "dump": None,
        }
        if args.workload == "audit":
            ready["expect"] = corpus.audit_expectations(hosts, endpoints)
        else:
            dump = args.workload == "replay-dump"
            ready["expect"] = corpus.ingest_expectations(
                endpoints[0], hosts[0][1], dump=dump
            )
            if dump:
                path = args.work / "changedump.zip"
                path.write_bytes(
                    corpus.build_dump(endpoints[0], plant=args.plant == "dump-byte")
                )
                ready["dump"] = str(path)
        print(json.dumps(ready), flush=True)

        for line in sys.stdin:
            command = line.strip()
            if command == "reset":
                for endpoint in endpoints:
                    endpoint.clear_log()
                sent.reset()
                cpu.reset()
                print(json.dumps({"reset": True}), flush=True)
            elif command == "stats":
                stats = {
                    "requests": sum(len(endpoint.log()) for endpoint in endpoints),
                    "bytes": sent.total,
                    "cpu_s": cpu.total,
                }
                print(json.dumps(stats), flush=True)
            elif command == "quit":
                break
            else:
                print(json.dumps({"error": f"unknown command {command!r}"}), flush=True)
    finally:
        for endpoint in endpoints:
            endpoint.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
