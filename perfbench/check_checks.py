"""Check of the benchmark's own checks: a short run with one planted
fault must report exactly the planted operation as failed, in every
round, and nothing else.

    python3 perfbench/check_checks.py

Plants one changed byte in a served PDF (harvest-live: the stored
payload's digest then differs from the spec's) and one flipped byte in a
change-dump member (replay-dump: the member then contradicts its
manifest fixity). Exits 0 when both runs report as they must.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import corpus  # needs sgp on the path

    per_round = {"harvest-live": corpus.LIVE_OBJECTS, "replay-dump": corpus.DUMP_OBJECTS}
    ok = True
    for plant, workload in corpus.PLANTS.items():
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--plant",
            plant,
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=180)
        if done.returncode != 0:
            print(f"{plant}: exit code {done.returncode}\n{done.stderr}")
            ok = False
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        rounds = result["attempted"] // per_round[workload]
        good = (
            result["correct"]
            and rounds >= 1
            and result["attempted"] == rounds * per_round[workload]
            and result["failed"] == rounds
        )
        verdict = "ok" if good else "WRONG"
        print(
            f"{plant} on {workload}: {result['attempted']} attempted,"
            f" {result['failed']} failed over {rounds} round(s): {verdict}"
        )
        ok = ok and good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
