"""Self-test of the benchmark at tiny input sizes.

Runs every workload untraced and traced with ``--tiny`` and checks that
the result line has exactly the contract keys, that its metric names
and units are the ones ``BENCHMARK.json`` declares for that mode, and
that a run with one fitted label flipped fails its correctness check::

    python3 perfbench/selftest.py

Exits non-zero on the first failure.  Takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(*args: str) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "3",
         "--tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{args}: no output\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result = run("--workload", workload, "--trace", str(trace))
            what = f"{workload} --trace {trace}"
            assert code == 0, f"{what}: exit code {code}"
            assert set(result) == RESULT_KEYS, f"{what}: keys {sorted(result)}"
            assert result["correct"] is True, f"{what}: not correct"
            assert result["attempted"] >= 1 and result["failed"] == 0, what
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared[trace], (
                f"{what}: printed metrics differ from BENCHMARK.json: "
                f"{sorted(set(printed.items()) ^ set(declared[trace].items()))}"
            )
            print(f"ok  {what}: {len(printed)} metrics")
    code, result = run("--workload", "fit-geolife", "--trace", "0", "--flip-label")
    assert code != 0 and result["correct"] is False, (
        "a flipped label was not caught by the correctness check"
    )
    print("ok  fit-geolife --flip-label: correctness check failed as it should")
    return 0


if __name__ == "__main__":
    sys.exit(main())
