"""Compare two benchmark result files, metric by metric.

Each file is the JSON-lines record stream ``run.py --out FILE`` appends,
one record per run.  For every workload and metric present in either
file this prints the median over the file's runs, the spread (distance
between the first and third quartile, as a share of the median) and the
change from A to B.  End-to-end metrics whose change is worse than their
bound in ``BENCHMARK.json`` are flagged ``REGRESSED``::

    python3 perfbench/diff.py old.jsonl new.jsonl

With a single file it prints the medians and spreads only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> dict:
    """``(workload, metric) -> {"unit": ..., "values": [...]}``."""
    out: dict = defaultdict(lambda: {"unit": None, "values": []})
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            for name, entry in record["metrics"].items():
                slot = out[(record["workload"], name)]
                slot["unit"] = entry["unit"]
                slot["values"].append(entry["value"])
    return out


def summarize(values: list[float]) -> tuple[float, float]:
    """Median and quartile spread as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / abs(median)


def declared() -> dict:
    """End-to-end and per-layer declarations of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path, nargs="?")
    args = parser.parse_args(argv)
    decl = declared()
    a = load(args.a)
    b = load(args.b) if args.b is not None else {}
    regressed = 0
    for key in sorted(set(a) | set(b)):
        workload, name = key
        cells = []
        medians = []
        for side in (a, b) if args.b is not None else (a,):
            if key in side:
                median, spread = summarize(side[key]["values"])
                medians.append(median)
                cells.append(f"{median:12.6g} ±{spread:6.1%} n={len(side[key]['values'])}")
            else:
                medians.append(None)
                cells.append(f"{'-':>12s}")
        unit = (a.get(key) or b.get(key))["unit"]
        line = f"{workload:20s} {name:28s} {unit:6s} " + "  ".join(cells)
        if len(medians) == 2 and None not in medians and medians[0]:
            change = (medians[1] - medians[0]) / abs(medians[0])
            line += f"  {change:+8.1%}"
            meta = decl.get(name, {})
            worse = change if meta.get("better") == "lower" else -change
            if "bound" in meta and worse > meta["bound"]:
                line += "  REGRESSED"
                regressed += 1
        print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
