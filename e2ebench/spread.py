"""Run-to-run spread of the end-to-end metrics.

Runs the benchmark once per seed for each named workload, one run after
another, and prints each metric's median and the distance between its
first and third quartile as a share of the median::

    python3 e2ebench/spread.py --seconds 30 --seeds 1-10 \\
        figure1-cold scan-cold service-campaign

A metric's spread should stay below a third of its bound in
BENCHMARK.json.  Each run's result line is appended to
``.e2ebench_out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from benchstats import median, quartile_spread

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    args = parser.parse_args()
    root = Path.cwd()
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (root / "BENCHMARK.json").read_text())["end_to_end"]}
    log = root / ".e2ebench_out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                cwd=root, check=True, capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(dict(result, workload=workload,
                                         seed=seed)) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({len(args.seeds)} seeds)")
        for name, series in values.items():
            spread = quartile_spread(series) if len(series) > 1 else 0.0
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name:<18}{median(series):>14.6g}  spread "
                  f"{spread:7.2%}  bound {bounds[name]:.0%}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
