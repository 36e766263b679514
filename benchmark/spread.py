"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 benchmark/spread.py --workload mc-head --seeds 1-10

Runs ``benchmark/run.py`` once per seed, one run at a time, and prints for
each end-to-end metric the median of the runs and the distance between
their first and third quartiles as a share of that median, next to a third
of the metric's bound in ``BENCHMARK.json``. A share above the bound itself
means two sets of runs cannot be told apart at that bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="range 1-10 or list 1,4,9")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict = {m["name"]: [] for m in spec["end_to_end"]}
    failed = 0
    for seed in seed_list(args.seeds):
        proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={m['value']:.5g}"
                                          for n, m in result["metrics"].items()), flush=True)
    print(f"{args.workload}: {failed} failed operations or checks")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / q2
        flag = "ok" if share < m["bound"] / 3 else "WIDE"
        print(f"{m['name']:>14}: median {q2:.5g} {m['unit']}, spread {share:.3f} "
              f"(a third of the bound is {m['bound'] / 3:.3f}) {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
