"""Run one workload over several seeds and report each metric's median and spread.

    python3 perfbench/repeat.py --workload NAME --seeds 1-10 [--out FILE]

Spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median: the figure
BENCHMARK.json's bounds are judged against.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    runs = []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return done.returncode
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    summary = {}
    for key, first in runs[0]["metrics"].items():
        values = [r["metrics"][key]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[key] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                        "spread": (q3 - q1) / med if med else 0.0, "values": values}
        print(f"{key:40s} median {med:.6g} {first['unit']}  spread {summary[key]['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds,
             "seconds": args.seconds, "metrics": summary}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
