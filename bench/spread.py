"""Run workloads over consecutive seeds and report each metric's spread.

    python3 bench/spread.py --seeds 10 --first-seed 1 [--workload NAME ...]
                            [--trace 1] [--seconds S] [--out FILE]

Runs ``run.py`` once per seed, one process at a time, and prints for every
metric the median and the spread: the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of the median.
Untraced spreads above a third of the metric's bound are flagged, except
``setup_s``, whose bound only limits the change of its median.  ``--out``
writes every value as JSON, the form of ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from definition import END_TO_END, RUN_SECONDS, WORKLOADS  # noqa: E402


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    report = {}
    status = 0
    for name in args.workload or list(WORKLOADS):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.monotonic()
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=False)
            wall = time.monotonic() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            runs.append(json.loads(lines[-1]))
            print(f"{name} seed {seed}: ok, {wall:.1f} s wall", file=sys.stderr, flush=True)
        if not runs:
            continue
        summary = {}
        print(f"\n== {name}: {len(runs)} runs, trace={args.trace}")
        for metric, first in runs[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in runs]
            med, q1, q3, share = spread(values)
            summary[metric] = {
                "unit": first["unit"],
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": share,
                "values": values,
            }
            flag = ""
            if not args.trace and metric in END_TO_END and metric != "setup_s":
                if share > END_TO_END[metric][2] / 3:
                    flag = "  <-- above a third of the bound"
            print(f"  {metric:40s} median {med:14.6g} {first['unit']:6s} spread {share:7.4f}{flag}")
        report[name] = {"trace": args.trace, "seeds": [args.first_seed, args.first_seed + args.seeds - 1],
                        "failed": sum(r["failed"] for r in runs), "metrics": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
