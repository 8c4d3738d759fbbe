"""Run the benchmark several times and print the spread of each metric.

    python3 perfbench/spread.py [--workloads A,B] [--seeds 1,2,3] [--trace 0|1]

Runs ``run.py`` once per seed and workload (each a fresh process, inputs
made from the seed), seed by seed, so that a slow spell of the host falls
on every workload alike.  Then prints for every workload, per metric, the
median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
quartile distance as a share of the median, next to the metric's bound
in ``BENCHMARK.json``.  Also prints the failed share of each workload
and whether every run was correct.  ``--json FILE`` keeps every run's
result.
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
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    specs = bench["per_layer" if args.trace else "end_to_end"]
    workloads = args.workloads.split(",")
    runs = {workload: [] for workload in workloads}
    for seed in seeds:
        for workload in workloads:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            wall = time.perf_counter() - started
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result.update(seed=seed, wall_s=wall, summary=lines[0])
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
                flush=True)
    for workload in workloads:
        results = runs[workload]
        print(f"\n{workload}: {len(results)} runs, correct "
              f"{all(r['correct'] for r in results)}, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in results})}, "
              f"mean run {statistics.mean(r['wall_s'] for r in results):.1f} s")
        for spec in specs:
            values = [r["metrics"][spec["name"]]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med if med else float("nan")
            print(f"  {spec['name']:26s} median {med:12.6g} {spec['unit']:6s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {share:7.2%}"
                  + (f" bound {spec['bound']:.0%}" if "bound" in spec else ""))
        print(flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
