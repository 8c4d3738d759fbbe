"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The inputs of ``--seed`` are made (or
reused) under ``.perfbench_work/``; the workload then runs in
``PROCESSES`` fresh, single-threaded processes (``measure.py``), one
after another, each for an equal share of ``--seconds``.  Their samples
are pooled and their artefacts checked here with ``checks.py``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Each time is the median over the
run's set-ups or requests, ``peak_rss_mb`` the median over its processes.  Exits non-zero, printing no result, when the
program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: Measuring processes per run.  Requests within one process run at
#: nearly the same speed, while consecutive processes on the same input
#: differed by up to 20%; pooling several processes per run keeps one
#: process's luck from setting the run's median.
PROCESSES = 4

#: The measuring processes, then the checks, must end within the 180 s a
#: run may take.
CHILD_TIMEOUT_S = 140


def verify(name: str, data: Dict[str, Any], result: Dict[str, Any]) -> List[str]:
    """Independent checks of the artefacts of the run's last request."""
    import checks
    import inputs
    from measure import WORKLOADS

    workload = WORKLOADS[name]
    eps = workload["eps"]
    artefacts = result["artefacts"]
    if artefacts is None:
        return ["no request succeeded, nothing to check"]
    errors = [] if result["consistent"] else [
        "requests of one run returned different artefacts"]
    for table, payload in zip(data["tables"], artefacts):
        codes = inputs.load_codes(data, table["name"])
        columns = table["columns"]
        h = checks.Entropy(codes)
        if workload["task"] == "mine":
            if payload["timed_out"] or payload["pairs_done"] != payload["pairs_total"]:
                errors.append(f"{table['name']}: mine did not finish")
            errors += checks.check_mvds(payload["mvds"], columns, h, eps,
                                        table["name"])
        if workload["kind"] == "catalog":
            errors += checks.check_min_seps(payload, columns, h, eps,
                                            table["name"])
        if workload["kind"] == "nursery":
            errors += checks.check_schemas(payload, columns, codes, h, eps,
                                           workload["top"])
            golden = json.loads((HERE / "nursery_golden.json").read_text())
            errors += checks.check_same_schemas(payload, golden)
        if workload["store"]:
            errors += store_checks(workload, data, table, codes, payload)
    return errors


def store_checks(workload: Dict[str, Any], data: Dict[str, Any],
                 table: Dict[str, Any], codes: Any, payload: Dict[str, Any]
                 ) -> List[str]:
    """Store decodes to the CSV's values; mines what memory mines."""
    import checks
    from measure import artefact, request

    from repro.backends import open_store_relation
    from repro.data.relation import Relation

    errors = checks.check_store(
        open_store_relation(str(Path(data["dir"]) / "store")), codes,
        table["labels"])
    in_memory = Relation.from_codes(codes, table["columns"])
    (expected,), _ = request(workload, [in_memory])
    return errors + checks.check_same_artefacts(
        payload, artefact(expected), table["name"])


def pooled(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One result from the results of a run's measuring processes."""
    last = results[-1]
    merged: Dict[str, Any] = {
        key: [x for r in results for x in r[key]]
        for key in ("setup_s", "setup_layers", "request_s", "layers")}
    merged.update(
        attempted=sum(r["attempted"] for r in results),
        failed=sum(r["failed"] for r in results),
        consistent=all(r["consistent"] and r["artefacts"] == last["artefacts"]
                       for r in results),
        peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in results),
        counters=last["counters"],
        artefacts=last["artefacts"],
    )
    return merged


def median_metrics(result: Dict[str, Any], specs: List[Dict[str, Any]],
                   trace: bool) -> Dict[str, Dict[str, Any]]:
    if not trace:
        values = {
            "request_s": statistics.median(result["request_s"]),
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    else:
        rows = result["layers"] + result["setup_layers"]
        values = {}
        for spec in specs:
            samples = [row[spec["name"]] for row in rows if spec["name"] in row]
            values[spec["name"]] = statistics.median(samples) if samples else 0
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in specs}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed (default 1)")
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of "
                             "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "api").is_dir():
        print(f"no program to run: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    import inputs
    from measure import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = bench["per_layer" if args.trace else "end_to_end"]
    if args.seconds is None:
        args.seconds = bench["run_seconds"]

    data = inputs.prepare(WORKLOADS[args.workload]["kind"], args.seed)
    out = inputs.WORK / f"result-{args.workload}.json"
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "measure.py"),
           "--workload", args.workload, "--data", json.dumps(data),
           "--seconds", str(args.seconds / PROCESSES),
           "--trace", str(args.trace), "--out", str(out)]
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    results = []
    for _ in range(PROCESSES):
        try:
            proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                                  timeout=max(deadline - time.monotonic(), 1))
        except subprocess.TimeoutExpired:
            print(f"{args.workload}: measuring took over {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            return 3
        if proc.returncode != 0:
            print(f"{args.workload}: measuring process exited with "
                  f"{proc.returncode}", file=sys.stderr)
            return proc.returncode if proc.returncode > 0 else 1
        results.append(json.loads(out.read_text()))
        out.unlink()
    result = pooled(results)

    errors = verify(args.workload, data, result)
    shutil.rmtree(Path(data["dir"]) / "store", ignore_errors=True)
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)

    metrics = median_metrics(result, specs, bool(args.trace))
    counters = result["counters"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(result['request_s'])} requests, "
          f"{len(result['setup_s'])} set-ups, "
          f"request_s {[round(t, 4) for t in result['request_s']]}, "
          f"entropy.queries {counters.get('oracle.queries')}, "
          f"entropy.evals {counters.get('oracle.evals')}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
