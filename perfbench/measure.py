"""One workload, measured in a fresh process (started by ``run.py``).

The process warms up on a 200-row slice of its input, times the
workload's ``setups`` set-ups, sends one untimed settling request, then
times requests until ``--seconds`` (counted from the first set-up) would
be passed by one more.  Each request gets relations no request has used
(copies of the last set-up ones, or the store opened again), so no
kernel cache survives from one request to the next.  Set-up and request
times are written to ``--out`` with the artefacts of the last request
and the process's peak RSS; the store of the last set-up stays on disk
for the checks.  With ``--trace 1`` the layer wrappers of ``layers.py``
are installed first and each request's per-layer numbers are written
too.

    python3 perfbench/measure.py --workload NAME --data JSON --seconds S \
        --trace 0|1 --out FILE

where JSON is what ``inputs.prepare`` returned for the workload's seed.
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import resource
import shutil
import sys
import time
import statistics
import traceback
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: kind: input files (``inputs.BUILDERS``); store: mined through the
#: mmap backend after ``ingest_csv``; setups: timed set-ups per process,
#: made before the requests.  The first request after the set-ups runs
#: untimed: loading a CSV peaks far above what mining needs and hands
#: that memory back, so the next request faults its buffers in again (at
#: 500k rows it took 2.2-2.6 s where later ones took 1.8-2.0 s).
WORKLOADS: Dict[str, Dict[str, Any]] = {
    "catalog-mine": dict(kind="catalog", task="mine", eps=0.01, store=False,
                         setups=1),
    "synth100k-mine": dict(kind="synth", task="mine", eps=0.1, store=False,
                           setups=2),
    "synth100k-store": dict(kind="synth", task="mine", eps=0.1, store=True,
                            setups=2),
    "nursery-schemas": dict(kind="nursery", task="schemas", eps=0.035, top=10,
                            store=False, setups=5),
}

#: Timed requests per process, however short ``--seconds``.
MIN_REQUESTS = 2


def task_spec(workload: Dict[str, Any], budget: Optional[float] = None) -> Any:
    from repro.api import MineSpec, SchemasSpec

    if workload["task"] == "mine":
        return MineSpec(eps=workload["eps"], budget=budget)
    return SchemasSpec(eps=workload["eps"], top=workload["top"], budget=budget)


def artefact(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A payload without its wall-clock field, for comparing runs."""
    return {k: v for k, v in payload.items() if k != "elapsed"}


def setup(workload: Dict[str, Any], data: Dict[str, Any],
          max_rows: Optional[int] = None) -> Tuple[List[Any], Dict[str, float]]:
    """Input files on disk -> relations ready to mine.

    Returns the relations and the time spent in each setup layer.
    """
    from repro.backends import ingest_csv, open_store_relation
    from repro.data.loaders import from_csv

    folder = Path(data["dir"])
    relations, times = [], Counter()
    for table in data["tables"]:
        csv = str(folder / f"{table['name']}.csv")
        start = time.perf_counter()
        if workload["store"]:
            store = folder / ("store" if max_rows is None else "warmup-store")
            ingest_csv(csv, str(store), max_rows=max_rows)
            times["backends.ingest_s"] += time.perf_counter() - start
            relations.append(open_store_relation(str(store)))
        else:
            relations.append(from_csv(csv, max_rows=max_rows))
            times["data.load_s"] += time.perf_counter() - start
    return relations, dict(times)


def fresh_relations(workload: Dict[str, Any], data: Dict[str, Any],
                    relations: List[Any]) -> List[Any]:
    """Unused copies of set-up relations, so no cache outlives a request."""
    from repro.backends import open_store_relation

    if workload["store"]:
        return [open_store_relation(str(Path(data["dir"]) / "store"))]
    return copy.deepcopy(relations)


def drop_stores(data: Dict[str, Any]) -> None:
    for name in ("store", "warmup-store"):
        shutil.rmtree(Path(data["dir"]) / name, ignore_errors=True)


def request(workload: Dict[str, Any], relations: List[Any],
            budget: Optional[float] = None) -> Tuple[List[Dict[str, Any]], Any]:
    """One request: every relation mined on a fresh default ``Maimon``."""
    from repro.api import EngineSpec, execute_task

    spec = task_spec(workload, budget)
    payloads, maimons = [], []
    for relation in relations:
        maimon = EngineSpec().make_maimon(relation)
        try:
            payload, _ = execute_task(workload["task"], maimon, spec)
        finally:
            maimon.close()
        payloads.append(payload)
        maimons.append(maimon)
    return payloads, maimons


def summed_counters(maimons: List[Any]) -> Dict[str, int]:
    total: Counter = Counter()
    for maimon in maimons:
        total.update(maimon.counters())
    return dict(total)


def store_mb(data: Dict[str, Any]) -> float:
    store = Path(data["dir"]) / "store"
    return sum(p.stat().st_size for p in store.rglob("*") if p.is_file()) / 2**20


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB.

    Linux carries the parent's peak into ``ru_maxrss`` across fork and
    exec, so a parent that made large inputs would show in the child's
    figure; the kernel's per-process high-water mark ``VmHWM`` does not.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(name: str, data: Dict[str, Any], seconds: float, trace: bool
            ) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    tracer = None
    if trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)

    # Lazy imports and first-call costs, outside every timed section.  A
    # 200-row slice can hold far more approximate MVDs than the whole
    # input, so its search runs under a time budget.
    drop_stores(data)
    relations, _ = setup(workload, data, max_rows=200)
    request(workload, relations, budget=0.5)
    del relations
    drop_stores(data)

    setup_s: List[float] = []
    setup_layers: List[Dict[str, float]] = []

    def timed_setup() -> List[Any]:
        drop_stores(data)
        gc.collect()
        start = time.perf_counter()
        relations, layer_times = setup(workload, data)
        setup_s.append(time.perf_counter() - start)
        if workload["store"]:
            layer_times["backends.store_mb"] = store_mb(data)
        setup_layers.append(layer_times)
        return relations

    request_s: List[float] = []
    layer_rows: List[Dict[str, float]] = []
    artefacts: Optional[List[Dict[str, Any]]] = None
    counters: Dict[str, int] = {}
    attempted = failed = 0
    consistent = True

    def one_request(relations: List[Any], timed: bool) -> None:
        nonlocal artefacts, counters, attempted, failed, consistent
        fresh = fresh_relations(workload, data, relations)
        gc.collect()
        attempted += 1
        if tracer is not None:
            tracer.reset()
            tracer.enter("request")
        start = time.perf_counter()
        try:
            payloads, maimons = request(workload, fresh)
        except Exception:  # a failed operation; the run goes on
            traceback.print_exc()
            failed += 1
            return
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.exit()
        current = [artefact(p) for p in payloads]
        if artefacts is not None and current != artefacts:
            consistent = False
        artefacts = current
        if not timed:
            return
        request_s.append(elapsed)
        counters = summed_counters(maimons)
        if tracer is not None:
            layer_rows.append(layers.request_metrics(tracer, counters))

    started = time.perf_counter()
    relations: List[Any] = []
    for _ in range(workload["setups"]):
        del relations[:]
        relations = timed_setup()
    one_request(relations, timed=False)
    while len(request_s) < MIN_REQUESTS or (
            time.perf_counter() - started + statistics.median(request_s)
            <= seconds):
        one_request(relations, timed=True)
        if failed and not request_s:
            break
    return {
        "workload": name,
        "setup_s": setup_s,
        "setup_layers": setup_layers,
        "request_s": request_s,
        "layers": layer_rows,
        "attempted": attempted,
        "failed": failed,
        "consistent": consistent,
        "peak_rss_mb": peak_rss_mb(),
        "counters": counters,
        "artefacts": artefacts,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--data", required=True,
                        help="JSON of inputs.prepare(): input dir and tables")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = measure(args.workload, json.loads(args.data), args.seconds,
                     bool(args.trace))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
