"""Per-layer accounting for the traced benchmark run.

Wrappers are placed from the outside on the names the program calls, so
the program itself is unchanged.  A name is looked up where it is bound:
``core/miner.py`` imports ``get_full_mvds`` and ``mine_min_seps`` into its
own namespace, so the wrapper goes on ``repro.core.miner.get_full_mvds``;
one placed only on ``repro.core.fullmvd`` would record nothing.

Layer boundaries get spans (inclusive and self time).  Hot inner
functions are counted, not timed: a span costs about a microsecond, and
the full-MVD search calls ``pairwise_consistent`` and builds ``MVD``
objects hundreds of thousands of times per request.

A span nested in a span of the same layer (``GroupCounter.entropy``
calling ``GroupCounter.counts``) adds to the layer's inclusive time
once.  Self times of all spans plus the root's self time add up to the
root's wall time, so the root's self share is the time no named layer
accounts for.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List


class Tracer:
    """Span stack with per-layer inclusive time, self time and entries."""

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.entries: Counter = Counter()   # outermost entries per layer
        self.counts: Counter = Counter()    # counted hot calls
        self.keys: set = set()              # (oracle id, full-MVD key mask)
        self._stack: List[list] = []        # [name, start, child_time]
        self._depth: Counter = Counter()

    def reset(self) -> None:
        """Start a new request; wrappers keep their references."""
        for table in (self.inclusive, self.self_time, self.entries,
                      self.counts, self.keys, self._depth):
            table.clear()
        del self._stack[:]

    def enter(self, name: str) -> None:
        if not self._depth[name]:
            self.entries[name] += 1
        self._depth[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        elapsed = time.perf_counter() - start
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive[name] += elapsed
        self.self_time[name] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed

    def span(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return wrapper

    def gen_span(self, name: str, fn: Callable, count: str = "") -> Callable:
        """Span around each ``next()`` of a generator function."""
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            it = fn(*args, **kwargs)
            while True:
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                if count:
                    self.counts[count] += 1
                yield item
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def keyed(self, name: str, fn: Callable, inner: Callable) -> Callable:
        """Count calls and the distinct ``key`` arguments per oracle."""
        counts, keys = self.counts, self.keys

        @functools.wraps(fn)
        def wrapper(oracle: Any, key: Any, *args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            mask = getattr(key, "mask", None)
            keys.add((id(oracle),
                      mask if mask is not None else sum(1 << i for i in key)))
            return inner(oracle, key, *args, **kwargs)
        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of the program for this process."""
    from repro import io as repro_io
    from repro.backends import chunked, mmap_backend
    from repro.core import asminer, fullmvd, maimon, miner, minsep, mvd
    from repro.entropy import oracle
    from repro.kernels import dispatch
    from repro.quality import metrics

    # core, phase 1: the request's mine, then the two search phases at
    # the names core/miner.py binds.
    maimon.Maimon.mine_mvds = tracer.span("core.mine", maimon.Maimon.mine_mvds)
    miner.mine_min_seps = tracer.span("core.minsep", miner.mine_min_seps)
    get_full = miner.get_full_mvds
    miner.get_full_mvds = tracer.keyed(
        "core.fullmvd_calls", get_full, tracer.span("core.fullmvd", get_full))
    # key_separates runs the same search with K = 1 inside minsep.
    minsep.key_separates = tracer.keyed(
        "core.fullmvd_calls", minsep.key_separates, minsep.key_separates)
    fullmvd.pairwise_consistent = tracer.counted(
        "core.pairwise_checks", fullmvd.pairwise_consistent)
    mvd.MVD.__init__ = tracer.counted("core.mvds_built", mvd.MVD.__init__)

    # core, phase 2, hypergraph and quality, at their call sites.
    asminer.ASMiner.enumerate = tracer.gen_span(
        "core.asminer", asminer.ASMiner.enumerate, count="core.candidates")
    asminer.maximal_independent_sets = tracer.gen_span(
        "hypergraph.mis", asminer.maximal_independent_sets)
    maimon.evaluate_schema = tracer.span("quality.evaluate",
                                         maimon.evaluate_schema)
    metrics.spurious_tuple_pct = tracer.span("quality.spurious",
                                             metrics.spurious_tuple_pct)

    # entropy: engine work on oracle memo misses.
    oracle.EntropyOracle._compute = tracer.span(
        "entropy.eval", oracle.EntropyOracle._compute)

    # kernels: the in-memory grouping engine and the streamed lanes the
    # store path calls through ``dispatch.stream_counts``.
    for method in ("counts", "entropy", "ids_and_counts", "ids"):
        setattr(dispatch.GroupCounter, method, tracer.span(
            "kernels.count", getattr(dispatch.GroupCounter, method)))
    dispatch.stream_counts = tracer.span("kernels.count",
                                         dispatch.stream_counts)

    # backends: chunk-streamed counting over a store, and the block reads
    # it does (lazily, from inside the streamed kernel).
    for method in ("counts", "entropy"):
        setattr(chunked.ChunkedGroupCounter, method, tracer.span(
            "backends.count", getattr(chunked.ChunkedGroupCounter, method)))
    mmap_backend.MmapBackend.iter_chunks = tracer.gen_span(
        "backends.read", mmap_backend.MmapBackend.iter_chunks)

    # io: payload serialisation.
    for name in ("miner_result_to_dict", "schemas_payload"):
        setattr(repro_io, name, tracer.span("io.serialize",
                                            getattr(repro_io, name)))


def request_metrics(tracer: Tracer, counters: Dict[str, int]) -> Dict[str, float]:
    """Per-layer numbers of one traced request (root span ``request``).

    ``counters`` are the summed ``Maimon.counters()`` of the request.
    """
    t, c = tracer.inclusive, tracer.counts
    queries = counters.get("oracle.queries", 0)
    evals = counters.get("oracle.evals", 0)
    prefix = counters.get("kernel.prefix_hits", 0)
    composed = counters.get("kernel.composed", 0)
    total = t["request"]
    return {
        "backends.count_s": t["backends.count"],
        "backends.read_s": t["backends.read"],
        "backends.chunks": counters.get("kernel.chunked_chunks", 0),
        "backends.materialized": counters.get("kernel.chunked_materialized", 0),
        "kernels.count_s": t["kernels.count"],
        "kernels.calls": tracer.entries["kernels.count"],
        "kernels.composed": composed,
        "kernels.prefix_hit_ratio": (prefix / (prefix + composed)
                                     if prefix + composed else 0.0),
        "entropy.queries": queries,
        "entropy.evals": evals,
        "entropy.memo_hit_ratio": 1.0 - evals / queries if queries else 0.0,
        "entropy.eval_s": t["entropy.eval"],
        "core.mine_s": t["core.mine"],
        "core.minsep_s": t["core.minsep"],
        "core.fullmvd_s": t["core.fullmvd"],
        "core.fullmvd_calls": c["core.fullmvd_calls"],
        "core.fullmvd_keys": len(tracer.keys),
        "core.pairwise_checks": c["core.pairwise_checks"],
        "core.mvds_built": c["core.mvds_built"],
        "core.asminer_s": t["core.asminer"],
        "core.candidates": c["core.candidates"],
        "hypergraph.mis_s": t["hypergraph.mis"],
        "quality.evaluate_s": t["quality.evaluate"],
        "quality.spurious_s": t["quality.spurious"],
        "io.serialize_s": t["io.serialize"],
        "trace.unattributed_share": (tracer.self_time["request"] / total
                                     if total else 0.0),
    }
