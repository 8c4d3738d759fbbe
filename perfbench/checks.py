"""Correctness checks, computed apart from the program.

Every check recomputes what it needs from the benchmark's own copy of
the input codes (``inputs.py`` writes them next to each CSV) with the
benchmark's own entropy, separator, acyclicity and join-size code, and
returns a list of error strings (empty when the artefact is right).
Artefacts are the JSON payloads ``repro.api.execute_task`` returns, so
attributes appear by column name.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from repro.common import TOL

#: Two correct float evaluations of the same J differ by summation order;
#: entropies here are below 32 bits, so 1e-12 covers that and nothing more.
FLOAT_SLACK = 1e-12

Attrs = FrozenSet[int]


class Entropy:
    """Plug-in entropy in bits of column sets of a code matrix (memoised)."""

    def __init__(self, codes: np.ndarray):
        self.codes = np.asarray(codes, dtype=np.int64)
        self.n_rows = self.codes.shape[0]
        self.radix = [int(self.codes[:, j].max()) + 1 if self.n_rows else 1
                      for j in range(self.codes.shape[1])]
        self._memo: Dict[Tuple[int, ...], float] = {}

    def groups(self, cols: Iterable[int]) -> np.ndarray:
        """Row counts of each distinct value combination of ``cols``."""
        key = tuple(sorted(cols))
        if not key:
            return np.array([self.n_rows])
        if math.prod(self.radix[j] for j in key) >= 2**62:
            return np.unique(self.codes[:, key], axis=0, return_counts=True)[1]
        keys = np.zeros(self.n_rows, dtype=np.int64)
        for j in key:
            keys = keys * self.radix[j] + self.codes[:, j]
        if math.prod(self.radix[j] for j in key) <= 4 * self.n_rows:
            counts = np.bincount(keys)
            return counts[counts > 0]
        return np.unique(keys, return_counts=True)[1]

    def __call__(self, cols: Iterable[int]) -> float:
        key = tuple(sorted(cols))
        value = self._memo.get(key)
        if value is None:
            p = self.groups(key) / self.n_rows
            value = float(-(p * np.log2(p)).sum())
            self._memo[key] = value
        return value


def _attrs(names: Sequence[str], index: Dict[str, int]) -> Attrs:
    return frozenset(index[c] for c in names)


def mvd_j(h: Entropy, key: Attrs, dependents: Sequence[Attrs]) -> float:
    """``J(X ->> Y1|...|Ym) = sum H(X Yi) - (m-1) H(X) - H(X Y1..Ym)``."""
    everything = key.union(*dependents)
    return (sum(h(key | d) for d in dependents)
            - (len(dependents) - 1) * h(key) - h(everything))


def check_mvds(mvds: Sequence[Dict[str, Any]], columns: Sequence[str],
               h: Entropy, eps: float, where: str) -> List[str]:
    """Dependents disjoint, covering Omega with the key; ``J <= eps + TOL``."""
    index = {c: j for j, c in enumerate(columns)}
    omega = frozenset(range(len(columns)))
    errors = []
    for mvd in mvds:
        key = _attrs(mvd["key"], index)
        deps = [_attrs(d, index) for d in mvd["dependents"]]
        label = f"{where}: {mvd['key']} ->> {mvd['dependents']}"
        if len(deps) < 2 or any(not d for d in deps):
            errors.append(f"{label}: needs two non-empty dependents")
            continue
        if sum(len(d) for d in deps) != len(frozenset().union(*deps)):
            errors.append(f"{label}: dependents overlap")
        if any(d & key for d in deps):
            errors.append(f"{label}: a dependent overlaps the key")
        if key.union(*deps) != omega:
            errors.append(f"{label}: key and dependents miss "
                          f"{sorted(columns[j] for j in omega - key.union(*deps))}")
            continue
        j = mvd_j(h, key, deps)
        if j > eps + TOL + FLOAT_SLACK:
            errors.append(f"{label}: J = {j:.12g} > eps = {eps}")
    return errors


def exhaustive_min_seps(h: Entropy, n_cols: int, eps: float
                        ) -> Dict[Tuple[int, int], set]:
    """Minimal A,B-separators of every pair, by trying every key.

    ``X`` separates A and B when some eps-MVD with key ``X`` puts them in
    different dependents.  Merging dependents never raises J, so it is
    enough to try every split of ``Omega - X`` into two sides, one with A
    and one with B.  Costs ``3^(n-2)`` MI evaluations per pair.
    """
    table = [h(j for j in range(n_cols) if m >> j & 1) for m in range(2 ** n_cols)]
    out = {}
    for a, b in itertools.combinations(range(n_cols), 2):
        rest = [j for j in range(n_cols) if j not in (a, b)]
        separating = []
        for x in range(2 ** len(rest)):
            key = sum(1 << rest[i] for i in range(len(rest)) if x >> i & 1)
            free = [j for j in rest if not key >> j & 1]
            for side in range(2 ** len(free)):
                y = key | 1 << a | sum(1 << free[i] for i in range(len(free))
                                       if side >> i & 1)
                z = key | 1 << b | sum(1 << free[i] for i in range(len(free))
                                       if not side >> i & 1)
                if table[y] + table[z] - table[y | z] - table[key] <= eps + TOL:
                    separating.append(key)
                    break
        out[(a, b)] = {
            frozenset(j for j in range(n_cols) if x >> j & 1)
            for x in separating
            if not any(o != x and o & x == o for o in separating)
        }
    return out


def check_min_seps(payload: Dict[str, Any], columns: Sequence[str],
                   h: Entropy, eps: float, where: str) -> List[str]:
    """The reported minimal separators equal an exhaustive search's."""
    index = {c: j for j, c in enumerate(columns)}
    reported = {}
    for entry in payload["min_seps"]:
        a, b = sorted(index[c] for c in entry["pair"])
        reported[(a, b)] = {_attrs(s, index) for s in entry["separators"]}
    expected = exhaustive_min_seps(h, len(columns), eps)
    errors = []
    for pair, seps in expected.items():
        got = reported.get(pair)
        if got != seps:
            name = [columns[j] for j in pair]
            errors.append(
                f"{where}: pair {name}: minimal separators "
                f"{sorted(sorted(columns[j] for j in s) for s in got or ())} "
                f"!= exhaustive {sorted(sorted(columns[j] for j in s) for s in seps)}")
    return errors


def gyo_acyclic(bags: Sequence[Attrs]) -> bool:
    """GYO reduction: drop attributes in one bag and bags inside others."""
    edges = [set(b) for b in bags]
    changed = True
    while changed and len(edges) > 1:
        changed = False
        for attr in {a for e in edges for a in e}:
            holders = [e for e in edges if attr in e]
            if len(holders) == 1:
                holders[0].discard(attr)
                changed = True
        for i, e in enumerate(edges):
            if any(i != k and e <= f for k, f in enumerate(edges)):
                del edges[i]
                changed = True
                break
    return len(edges) <= 1


def join_tree(bags: Sequence[Attrs]) -> List[Tuple[int, int]]:
    """A maximum-weight spanning tree of the bag-intersection graph.

    For an acyclic schema every such tree is a join tree; callers check
    the running-intersection property with :func:`is_join_tree`.
    """
    pairs = sorted(itertools.combinations(range(len(bags)), 2),
                   key=lambda p: -len(bags[p[0]] & bags[p[1]]))
    parent = list(range(len(bags)))

    def root(u: int) -> int:
        while parent[u] != u:
            u = parent[u]
        return u

    edges = []
    for u, v in pairs:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            edges.append((u, v))
    return edges


def is_join_tree(bags: Sequence[Attrs], edges: Sequence[Tuple[int, int]]) -> bool:
    """Each attribute's bags form a connected subtree."""
    for attr in set().union(*bags):
        holders = {i for i, b in enumerate(bags) if attr in b}
        reached, frontier = set(), [min(holders)]
        while frontier:
            u = frontier.pop()
            reached.add(u)
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and y in holders and y not in reached:
                        frontier.append(y)
        if reached != holders:
            return False
    return True


def join_size(codes: np.ndarray, bags: Sequence[Attrs]) -> int:
    """``|R[bag_1] join ... join R[bag_m]|`` by testing every domain tuple.

    A tuple of the cross product of the column domains is in the join iff
    each of its bag projections occurs in R.  Only for small domains.
    """
    radix = [int(codes[:, j].max()) + 1 for j in range(codes.shape[1])]
    if math.prod(radix) > 5_000_000:
        raise ValueError(f"domain product {math.prod(radix)} too large")
    grid = np.indices(radix).reshape(len(radix), -1).T
    keep = np.ones(len(grid), dtype=bool)
    for bag in bags:
        cols = sorted(bag)
        key_r = np.zeros(len(codes), dtype=np.int64)
        key_g = np.zeros(len(grid), dtype=np.int64)
        for j in cols:
            key_r = key_r * radix[j] + codes[:, j]
            key_g = key_g * radix[j] + grid[:, j]
        keep &= np.isin(key_g, key_r)
    return int(keep.sum())


def check_schemas(payload: Dict[str, Any], columns: Sequence[str],
                  codes: np.ndarray, h: Entropy, eps: float, top: int
                  ) -> List[str]:
    """Every ranked schema: covering, acyclic, and J, S and E recomputed."""
    index = {c: j for j, c in enumerate(columns)}
    omega = frozenset(range(len(columns)))
    n_rows, n_cols = codes.shape
    distinct_rows = len(np.unique(codes, axis=0))
    schemas = payload["schemas"]
    errors = []
    if not 1 <= len(schemas) <= top:
        errors.append(f"{len(schemas)} schemas, expected 1..{top}")
    for rank, item in enumerate(schemas, 1):
        where = f"schema #{rank}"
        bags = [_attrs(b, index) for b in item["schema"]["bags"]]
        quality = item["quality"]
        if frozenset().union(*bags) != omega:
            errors.append(f"{where}: bags miss "
                          f"{sorted(columns[j] for j in omega - frozenset().union(*bags))}")
            continue
        if not gyo_acyclic(bags):
            errors.append(f"{where}: schema is cyclic")
            continue
        edges = join_tree(bags)
        if not is_join_tree(bags, edges):
            errors.append(f"{where}: no join tree")
            continue
        j = (sum(h(b) for b in bags)
             - sum(h(bags[u] & bags[v]) for u, v in edges) - h(omega))
        if abs(j - item["j_measure"]) > 1e-9:
            errors.append(f"{where}: J = {item['j_measure']!r}, recomputed {j!r}")
        if j > (len(bags) - 1) * eps + TOL + FLOAT_SLACK:
            errors.append(f"{where}: J = {j:.6g} > (m-1) eps")
        cells = sum(len(h.groups(b)) * len(b) for b in bags)
        savings = 100.0 * (n_rows * n_cols - cells) / (n_rows * n_cols)
        if abs(savings - quality["savings_pct"]) > 1e-9:
            errors.append(f"{where}: S = {quality['savings_pct']!r}, "
                          f"recomputed {savings!r}")
        spurious = 100.0 * (join_size(codes, bags) - distinct_rows) / distinct_rows
        if quality["spurious_pct"] is None or \
                abs(spurious - quality["spurious_pct"]) > 1e-9:
            errors.append(f"{where}: E = {quality['spurious_pct']!r}, "
                          f"recomputed {spurious!r}")
        if quality["n_relations"] != len(bags):
            errors.append(f"{where}: n_relations {quality['n_relations']} "
                          f"!= {len(bags)} bags")
        errors += check_mvds(item["support"], columns, h, eps, where)
    return errors


def canonical_schemas(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Ranked schemas as bag sets plus their numbers (row-order free)."""
    return [
        {
            "bags": sorted(sorted(b) for b in item["schema"]["bags"]),
            "j_measure": item["j_measure"],
            "savings_pct": item["quality"]["savings_pct"],
            "spurious_pct": item["quality"]["spurious_pct"],
        }
        for item in payload["schemas"]
    ]


def check_same_schemas(payload: Dict[str, Any],
                       golden: List[Dict[str, Any]]) -> List[str]:
    """The ranked schemas equal those mined from the unpermuted rows."""
    got = canonical_schemas(payload)
    if len(got) != len(golden):
        return [f"{len(got)} schemas, unpermuted rows give {len(golden)}"]
    errors = []
    for rank, (a, b) in enumerate(zip(got, golden), 1):
        if a["bags"] != b["bags"] or any(
                abs(a[k] - b[k]) > 1e-9
                for k in ("j_measure", "savings_pct", "spurious_pct")):
            errors.append(f"schema #{rank} {a} differs from the unpermuted "
                          f"rows' {b}")
    return errors


def check_store(relation: Any, codes: np.ndarray,
                labels: Sequence[Sequence[str]]) -> List[str]:
    """The store, read back and decoded, holds the CSV's values."""
    errors = []
    if (relation.n_rows, relation.n_cols) != codes.shape:
        return [f"store shape {(relation.n_rows, relation.n_cols)} "
                f"!= {codes.shape}"]
    chunk = 1 << 16
    for j in range(codes.shape[1]):
        to_code = {v: k for k, v in enumerate(labels[j])}
        domain = np.array([to_code.get(v, -1) for v in relation.domains[j]])
        offset = 0
        for block in relation.iter_column_chunks(j, chunk):
            if not np.array_equal(domain[block],
                                  codes[offset:offset + len(block), j]):
                errors.append(f"column {j}: rows {offset}.. decode wrongly")
                break
            offset += len(block)
        if offset != len(codes) and not errors:
            errors.append(f"column {j}: {offset} rows read, {len(codes)} written")
    return errors


def check_same_artefacts(got: Dict[str, Any], expected: Dict[str, Any],
                         where: str) -> List[str]:
    """Two mine payloads hold the same MVDs and minimal separators."""
    return [f"{where}: {field} differ from the in-memory mine"
            for field in ("mvds", "min_seps") if got[field] != expected[field]]
