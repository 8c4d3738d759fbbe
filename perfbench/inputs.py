"""Seeded input files for the benchmark workloads.

The benchmark makes its own inputs and hands the program only the files:
a change to the program's generators (``repro.data.generators``) must not
move what the benchmark measures.  The samplers below are therefore the
benchmark's own: ``markov_tree`` follows the same algorithm (and, without
``sample_seed``, the same random-number draws) as the program's
Markov-tree generator, and
``nursery_codes`` rebuilds the Nursery grid and class rule.

Every input is written once per seed under ``.perfbench_work/`` at the
root of the checkout, next to a ``codes.npy`` holding the exact value
codes of the file (the checks recompute entropies from it, apart from
the program's loader).  Only the latest seed of each input kind is kept.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

#: catalog-mine: Image-shaped tables (Image has 12 columns x 777,676 rows;
#: these are 9 columns at 1% of its rows), sampled with the ``dense``
#: profile of ``repro.data.datasets``.  The table structure is fixed by
#: the generator seeds 0..CATALOG_TABLES-1; ``--seed`` permutes the rows
#: and relabels the values, which leaves the search work unchanged.
CATALOG_TABLES = 6
CATALOG_ROWS = 7_777
CATALOG_COLS = 9
DENSE_PROFILE = dict(domain_size=3, determinism=0.9, fd_fraction=0.35,
                     independent_fraction=0.1, noise=0.005)

#: synth100k-*: the Markov tree ``BENCH_scale.json`` uses (generator seed
#: 7), at 100k rows.  A column of 100k int64 codes (800 KB) stays in a
#: core's 2 MiB L2 cache; at 500k rows (4 MB) counting runs out of it and
#: its speed swung up to 2x for minutes with the memory traffic of other
#: tenants of the host.  ``--seed`` draws the rows; trees drawn from other
#: generator seeds need other numbers of engine evals (229 to 256 at 500k
#: rows), which would move request_s by more than the run-to-run noise.
SYNTH_ROWS = 100_000
SYNTH_TREE_SEED = 7
SYNTH_COLS = 8
SYNTH_PROFILE = dict(domain_size=3, determinism=0.95, fd_fraction=0.5,
                     independent_fraction=0.0, noise=0.0)

NURSERY_ATTRS = [
    ("parents", ["usual", "pretentious", "great_pret"]),
    ("has_nurs", ["proper", "less_proper", "improper", "critical", "very_crit"]),
    ("form", ["complete", "completed", "incomplete", "foster"]),
    ("children", ["1", "2", "3", "more"]),
    ("housing", ["convenient", "less_conv", "critical"]),
    ("finance", ["convenient", "inconv"]),
    ("social", ["nonprob", "slightly_prob", "problematic"]),
    ("health", ["recommended", "priority", "not_recom"]),
]
NURSERY_CLASSES = ["not_recom", "recommend", "very_recom", "priority",
                   "spec_prior"]


def markov_tree(n_cols: int, n_rows: int, seed: int, domain_size: int,
                determinism: float, fd_fraction: float,
                independent_fraction: float, noise: float,
                sample_seed: Optional[int] = None) -> np.ndarray:
    """Codes of a relation sampled from a random Markov tree.

    Attribute ``j > 0`` hangs off a random earlier attribute; with
    probability ``fd_fraction`` it is a function of its parent, otherwise
    it copies a per-parent-value target with probability ``determinism``.
    ``seed`` draws the tree; the rows are drawn from the same generator,
    or from ``sample_seed`` when given, so one tree can yield many
    samples.
    """
    rng = np.random.default_rng(seed)
    rows = rng if sample_seed is None else np.random.default_rng(sample_seed)
    n_indep = int(round(independent_fraction * n_cols))
    n_tree = max(1, n_cols - n_indep)
    domains = rng.integers(2, max(3, domain_size + 1), size=n_cols)
    codes = np.empty((n_rows, n_cols), dtype=np.int64)
    codes[:, 0] = rows.integers(0, domains[0], size=n_rows)
    for j in range(1, n_tree):
        p = int(rng.integers(0, j))
        target = rng.integers(0, int(domains[j]), size=int(domains[p]))
        mapped = target[codes[:, p]]
        if rng.random() < fd_fraction:
            codes[:, j] = mapped
        else:
            keep = rows.random(n_rows) < determinism
            codes[:, j] = np.where(
                keep, mapped, rows.integers(0, int(domains[j]), size=n_rows))
    for j in range(n_tree, n_cols):
        codes[:, j] = rows.integers(0, domains[j], size=n_rows)
    if noise > 0:
        mask = rows.random(codes.shape) < noise
        cells = rows.integers(0, np.broadcast_to(domains, codes.shape),
                              size=codes.shape)
        codes = np.where(mask, cells, codes)
    return codes


def _nursery_class(c: Sequence[int]) -> int:
    parents, has_nurs, form, children, housing, finance, social, health = c
    if health == 2:
        return 0
    score = (2 * parents + 2 * has_nurs + form + (1 if children >= 2 else 0)
             + housing + finance + social + (0 if health == 0 else 2))
    if score <= 1:
        return 1
    if score <= 3:
        return 2
    if score <= 8:
        return 3
    return 4


def nursery_codes() -> np.ndarray:
    """The Nursery grid (12,960 x 8) plus its rule-based class column."""
    sizes = [len(dom) for _, dom in NURSERY_ATTRS]
    grid = np.indices(sizes).reshape(len(sizes), -1).T
    cls = np.array([_nursery_class(row) for row in grid.tolist()])
    return np.column_stack([grid, cls])


def nursery_labels() -> List[List[str]]:
    return [dom for _, dom in NURSERY_ATTRS] + [NURSERY_CLASSES]


def write_csv(path: Path, columns: Sequence[str],
              labels: Sequence[Sequence[str]], codes: np.ndarray) -> None:
    """Write ``codes`` as CSV, cell ``(i, j)`` spelled ``labels[j][codes[i, j]]``."""
    cells = [np.asarray(labels[j], dtype=object)[codes[:, j]].tolist()
             for j in range(len(columns))]
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(columns) + "\n")
        f.writelines(",".join(row) + "\n" for row in zip(*cells))


def _relabel(codes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Permute rows and, per column, the value codes."""
    out = codes[rng.permutation(codes.shape[0])]
    for j in range(out.shape[1]):
        out[:, j] = rng.permutation(int(out[:, j].max()) + 1)[out[:, j]]
    return out


def _build_catalog(seed: int, out: Path) -> List[dict]:
    tables = []
    columns = [f"A{j}" for j in range(CATALOG_COLS)]
    for g in range(CATALOG_TABLES):
        base = markov_tree(CATALOG_COLS, CATALOG_ROWS, seed=g, **DENSE_PROFILE)
        codes = _relabel(base, np.random.default_rng([seed, g]))
        labels = [[f"v{k}" for k in range(int(codes[:, j].max()) + 1)]
                  for j in range(CATALOG_COLS)]
        name = f"image-{g}"
        write_csv(out / f"{name}.csv", columns, labels, codes)
        np.save(out / f"{name}.npy", codes)
        tables.append({"name": name, "columns": columns, "labels": labels})
    return tables


def _build_synth(seed: int, out: Path) -> List[dict]:
    codes = markov_tree(SYNTH_COLS, SYNTH_ROWS, seed=SYNTH_TREE_SEED,
                        sample_seed=seed, **SYNTH_PROFILE)
    columns = [f"A{j}" for j in range(SYNTH_COLS)]
    labels = [[f"v{k}" for k in range(int(codes[:, j].max()) + 1)]
              for j in range(SYNTH_COLS)]
    write_csv(out / "synth.csv", columns, labels, codes)
    np.save(out / "synth.npy", codes)
    return [{"name": "synth", "columns": columns, "labels": labels}]


def _build_nursery(seed: int, out: Path) -> List[dict]:
    base = nursery_codes()
    codes = base[np.random.default_rng(seed).permutation(base.shape[0])]
    columns = [name for name, _ in NURSERY_ATTRS] + ["class"]
    write_csv(out / "nursery.csv", columns, nursery_labels(), codes)
    np.save(out / "nursery.npy", codes)
    return [{"name": "nursery", "columns": columns,
             "labels": nursery_labels()}]


BUILDERS = {"catalog": _build_catalog, "synth": _build_synth,
            "nursery": _build_nursery}


def prepare(kind: str, seed: int) -> Dict:
    """Generate (or reuse) the input files of ``kind`` for ``seed``.

    Returns ``{"dir": ..., "tables": [{"name", "columns", "labels"}, ...]}``;
    table ``name`` lives in ``<dir>/<name>.csv`` with codes in
    ``<name>.npy``, code ``k`` of column ``j`` spelled ``labels[j][k]``.
    """
    base = WORK / kind
    out = base / f"seed-{seed}"
    manifest = out / "tables.json"
    if not manifest.exists():
        if base.exists():
            shutil.rmtree(base)
        out.mkdir(parents=True)
        tables = BUILDERS[kind](seed, out)
        manifest.write_text(json.dumps(tables))
    return {"dir": str(out), "tables": json.loads(manifest.read_text())}


def load_codes(prepared: Dict, name: str) -> np.ndarray:
    return np.load(Path(prepared["dir"]) / f"{name}.npy")
