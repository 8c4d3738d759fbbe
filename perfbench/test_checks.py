"""Each benchmark check accepts the program's artefact and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
from measure import request  # noqa: E402

from repro.data.relation import Relation  # noqa: E402

COLUMNS = ["A", "B", "C", "D", "E"]
EPS = 0.05


@pytest.fixture(scope="module")
def codes():
    return inputs.markov_tree(5, 2_000, seed=3, domain_size=3,
                              determinism=0.9, fd_fraction=0.3,
                              independent_fraction=0.0, noise=0.0)


@pytest.fixture(scope="module")
def mined(codes):
    (payload,), _ = request({"task": "mine", "eps": EPS},
                            [Relation.from_codes(codes, COLUMNS)])
    return payload


@pytest.fixture(scope="module")
def ranked(codes):
    (payload,), _ = request({"task": "schemas", "eps": EPS, "top": 5},
                            [Relation.from_codes(codes, COLUMNS)])
    return payload


def test_entropy_of_uniform_grid():
    grid = np.indices((2, 4)).reshape(2, -1).T
    h = checks.Entropy(grid)
    assert h([0]) == pytest.approx(1.0)
    assert h([0, 1]) == pytest.approx(3.0)
    assert h([]) == 0.0


def test_program_artefacts_pass(codes, mined, ranked):
    h = checks.Entropy(codes)
    assert mined["mvds"]
    assert checks.check_mvds(mined["mvds"], COLUMNS, h, EPS, "t") == []
    assert checks.check_min_seps(mined, COLUMNS, h, EPS, "t") == []
    assert ranked["schemas"]
    assert checks.check_schemas(ranked, COLUMNS, codes, h, EPS, 5) == []


def test_wrong_j_is_rejected(codes, mined):
    h = checks.Entropy(codes)
    # The finest MVD with an empty key splits every pair of columns; the
    # tree's dependent columns make its J far above eps.
    bad = [{"key": [], "dependents": [[c] for c in COLUMNS]}]
    errors = checks.check_mvds(bad, COLUMNS, h, EPS, "t")
    assert len(errors) == 1 and "J =" in errors[0]


def test_dependent_missing_an_attribute_is_rejected(codes, mined):
    h = checks.Entropy(codes)
    bad = copy.deepcopy(mined["mvds"][:1])
    dropped = bad[0]["dependents"][0].pop()
    if not bad[0]["dependents"][0]:
        bad[0]["dependents"][0].append(bad[0]["dependents"][1].pop())
    errors = checks.check_mvds(bad, COLUMNS, h, EPS, "t")
    assert errors and dropped in errors[0]


def test_overlapping_dependents_are_rejected(codes):
    h = checks.Entropy(codes)
    bad = [{"key": ["A"], "dependents": [["B", "C"], ["C", "D", "E"]]}]
    assert "overlap" in checks.check_mvds(bad, COLUMNS, h, EPS, "t")[0]


def test_wrong_min_seps_are_rejected(codes, mined):
    h = checks.Entropy(codes)
    bad = copy.deepcopy(mined)
    entry = next(e for e in bad["min_seps"] if e["separators"])
    entry["separators"] = entry["separators"][1:]
    assert checks.check_min_seps(bad, COLUMNS, h, EPS, "t")


def test_gyo():
    a, b, c, d = (frozenset([i]) for i in range(4))
    assert checks.gyo_acyclic([a | b, b | c, c | d])
    assert checks.gyo_acyclic([a | b | c, a | b, b | c])
    assert not checks.gyo_acyclic([a | b, b | c, a | c])
    assert not checks.gyo_acyclic([a | b, b | c, c | d, a | d])


def test_cyclic_schema_is_rejected(codes, ranked):
    h = checks.Entropy(codes)
    bad = copy.deepcopy(ranked)
    bad["schemas"][0]["schema"]["bags"] = [["A", "B"], ["B", "C"], ["A", "C"],
                                          ["C", "D", "E"]]
    errors = checks.check_schemas(bad, COLUMNS, codes, h, EPS, 5)
    assert errors == ["schema #1: schema is cyclic"]


def test_schema_missing_an_attribute_is_rejected(codes, ranked):
    h = checks.Entropy(codes)
    bad = copy.deepcopy(ranked)
    bad["schemas"][0]["schema"]["bags"] = [["A", "B"], ["B", "C", "D"]]
    assert "bags miss ['E']" in checks.check_schemas(
        bad, COLUMNS, codes, h, EPS, 5)[0]


@pytest.mark.parametrize("field", ["spurious_pct", "savings_pct"])
def test_wrong_quality_number_is_rejected(codes, ranked, field):
    h = checks.Entropy(codes)
    bad = copy.deepcopy(ranked)
    bad["schemas"][0]["quality"][field] += 0.5
    errors = checks.check_schemas(bad, COLUMNS, codes, h, EPS, 5)
    assert len(errors) == 1 and "recomputed" in errors[0]


def test_wrong_schema_j_is_rejected(codes, ranked):
    h = checks.Entropy(codes)
    bad = copy.deepcopy(ranked)
    bad["schemas"][0]["j_measure"] += 1e-6
    assert "J =" in checks.check_schemas(bad, COLUMNS, codes, h, EPS, 5)[0]


def test_join_size_counts_spurious_rows():
    # R = {(0,0,0), (1,0,1)}: {AB, BC} joins to 4 rows, {AB, AC} to 2.
    codes = np.array([[0, 0, 0], [1, 0, 1]])
    ab, bc, ac = frozenset([0, 1]), frozenset([1, 2]), frozenset([0, 2])
    assert checks.join_size(codes, [ab, bc]) == 4
    assert checks.join_size(codes, [ab, ac]) == 2


def test_changed_schemas_are_rejected(ranked):
    golden = checks.canonical_schemas(ranked)
    assert len(golden) > 1
    assert checks.check_same_schemas(ranked, golden) == []
    bad = copy.deepcopy(ranked)
    bad["schemas"].reverse()
    assert checks.check_same_schemas(bad, golden)
    assert checks.check_same_schemas(ranked, golden[:-1])


def test_store_decode_is_checked(codes, tmp_path):
    from repro.backends import ingest_csv, open_store_relation

    labels = [[f"v{k}" for k in range(int(codes[:, j].max()) + 1)]
              for j in range(codes.shape[1])]
    csv = tmp_path / "t.csv"
    inputs.write_csv(csv, COLUMNS, labels, codes)
    ingest_csv(str(csv), str(tmp_path / "store"))
    relation = open_store_relation(str(tmp_path / "store"))
    assert checks.check_store(relation, codes, labels) == []
    wrong = codes.copy()
    wrong[7, 2] = (wrong[7, 2] + 1) % (int(codes[:, 2].max()) + 1)
    assert checks.check_store(relation, wrong, labels) == [
        "column 2: rows 0.. decode wrongly"]


def test_changed_artefacts_are_rejected(mined):
    assert checks.check_same_artefacts(mined, mined, "t") == []
    bad = copy.deepcopy(mined)
    bad["mvds"] = bad["mvds"][1:]
    assert checks.check_same_artefacts(bad, mined, "t") == [
        "t: mvds differ from the in-memory mine"]
