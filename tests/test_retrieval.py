import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import posedit.retrieval
from posedit import (
    DatabaseError,
    EmbeddingVector,
    GeometryError,
    ParseError,
    PoseDbEntry,
    ShapeError,
    build_index,
    cosine,
    parse_db_manifest,
    parse_embedding,
    query,
)
from conftest import read_fixture
from oracles import cosine_by_sums, ranking_by_sort


def vec(*values):
    return EmbeddingVector(values=tuple(float(v) for v in values))


def entry(i, values, label="x"):
    return PoseDbEntry(
        entry_id=f"e{i}", label=label, embedding=vec(*values), pose_video_path=f"{i}.json"
    )


def test_cosine_known_values():
    assert cosine(vec(1, 0), vec(0, 1)) == 0.0
    assert math.isclose(cosine(vec(1, 2, 3), vec(1, 2, 3)), 1.0, rel_tol=1e-15)
    assert math.isclose(cosine(vec(1, 0), vec(-1, 0)), -1.0, rel_tol=1e-15)


def test_cosine_rejects_bad_inputs():
    with pytest.raises(ShapeError):
        cosine(vec(1, 2), vec(1, 2, 3))
    with pytest.raises(GeometryError):
        cosine(vec(0, 0), vec(1, 2))


finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


@given(st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=20))
def test_cosine_matches_the_sum_oracle_bit_for_bit(rows):
    # drop magnitudes small enough to underflow when squared
    a = [r[0] if abs(r[0]) >= 1e-3 else 0.0 for r in rows]
    b = [r[1] if abs(r[1]) >= 1e-3 else 0.0 for r in rows]
    if all(v == 0.0 for v in a):
        a[0] = 1.0
    if all(v == 0.0 for v in b):
        b[-1] = -1.0
    assert cosine(vec(*a), vec(*b)) == cosine_by_sums(a, b)


def test_build_index_validations():
    with pytest.raises(DatabaseError, match="at least one"):
        build_index([])
    with pytest.raises(DatabaseError, match="dim"):
        build_index([entry(0, (1, 2)), entry(1, (1, 2, 3))])
    dup = [entry(0, (1, 2)), entry(0, (3, 4))]
    with pytest.raises(DatabaseError, match="duplicate"):
        build_index(dup)
    with pytest.raises(DatabaseError, match="zero"):
        build_index([entry(0, (0.0, 0.0))])


def test_query_ranks_by_descending_cosine():
    db = build_index(
        [entry(0, (1.0, 0.0)), entry(1, (0.0, 1.0)), entry(2, (1.0, 1.0))]
    )
    got = query(db, vec(1.0, 0.05), 3)
    assert [g[0] for g in got] == ["e0", "e2", "e1"]
    assert got[0][1] > got[1][1] > got[2][1]


def test_query_tie_break_keeps_insertion_order():
    # 2x and 4x scalings reproduce the same cosine bit-for-bit, so the
    # stable order among them is observable
    base = (3.0, 1.0, -2.0)
    scaled2 = tuple(2.0 * v for v in base)
    scaled4 = tuple(4.0 * v for v in base)
    db = build_index(
        [entry(0, (1.0, 5.0, 0.5)), entry(1, scaled2), entry(2, base), entry(3, scaled4)]
    )
    q = vec(2.5, -0.5, 1.0)
    scores = {eid: s for eid, s in query(db, q, 4)}
    assert scores["e1"] == scores["e2"] == scores["e3"]
    ranked = [eid for eid, _ in query(db, q, 4)]
    assert [eid for eid in ranked if eid in {"e1", "e2", "e3"}] == ["e1", "e2", "e3"]


def test_query_matches_brute_force_on_a_seeded_database():
    rng = np.random.default_rng(17)
    rows = [tuple(rng.uniform(-1, 1, 12)) for _ in range(40)]
    db = build_index([entry(i, row) for i, row in enumerate(rows)])
    q_values = tuple(rng.uniform(-1, 1, 12))
    got = query(db, vec(*q_values), 40)
    order, scores = ranking_by_sort(list(q_values), [list(r) for r in rows], 40)
    assert [g[0] for g in got] == [f"e{i}" for i in order]
    for eid, score in got:
        assert score == scores[int(eid[1:])]


def test_query_ranking_is_scale_invariant():
    rng = np.random.default_rng(18)
    rows = [tuple(rng.uniform(-1, 1, 6)) for _ in range(25)]
    db = build_index([entry(i, row) for i, row in enumerate(rows)])
    q_values = rng.uniform(-1, 1, 6)
    baseline = [eid for eid, _ in query(db, vec(*q_values), 25)]
    for factor in (0.125, 0.9, 3.7, 64.0):
        scaled = vec(*(factor * q_values))
        assert [eid for eid, _ in query(db, scaled, 25)] == baseline


def test_query_domain_errors():
    db = build_index([entry(0, (1.0, 2.0))])
    with pytest.raises(DatabaseError, match="dim"):
        query(db, vec(1.0), 1)
    with pytest.raises(DatabaseError, match="zero"):
        query(db, vec(0.0, 0.0), 1)
    with pytest.raises(DatabaseError, match="k must be"):
        query(db, vec(1.0, 1.0), 0)
    with pytest.raises(DatabaseError, match="k must be"):
        query(db, vec(1.0, 1.0), 2)


def test_cosine_refuses_a_norm_product_that_overflows():
    with pytest.raises(GeometryError, match="overflows"):
        cosine(vec(1e200, 1.0), vec(1.0, 1.0))
    with pytest.raises(GeometryError, match="overflows"):
        cosine(vec(1e100, 1.0), vec(1e300, 1.0))


@pytest.mark.parametrize(
    "values, message",
    [
        ((1e200, 1.0), "squared norm that overflows"),
        ((1e-200, 0.0), "squared norm that underflows to 0"),
        ((0.0, -0.0), "zero vector"),
    ],
)
def test_build_index_and_query_refuse_vectors_cosine_cannot_score(values, message):
    with pytest.raises(DatabaseError, match=f"entry 'e1' embedding .*{message}"):
        build_index([entry(0, (1.0, 2.0)), entry(1, values), entry(2, (3.0, 1.0))])
    db = build_index([entry(0, (1.0, 2.0))])
    with pytest.raises(DatabaseError, match=f"query embedding .*{message}"):
        query(db, vec(*values), 1)


def test_build_index_names_the_first_faulty_entry():
    with pytest.raises(DatabaseError, match="'e1' embedding is the zero vector"):
        build_index([entry(0, (1.0, 2.0)), entry(1, (0.0, 0.0)), entry(2, (1.0,))])
    with pytest.raises(DatabaseError, match="dim"):
        build_index([entry(0, (1.0, 2.0)), entry(1, (1.0,)), entry(2, (0.0, 0.0))])


def test_index_matrix_is_read_only_rows_in_entry_order():
    db = build_index([entry(0, (1.0, 2.0)), entry(1, (3.0, 4.0)), entry(2, (-1.0, 0.5))])
    assert db.matrix.dtype == np.float64
    assert db.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0], [-1.0, 0.5]]
    assert db.norms.shape == (3,)
    assert not db.matrix.flags.writeable and not db.norms.flags.writeable


# --- prefilter ------------------------------------------------------------------------
# query() rescores only the entries a matrix product cannot rule out; these
# check the result against scoring every entry with the scalar-sum oracle.


def assert_matches_oracle(rows, q_values, k):
    db = build_index([entry(i, row) for i, row in enumerate(rows)])
    got = query(db, vec(*q_values), k)
    order, scores = ranking_by_sort(q_values, rows, k)
    assert [eid for eid, _ in got] == [f"e{i}" for i in order]
    assert [s for _, s in got] == [scores[i] for i in order]


@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_query_matches_the_oracle_on_random_databases(n, dim, seed, data):
    rng = np.random.default_rng(seed)
    rows = rng.normal(0.0, 1.0, (n, dim)) * rng.uniform(0.1, 10.0, (n, 1))
    q_values = rng.normal(0.0, 1.0, dim)
    k = data.draw(st.integers(min_value=1, max_value=n))
    assert_matches_oracle(rows.tolist(), q_values.tolist(), k)


@given(
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=2, max_value=30),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_query_matches_the_oracle_when_scores_differ_only_in_rounding(n, dim, seed, data):
    # against a constant query every permutation of one vector has the same
    # real cosine, so the computed scores differ only in summation rounding
    rng = np.random.default_rng(seed)
    base = rng.normal(0.0, 1.0, dim) * 10.0 ** rng.integers(-3, 4, dim)
    rows = [rng.permutation(base).tolist() for _ in range(n)]
    c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    k = data.draw(st.integers(min_value=1, max_value=n))
    assert_matches_oracle(rows, [c] * dim, k)


@given(
    st.integers(min_value=1, max_value=30),
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_query_keeps_exact_tie_blocks_that_straddle_the_kth_place(n, dim, seed, data):
    # 2x and 4x scalings reproduce a score bit for bit; the copies go to random
    # places and k cuts the block of three
    rng = np.random.default_rng(seed)
    rows = rng.normal(0.0, 1.0, (n, dim)).tolist()
    q_values = rng.normal(0.0, 1.0, dim).tolist()
    base = rows[data.draw(st.integers(min_value=0, max_value=n - 1))]
    for factor in (2.0, 4.0):
        rows.insert(int(rng.integers(0, len(rows) + 1)), [factor * v for v in base])
    order, scores = ranking_by_sort(q_values, rows, len(rows))
    block = [at for at, i in enumerate(order) if scores[i] == scores[rows.index(base)]]
    assert len(block) >= 3
    k = block[0] + data.draw(st.integers(min_value=1, max_value=len(block) - 1))
    assert_matches_oracle(rows, q_values, k)


def count_cosine_calls(monkeypatch):
    calls = []
    exact = posedit.retrieval.cosine

    def counted(a, b):
        calls.append(1)
        return exact(a, b)

    monkeypatch.setattr(posedit.retrieval, "cosine", counted)
    return calls


def test_query_rescores_only_the_top_k_and_exact_ties(monkeypatch):
    rng = np.random.default_rng(2000)
    rows = rng.normal(0.0, 1.0, (2000, 64)).tolist()
    q_values = rng.normal(0.0, 1.0, 64).tolist()
    db = build_index([entry(i, row) for i, row in enumerate(rows)])
    order, scores = ranking_by_sort(q_values, rows, 3)
    ties = sum(1 for s in scores if s == scores[order[-1]]) - 1
    calls = count_cosine_calls(monkeypatch)
    got = query(db, vec(*q_values), 3)
    assert len(calls) <= 3 + ties
    assert [eid for eid, _ in got] == [f"e{i}" for i in order]


def test_query_scores_every_entry_outside_the_bounded_norm_range(monkeypatch):
    rng = np.random.default_rng(150)
    rows = rng.normal(0.0, 1.0, (30, 8)).tolist()
    for i in range(0, 30, 3):
        rows[i] = [1e150 * v for v in rows[i]]
    for i in range(1, 30, 3):
        rows[i] = [1e-150 * v for v in rows[i]]
    q_values = rng.normal(0.0, 1.0, 8).tolist()
    calls = count_cosine_calls(monkeypatch)
    assert_matches_oracle(rows, q_values, 4)
    assert len(calls) == 30
    calls.clear()
    assert_matches_oracle(rows[2::3], [1e150 * v for v in q_values], 2)
    assert len(calls) == 10


def test_embedding_vector_validations():
    with pytest.raises(ShapeError):
        EmbeddingVector(values=())
    with pytest.raises(ValueError):
        EmbeddingVector(values=(1.0, float("inf")))


# --- parsing -----------------------------------------------------------------------


def test_parse_embedding_round_trip():
    emb = parse_embedding('{"dim": 3, "values": [1.0, -2.5, 0.25]}')
    assert emb.values == (1.0, -2.5, 0.25)
    assert emb.dim == 3


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"dim": 2, "values": [1.0]}', "dim"),
        ('{"values": [1.0]}', "dim"),
        ('{"dim": 1, "values": [1.0], "extra": 2}', "unexpected"),
        ('{"dim": 1, "values": ["a"]}', "number"),
        ("[1, 2]", "object"),
        ("{", "invalid JSON"),
    ],
)
def test_parse_embedding_rejects_malformed(doc, message):
    with pytest.raises(ParseError, match=message):
        parse_embedding(doc)


def test_parse_db_manifest_fixture():
    entries = parse_db_manifest(read_fixture("retrieval", "db_manifest.json"))
    assert len(entries) == 10
    assert entries[0].entry_id == "entry_00"
    assert entries[2].label == "wave hands"
    assert entries[2].pose_video_path == "clips/entry_02.json"
    db = build_index(entries)
    assert db.dim == 8


def test_parse_db_manifest_requires_all_fields():
    doc = json.loads(read_fixture("retrieval", "db_manifest.json"))
    del doc[0]["label"]
    with pytest.raises(ParseError, match="label"):
        parse_db_manifest(json.dumps(doc))
