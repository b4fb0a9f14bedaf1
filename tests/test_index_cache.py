"""The compiled-database cache behind ``--db``: a manifest parsed once is
loaded from ``$XDG_CACHE_HOME/posedit/db`` on later runs, and no state of
that cache (cold, warm, damaged, unwritable) changes an output byte, an
error or an exit code."""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from posedit import pipeline
from posedit.cli import main
from posedit.pipeline import load_index, save_index
from numpy.lib import format as npy_format
from posedit.retrieval import (
    PoseDatabase,
    _digest,
    build_index,
    decode_index,
    encode_index,
    parse_db_manifest,
    sha256_hex,
)
from conftest import fixture_path
from test_acceptance import cli_fixture_commands

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cache_db(home) -> str:
    return os.path.join(str(home), "posedit", "db")


def run(argv, out_dir, home):
    """Run the CLI with ``home`` as XDG_CACHE_HOME; return the exit code,
    stdout, stderr, the {name: bytes} output tree and how many times the
    manifest was parsed."""
    parse = mock.Mock(wraps=pipeline.parse_db_manifest)
    with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(home)}), \
            mock.patch.object(pipeline, "parse_db_manifest", parse), \
            redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(argv + ["--out-dir", str(out_dir)])
    tree = None
    if os.path.isdir(out_dir):
        tree = {}
        for name in sorted(os.listdir(out_dir)):
            with open(os.path.join(out_dir, name), "rb") as fh:
                tree[name] = fh.read()
    return (code, out.getvalue(), err.getvalue(), tree), parse.call_count


def only_entry(home) -> str:
    """The path stem of the one entry in the cache under ``home``."""
    names = sorted(os.listdir(cache_db(home)))
    assert len(names) == 2 and names[0].endswith(".json") and names[1].endswith(".npy"), names
    return os.path.join(cache_db(home), names[0][: -len(".json")])


def truncate_matrix(stem, offset):
    with open(stem + ".npy", "rb") as fh:
        data = fh.read()
    with open(stem + ".npy", "wb") as fh:
        fh.write(data[: offset % len(data)])


def flip_matrix_byte(stem, offset):
    with open(stem + ".npy", "rb") as fh:
        data = bytearray(fh.read())
    with open(stem + ".json", "rb") as fh:
        doc = json.load(fh)
    values = len(doc["ids"]) * doc["dim"] * 8
    data[len(data) - values + offset % values] ^= 0x10
    with open(stem + ".npy", "wb") as fh:
        fh.write(bytes(data))


def rename_first_id(stem, offset):
    with open(stem + ".json", "rb") as fh:
        doc = json.load(fh)
    doc["ids"][0] = f"other-{offset}"
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump(doc, fh)


DAMAGE = (truncate_matrix, flip_matrix_byte, rename_first_id)


def assert_same_in_every_cache_state(argv, tmp, offset=0):
    """Run ``argv`` with a cold cache, then a warm one, then after each kind
    of damage, then with a regular file as the cache home: every run must
    match the cold one."""
    home = os.path.join(tmp, "home")
    cold, parses = run(argv, os.path.join(tmp, "cold"), home)
    assert cold[0] == 0, cold[2]
    assert parses == 1
    stem = only_entry(home)
    warm, parses = run(argv, os.path.join(tmp, "warm"), home)
    assert warm == cold
    assert parses == 0, "a warm cache must not parse the manifest"
    for damage in DAMAGE:
        damage(stem, offset)
        assert load_index(*os.path.split(stem)) is None, damage.__name__
        again, parses = run(argv, os.path.join(tmp, damage.__name__), home)
        assert again == cold, damage.__name__
        assert parses == 1, damage.__name__
        assert load_index(*os.path.split(stem)) is not None, f"{damage.__name__}: not rebuilt"
    blocker = os.path.join(tmp, "not-a-directory")
    with open(blocker, "w", encoding="utf-8") as fh:
        fh.write("x")
    blocked, parses = run(argv, os.path.join(tmp, "blocked"), blocker)
    assert blocked == cold
    assert parses == 1
    with open(blocker, "r", encoding="utf-8") as fh:
        assert fh.read() == "x"


# ints times a scale: rows with norms far from 1 at both ends, and repeated
# rows whose scores tie exactly
SCALES = (1.0, 2.0**-401, 2.0**398)


@st.composite
def manifests(draw):
    dim = draw(st.integers(min_value=1, max_value=8))
    row = st.tuples(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=dim, max_size=dim)
        .filter(any),
        st.sampled_from(SCALES),
    )
    pool = draw(st.lists(row, min_size=1, max_size=3))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    entries = [
        {
            "entry_id": f"e{i}",
            "label": f"label {i}",
            "embedding": [k * scale for k in ints],
            "pose_video_path": f"clips/c{i}.json",
        }
        for i, (ints, scale) in enumerate(rows)
    ]
    ints, scale = draw(row)
    query = {"dim": dim, "values": [k * scale for k in ints]}
    top_k = draw(st.integers(min_value=1, max_value=len(rows) + 1))
    offset = draw(st.integers(min_value=0, max_value=2**16))
    return entries, query, top_k, offset


@given(manifests())
def test_retrieve_writes_the_same_tree_in_every_cache_state(case):
    entries, query, top_k, offset = case
    with tempfile.TemporaryDirectory() as tmp:
        db = os.path.join(tmp, "manifest.json")
        q = os.path.join(tmp, "query.json")
        with open(db, "w", encoding="utf-8") as fh:
            json.dump(entries, fh)
        with open(q, "w", encoding="utf-8") as fh:
            json.dump(query, fh)
        argv = ["retrieve", "--db", db, "--query-embedding", q, "--top-k", str(top_k)]
        assert_same_in_every_cache_state(argv, tmp, offset)


def test_edit_writes_the_same_tree_in_every_cache_state(tmp_path):
    base = fixture_path("e2e_duo_wave")
    argv = ["edit", "--config", os.path.join(base, "config.json"), "--top-k", "2"]
    assert_same_in_every_cache_state(argv, str(tmp_path), offset=12345)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda entries: entries[1].update(entry_id="e0"), "duplicate entry_id 'e0'"),
        (lambda entries: entries[1].update(embedding=[0.0, 0.0]), "is the zero vector"),
        (lambda entries: entries[1].update(embedding=[1e200, 1.0]),
         "has a squared norm that overflows"),
    ],
)
def test_a_refused_manifest_fails_alike_twice_and_caches_nothing(tmp_path, mutate, message):
    entries = [
        {"entry_id": f"e{i}", "label": "x", "embedding": [1.0, float(i)],
         "pose_video_path": "c.json"}
        for i in range(3)
    ]
    mutate(entries)
    db = tmp_path / "manifest.json"
    db.write_text(json.dumps(entries), encoding="utf-8")
    q = tmp_path / "query.json"
    q.write_text(json.dumps({"dim": 2, "values": [1.0, 0.5]}), encoding="utf-8")
    argv = ["retrieve", "--db", str(db), "--query-embedding", str(q)]
    home = tmp_path / "home"
    first, _ = run(argv, tmp_path / "first", home)
    second, _ = run(argv, tmp_path / "second", home)
    assert first == second
    code, out, err, tree = first
    assert (code, out, tree) == (3, "", None)
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not os.path.exists(cache_db(home)) or not os.listdir(cache_db(home))


def test_one_changed_value_byte_is_a_new_key_and_a_new_score(tmp_path):
    with open(fixture_path("retrieval", "db_manifest.json"), "rb") as fh:
        data = fh.read()
    db = tmp_path / "manifest.json"
    db.write_bytes(data)
    argv = ["retrieve", "--db", str(db),
            "--query-embedding", fixture_path("retrieval", "query.json"), "--top-k", "1"]
    home = tmp_path / "home"
    before, _ = run(argv, tmp_path / "before", home)
    top = json.loads(before[3]["retrieval.json"])["ranking"][0]
    # one digit of the top entry's first value (its "embedding" key precedes its id)
    start = data.rindex(b'"embedding"', 0, data.index(f'"{top["entry_id"]}"'.encode()))
    at = next(i for i in range(start, len(data)) if data[i : i + 1] in b"123456789")
    changed = data[:at] + (b"2" if data[at : at + 1] == b"1" else b"1") + data[at + 1 :]
    db.write_bytes(changed)
    after, parses = run(argv, tmp_path / "after", home)
    assert parses == 1
    keys = {name.split(".")[0] for name in os.listdir(cache_db(home))}
    assert keys == {sha256_hex(data), sha256_hex(changed)}
    moved = json.loads(after[3]["retrieval.json"])["ranking"][0]
    assert moved["entry_id"] == top["entry_id"] and moved["score"] != top["score"]


def test_a_loaded_database_equals_the_parsed_one(tmp_path):
    with open(fixture_path("retrieval", "db_manifest.json"), "r", encoding="utf-8") as fh:
        parsed = build_index(parse_db_manifest(fh.read()))
    save_index(parsed, str(tmp_path), "k")
    saved = io.BytesIO()
    np.save(saved, parsed.matrix, allow_pickle=False)
    assert (tmp_path / "k.npy").read_bytes() == saved.getvalue()  # np.load reads it too
    loaded = load_index(str(tmp_path), "k")
    assert (loaded.ids, loaded.labels, loaded.paths) == (parsed.ids, parsed.labels, parsed.paths)
    assert loaded.matrix.shape == parsed.matrix.shape
    assert loaded.matrix.tobytes() == parsed.matrix.tobytes()
    assert loaded.norms.tobytes() == parsed.norms.tobytes()
    assert not loaded.matrix.flags.writeable and not loaded.norms.flags.writeable
    assert load_index(str(tmp_path), "other-key") is None


def test_an_entry_in_the_old_row_major_layout_is_refused_and_rewritten(tmp_path):
    argv = ["retrieve", "--db", fixture_path("retrieval", "db_manifest.json"),
            "--query-embedding", fixture_path("retrieval", "query.json"), "--top-k", "3"]
    home = tmp_path / "home"
    cold, _ = run(argv, tmp_path / "cold", home)
    stem = only_entry(home)
    directory, key = os.path.split(stem)
    # the entry as it was stored before the matrix went column-major: the
    # same values in C order, with their hash and a valid digest
    with open(stem + ".npy", "rb") as fh:
        matrix = np.ascontiguousarray(np.load(fh))
    assert matrix.shape[0] > 1 and matrix.shape[1] > 1  # so the orders differ
    with open(stem + ".json", "rb") as fh:
        doc = json.load(fh)
    doc["matrix_sha256"] = sha256_hex(matrix)
    doc["sha256"] = _digest(key, doc)
    with open(stem + ".npy", "wb") as fh:
        np.save(fh, matrix, allow_pickle=False)
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump(doc, fh)
    assert load_index(directory, key) is None
    again, parses = run(argv, tmp_path / "again", home)
    assert again == cold
    assert parses == 1
    rewritten = load_index(directory, key)
    assert rewritten is not None and rewritten.matrix.flags.f_contiguous
    warm, parses = run(argv, tmp_path / "warm", home)
    assert (warm, parses) == (cold, 0)


def stored(matrix, ids=("a", "b"), labels=("x", "y")) -> PoseDatabase:
    """A database holding exactly what it is given, which build_index
    might refuse, in the column-major layout save_index stores."""
    paths = ("c.json",) * len(ids)
    return PoseDatabase(ids, labels, paths, matrix=np.asfortranarray(matrix), norms=None)


@pytest.mark.parametrize(
    "db",
    [
        stored([[1.0, float("nan")], [1.0, 2.0]]),
        stored([[1.0, 2.0], [0.0, 0.0]]),
        stored([[1.0, 2.0], [1e200, 1.0]]),
        stored([[1.0, 2.0], [1e-200, 0.0]]),
        stored([[1.0, 2.0], [3.0, 4.0]], ids=("a", "a")),
        stored([[1.0, 2.0], [3.0, 4.0]], labels=("x", "")),
        stored([[1.0, 2.0], [3.0, 4.0]], labels=("x", "wave \ud800")),
        stored(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)),
    ],
    ids=["nan", "zero-row", "overflowing-row", "underflowing-row", "duplicate-id",
         "empty-label", "unpaired-surrogate-label", "float32"],
)
def test_load_index_refuses_an_intact_entry_that_breaks_a_database_rule(tmp_path, db):
    save_index(db, str(tmp_path), "k")
    assert sorted(os.listdir(tmp_path)) == ["k.json", "k.npy"]
    assert load_index(str(tmp_path), "k") is None


def test_a_matrix_stored_under_a_format_2_header_is_a_miss():
    with open(fixture_path("retrieval", "db_manifest.json"), "r", encoding="utf-8") as fh:
        db = build_index(parse_db_manifest(fh.read()))
    npy, doc = encode_index(db, "k")
    assert decode_index("k", npy, doc) is not None
    stream = io.BytesIO(npy)
    npy_format.read_magic(stream)
    npy_format.read_array_header_1_0(stream)
    header = io.BytesIO()
    npy_format.write_array_header_2_0(header, npy_format.header_data_from_array_1_0(db.matrix))
    rewritten = header.getvalue() + npy[stream.tell():]
    # the same array to np.load, in a header format decode_index does not read
    assert np.load(io.BytesIO(rewritten)).tobytes() == np.load(io.BytesIO(npy)).tobytes()
    assert decode_index("k", rewritten, doc) is None


def test_the_cache_lives_under_home_when_xdg_cache_home_is_unset_or_relative(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("HOME", str(tmp_path / "user"))
    argv = ["retrieve", "--db", fixture_path("retrieval", "db_manifest.json"),
            "--query-embedding", fixture_path("retrieval", "query.json")]
    for value in (None, "", "relative/cache"):
        if value is None:
            monkeypatch.delenv("XDG_CACHE_HOME")
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", value)
        assert pipeline._cache_dir() == str(tmp_path / "user" / ".cache" / "posedit" / "db")
    monkeypatch.chdir(tmp_path)
    with redirect_stdout(io.StringIO()):
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    assert len(os.listdir(tmp_path / "user" / ".cache" / "posedit" / "db")) == 2
    assert not os.path.exists(tmp_path / "relative")


def test_the_determinism_gate_reruns_load_the_cache(tmp_path):
    """The cli-determinism gate runs every fixture command twice with one
    cache, so its byte comparison holds a parsed run against a cached one."""
    home = tmp_path / "home"
    seen = 0
    for name, argv in cli_fixture_commands():
        first, first_parses = run(argv, tmp_path / f"{name}-first", home)
        second, second_parses = run(argv, tmp_path / f"{name}-second", home)
        assert first[0] == 0 and second == first, name
        assert second_parses == 0, name
        seen += first_parses
    assert seen == 4  # retrieve and the three edit bundles, each parsed once


def test_importing_the_cli_leaves_hashlib_unloaded():
    """Importing hashlib costs about 5 ms; only reading a database needs it."""
    code = "import sys, posedit.cli; sys.exit('hashlib' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr or "posedit.cli imported hashlib"
