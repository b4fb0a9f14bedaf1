"""Files are read, decoded and written in one place, ``posedit.pipeline``:
every text input goes through the same bytes reader and the same decoding
rule (UTF-8, universal newlines), whatever command reads it and whatever
state the database cache is in."""

import ast
import glob
import io
import os
import shutil
from contextlib import redirect_stderr, redirect_stdout

import pytest

from posedit.cli import main
from conftest import fixture_path

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "posedit")

# module functions that open, create, rename or remove a file or directory
FILE_CALLS = {("io", "open"), *(("os", name) for name in (
    "replace", "remove", "makedirs", "rename", "unlink", "mkdir", "rmdir"))}


def file_calls(path):
    """The ``open(...)`` and ``FILE_CALLS`` calls in the module at ``path``,
    as ``(name, line)`` pairs."""
    with open(path, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            calls.append(("open", node.lineno))
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and (func.value.id, func.attr) in FILE_CALLS):
            calls.append((f"{func.value.id}.{func.attr}", node.lineno))
    return calls


def test_only_the_pipeline_touches_files():
    modules = sorted(glob.glob(os.path.join(PACKAGE, "*.py")))
    assert os.path.join(PACKAGE, "pipeline.py") in modules
    outside = {
        os.path.basename(path): calls
        for path in modules
        if os.path.basename(path) != "pipeline.py" and (calls := file_calls(path))
    }
    assert outside == {}
    names = [name for name, _ in file_calls(os.path.join(PACKAGE, "pipeline.py"))]
    # one reader and one writer open a file; one writer renames
    assert names.count("open") == 2 and names.count("os.replace") == 1


# --- one decoding rule, for every text input ------------------------------------------


def edit_argv(base):
    return ["edit", "--config", os.path.join(base, "config.json")]


def blend_argv(base):
    return ["blend-demo", "--config", os.path.join(base, "config_tokens01.json"),
            "--stack", os.path.join(base, "blend_sched_01.json"), "--blend-ratio", "0.62"]


def metrics_argv(base):
    return ["metrics", "--manifest", os.path.join(base, "manifest.json")]


# input -> (fixture directory, the command that reads it, the file in that directory)
INPUTS = {
    "source": ("e2e_duo_wave", edit_argv, "source.json"),
    "detections": ("e2e_duo_wave", edit_argv, "detections.json"),
    "answer": ("e2e_duo_wave", edit_argv, "answer.txt"),
    "query": ("e2e_duo_wave", edit_argv, "query.json"),
    "db manifest": ("e2e_duo_wave", edit_argv, os.path.join("db", "manifest.json")),
    "retrieved clip": ("e2e_duo_wave", edit_argv, os.path.join("db", "clips", "wave_01.json")),
    "config": ("e2e_duo_wave", edit_argv, "config.json"),
    "stack": ("blend", blend_argv, "blend_sched_01.json"),
    "metrics manifest": ("metrics", metrics_argv, "manifest.json"),
    "sidecar": ("metrics", metrics_argv, os.path.join("parts", "case00_edited.json")),
}


def run(argv, out_dir):
    """Exit code, stdout, stderr and the {name: bytes} tree under ``out_dir``
    (None when there is none) of one CLI run."""
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = main(argv + ["--out-dir", str(out_dir)])
    tree = None
    if os.path.isdir(out_dir):
        tree = {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}
    return code, out.getvalue(), err.getvalue(), tree


def cached(cache):
    """The files in the index cache, with their bytes."""
    root = cache / "posedit" / "db"
    if not root.is_dir():
        return {}
    return {name: (root / name).read_bytes() for name in sorted(os.listdir(root))}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_every_text_input_is_decoded_by_one_rule(tmp_path, isolated_cache, name):
    fixture, argv_of, target = INPUTS[name]
    base = tmp_path / "in"
    shutil.copytree(fixture_path(fixture), base)
    argv = argv_of(str(base))
    original = run(argv, tmp_path / "original")
    assert original[0] == 0, original[2]
    compiled = cached(isolated_cache)  # the entry of the unchanged --db manifest, if any
    path = base / target
    data = path.read_bytes()
    assert b"\n" in data and b"\r" not in data

    # CRLF line ends read as LF; a changed --db manifest is a new cache key,
    # so its first run parses it (cold) and its second loads the entry (warm)
    path.write_bytes(data.replace(b"\n", b"\r\n"))
    for state in ("cold", "warm"):
        assert run(argv, tmp_path / f"crlf-{state}") == original, state

    path.write_bytes(data[:1] + b"\xff" + data[1:])
    code, message = (2, f"cannot read config {path}: ") if name == "config" else (
        3, f"cannot read {path}: ")
    for state in ("warm", "cold"):
        if state == "cold":
            shutil.rmtree(isolated_cache, ignore_errors=True)
        before = cached(isolated_cache)
        got_code, out, err, tree = run(argv, tmp_path / "original")
        assert (got_code, out) == (code, ""), (state, err)
        assert err.startswith(f"error: {message}") and err.count("\n") == 1, (state, err)
        assert "codec can't decode byte 0xff" in err, (state, err)
        assert tree == original[3], state  # the out-dir is untouched
        # nothing is cached for the undecodable file: a later input failing
        # after the database was compiled leaves only that database's entry
        assert cached(isolated_cache).items() <= {**before, **compiled}.items(), state
