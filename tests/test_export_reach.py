"""Every function the package exports is reached by a command or named by
the acceptance gate.

The ``cli-determinism`` fixture sweep runs under ``sys.setprofile``, which
records each exported function entered.  An exported function that no
command calls and that ``tests/test_acceptance.py`` does not import is
surface nothing needs: delete it, or give it a caller."""

import ast
import inspect
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import posedit
from posedit.cli import main
from test_acceptance import cli_fixture_commands

ACCEPTANCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "test_acceptance.py")


def acceptance_imports():
    """The names ``tests/test_acceptance.py`` imports from the package."""
    with open(ACCEPTANCE, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "posedit"
        for alias in node.names
    }


def test_every_exported_function_is_reached(tmp_path):
    exported = {fn.__code__: name for name, fn in vars(posedit).items() if inspect.isfunction(fn)}
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in exported:
            called.add(exported[frame.f_code])

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for name, argv in cli_fixture_commands():
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                code = main(argv + ["--out-dir", str(tmp_path / name)])
            assert code == 0, f"{name} exited {code}: {err.getvalue()}"
    finally:
        sys.setprofile(previous)
    assert sorted(set(exported.values()) - called - acceptance_imports()) == []
