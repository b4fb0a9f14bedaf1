"""The benchmark tracer (``perfbench/tracing.py``) wraps posedit functions by
name and reads a few model attributes in its counters.  Run the fixture sweep
of the ``cli-determinism`` gate under its wraps, so a refactor that renames a
wrap target or an attribute a counter reads fails here, not only in a traced
benchmark run."""

import importlib.util
import io
import os
from contextlib import redirect_stderr, redirect_stdout

from posedit.cli import main
from test_acceptance import cli_fixture_commands

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")

# a count for each layer's work; each must be positive after the sweep
COUNTS = (
    "pose_model.keypoints_parsed",
    "procrustes.solve_calls",
    "editor.instances_replaced",
    "retrieval.values_parsed",
    "blending.cells_parsed",
    "ddim.steps",
    "metrics.cosine_evals",
)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_fixture_command_runs_under_the_tracer(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    originals = tracing.install(tracer, {})
    try:
        for name, argv in cli_fixture_commands():
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                code = main(argv + ["--out-dir", str(tmp_path / name)])
            assert code == 0, f"{name} exited {code}: {err.getvalue()}"
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)
    for key in COUNTS:
        assert tracer.counts.get(key, 0) > 0, key
