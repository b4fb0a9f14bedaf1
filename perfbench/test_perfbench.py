"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

Inputs are generated at reduced sizes through the same generator code the
workloads use, so the test stays fast.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "edit_crowd": lambda out, seed: workloads.make_edit_crowd(
        out, seed, frames=12, people=(3, 4), clip_frames=9),
    "edit_catalog": lambda out, seed: workloads.make_edit_catalog(
        out, seed, entries=40, dim=16, jobs_per_cycle=2),
    "sample_eval": lambda out, seed: workloads.make_sample_eval(
        out, seed, steps=3, grid=4, tokens=6, cases=6, ddim_steps=20),
}


def _generate(name, out, seed):
    jobs, _ = SMALL[name](str(out), seed)
    return jobs, gate.tree_digest(str(out))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_follow_the_seed(tmp_path, name):
    _, first = _generate(name, tmp_path / "a", 7)
    _, again = _generate(name, tmp_path / "b", 7)
    _, other = _generate(name, tmp_path / "c", 8)
    assert first == again
    assert first != other


def _flip_digit(path):
    """Change one digit in the middle of a file, keeping it valid JSON."""
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    i = next(k for k in range(len(data) // 2, len(data)) if chr(data[k]).isdigit())
    data[i] = ord("7") if data[i] != ord("7") else ord("3")
    with open(path, "wb") as fh:
        fh.write(bytes(data))


@pytest.mark.parametrize("name, kind, output", [
    ("edit_crowd", "edit", "edited.json"),
    ("edit_catalog", "edit", "edited_01.json"),
    ("sample_eval", "blend", "blended.json"),
    ("sample_eval", "metrics", "report.json"),
    ("sample_eval", "ddim", "round_trip.json"),
])
def test_gate_fails_a_flipped_byte(tmp_path, name, kind, output):
    jobs, _ = _generate(name, tmp_path / "inputs", 3)
    job = next(j for j in jobs if j["kind"] == kind)
    runner = run.Runner(str(tmp_path))
    out = runner.fresh_dir()
    code, _, _ = runner.job(job, out)
    assert code == 0, runner.last_stderr()
    problems, _ = gate.check_job(job, out)
    assert problems == []
    job["digest"] = gate.tree_digest(out)
    assert run._timed_ok(job, code, out)

    _flip_digit(os.path.join(out, output))
    assert not run._timed_ok(job, code, out)
    problems, _ = gate.check_job(job, out)
    assert problems


def test_tail_percentile_keeps_ten_samples_above():
    assert run.tail_percentile(range(1, 41)) == (75, 30)
    assert run.tail_percentile(range(1, 101)) == (90, 90)
    assert run.tail_percentile(range(1, 1001)) == (99, 990)
    assert run.tail_percentile(range(1, 21)) == (50, 10)
    assert run.tail_percentile(range(1, 20)) is None
    # 41 samples: p75 would leave 10 above rank 31; p76 leaves only 9
    assert run.tail_percentile(range(1, 42)) == (75, 31)


def test_cycle_means_average_each_window_of_one_cycle():
    # round-robin over jobs of 1, 2 and 6 s: every window of three holds each once
    assert run.cycle_means([1, 2, 6, 1, 2, 6, 1], 3) == [3.0] * 5
    assert run.cycle_means([1, 3, 5], 2) == [2.0, 4.0]


def test_missing_wrap_target_fails_loudly(monkeypatch):
    import tracing

    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import posedit.pipeline as pipeline

    monkeypatch.delattr(pipeline, "serialize_pose_video")
    with pytest.raises(RuntimeError, match="posedit.pipeline.serialize_pose_video"):
        tracing.install(tracing.Tracer(), {})
