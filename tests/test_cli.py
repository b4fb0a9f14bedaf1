import argparse
import errno
import filecmp
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from posedit import PipelineConfig, pipeline
from posedit.cli import build_parser, main
from conftest import fixture_path, joints_reversed, read_fixture
from test_acceptance import cli_fixture_commands


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_out(out_dir, name):
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


# --- argument plumbing ------------------------------------------------------------


def test_parser_requires_a_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["transmogrify"])


def test_every_option_dest_is_a_config_field():
    # flags override the config field named by their dest; a misspelt dest
    # would be dropped without a trace
    config_fields = {f.name for f in fields(PipelineConfig)}
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for name, sub in commands.choices.items():
        dests = {a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)}
        assert dests - {"command", "config", "fixed", "moving"} <= config_fields, name


# --- align ------------------------------------------------------------------------


def test_align_prints_the_solved_transform(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "align",
        fixture_path("align", "fixed.json"),
        fixture_path("align", "moving.json"),
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    assert err == ""
    assert out.startswith("scale=")
    assert "theta=" in out and "t=(" in out
    assert sorted(os.listdir(tmp_path)) == [
        "aligned.json",
        "manifest.json",
        "transform.json",
    ]


def test_align_refuses_clips_whose_skeletons_differ(tmp_path, capsys):
    moving = tmp_path / "moving.json"
    moving.write_text(joints_reversed(read_fixture("align", "moving.json")), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "align", fixture_path("align", "fixed.json"), str(moving),
        "--out-dir", str(out_dir),
    )
    assert code == 3
    assert err.startswith("error: moving video skeleton [")
    assert "differs from the fixed skeleton" in err
    assert out == ""
    assert not os.path.exists(out_dir)


def test_align_malformed_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"width": 640', encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "align",
        str(bad),
        fixture_path("align", "moving.json"),
        "--out-dir",
        str(tmp_path / "out"),
    )
    assert code == 2
    assert err.startswith("error: ")


def test_align_degenerate_geometry_exits_3(tmp_path, capsys):
    doc = json.loads(read_fixture("align", "moving.json"))
    for kp in doc["frames"][0]["instances"][0]["keypoints"]:
        kp["x"], kp["y"] = 5.0, 5.0
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "align",
        fixture_path("align", "fixed.json"),
        str(flat),
        "--out-dir",
        str(tmp_path / "out"),
    )
    assert code == 3
    assert err.startswith("error: ")


def test_align_frameless_fixed_clip_exits_3(tmp_path, capsys):
    doc = json.loads(read_fixture("align", "fixed.json"))
    doc["frames"] = []
    fixed = tmp_path / "fixed.json"
    fixed.write_text(json.dumps(doc), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "align", str(fixed), fixture_path("align", "moving.json"),
        "--out-dir", str(out_dir),
    )
    assert (code, out, err) == (3, "", "error: fixed video has no frames\n")
    assert not out_dir.exists()


def with_bad_confidence(doc):
    """``doc``, a pose video, with keypoint 1 of the first frame's first
    instance at a confidence of 1.5."""
    doc["frames"][0]["instances"][0]["keypoints"][1]["confidence"] = 1.5
    return doc


BAD_CONFIDENCE = "frames[0].instances[0].keypoints[1].confidence: must be in [0, 1], got 1.5"


@pytest.mark.parametrize("bad", ["fixed", "moving"])
def test_align_parse_error_names_the_clip_it_is_in(tmp_path, capsys, bad):
    clips = {role: fixture_path("align", f"{role}.json") for role in ("fixed", "moving")}
    clips[bad] = str(tmp_path / f"{bad}.json")
    doc = with_bad_confidence(json.loads(read_fixture("align", f"{bad}.json")))
    (tmp_path / f"{bad}.json").write_text(json.dumps(doc), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "align", clips["fixed"], clips["moving"], "--out-dir", str(out_dir)
    )
    assert (code, out, err) == (2, "", f"error: {clips[bad]}: {BAD_CONFIDENCE}\n")
    assert not out_dir.exists()


@pytest.mark.filterwarnings("error")
def test_align_overflowing_clip_exits_3(tmp_path, capsys):
    def clip(*frames):
        return {"width": 10, "height": 10, "skeleton": ["a", "b", "c"], "frames": [
            {"frame_index": i, "instances": [{"instance_id": 0, "keypoints": [
                {"x": x, "y": y, "visible": True, "confidence": 1.0} for x, y in points
            ]}]}
            for i, points in enumerate(frames)
        ]}

    fixed, moving = tmp_path / "fixed.json", tmp_path / "moving.json"
    fixed.write_text(json.dumps(clip([(0, 0), (1e300, 0), (0, 1e300)])), encoding="utf-8")
    # scale 1e300 carries the second frame's 1e10 past the float range
    moving.write_text(
        json.dumps(clip([(0, 0), (1, 0), (0, 1)], [(1e10, 0), (1, 0), (0, 1)])),
        encoding="utf-8",
    )
    code, out, err = run_cli(
        capsys, "align", str(fixed), str(moving), "--out-dir", str(tmp_path / "out")
    )
    assert code == 3
    assert "overflow" in err


def test_align_overflowing_residual_exits_3(tmp_path, capsys):
    def clip(*points):
        return {"width": 10, "height": 10, "skeleton": ["a", "b", "c"], "frames": [
            {"frame_index": 0, "instances": [{"instance_id": 0, "keypoints": [
                {"x": x, "y": y, "visible": True, "confidence": 1.0} for x, y in points
            ]}]}
        ]}

    fixed, moving = tmp_path / "fixed.json", tmp_path / "moving.json"
    # the transform and the aligned clip are finite; squaring the misfit is not
    fixed.write_text(json.dumps(clip((1e200, 0), (0, 7e200), (2e200, 2e200))), encoding="utf-8")
    moving.write_text(json.dumps(clip((0, 0), (1, 0), (0, 1))), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "align", str(fixed), str(moving), "--out-dir", str(out_dir))
    assert code == 3
    assert err == "error: residual overflows the float range\n"
    assert not out_dir.exists()


def test_align_missing_out_dir_exits_3(capsys):
    code, out, err = run_cli(
        capsys,
        "align",
        fixture_path("align", "fixed.json"),
        fixture_path("align", "moving.json"),
    )
    assert code == 3
    assert "supply --out-dir" in err


# --- retrieve ---------------------------------------------------------------------


def test_retrieve_prints_ranked_entries(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "retrieve",
        "--db",
        fixture_path("retrieval", "db_manifest.json"),
        "--query-embedding",
        fixture_path("retrieval", "query.json"),
        "--top-k",
        "2",
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("1. entry_02 (wave hands): ")
    assert lines[1].startswith("2. ")
    doc = load_out(tmp_path, "retrieval.json")
    assert [r["rank"] for r in doc["ranking"]] == [1, 2]


def test_retrieve_without_db_exits_3(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "retrieve",
        "--query-embedding",
        fixture_path("retrieval", "query.json"),
        "--out-dir",
        str(tmp_path),
    )
    assert code == 3
    assert "supply --db" in err


def test_retrieve_out_of_range_query_exits_2(tmp_path, capsys):
    query = tmp_path / "query.json"
    query.write_text('{"dim": 1, "values": [%s]}' % ("1" * 400), encoding="utf-8")
    code, out, err = run_cli(
        capsys,
        "retrieve",
        "--db",
        fixture_path("retrieval", "db_manifest.json"),
        "--query-embedding",
        str(query),
        "--out-dir",
        str(tmp_path / "out"),
    )
    assert code == 2
    assert "values[0]: number must be finite" in err


def db_entry(entry_id, values):
    return {
        "entry_id": entry_id,
        "label": entry_id,
        "embedding": values,
        "pose_video_path": f"{entry_id}.json",
    }


def written_text(out_dir):
    text = ""
    for name in os.listdir(out_dir) if os.path.isdir(out_dir) else ():
        with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
            text += fh.read()
    return text


@pytest.mark.parametrize(
    "db, q, message",
    [
        ([[1e200, 1.0], [1.0, 2.0]], [1.0, 1.0], "entry 'a' embedding has a squared norm"),
        ([[1.0, 2.0], [1e200, 1e200]], [1e200, 1.0], "entry 'b' embedding has a squared norm"),
        ([[1.0, 2.0], [2.0, 1.0]], [1e200, 1.0], "query embedding has a squared norm"),
    ],
)
def test_retrieve_overflowing_norm_exits_3(tmp_path, capsys, db, q, message):
    manifest = tmp_path / "db.json"
    manifest.write_text(
        json.dumps([db_entry("a", db[0]), db_entry("b", db[1])]), encoding="utf-8"
    )
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"dim": 2, "values": q}), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys,
        "retrieve",
        "--db",
        str(manifest),
        "--query-embedding",
        str(query),
        "--top-k",
        "2",
        "--out-dir",
        str(out_dir),
    )
    assert code == 3
    assert message in err
    assert "NaN" not in written_text(out_dir)


# --- edit -------------------------------------------------------------------------


def edit_flags(bundle, out_dir):
    base = fixture_path(bundle)
    return [
        "edit",
        "--source", os.path.join(base, "source.json"),
        "--detections", os.path.join(base, "detections.json"),
        "--answer", os.path.join(base, "answer.txt"),
        "--db", os.path.join(base, "db", "manifest.json"),
        "--query-embedding", os.path.join(base, "query.json"),
        "--out-dir", str(out_dir),
    ]


def test_edit_reproduces_golden_via_flags(tmp_path, capsys):
    code, out, err = run_cli(capsys, *edit_flags("e2e_girl_dance", tmp_path))
    assert code == 0
    assert out.startswith("retrieved 'dance_01' ")
    assert "matched 1 instance(s)" in out
    with open(tmp_path / "edited.json", encoding="utf-8") as fh:
        assert fh.read() == read_fixture("e2e_girl_dance", "golden", "edited.json")


def test_edit_resolves_config_paths_relative_to_the_config_file(tmp_path, capsys):
    # the bundle config names its inputs by bare relative paths
    code, out, err = run_cli(
        capsys,
        "edit",
        "--config",
        fixture_path("e2e_boy_sit", "config.json"),
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    with open(tmp_path / "edited.json", encoding="utf-8") as fh:
        assert fh.read() == read_fixture("e2e_boy_sit", "golden", "edited.json")


def test_edit_flag_overrides_beat_config_values(tmp_path, capsys):
    cfg = dict(json.loads(read_fixture("e2e_girl_dance", "config.json")))
    base = fixture_path("e2e_girl_dance")
    cfg = {k: os.path.join(base, v) for k, v in cfg.items()}
    cfg["frame_count"] = 24
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")

    long_dir, short_dir = tmp_path / "long", tmp_path / "short"
    assert run_cli(capsys, "edit", "--config", str(cfg_path), "--out-dir", str(long_dir))[0] == 0
    assert load_out(long_dir, "report.json")["frame_count"] == 24

    code, out, err = run_cli(
        capsys,
        "edit",
        "--config", str(cfg_path),
        "--frames", "12",
        "--out-dir", str(short_dir),
    )
    assert code == 0
    assert load_out(short_dir, "report.json")["frame_count"] == 12


def test_edit_missing_source_exits_3(tmp_path, capsys):
    argv = edit_flags("e2e_girl_dance", tmp_path)
    i = argv.index("--source")
    del argv[i : i + 2]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert "supply --source" in err


@pytest.mark.parametrize(
    "flag, change, message",
    [
        ("--source", {"frames": []}, "source video has no frames"),
        ("--detections", {"frame_index": 7},
         "detections are for frame_index 7, but the source starts at frame_index 0"),
    ],
    ids=["frameless-source", "detections-for-another-frame"],
)
def test_edit_refuses_a_bad_source_before_the_database_and_the_embedder(
    tmp_path, capsys, isolated_cache, flag, change, message
):
    name = f"{flag[2:]}.json"
    doc = json.loads(read_fixture("e2e_girl_dance", name))
    doc.update(change)
    (tmp_path / name).write_text(json.dumps(doc), encoding="utf-8")
    argv = edit_flags("e2e_girl_dance", tmp_path / "out")
    argv[argv.index(flag) + 1] = str(tmp_path / name)
    # the embedder would leave a marker and print the bundle's query embedding
    marker = tmp_path / "embedder-ran"
    program = (
        f"import pathlib, sys; pathlib.Path({str(marker)!r}).touch(); "
        f"sys.stdout.write(open({fixture_path('e2e_girl_dance', 'query.json')!r}).read())"
    )
    code, out, err = edit_with_embedder(tmp_path, capsys, program, argv)
    assert (code, out, err) == (3, "", f"error: {message}\n")
    assert not marker.exists()
    assert not isolated_cache.exists()  # no database was compiled and stored
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("bad", ["source.json", os.path.join("db", "clips", "dance_01.json")])
def test_edit_parse_error_names_the_pose_video_it_is_in(tmp_path, capsys, bad):
    bundle = copy_bundle(tmp_path, "e2e_girl_dance")
    doc = with_bad_confidence(json.loads((bundle / bad).read_text(encoding="utf-8")))
    (bundle / bad).write_text(json.dumps(doc), encoding="utf-8")
    argv = edit_flags("e2e_girl_dance", tmp_path / "out")
    for flag, name in (("--source", "source.json"), ("--db", os.path.join("db", "manifest.json"))):
        argv[argv.index(flag) + 1] = str(bundle / name)
    code, out, err = run_cli(capsys, *argv)
    # a retrieved clip is named as the manifest's directory joined with its path
    assert (code, out, err) == (2, "", f"error: {bundle / bad}: {BAD_CONFIDENCE}\n")
    assert not os.path.exists(tmp_path / "out")


def test_edit_bad_iou_threshold_exits_2(tmp_path, capsys):
    argv = edit_flags("e2e_girl_dance", tmp_path) + ["--iou-threshold", "0.0"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "invalid configuration" in err


def test_edit_unmatched_run_prints_the_note(tmp_path, capsys):
    argv = edit_flags("e2e_girl_dance", tmp_path) + ["--iou-threshold", "0.999"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert "no individuals matched" in out


def test_missing_config_file_exits_2(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "edit",
        "--config",
        str(tmp_path / "nowhere.json"),
        "--out-dir",
        str(tmp_path),
    )
    assert code == 2
    assert "cannot read config" in err


def test_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_bytes(b'{"seed": 1, "note": "\xff"}')
    code, out, err = run_cli(
        capsys, "ddim-demo", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")
    )
    assert code == 2
    assert err.startswith(f"error: cannot read config {cfg_path}: ")
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "out")


def copy_bundle(tmp_path, bundle):
    dest = tmp_path / bundle
    shutil.copytree(fixture_path(bundle), dest)
    return dest


def test_malformed_embedder_command_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"embedder_command": "cat 'unterminated"}), encoding="utf-8")
    argv = edit_flags("e2e_girl_dance", tmp_path / "out")
    i = argv.index("--query-embedding")
    del argv[i : i + 2]
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg_path))
    assert code == 2
    assert "invalid configuration: embedder_command: No closing quotation" in err
    assert not os.path.exists(tmp_path / "out")


def edit_with_embedder(tmp_path, capsys, program, argv=None):
    """``edit`` by ``argv`` (default: on the girl_dance bundle) with
    ``python -c program`` as its embedder instead of a query embedding."""
    embedder = [sys.executable, "-c", program]
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"embedder_command": shlex.join(embedder)}), encoding="utf-8")
    argv = argv or edit_flags("e2e_girl_dance", tmp_path / "out")
    i = argv.index("--query-embedding")
    del argv[i : i + 2]
    return run_cli(capsys, *argv, "--config", str(cfg_path))


def test_edit_embedder_output_that_is_not_utf8_exits_3(tmp_path, capsys):
    code, out, err = edit_with_embedder(
        tmp_path, capsys, "import sys; sys.stdout.buffer.write(b'\\xff\\xfe')"
    )
    assert code == 3
    assert err.startswith("error: embedder command output is not UTF-8: ")
    assert err.count("\n") == 1
    assert not os.path.exists(tmp_path / "out")


def test_edit_reports_a_raising_embedder_on_one_line(tmp_path, capsys):
    code, out, err = edit_with_embedder(tmp_path, capsys, "import json; json.loads('{')")
    assert code == 3
    assert err == (
        "error: embedder command exited with 1: json.decoder.JSONDecodeError: "
        "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n"
    )
    assert not os.path.exists(tmp_path / "out")


def test_edit_kills_an_embedder_that_outlives_its_timeout(tmp_path, capsys, monkeypatch):
    started = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(pipeline, "_EMBEDDER_TIMEOUT_S", 0.5)
    monkeypatch.setattr(subprocess, "Popen", Recorded)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "kept.txt").write_text("kept", encoding="utf-8")
    code, out, err = edit_with_embedder(tmp_path, capsys, "import time; time.sleep(60)")
    assert (code, out, err) == (3, "", "error: embedder command timed out\n")
    assert tree_bytes(out_dir) == {"kept.txt": b"kept"}
    (embedder,) = started
    assert embedder.returncode is not None  # killed and reaped
    with pytest.raises(ProcessLookupError):
        os.kill(embedder.pid, 0)


def test_edit_edits_a_clip_that_two_ranked_entries_share_once(tmp_path, capsys, monkeypatch):
    bundle = copy_bundle(tmp_path, "e2e_girl_dance")
    manifest = bundle / "db" / "manifest.json"
    entries = json.loads(manifest.read_text(encoding="utf-8"))
    query = json.loads(read_fixture("e2e_girl_dance", "query.json"))["values"]
    # a second spelling of the top entry's clip path, ranked first by its embedding
    entries.append({"entry_id": "dance_02", "label": "dance", "embedding": query,
                    "pose_video_path": "./clips/../clips/dance_01.json"})
    manifest.write_text(json.dumps(entries), encoding="utf-8")
    calls = []
    real = pipeline.alignment_transforms

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(pipeline, "alignment_transforms", counted)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "edit", "--config", str(bundle / "config.json"), "--top-k", "2",
        "--out-dir", str(out_dir),
    )
    assert code == 0, err
    first, second = load_out(out_dir, "report.json")["retrieved"]
    assert (first["entry_id"], second["entry_id"]) == ("dance_02", "dance_01")
    assert first["transforms"] == second["transforms"]
    assert filecmp.cmp(out_dir / "edited_01.json", out_dir / "edited_02.json", shallow=False)
    assert len(calls) == 1


def test_edit_leaves_a_bystander_without_visible_keypoints_unmatched(tmp_path, capsys):
    bundle = copy_bundle(tmp_path, "e2e_duo_wave")
    source = bundle / "source.json"
    doc = json.loads(source.read_text(encoding="utf-8"))
    for frame in doc["frames"]:
        hidden = [{**kp, "visible": False} for kp in frame["instances"][0]["keypoints"]]
        frame["instances"].append({"instance_id": 99, "keypoints": hidden})
    source.write_text(json.dumps(doc), encoding="utf-8")
    outs = {}
    for name, config in (("plain", fixture_path("e2e_duo_wave", "config.json")),
                         ("bystander", str(bundle / "config.json"))):
        outs[name] = tmp_path / name
        code, out, err = run_cli(capsys, "edit", "--config", config, "--out-dir", str(outs[name]))
        assert code == 0, err
    report = load_out(outs["bystander"], "report.json")
    assert report["assignment"]["unmatched_instances"] == [99]
    assert len(report["assignment"]["pairs"]) == 2
    plain = load_out(outs["plain"], "edited.json")["frames"]
    edited = load_out(outs["bystander"], "edited.json")["frames"]
    assert len(edited) == len(plain) == len(doc["frames"])
    for got, want, src in zip(edited, plain, doc["frames"]):
        assert got["instances"][:-1] == want["instances"]
        assert got["instances"][-1] == src["instances"][-1]  # passed through


def test_edit_skips_a_person_it_cannot_align_and_edits_the_others(tmp_path, capsys):
    # the retrieved clip's first frame shows joints 0-8 only; an added person
    # 99 shows joints 8-16 only, so it shares 1 joint with the clip, too few
    # to solve an alignment from
    outs = {}
    for name in ("without", "with"):
        bundle = tmp_path / name
        shutil.copytree(fixture_path("e2e_duo_wave"), bundle)
        clip = bundle / "db" / "clips" / "wave_01.json"
        doc = json.loads(clip.read_text(encoding="utf-8"))
        for kp in doc["frames"][0]["instances"][0]["keypoints"][9:]:
            kp["visible"] = False
        clip.write_text(json.dumps(doc), encoding="utf-8")
        if name == "with":
            source_doc = json.loads((bundle / "source.json").read_text(encoding="utf-8"))
            for frame in source_doc["frames"]:
                shifted = [
                    {**kp, "x": round(kp["x"] + 230.0, 6), "visible": j >= 8}
                    for j, kp in enumerate(frame["instances"][0]["keypoints"])
                ]
                frame["instances"].append({"instance_id": 99, "keypoints": shifted})
            (bundle / "source.json").write_text(json.dumps(source_doc), encoding="utf-8")
            shown = source_doc["frames"][0]["instances"][-1]["keypoints"][8:]
            dets = json.loads((bundle / "detections.json").read_text(encoding="utf-8"))
            dets["detections"].append(
                {
                    "phrase": "the man further right",
                    "box": [
                        min(kp["x"] for kp in shown),
                        min(kp["y"] for kp in shown),
                        max(kp["x"] for kp in shown),
                        max(kp["y"] for kp in shown),
                    ],
                    "score": 0.8,
                }
            )
            (bundle / "detections.json").write_text(json.dumps(dets), encoding="utf-8")
        outs[name] = tmp_path / f"{name}_out"
        code, out, err = run_cli(
            capsys, "edit", "--config", str(bundle / "config.json"), "--out-dir", str(outs[name])
        )
        assert code == 0, err
    report = load_out(outs["with"], "report.json")
    assert sorted(p["instance_id"] for p in report["assignment"]["pairs"]) == [0, 1, 99]
    entry = report["retrieved"][0]
    assert entry["unaligned"] == [
        {
            "instance_id": 99,
            "reason": "degenerate configuration: 1 usable correspondences, need at least 2",
        }
    ]
    plain = load_out(outs["without"], "report.json")["retrieved"][0]
    assert "unaligned" not in plain
    assert entry["transforms"] == plain["transforms"]
    want = load_out(outs["without"], "edited.json")["frames"]
    edited = load_out(outs["with"], "edited.json")["frames"]
    assert len(edited) == len(want) == len(source_doc["frames"])
    for got, want_frame, src in zip(edited, want, source_doc["frames"]):
        assert got["instances"][:-1] == want_frame["instances"]
        assert got["instances"][-1] == src["instances"][-1]  # passed through


def keypoints(*points):
    return [{"x": x, "y": y, "visible": True, "confidence": 1.0} for x, y in points]


def test_edit_skips_a_person_whose_aligned_clip_overflows_and_edits_the_others(
    tmp_path, capsys
):
    # person 1's alignment solves to a finite scale of about 1e250, which
    # carries the clip's frame-1 joint at x = 1e60 past the float range
    def video(frames):
        return {"width": 200, "height": 200, "skeleton": ["a", "b", "c"],
                "frames": [{"frame_index": i, "instances": instances}
                           for i, instances in enumerate(frames)]}

    people = [keypoints((10, 10), (20, 10), (10, 20)),
              keypoints((100, 100), (1e150, 100), (100, 1e150))]
    clip = [keypoints((0, 0), (1e-100, 0), (0, 1e-100))] + 2 * [
        keypoints((0, 0), (1e60, 0), (0, 1))]
    (tmp_path / "source.json").write_text(json.dumps(video(
        [[{"instance_id": i, "keypoints": kps} for i, kps in enumerate(people)]])))
    (tmp_path / "clip.json").write_text(json.dumps(video(
        [[{"instance_id": 0, "keypoints": kps}] for kps in clip])))
    (tmp_path / "db.json").write_text(json.dumps([{
        "entry_id": "e", "label": "wave", "embedding": [1.0, 0.0],
        "pose_video_path": "clip.json"}]))
    (tmp_path / "query.json").write_text(json.dumps({"dim": 2, "values": [1.0, 0.0]}))
    (tmp_path / "answer.txt").write_text("subject: the two\naction: wave\n")
    boxes = [[10, 10, 20, 20], [100, 100, 1e150, 1e150]]
    outs = {}
    for name, dets in (("both", boxes), ("first", boxes[:1])):
        (tmp_path / f"{name}.json").write_text(json.dumps({"frame_index": 0, "detections": [
            {"phrase": f"person {i}", "box": box, "score": 0.9} for i, box in enumerate(dets)]}))
        outs[name] = tmp_path / f"{name}_out"
        code, out, err = run_cli(
            capsys, "edit", "--source", str(tmp_path / "source.json"),
            "--detections", str(tmp_path / f"{name}.json"),
            "--answer", str(tmp_path / "answer.txt"), "--db", str(tmp_path / "db.json"),
            "--query-embedding", str(tmp_path / "query.json"), "--frames", "3",
            "--out-dir", str(outs[name]))
        assert code == 0, err
    entry = load_out(outs["both"], "report.json")["retrieved"][0]
    assert entry["unaligned"] == [
        {"instance_id": 1, "reason": "aligned keypoint coordinates overflow the float range"}
    ]
    assert list(entry["transforms"]) == ["0"]
    assert filecmp.cmp(outs["both"] / "edited.json", outs["first"] / "edited.json",
                       shallow=False)


def test_edit_refuses_a_clip_whose_skeleton_differs_from_the_source(tmp_path, capsys):
    bundle = copy_bundle(tmp_path, "e2e_girl_dance")
    clip = bundle / "db" / "clips" / "dance_01.json"
    doc = json.loads(clip.read_text(encoding="utf-8"))
    doc["skeleton"].reverse()  # the same joints and motion, listed in reverse order
    for frame in doc["frames"]:
        for instance in frame["instances"]:
            instance["keypoints"].reverse()
    clip.write_text(json.dumps(doc), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "edit", "--config", str(bundle / "config.json"), "--out-dir", str(out_dir)
    )
    assert code == 3
    assert "retrieved video skeleton" in err
    assert not os.path.exists(out_dir)


def test_edit_refuses_a_two_person_clip_whether_or_not_anyone_matched(tmp_path, capsys):
    bundle = copy_bundle(tmp_path, "e2e_girl_dance")
    clip = bundle / "db" / "clips" / "dance_01.json"
    doc = json.loads(clip.read_text(encoding="utf-8"))
    for frame in doc["frames"]:
        frame["instances"].append({**frame["instances"][0], "instance_id": 1})
    clip.write_text(json.dumps(doc), encoding="utf-8")
    nobody = tmp_path / "nobody.json"
    nobody.write_text(json.dumps({"frame_index": 0, "detections": []}), encoding="utf-8")
    for detections in (bundle / "detections.json", nobody):
        out_dir = tmp_path / f"out_{detections.stem}"
        code, out, err = run_cli(
            capsys, "edit", "--config", str(bundle / "config.json"),
            "--detections", str(detections), "--out-dir", str(out_dir),
        )
        assert (code, out) == (3, ""), detections
        assert err == (
            "error: retrieved video must have exactly 1 instance per frame; frame 0 has 2\n"
        )
        assert not out_dir.exists()


def test_unknown_config_field_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"frame_cont": 24}', encoding="utf-8")
    code, out, err = run_cli(
        capsys, "ddim-demo", "--config", str(cfg_path), "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert "unknown config field" in err


@pytest.mark.parametrize(
    "config, message",
    [
        ({"stack": ""}, "invalid configuration: stack: expected a non-empty string, got ''"),
        ({"db": 5}, "invalid configuration: db: expected a non-empty string, got 5"),
        ({"top_k": 2.5, "seed": "x"}, "invalid configuration: top_k: expected an integer >= 1"),
    ],
)
def test_bad_config_file_values_exit_2_like_bad_flags(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "ddim-demo", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")
    )
    assert code == 2
    assert err.startswith(f"error: {message}")
    assert not os.path.exists(tmp_path / "out")


DEMO_EDIT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "scripts", "demo_edit.py")


def test_demo_script_narrates_an_edit_and_names_only_files_it_wrote(tmp_path):
    out_dir = tmp_path / "demo"
    proc = subprocess.run(
        [sys.executable, DEMO_EDIT, fixture_path("e2e_duo_wave"), str(out_dir), "--top-k", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    head, _, named = proc.stdout.splitlines()[-1].partition(": ")
    assert head == f"wrote {out_dir}/"
    names = named.split(", ")
    assert names == ["edited_01.json", "edited_02.json", "report.json", "manifest.json"]
    assert all((out_dir / name).is_file() for name in names)


# --- blend-demo -------------------------------------------------------------------


def test_blend_demo_runs_the_schedule(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "blend-demo",
        "--config",
        fixture_path("blend", "config_tokens01.json"),
        "--stack",
        fixture_path("blend", "blend_sched_01.json"),
        "--blend-ratio",
        "0.62",
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    assert out.strip() == "blended 3 step(s)"
    doc = load_out(tmp_path, "blended.json")
    assert doc["tokens"] == [0, 1]
    assert doc["ratio"] == 0.62


def test_blend_demo_without_stack_exits_3(tmp_path, capsys):
    code, out, err = run_cli(capsys, "blend-demo", "--out-dir", str(tmp_path))
    assert code == 3
    assert "supply --stack" in err


def test_blend_demo_overflowing_token_sum_exits_3(tmp_path, capsys):
    def grid(*values):
        return {"h": 1, "w": 2, "values": list(values)}

    step = {
        "step": 1,
        "c_inv": [grid(1.7e308, 1.0), grid(1.7e308, 1.0)],
        "s_inv": grid(1.0, 2.0),
        "c_den": [grid(1.0, 1.0), grid(1.0, 1.0)],
        "s_den": grid(3.0, 4.0),
    }
    stack = tmp_path / "stack.json"
    stack.write_text(json.dumps({"steps": [step]}), encoding="utf-8")
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"tokens": [0, 1]}), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "blend-demo", "--config", str(cfg), "--stack", str(stack), "--out-dir", str(out_dir)
    )
    assert code == 3
    assert err == "error: summed token maps overflow the float range\n"
    assert not out_dir.exists()


def test_blend_demo_stack_with_a_changing_token_count_exits_2(tmp_path, capsys):
    def step(index, tokens):
        grid = {"h": 1, "w": 1, "values": [1.0]}
        return {"step": index, "c_inv": [grid] * tokens, "s_inv": grid,
                "c_den": [grid] * tokens, "s_den": grid}

    stack = tmp_path / "stack.json"
    stack.write_text(json.dumps({"steps": [step(2, 2), step(1, 3)]}), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "blend-demo", "--stack", str(stack), "--out-dir", str(out_dir)
    )
    assert (code, out) == (2, "")
    assert err == "error: steps: token count must be uniform across steps\n"
    assert not out_dir.exists()


# --- ddim-demo --------------------------------------------------------------------


def test_ddim_demo_reports_round_trip_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "ddim-demo", "--out-dir", str(tmp_path))
    assert code == 0
    assert out.startswith("round-trip max abs error: ")
    assert sorted(os.listdir(tmp_path)) == [
        "blend_log.json",
        "manifest.json",
        "round_trip.json",
        "schedule.json",
    ]
    assert load_out(tmp_path, "round_trip.json")["max_abs_error"] < 1e-6


@pytest.mark.parametrize(
    "config, message",
    [
        ({"seed": -1}, "seed: expected an integer >= 0, got -1"),
        (
            {"beta_start": 0.5, "beta_end": 0.99, "ddim_steps": 5000},
            "invalid configuration: alphas[",
        ),
        (
            {"latent_dim": 2**62},
            f"invalid configuration: latent_dim: expected an integer <= 4096, got {2**62}",
        ),
        (
            {"beta_start": 1e-17, "beta_end": 1e-17},
            "invalid configuration: alphas must be strictly decreasing",
        ),
    ],
)
def test_ddim_demo_bad_config_exits_2(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    code, out, err = run_cli(
        capsys, "ddim-demo", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")
    )
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "out")


def test_ddim_demo_overflowing_latent_exits_3(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(
        json.dumps({"latent_dim": 2048, "ddim_steps": 1000, "beta_start": 0.3, "beta_end": 0.5}),
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "ddim-demo", "--config", str(cfg_path), "--out-dir", str(out_dir)
    )
    assert code == 3
    assert err == "error: step 869 -> 870: latent values overflow the float range\n"
    assert not out_dir.exists()


# --- metrics ----------------------------------------------------------------------


def test_metrics_prints_aggregates(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "metrics",
        "--manifest",
        fixture_path("metrics", "manifest.json"),
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    assert out.startswith("vid_acc=")
    assert "vid_con=" in out and "gt_con=" in out
    report = load_out(tmp_path, "report.json")
    assert report["case_count"] == 20


def test_metrics_without_ground_truth_prints_two_aggregates(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "metrics",
        "--manifest",
        fixture_path("metrics", "manifest_no_gt.json"),
        "--out-dir",
        str(tmp_path),
    )
    assert code == 0
    assert "gt_con" not in out


@pytest.mark.parametrize("ref", ["parts/case00_edited.json", "parts/nul\u0000.json"])
def test_metrics_unreadable_sidecar_exits_3(tmp_path, capsys, ref):
    doc = json.loads(read_fixture("metrics", "manifest.json"))
    doc[0]["edited"] = {"path": ref}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")  # no sidecar files next to it
    code, out, err = run_cli(
        capsys, "metrics", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")
    )
    assert code == 3
    assert f"cannot read {tmp_path / ref}" in err


def test_metrics_sidecar_that_is_not_json_exits_2(tmp_path, capsys):
    doc = json.loads(read_fixture("metrics", "manifest.json"))
    doc[0]["edited"] = {"path": "parts/case00_edited.json"}
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "parts").mkdir()
    (tmp_path / "parts" / "case00_edited.json").write_text("{\"video_id\": ", encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "metrics", "--manifest", str(manifest), "--out-dir", str(out_dir)
    )
    assert (code, out) == (2, "")
    assert err.startswith(
        "error: $[0].edited.path: 'parts/case00_edited.json': invalid JSON: "
    )
    assert not out_dir.exists()


def test_metrics_overflowing_norm_exits_3(tmp_path, capsys):
    def emb(*values):
        return {"dim": len(values), "values": list(values)}

    def rec(video_id, values):
        return {
            "video_id": video_id,
            "video_embedding": emb(*values),
            "frame_embeddings": [emb(*values)],
        }

    case = {
        "case_id": "c",
        "edited": rec("edited", [1e200, 1.0]),
        "source": rec("source", [1.0, 1.0]),
        "target_prompt_embedding": emb(1e200, 1e200),
        "source_prompt_embedding": emb(1.0, 1.0),
    }
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([case]), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "metrics", "--manifest", str(manifest), "--out-dir", str(out_dir)
    )
    assert code == 3
    assert "overflows" in err
    assert "NaN" not in written_text(out_dir)


@pytest.mark.parametrize(
    "frame, fault",
    [([0.0, -0.0], "is the zero vector"),
     ([1e-200, 0.0], "has a squared norm that underflows to 0")],
    ids=["zero", "underflowing"],
)
def test_metrics_names_a_frame_embedding_cosine_cannot_score(tmp_path, capsys, frame, fault):
    case = {
        "case_id": "c",
        "edited": {"video_id": "edited", "video_embedding": embedding_node(1.0, 0.5),
                   "frame_embeddings": [embedding_node(*frame)]},
        "source": {"video_id": "source", "video_embedding": embedding_node(1.0, 1.0),
                   "frame_embeddings": [embedding_node(1.0, 1.0)]},
        "target_prompt_embedding": embedding_node(1.0, 0.5),
        "source_prompt_embedding": embedding_node(0.0, 1.0),
    }
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([case]), encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "report.json").write_text("an earlier run", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "metrics", "--manifest", str(manifest), "--out-dir", str(out_dir)
    )
    assert (code, out, err) == (3, "", f"error: cosine is undefined: an operand {fault}\n")
    assert tree_bytes(out_dir) == {"report.json": b"an earlier run"}


@pytest.mark.parametrize(
    "slot, message",
    [
        ("source", "source frame dim 4 does not match the edited clip's 3"),
        ("ground_truth", "ground-truth frame dim 4 does not match the edited clip's 3"),
        ("target_prompt_embedding", "target prompt dim 4 does not match the edited clip's 3"),
        ("source_prompt_embedding", "source prompt dim 4 does not match the edited clip's 3"),
    ],
)
def test_metrics_dim_mismatch_across_a_case_exits_2(tmp_path, capsys, slot, message):
    def emb(dim):
        return {"dim": dim, "values": [1.0] + [0.5] * (dim - 1)}

    def rec(video_id, dim):
        return {
            "video_id": video_id,
            "video_embedding": emb(dim),
            "frame_embeddings": [emb(dim)],
        }

    def case(case_id):
        return {
            "case_id": case_id,
            "edited": rec("edited", 3),
            "source": rec("source", 3),
            "ground_truth": rec("truth", 3),
            "target_prompt_embedding": emb(3),
            "source_prompt_embedding": emb(3),
        }

    bad = case("bad")
    bad[slot] = rec("other", 4) if slot in ("source", "ground_truth") else emb(4)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([case("ok"), bad]), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        capsys, "metrics", "--manifest", str(manifest), "--out-dir", str(out_dir)
    )
    assert code == 2
    assert err == f"error: $[1]: case 'bad': {message}\n"
    assert not out_dir.exists()


# --- publishing -------------------------------------------------------------------


def tree_bytes(root):
    return {name: (root / name).read_bytes() for name in sorted(os.listdir(root))}


@pytest.mark.parametrize("below", [None, "sub"])
def test_unwritable_out_dir_exits_3(tmp_path, capsys, below):
    blocker = tmp_path / "file"
    blocker.write_text("kept", encoding="utf-8")
    out_dir = blocker if below is None else blocker / below
    code, out, err = run_cli(capsys, "ddim-demo", "--out-dir", str(out_dir))
    assert code == 3
    assert err.startswith(f"error: cannot write {out_dir}")
    assert "Traceback" not in err
    assert blocker.read_text(encoding="utf-8") == "kept"


def test_failed_rerun_leaves_the_previous_tree_byte_identical(tmp_path, capsys):
    bundle = copy_bundle(tmp_path, "e2e_duo_wave")
    out_dir = tmp_path / "out"
    argv = ["edit", "--config", str(bundle / "config.json"), "--top-k", "3",
            "--out-dir", str(out_dir)]
    assert run_cli(capsys, *argv)[0] == 0
    first = tree_bytes(out_dir)
    assert sorted(first) == [
        "edited_01.json", "edited_02.json", "edited_03.json", "manifest.json", "report.json"
    ]
    rank2 = load_out(out_dir, "report.json")["retrieved"][1]["entry_id"]
    entries = json.loads((bundle / "db" / "manifest.json").read_text(encoding="utf-8"))
    (path,) = [e["pose_video_path"] for e in entries if e["entry_id"] == rank2]
    os.remove(bundle / "db" / path)

    code, out, err = run_cli(capsys, *argv, "--frames", "24")
    assert code == 3
    assert "cannot read" in err
    assert tree_bytes(out_dir) == first


def test_rerun_removes_the_outputs_the_previous_manifest_named(tmp_path, capsys):
    out_dir = tmp_path / "out"
    argv = [*edit_flags("e2e_duo_wave", out_dir), "--top-k"]
    assert run_cli(capsys, *argv, "3")[0] == 0
    assert "edited_03.json" in os.listdir(out_dir)
    (out_dir / "notes.txt").write_text("not an output", encoding="utf-8")
    assert run_cli(capsys, *argv, "1")[0] == 0
    assert sorted(os.listdir(out_dir)) == [
        "edited.json", "manifest.json", "notes.txt", "report.json"
    ]
    assert (out_dir / "edited.json").read_text(encoding="utf-8") == read_fixture(
        "e2e_duo_wave", "golden", "edited.json"
    )


def test_rerun_removes_only_plain_names_inside_the_out_dir(tmp_path, capsys):
    out_dir = tmp_path / "out"
    (out_dir / "sub").mkdir(parents=True)
    kept = [tmp_path / "outside.json", out_dir / "sub" / "inner.json", out_dir / "sub.json"]
    for path in kept:
        path.write_text("kept", encoding="utf-8")
    stale = out_dir / "old.json"
    stale.write_text("stale", encoding="utf-8")
    names = ["../outside.json", "sub/inner.json", str(kept[0]), "sub", "..", ".", "",
             "manifest.json", 7, "old.json"]
    (out_dir / "manifest.json").write_text(json.dumps({"files": names}), encoding="utf-8")
    assert run_cli(capsys, "ddim-demo", "--out-dir", str(out_dir))[0] == 0
    assert all(path.read_text(encoding="utf-8") == "kept" for path in kept)
    assert not stale.exists()
    assert load_out(out_dir, "manifest.json") == {
        "files": ["blend_log.json", "round_trip.json", "schedule.json"]
    }


@pytest.mark.parametrize("manifest", ["[1, 2", '{"files": "old.json"}', "[]", None])
def test_an_unreadable_previous_manifest_names_nothing(tmp_path, capsys, manifest):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "old.json").write_text("kept", encoding="utf-8")
    if manifest is None:
        (out_dir / "manifest.json").write_bytes(b'{"files": ["old.json"]}\xff')
    else:
        (out_dir / "manifest.json").write_text(manifest, encoding="utf-8")
    assert run_cli(capsys, "ddim-demo", "--out-dir", str(out_dir))[0] == 0
    assert (out_dir / "old.json").read_text(encoding="utf-8") == "kept"


def test_failed_write_leaves_no_manifest(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "out"
    assert run_cli(capsys, "ddim-demo", "--out-dir", str(out_dir))[0] == 0
    replace, calls = os.replace, []

    def second_write_fails(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", second_write_fails)
    code, out, err = run_cli(capsys, "ddim-demo", "--out-dir", str(out_dir))
    assert code == 3
    assert "cannot write" in err and "No space left on device" in err
    # no manifest vouches for the half-written tree, and no temp file is left
    assert sorted(os.listdir(out_dir)) == ["blend_log.json", "round_trip.json", "schedule.json"]


# --- determinism ------------------------------------------------------------------


def identical_trees(a, b):
    names_a, names_b = sorted(os.listdir(a)), sorted(os.listdir(b))
    if names_a != names_b:
        return False
    match, mismatch, errors = filecmp.cmpfiles(a, b, names_a, shallow=False)
    return not mismatch and not errors


def test_edit_reruns_are_byte_identical(tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli(capsys, *edit_flags("e2e_duo_wave", first))[0] == 0
    assert run_cli(capsys, *edit_flags("e2e_duo_wave", second))[0] == 0
    assert identical_trees(first, second)


POSE_VIDEO = re.compile(r"(aligned|edited(_\d+)?)\.json")


def test_every_json_report_is_one_canonical_line(tmp_path, capsys):
    """Pose videos have their own six-decimal form; every other JSON output
    is json's compact sorted-key text on one line."""
    reports = 0
    for name, argv in cli_fixture_commands():
        out_dir = tmp_path / name
        assert run_cli(capsys, *argv, "--out-dir", str(out_dir))[0] == 0, name
        for file in sorted(os.listdir(out_dir)):
            if file.endswith(".json") and not POSE_VIDEO.fullmatch(file):
                text = (out_dir / file).read_text(encoding="utf-8")
                canonical = json.dumps(json.loads(text), sort_keys=True,
                                       separators=(",", ":"), allow_nan=False) + "\n"
                assert text == canonical, f"{name}: {file}"
                reports += 1
    assert reports == 22  # a manifest for each of the 10 commands, plus 12 reports


# --- the BLAS kernel ----------------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_posedit_on_kernel(argv, kernel, cache):
    """``posedit *argv`` as a subprocess with its own index cache and
    ``OPENBLAS_CORETYPE`` unset (None) or set to ``kernel``; returns stdout."""
    env = {**os.environ, "XDG_CACHE_HOME": str(cache), "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel is not None:
        env["OPENBLAS_CORETYPE"] = kernel
    proc = subprocess.run([sys.executable, "-m", "posedit.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("command", ["align", "edit", "ddim-demo"])
def test_output_tree_does_not_depend_on_the_blas_kernel(tmp_path, command):
    """OpenBLAS built with ``DYNAMIC_ARCH`` (numpy's wheels are) picks its
    kernels for the CPU at load time; ``OPENBLAS_CORETYPE`` overrides that
    choice, and kernels for different CPUs sum in different orders.  The
    command runs once on the default kernel and once on ``Prescott`` (the
    oldest x86-64 kernel, so any x86-64 host can run it), and both runs must
    write the same bytes.  On a BLAS that ignores ``OPENBLAS_CORETYPE`` both
    runs use the same kernel, and this test passes without checking anything.
    """
    ddim_config = tmp_path / "ddim.json"
    ddim_config.write_text(json.dumps({"latent_dim": 8, "ddim_steps": 10}), encoding="utf-8")
    runs = []
    for kernel in (None, "Prescott"):
        tag = kernel or "default"
        out_dir = tmp_path / f"out-{tag}"
        argv = {
            "align": ["align", fixture_path("align", "fixed.json"),
                      fixture_path("align", "moving.json"), "--out-dir", str(out_dir)],
            "edit": edit_flags("e2e_duo_wave", out_dir),
            "ddim-demo": ["ddim-demo", "--config", str(ddim_config), "--out-dir", str(out_dir)],
        }[command]
        runs.append((out_dir, run_posedit_on_kernel(argv, kernel, tmp_path / f"cache-{tag}")))
    (default_dir, default_out), (prescott_dir, prescott_out) = runs
    assert prescott_out == default_out
    assert identical_trees(default_dir, prescott_dir)


# --- any string in any document field -------------------------------------------------
# Text fields reach stdout and report.txt as well as the JSON outputs, so a
# string that no encoding can write (an unpaired surrogate, which JSON's
# "\ud800" escape produces) must be refused while parsing, not while
# publishing or printing.

# half the strings well-formed, half drawn with surrogates among the characters
ANY_TEXT = st.one_of(
    st.text(max_size=6),
    st.text(st.one_of(st.characters(), st.characters(categories=["Cs"])), max_size=6),
)


def main_with_strict_streams(argv):
    """Run ``main`` with UTF-8 stdout and stderr that, like a real stream,
    refuse what they cannot encode; return the exit code and both texts."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2))
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    texts = []
    for stream in (out, err):
        stream.flush()
        texts.append(stream.buffer.getvalue().decode("utf-8"))
        stream.close()
    return code, *texts


def assert_clean_outcome(argv, out_dir):
    code, out, err = main_with_strict_streams([*argv, "--out-dir", out_dir])
    assert code in (0, 2), err
    assert "Traceback" not in err
    assert err.count("error:") <= 1 and (code == 0) == (err == "")
    if code != 0:
        assert not os.path.exists(out_dir)


def write_json(directory, name, doc) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)  # ensure_ascii: a surrogate is written as \ud800
    return path


@given(ANY_TEXT, ANY_TEXT)
def test_retrieve_refuses_or_writes_any_entry_id_and_label(entry_id, label):
    with tempfile.TemporaryDirectory() as tmp:
        db = write_json(tmp, "db.json", [{"entry_id": entry_id, "label": label,
                                          "embedding": [1.0, 2.0],
                                          "pose_video_path": "c.json"}])
        q = write_json(tmp, "q.json", {"dim": 2, "values": [0.5, 1.0]})
        argv = ["retrieve", "--db", db, "--query-embedding", q]
        assert_clean_outcome(argv, os.path.join(tmp, "out"))


def embedding_node(*values):
    return {"dim": len(values), "values": list(values)}


@given(ANY_TEXT, ANY_TEXT)
def test_metrics_refuses_or_writes_any_case_id_and_video_id(case_id, video_id):
    def record(vid):
        return {"video_id": vid, "video_embedding": embedding_node(1.0, 0.0),
                "frame_embeddings": [embedding_node(1.0, 2.0)]}

    case = {"case_id": case_id, "edited": record(video_id), "source": record("source"),
            "target_prompt_embedding": embedding_node(1.0, 0.5),
            "source_prompt_embedding": embedding_node(0.0, 1.0)}
    with tempfile.TemporaryDirectory() as tmp:
        manifest = write_json(tmp, "manifest.json", [case])
        assert_clean_outcome(["metrics", "--manifest", manifest], os.path.join(tmp, "out"))


@given(ANY_TEXT)
def test_edit_refuses_or_writes_any_detection_phrase(phrase):
    doc = json.loads(read_fixture("e2e_duo_wave", "detections.json"))
    doc["detections"][0]["phrase"] = phrase
    with tempfile.TemporaryDirectory() as tmp:
        argv = edit_flags("e2e_duo_wave", os.path.join(tmp, "out"))[:-2]
        argv[argv.index("--detections") + 1] = write_json(tmp, "detections.json", doc)
        assert_clean_outcome(argv, os.path.join(tmp, "out"))


@given(st.data())
def test_align_refuses_or_writes_any_skeleton_names_and_label(data):
    fixed = json.loads(read_fixture("align", "fixed.json"))
    moving = json.loads(read_fixture("align", "moving.json"))
    joints = len(fixed["skeleton"])
    names = data.draw(st.lists(st.text(max_size=6), min_size=joints, max_size=joints))
    names[data.draw(st.integers(min_value=0, max_value=joints - 1))] = data.draw(ANY_TEXT)
    fixed["skeleton"] = moving["skeleton"] = names
    moving["label"] = data.draw(ANY_TEXT)
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["align", write_json(tmp, "fixed.json", fixed),
                write_json(tmp, "moving.json", moving)]
        assert_clean_outcome(argv, os.path.join(tmp, "out"))


# --- coincident points ----------------------------------------------------------------
# Copies of one point carry no spread, but their float centroid need not be
# the point itself; centring on it would leave the copies a spread of
# rounding errors and solve a transform from it.

OFFSETS = st.floats(min_value=-20.0, max_value=20.0)
COINCIDENT = {
    "fixed": "optimal scale is not positive; the fixed points carry no usable spread",
    "moving": "scale undefined: all usable moving points coincide",
}


def first_keypoints(doc, person=0):
    return doc["frames"][0]["instances"][person]["keypoints"]


def pin(keypoints, point):
    for kp in keypoints:
        kp.update(x=point[0], y=point[1], visible=True)


def hide(keypoints):
    for kp in keypoints:
        kp["visible"] = False


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def spread_below_float(keypoints):
    """Show only the first two joints, at (0, 0) and (1e-300, 0): distinct
    points whose centred squared spread underflows to 0."""
    pin(keypoints[:1], (0.0, 0.0))
    pin(keypoints[1:2], (1e-300, 0.0))
    hide(keypoints[2:])


UNDERFLOWING = "scale undefined: the usable moving points' squared spread underflows to 0"


@given(st.sampled_from(sorted(COINCIDENT)), st.integers(min_value=2, max_value=17),
       OFFSETS, OFFSETS)
def test_align_refuses_coincident_points_on_either_side(side, copies, dx, dy):
    doc = json.loads(read_fixture("align", f"{side}.json"))
    keypoints = first_keypoints(doc)
    pin(keypoints[:copies], (keypoints[0]["x"] + dx, keypoints[0]["y"] + dy))
    hide(keypoints[copies:])
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: fixture_path("align", f"{name}.json") for name in COINCIDENT}
        paths[side] = write_json(tmp, f"{side}.json", doc)
        out_dir = os.path.join(tmp, "out")
        code, out, err = main_with_strict_streams(
            ["align", paths["fixed"], paths["moving"], "--out-dir", out_dir]
        )
        assert (code, out, err) == (3, "", f"error: {COINCIDENT[side]}\n")
        assert not os.path.exists(out_dir)


@given(st.sampled_from(sorted(COINCIDENT)), st.integers(min_value=2, max_value=8),
       OFFSETS, OFFSETS)
def test_edit_lists_a_person_with_coincident_points_as_unaligned(side, copies, dx, dy):
    """The retrieved clip's first frame shows its first ``copies`` joints.
    ``moving``: all at one point, so no person can be aligned to it.
    ``fixed``: where they are, and an added person 99 shows those joints at
    one point, so only person 99 cannot be aligned and passes through."""
    with tempfile.TemporaryDirectory() as tmp:
        bundle = os.path.join(tmp, "bundle")
        shutil.copytree(fixture_path("e2e_duo_wave"), bundle)
        clips = os.path.join(bundle, "db", "clips")
        clip = read_json(os.path.join(clips, "wave_01.json"))
        hide(first_keypoints(clip)[copies:])
        if side == "moving":
            keypoints = first_keypoints(clip)
            pin(keypoints[:copies], (keypoints[0]["x"] + dx, keypoints[0]["y"] + dy))
            unaligned = [0, 1]
        else:
            source = read_json(os.path.join(bundle, "source.json"))
            for frame in source["frames"]:
                person = frame["instances"][0]["keypoints"]
                shifted = [{**kp, "x": kp["x"] + 230.0} for kp in person]
                frame["instances"].append({"instance_id": 99, "keypoints": shifted})
            keypoints = first_keypoints(source, person=-1)
            pin(keypoints[:copies], (keypoints[0]["x"] + dx, keypoints[0]["y"] + dy))
            write_json(bundle, "source.json", source)
            dets = read_json(os.path.join(bundle, "detections.json"))
            xs, ys = [kp["x"] for kp in keypoints], [kp["y"] for kp in keypoints]
            dets["detections"].append({"phrase": "the man further right", "score": 0.8,
                                       "box": [min(xs), min(ys), max(xs), max(ys)]})
            write_json(bundle, "detections.json", dets)
            unaligned = [99]
        write_json(clips, "wave_01.json", clip)
        out_dir = os.path.join(tmp, "out")
        code, out, err = main_with_strict_streams(
            ["edit", "--config", os.path.join(bundle, "config.json"), "--out-dir", out_dir]
        )
        assert code == 0, err
        report = load_out(out_dir, "report.json")
    pairs = sorted(pair["instance_id"] for pair in report["assignment"]["pairs"])
    assert pairs == sorted({0, 1, *unaligned})
    entry = report["retrieved"][0]
    assert entry["unaligned"] == [
        {"instance_id": inst_id, "reason": COINCIDENT[side]} for inst_id in unaligned
    ]
    assert sorted(map(int, entry["transforms"])) == sorted({0, 1} - set(unaligned))


def test_align_names_a_moving_spread_that_underflows(tmp_path):
    doc = json.loads(read_fixture("align", "moving.json"))
    spread_below_float(first_keypoints(doc))
    out_dir = tmp_path / "out"
    code, out, err = main_with_strict_streams(
        ["align", fixture_path("align", "fixed.json"),
         write_json(str(tmp_path), "moving.json", doc), "--out-dir", str(out_dir)]
    )
    assert (code, out, err) == (3, "", f"error: {UNDERFLOWING}\n")
    assert not out_dir.exists()


def test_edit_lists_people_against_an_underflowing_spread_as_unaligned(tmp_path):
    bundle = tmp_path / "bundle"
    shutil.copytree(fixture_path("e2e_duo_wave"), bundle)
    clips = str(bundle / "db" / "clips")
    clip = read_json(os.path.join(clips, "wave_01.json"))
    spread_below_float(first_keypoints(clip))
    write_json(clips, "wave_01.json", clip)
    out_dir = tmp_path / "out"
    code, out, err = main_with_strict_streams(
        ["edit", "--config", str(bundle / "config.json"), "--out-dir", str(out_dir)]
    )
    assert code == 0, err
    entry = load_out(out_dir, "report.json")["retrieved"][0]
    assert entry["unaligned"] == [
        {"instance_id": inst_id, "reason": UNDERFLOWING} for inst_id in (0, 1)
    ]
    assert entry["transforms"] == {}
