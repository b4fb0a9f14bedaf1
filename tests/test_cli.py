import argparse
import errno
import filecmp
import json
import os
import shutil
from dataclasses import fields

import pytest

from posedit import PipelineConfig
from posedit.cli import build_parser, main
from conftest import fixture_path, read_fixture


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


def test_edit_detections_for_another_frame_exit_3(tmp_path, capsys):
    detections = json.loads(read_fixture("e2e_girl_dance", "detections.json"))
    detections["frame_index"] = 7
    path = tmp_path / "detections.json"
    path.write_text(json.dumps(detections), encoding="utf-8")
    argv = edit_flags("e2e_girl_dance", tmp_path / "out")
    argv[argv.index("--detections") + 1] = str(path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert "frame_index 7" in err and "frame_index 0" in err
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


def test_unknown_config_field_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text('{"frame_cont": 24}', encoding="utf-8")
    code, out, err = run_cli(
        capsys, "ddim-demo", "--config", str(cfg_path), "--out-dir", str(tmp_path)
    )
    assert code == 2
    assert "unknown config field" in err


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
