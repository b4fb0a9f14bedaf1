import json
import os
import re
import shutil
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from posedit import (
    AnswerRecord,
    Mask,
    ParseError,
    PipelineConfig,
    SpatialMap,
    make_config,
    parse_answer,
    parse_pose_video,
    parse_pipeline_config,
)
from posedit import pipeline, pose_model
from posedit.config import CONFIG_FIELDS
from posedit.errors import ShapeError, StageError
from posedit.pipeline import (
    run_align,
    run_blend_demo,
    run_ddim_demo,
    run_edit,
    run_metrics,
    run_retrieve,
)
from conftest import fixture_path, joints_reversed, read_fixture
from oracles import metric_aggregates_from_doc


def read_out(out_dir, name):
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as fh:
        return fh.read()


def load_out(out_dir, name):
    return json.loads(read_out(out_dir, name))


# --- answer documents -----------------------------------------------------------------


def test_parse_answer_happy_path():
    got = parse_answer("subject: the girl\naction: dance\n")
    assert got == AnswerRecord(
        subject="the girl", action="dance", raw="subject: the girl\naction: dance\n"
    )


def test_parse_answer_allows_blank_lines_and_any_order():
    got = parse_answer("\naction:  sit down \n\nsubject: the boy\n")
    assert got.subject == "the boy"
    assert got.action == "sit down"


@pytest.mark.parametrize(
    "text, message",
    [
        ("subject: a\n", "missing field 'action'"),
        ("action: b\n", "missing field 'subject'"),
        ("subject: a\nsubject: b\naction: c\n", "line 2: duplicate"),
        ("subject: a\naction: b\nmood: c\n", "line 3"),
        ("subject:\naction: b\n", "line 1: field 'subject' is empty"),
        ("just words\n", "line 1"),
    ],
)
def test_parse_answer_rejects_malformed(text, message):
    with pytest.raises(ParseError, match=message):
        parse_answer(text)


# --- configuration --------------------------------------------------------------------


def test_parse_pipeline_config_returns_validated_values():
    values = parse_pipeline_config(
        '{"frame_count": 24, "iou_threshold": 0.4, "tokens": [0, 2], "seed": 9}'
    )
    assert values == {  # as written: PipelineConfig checks and converts them
        "frame_count": 24,
        "iou_threshold": 0.4,
        "tokens": [0, 2],
        "seed": 9,
    }
    cfg = make_config(values)
    assert cfg.frame_count == 24
    assert cfg.tokens == (0, 2)
    assert cfg.blend_ratio == 0.3   # untouched default


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"frame_cont": 3}', "unknown config field"),
        ('{"tokens": []}', "tokens"),
        ('{"tokens": [0, -1]}', r"tokens\[1\]"),
        ('{"top_k": "one"}', "top_k"),
        ('{"top_k": true}', "expected an integer"),
        ('{"source": 5}', "source"),
        ('{"union_initial_mask": 1}', "boolean"),
        ('{"beta_start": Infinity}', "non-finite"),
        ('{"seed": -1}', "seed: expected an integer >= 0, got -1"),
        ("[]", "object"),
        ("not json", "invalid JSON"),
    ],
)
def test_parse_pipeline_config_rejects_bad_documents(doc, message):
    with pytest.raises(ParseError, match=message):
        make_config(parse_pipeline_config(doc))


def test_make_config_flag_overrides_win():
    cfg = make_config(
        {"frame_count": 12, "top_k": 2},
        {"frame_count": 24, "top_k": None, "seed": 5},
    )
    assert cfg.frame_count == 24   # override applied
    assert cfg.top_k == 2          # None override skipped
    assert cfg.seed == 5


@pytest.mark.parametrize(
    "values",
    [
        {"iou_threshold": 0.0},
        {"blend_ratio": 1.0},
        {"frame_count": 0},
        {"beta_start": 0.5, "beta_end": 0.1},
        {"seed": -1},
    ],
)
def test_make_config_rejects_out_of_range_values(values):
    with pytest.raises(ParseError, match="invalid configuration"):
        make_config(values)


@pytest.mark.parametrize(
    "command, message",
    [
        ("cat 'unterminated", "embedder_command: No closing quotation"),
        ("   ", "embedder_command: names no program"),
    ],
)
def test_make_config_rejects_an_embedder_command_that_splits_into_no_argv(command, message):
    expected = f"invalid configuration: {message}"
    with pytest.raises(ParseError, match=expected):
        make_config({"embedder_command": command})
    file_values = parse_pipeline_config(json.dumps({"embedder_command": command}))
    with pytest.raises(ParseError, match=expected):
        make_config(file_values)


@pytest.mark.parametrize(
    "values, message",
    [
        ({"top_k": 2.5}, "top_k: expected an integer >= 1, got 2.5"),
        ({"tokens": (0.5,)}, r"tokens\[0\]: expected an integer >= 0, got 0.5"),
        ({"frame_count": True}, "frame_count: expected an integer >= 1, got True"),
        ({"seed": 1.5}, "seed: expected an integer >= 0, got 1.5"),
        ({"union_initial_mask": 0}, "union_initial_mask: expected a boolean, got 0"),
        ({"source": ""}, "source: expected a non-empty string, got ''"),
        ({"out_dir": 5}, "out_dir: expected a non-empty string, got 5"),
    ],
)
def test_library_values_meet_the_config_file_rule(values, message):
    with pytest.raises(ParseError, match=f"^invalid configuration: {message}$"):
        make_config(values)
    with pytest.raises(ParseError, match=f"^{message}$"):
        PipelineConfig(**values)


@pytest.mark.parametrize(
    "field, bound, named",
    [
        ("frame_count", 10_000, "frame_count"),
        ("ddim_steps", 10_000, "ddim_steps"),
        ("latent_dim", 4_096, "latent_dim"),
        ("tokens", 76, "tokens[1]"),  # a CLIP text context holds 77 tokens
    ],
)
def test_counts_stop_at_fixed_ceilings(field, bound, named):
    as_value = (lambda n: (0, n)) if field == "tokens" else (lambda n: n)
    assert getattr(make_config({field: as_value(bound)}), field) == as_value(bound)
    message = f"{re.escape(named)}: expected an integer <= {bound}, got {bound + 1}"
    with pytest.raises(ParseError, match=f"^invalid configuration: {message}$"):
        make_config(parse_pipeline_config(json.dumps({field: as_value(bound + 1)})))
    with pytest.raises(ParseError, match=f"^{message}$"):
        PipelineConfig(**{field: as_value(bound + 1)})


@st.composite
def blend_records(draw):
    """(step, mask, s_edit) triples as a blend schedule returns them."""
    records = []
    for step in draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=3)):
        h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        bits = draw(st.lists(st.integers(0, 1), min_size=h * w, max_size=h * w))
        values = draw(
            st.lists(
                st.sampled_from([0.0, -0.0, 5e-324, 1e-07, 1e16, 0.1, 1.5])
                | st.floats(0.0, allow_infinity=False),
                min_size=h * w,
                max_size=h * w,
            )
        )
        mask = Mask(h, w, np.array(bits, dtype=np.uint8).reshape(h, w))
        records.append((step, mask, SpatialMap(h, w, np.array(values).reshape(h, w))))
    return records


@given(
    blend_records(),
    st.sampled_from([{}, {"ratio": 0.3, "tokens": [0, 2], "union_initial_mask": True}]),
)
@example(
    [(7, Mask(1, 2, np.array([[1, 0]], dtype=np.uint8)),
      SpatialMap(1, 2, np.array([[-0.0, 5e-324]])))],
    {},
)
def test_step_documents_dump_to_one_line_that_parses_back_bit_for_bit(records, doc):
    text = pipeline._dump("blended.json", {**doc, "steps": pipeline._step_docs(records)})
    assert text.endswith("}\n") and "\n" not in text[:-1]
    back = json.loads(text)
    assert {key: back[key] for key in doc} == doc
    assert len(back["steps"]) == len(records)
    for got, (step, mask, s_edit) in zip(back["steps"], records):
        assert got["step"] == step
        assert (got["mask"]["h"], got["mask"]["w"]) == (mask.h, mask.w)
        assert got["mask"]["bits"] == mask.bits.ravel().tolist()
        assert (got["s_edit"]["h"], got["s_edit"]["w"]) == (s_edit.h, s_edit.w)
        values = np.array(got["s_edit"]["values"], dtype=np.float64)
        assert values.tobytes() == s_edit.values.ravel().tobytes()  # -0.0 keeps its sign


def test_dump_refuses_a_value_json_cannot_hold():
    with pytest.raises(StageError, match=r"^cannot write transform\.json: Out of range float"):
        pipeline._dump("transform.json", {"residual": float("inf")})
    with pytest.raises(StageError, match=r"^cannot write report\.json: "):
        pipeline._dump("report.json", {"x": float("nan")})


def test_config_reports_the_first_bad_field_in_field_order():
    doc = json.dumps({"seed": -1, "top_k": 0, "beta_start": 0.5, "beta_end": 0.1})
    with pytest.raises(ParseError, match="^invalid configuration: top_k: "):
        make_config(parse_pipeline_config(doc))
    with pytest.raises(ParseError, match="^invalid configuration: beta_start, beta_end: "):
        make_config({"beta_start": 0.5, "beta_end": 0.1})


config_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 60)
    | st.integers(min_value=10**308, max_value=10**400)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(0.0, 1.0)
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3),
    max_leaves=6,
)


@given(key=st.sampled_from(sorted(CONFIG_FIELDS)), value=config_values)
def test_a_config_file_and_a_library_caller_meet_one_rule(key, value):
    def outcome(values):
        try:
            return make_config(values)
        except ParseError as exc:
            assert key in str(exc).split(": ")[1]  # the field is named first
            return str(exc)

    from_file = outcome(parse_pipeline_config(json.dumps({key: value})))
    assert from_file == outcome({key: value})


# --- align stage ----------------------------------------------------------------------


def test_run_align_writes_transform_and_aligned_video(tmp_path):
    cfg = PipelineConfig(out_dir=str(tmp_path))
    result = run_align(
        cfg, fixture_path("align", "fixed.json"), fixture_path("align", "moving.json")
    )
    doc = load_out(tmp_path, "transform.json")
    assert set(doc) == {"transform", "residual"}
    assert set(doc["transform"]) == {"scale", "theta", "translation"}
    assert doc["transform"]["scale"] > 0
    assert doc["residual"] >= 0.0
    aligned = parse_pose_video(read_out(tmp_path, "aligned.json"))
    moving = parse_pose_video(read_fixture("align", "moving.json"))
    assert len(aligned.frames) == len(moving.frames)
    manifest = load_out(tmp_path, "manifest.json")
    assert manifest == {"files": ["aligned.json", "transform.json"]}
    assert result["transform"] == doc["transform"]
    assert result["outputs"] == ["aligned.json", "transform.json"]


def test_run_align_requires_single_instance_first_frames(tmp_path):
    cfg = PipelineConfig(out_dir=str(tmp_path))
    multi = fixture_path("pose_corpus", "multi.json")
    with pytest.raises(StageError, match="exactly 1"):
        run_align(cfg, multi, fixture_path("align", "moving.json"))


def test_run_align_refuses_clips_whose_skeletons_differ(tmp_path):
    moving = tmp_path / "moving.json"
    moving.write_text(joints_reversed(read_fixture("align", "moving.json")), encoding="utf-8")
    cfg = PipelineConfig(out_dir=str(tmp_path / "out"))
    with pytest.raises(ShapeError, match=r"^moving video skeleton \["):
        run_align(cfg, fixture_path("align", "fixed.json"), str(moving))


def test_run_align_requires_out_dir():
    with pytest.raises(StageError, match="--out-dir"):
        run_align(
            PipelineConfig(),
            fixture_path("align", "fixed.json"),
            fixture_path("align", "moving.json"),
        )


# --- retrieve stage -------------------------------------------------------------------


def test_run_retrieve_ranks_database(tmp_path):
    cfg = PipelineConfig(
        db=fixture_path("retrieval", "db_manifest.json"),
        query_embedding=fixture_path("retrieval", "query.json"),
        top_k=3,
        out_dir=str(tmp_path),
    )
    run_retrieve(cfg)
    doc = load_out(tmp_path, "retrieval.json")
    ranking = doc["ranking"]
    assert len(ranking) == 3
    assert [r["rank"] for r in ranking] == [1, 2, 3]
    # the fixture query was built next to the third database embedding
    assert ranking[0]["entry_id"] == "entry_02"
    assert ranking[0]["label"] == "wave hands"
    assert ranking[0]["score"] >= ranking[1]["score"] >= ranking[2]["score"]
    assert ranking[0]["pose_video_path"] == "clips/entry_02.json"


def test_run_retrieve_caps_k_at_database_size(tmp_path):
    cfg = PipelineConfig(
        db=fixture_path("retrieval", "db_manifest.json"),
        query_embedding=fixture_path("retrieval", "query.json"),
        top_k=99,
        out_dir=str(tmp_path),
    )
    result = run_retrieve(cfg)
    assert len(result["ranking"]) == 10


def test_run_retrieve_missing_db_is_a_stage_error(tmp_path):
    cfg = PipelineConfig(
        query_embedding=fixture_path("retrieval", "query.json"), out_dir=str(tmp_path)
    )
    with pytest.raises(StageError, match="--db"):
        run_retrieve(cfg)


# --- edit stage -----------------------------------------------------------------------


def bundle_config(bundle, dest, **overrides):
    base = fixture_path(bundle)
    values = {
        "source": os.path.join(base, "source.json"),
        "detections": os.path.join(base, "detections.json"),
        "answer": os.path.join(base, "answer.txt"),
        "db": os.path.join(base, "db", "manifest.json"),
        "query_embedding": os.path.join(base, "query.json"),
        "out_dir": str(dest),
    }
    values.update(overrides)
    return make_config({k: v for k, v in values.items() if v is not None})


def test_run_edit_reproduces_golden(tmp_path):
    run_edit(bundle_config("e2e_girl_dance", tmp_path))
    assert read_out(tmp_path, "edited.json") == read_fixture(
        "e2e_girl_dance", "golden", "edited.json"
    )
    report = load_out(tmp_path, "report.json")
    assert report["answer"] == {"subject": "the girl", "action": "dance"}
    assert report["frame_count"] == 12
    assert report["assignment"]["pairs"] == [
        {"detection": 0, "phrase": "the girl", "instance_id": 0}
    ]
    assert report["assignment"]["unmatched_instances"] == [1]
    assert report["retrieved"][0]["entry_id"] == "dance_01"
    assert report["retrieved"][0]["output"] == "edited.json"
    assert list(report["retrieved"][0]["transforms"]) == ["0"]


def test_run_edit_builds_no_pose_frame(tmp_path, monkeypatch):
    # PoseFrame views exist only behind PoseVideo.frames
    reads = []
    frames = pose_model.PoseVideo.frames
    monkeypatch.setattr(
        pose_model.PoseVideo, "frames", property(lambda v: reads.append(v) or frames.fget(v))
    )
    run_edit(bundle_config("e2e_duo_wave", tmp_path))
    assert read_out(tmp_path, "edited.json") == read_fixture("e2e_duo_wave", "golden", "edited.json")
    assert reads == []


def test_run_edit_parses_each_distinct_clip_once(tmp_path, monkeypatch):
    # three entries spell one clip file three ways
    db_dir = tmp_path / "db"
    shutil.copytree(fixture_path("e2e_duo_wave", "db"), db_dir)
    entries = json.loads((db_dir / "manifest.json").read_text(encoding="utf-8"))
    spellings = ["clips/wave_01.json", "./clips/wave_01.json", str(db_dir / "clips/wave_01.json")]
    for entry, path in zip(entries, spellings):
        entry["pose_video_path"] = path
    (db_dir / "manifest.json").write_text(json.dumps(entries), encoding="utf-8")
    parsed = []
    parse = pipeline.parse_pose_video
    monkeypatch.setattr(pipeline, "parse_pose_video", lambda text: parsed.append(text) or parse(text))

    out_dir = tmp_path / "out"
    result = run_edit(
        bundle_config("e2e_duo_wave", out_dir, db=str(db_dir / "manifest.json"), top_k=3)
    )
    assert len(parsed) == 2  # the source and the one clip
    golden = read_fixture("e2e_duo_wave", "golden", "edited.json")
    assert [read_out(out_dir, r["output"]) for r in result["retrieved"]] == [golden] * 3


def test_run_edit_lists_outputs_in_manifest(tmp_path):
    run_edit(bundle_config("e2e_boy_sit", tmp_path))
    manifest = load_out(tmp_path, "manifest.json")
    assert manifest["files"] == ["edited.json", "report.json"]


def test_run_edit_empty_assignment_keeps_source(tmp_path):
    cfg = bundle_config("e2e_girl_dance", tmp_path, iou_threshold=0.999)
    result = run_edit(cfg)
    assert result["assignment"]["pairs"] == []
    assert result["note"] == "no individuals matched"
    assert read_out(tmp_path, "edited.json") == read_fixture(
        "e2e_girl_dance", "source.json"
    )


def test_run_edit_top_k_writes_numbered_outputs(tmp_path):
    result = run_edit(bundle_config("e2e_girl_dance", tmp_path, top_k=3))
    assert [r["output"] for r in result["retrieved"]] == [
        "edited_01.json",
        "edited_02.json",
        "edited_03.json",
    ]
    assert read_out(tmp_path, "edited_01.json") == read_fixture(
        "e2e_girl_dance", "golden", "edited.json"
    )


RETRIEVAL_DB = {
    "db": fixture_path("retrieval", "db_manifest.json"),
    "query_embedding": fixture_path("retrieval", "query.json"),
}


@pytest.mark.parametrize(
    "bundle, overrides",
    [("e2e_girl_dance", {**RETRIEVAL_DB, "top_k": k}) for k in range(1, 6)]
    + [(bundle, {}) for bundle in ("e2e_girl_dance", "e2e_boy_sit", "e2e_duo_wave")],
)
def test_retrieve_and_edit_rank_alike(tmp_path, bundle, overrides):
    cfg = bundle_config(bundle, tmp_path / "edit", **overrides)
    run_edit(cfg)
    run_retrieve(bundle_config(bundle, tmp_path / "retrieve", **overrides))
    ranking = load_out(tmp_path / "retrieve", "retrieval.json")["ranking"]
    retrieved = load_out(tmp_path / "edit", "report.json")["retrieved"]
    keys = ("rank", "entry_id", "label", "score")
    assert [{k: r[k] for k in keys} for r in ranking] == [
        {k: r[k] for k in keys} for r in retrieved
    ]
    assert len(ranking) == cfg.top_k and all("pose_video_path" not in r for r in retrieved)
    # the database's own spelling of each path, not the resolved one
    with open(cfg.db, "r", encoding="utf-8") as fh:
        paths = {e["entry_id"]: e["pose_video_path"] for e in json.load(fh)}
    assert [r["pose_video_path"] for r in ranking] == [paths[r["entry_id"]] for r in ranking]


@pytest.mark.parametrize(
    "field", ["source", "detections", "answer", "db", "query_embedding", "out_dir"]
)
def test_run_edit_missing_inputs_are_stage_errors(tmp_path, field):
    cfg = bundle_config("e2e_girl_dance", tmp_path, **{field: None})
    with pytest.raises(StageError, match="missing required input"):
        run_edit(cfg)


def test_run_edit_unreadable_source_is_a_stage_error(tmp_path):
    cfg = bundle_config(
        "e2e_girl_dance", tmp_path, source=str(tmp_path / "missing.json")
    )
    with pytest.raises(StageError, match="missing.json"):
        run_edit(cfg)


# --- answer embedding via helper process -----------------------------------------------


def embedder_script(tmp_path, body):
    path = tmp_path / "embedder.py"
    path.write_text(body, encoding="utf-8")
    return f"{sys.executable} {path}"


def test_run_edit_embeds_answer_with_helper_command(tmp_path):
    out_dir = tmp_path / "out"
    # echoes a fixed embedding regardless of the answer text on stdin
    query_doc = read_fixture("e2e_girl_dance", "query.json")
    script = embedder_script(
        tmp_path,
        "import sys\nsys.stdin.read()\n" f"sys.stdout.write({query_doc!r})\n",
    )
    cfg = bundle_config(
        "e2e_girl_dance", out_dir, query_embedding=None, embedder_command=script
    )
    result = run_edit(cfg)
    assert result["retrieved"][0]["entry_id"] == "dance_01"
    assert read_out(out_dir, "edited.json") == read_fixture(
        "e2e_girl_dance", "golden", "edited.json"
    )


def test_failing_embedder_command_is_a_stage_error(tmp_path):
    script = embedder_script(tmp_path, "import sys\nsys.exit(3)\n")
    cfg = bundle_config(
        "e2e_girl_dance", tmp_path / "out", query_embedding=None, embedder_command=script
    )
    with pytest.raises(StageError, match="embedder command exited with 3"):
        run_edit(cfg)


def test_embedder_must_print_a_parsable_embedding(tmp_path):
    script = embedder_script(tmp_path, "print('not an embedding')\n")
    cfg = bundle_config(
        "e2e_girl_dance", tmp_path / "out", query_embedding=None, embedder_command=script
    )
    with pytest.raises(ParseError):
        run_edit(cfg)


def test_embedder_output_that_is_not_utf8_is_a_stage_error(tmp_path):
    script = embedder_script(tmp_path, "import sys\nsys.stdout.buffer.write(b'\\xff\\xfe')\n")
    cfg = bundle_config(
        "e2e_girl_dance", tmp_path / "out", query_embedding=None, embedder_command=script
    )
    with pytest.raises(StageError, match="embedder command output is not UTF-8"):
        run_edit(cfg)
    assert not os.path.exists(tmp_path / "out")


def test_missing_embedder_and_embedding_is_a_stage_error(tmp_path):
    cfg = bundle_config("e2e_girl_dance", tmp_path, query_embedding=None)
    with pytest.raises(StageError, match="--query-embedding"):
        run_edit(cfg)


# --- blend demo -------------------------------------------------------------------------


def test_run_blend_demo_writes_per_step_docs(tmp_path):
    cfg = PipelineConfig(
        stack=fixture_path("blend", "blend_sched_01.json"),
        tokens=(0, 1),
        blend_ratio=0.5,
        out_dir=str(tmp_path),
    )
    result = run_blend_demo(cfg)
    assert result["steps"] == 3
    doc = load_out(tmp_path, "blended.json")
    assert doc["ratio"] == 0.5
    assert doc["tokens"] == [0, 1]
    assert doc["union_initial_mask"] is False
    assert [s["step"] for s in doc["steps"]] == [3, 2, 1]
    for step in doc["steps"]:
        assert len(step["mask"]["bits"]) == step["mask"]["h"] * step["mask"]["w"]
        assert set(step["mask"]["bits"]) <= {0, 1}
        assert len(step["s_edit"]["values"]) == step["s_edit"]["h"] * step["s_edit"]["w"]


def test_run_blend_demo_rejects_out_of_range_token(tmp_path):
    cfg = PipelineConfig(
        stack=fixture_path("blend", "blend_sched_01.json"),
        tokens=(5,),
        out_dir=str(tmp_path),
    )
    with pytest.raises(StageError, match="token index 5 out of range"):
        run_blend_demo(cfg)


# --- ddim demo --------------------------------------------------------------------------


def test_run_ddim_demo_round_trip_and_logs(tmp_path):
    cfg = PipelineConfig(out_dir=str(tmp_path), seed=7, latent_dim=6, ddim_steps=20)
    result = run_ddim_demo(cfg)
    round_trip = load_out(tmp_path, "round_trip.json")
    assert round_trip["max_abs_error"] < 1e-9
    assert round_trip["seed"] == 7
    assert len(round_trip["z0"]) == 6
    assert len(round_trip["z0_reconstructed"]) == 6
    sched = load_out(tmp_path, "schedule.json")
    assert sched["T"] == 20
    assert len(sched["alphas"]) == 21
    blend_log = load_out(tmp_path, "blend_log.json")
    assert [s["step"] for s in blend_log["steps"]] == list(range(20, 0, -1))
    assert result["max_abs_error"] == round_trip["max_abs_error"]


def test_run_ddim_demo_underflowing_schedule_is_a_config_error(tmp_path):
    # 0.5..0.99 over 5000 steps drives the cumulative alphas to 0
    cfg = PipelineConfig(out_dir=str(tmp_path), beta_start=0.5, beta_end=0.99, ddim_steps=5000)
    with pytest.raises(ParseError, match=r"^invalid configuration: alphas\[\d+\] out of"):
        run_ddim_demo(cfg)
    assert not os.path.exists(tmp_path / "schedule.json")


def test_run_ddim_demo_is_seeded(tmp_path):
    for name, seed in (("a", 1), ("b", 2), ("c", 1)):
        run_ddim_demo(
            PipelineConfig(out_dir=str(tmp_path / name), seed=seed, ddim_steps=5)
        )
    a = load_out(tmp_path / "a", "round_trip.json")
    b = load_out(tmp_path / "b", "round_trip.json")
    c = load_out(tmp_path / "c", "round_trip.json")
    assert a["z0"] != b["z0"]
    assert a["z0"] == c["z0"]


# --- metrics stage ----------------------------------------------------------------------


def resolved_manifest_doc(name):
    """The manifest with every {"path": ...} slot replaced by the file content."""
    doc = json.loads(read_fixture("metrics", name))
    for case in doc:
        for slot, node in list(case.items()):
            if isinstance(node, dict) and set(node) == {"path"}:
                case[slot] = json.loads(
                    read_fixture("metrics", *node["path"].split("/"))
                )
    return doc


def test_run_metrics_report_matches_recomputation(tmp_path):
    cfg = PipelineConfig(
        manifest=fixture_path("metrics", "manifest.json"), out_dir=str(tmp_path)
    )
    run_metrics(cfg)
    report = load_out(tmp_path, "report.json")
    assert report["case_count"] == 20
    assert len(report["cases"]) == 20

    expected = metric_aggregates_from_doc(resolved_manifest_doc("manifest.json"))
    assert report["aggregates"]["vid_acc"] == round(expected["vid_acc"], 6)
    assert report["aggregates"]["vid_con"] == round(expected["vid_con"], 6)
    assert report["aggregates"]["gt_con"] == round(expected["gt_con"], 6)

    text = read_out(tmp_path, "report.txt")
    lines = text.splitlines()
    assert lines[0].split() == ["case_id", "prompt_hit", "vid_con", "gt_con"]
    rows = [line for line in lines if line.startswith("case_") and line[5].isdigit()]
    assert len(rows) == 20
    assert lines[-3].startswith("vid_acc")
    assert lines[-2].startswith("vid_con")
    assert lines[-1].startswith("gt_con")


def test_run_metrics_rows_mark_missing_ground_truth(tmp_path):
    cfg = PipelineConfig(
        manifest=fixture_path("metrics", "manifest.json"), out_dir=str(tmp_path)
    )
    report = run_metrics(cfg)
    no_gt_rows = [row for row in report["cases"] if "gt_con" not in row]
    assert len(no_gt_rows) == 6
    text = read_out(tmp_path, "report.txt")
    dashed = [line for line in text.splitlines() if line.rstrip().endswith("-")]
    assert len(dashed) == 6


def test_run_metrics_tie_manifest_scores_zero(tmp_path):
    cfg = PipelineConfig(
        manifest=fixture_path("metrics", "manifest_tie.json"), out_dir=str(tmp_path)
    )
    result = run_metrics(cfg)
    assert result["aggregates"]["vid_acc"] == 0.0
    assert result["cases"][0]["prompt_hit"] is False


def test_run_metrics_without_ground_truth_omits_the_column(tmp_path):
    cfg = PipelineConfig(
        manifest=fixture_path("metrics", "manifest_no_gt.json"), out_dir=str(tmp_path)
    )
    result = run_metrics(cfg)
    assert "gt_con" not in result["aggregates"]
    assert all("gt_con" not in row for row in result["cases"])
    assert "gt_con" not in read_out(tmp_path, "report.txt")


def test_run_metrics_requires_manifest(tmp_path):
    with pytest.raises(StageError, match="--manifest"):
        run_metrics(PipelineConfig(out_dir=str(tmp_path)))
