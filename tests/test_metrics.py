import json
import math
import os

import pytest

from posedit import (
    EmbeddingVector,
    MetricCase,
    ParseError,
    ShapeError,
    VideoEmbeddingRecord,
    gt_con,
    parse_metric_cases,
    prompt_hit,
    vid_acc,
    vid_con,
)
from conftest import fixture_path, read_fixture
from oracles import cosine_by_sums


def vec(*values):
    return EmbeddingVector(values=tuple(float(v) for v in values))


def record(video_id, video, frames):
    return VideoEmbeddingRecord(
        video_id=video_id,
        video_embedding=video,
        frame_embeddings=tuple(frames),
    )


def case(edited_video, target, source_prompt, case_id="c"):
    frames = (vec(1.0, 0.0), vec(0.0, 1.0))
    return MetricCase(
        case_id=case_id,
        edited=record("e", edited_video, frames),
        source=record("s", vec(1.0, 1.0), frames),
        target_prompt_embedding=target,
        source_prompt_embedding=source_prompt,
    )


def test_prompt_hit_compares_against_both_prompts():
    hit = case(vec(1.0, 0.0), target=vec(1.0, 0.1), source_prompt=vec(0.0, 1.0))
    miss = case(vec(1.0, 0.0), target=vec(0.0, 1.0), source_prompt=vec(1.0, 0.1))
    assert prompt_hit(hit) is True
    assert prompt_hit(miss) is False


def test_prompt_tie_counts_as_a_miss():
    same = vec(0.5, 0.5)
    tied = case(vec(1.0, 0.0), target=same, source_prompt=same)
    assert prompt_hit(tied) is False
    assert vid_acc([tied]) == 0.0


def test_vid_acc_is_the_hit_fraction():
    hit = case(vec(1.0, 0.0), vec(1.0, 0.1), vec(0.0, 1.0), case_id="hit")
    miss = case(vec(1.0, 0.0), vec(0.0, 1.0), vec(1.0, 0.1), case_id="miss")
    assert vid_acc([hit, miss]) == 0.5
    assert vid_acc([hit, hit, miss, miss]) == 0.5
    assert vid_acc([hit]) == 1.0


def test_vid_acc_requires_cases():
    with pytest.raises(ValueError):
        vid_acc([])


def test_vid_con_is_the_mean_frame_cosine():
    a = record("a", vec(1.0, 1.0), (vec(1.0, 0.0), vec(1.0, 1.0)))
    b = record("b", vec(1.0, 1.0), (vec(0.0, 1.0), vec(2.0, 2.0)))
    expected = (0.0 + cosine_by_sums([1.0, 1.0], [2.0, 2.0])) / 2.0
    assert math.isclose(vid_con(a, b), expected, rel_tol=1e-15)


def test_gt_con_requires_ground_truth():
    a = record("a", vec(1.0), (vec(1.0),))
    with pytest.raises(ValueError):
        gt_con(a, None)
    assert math.isclose(gt_con(a, a), 1.0, rel_tol=1e-15)


def test_frame_count_mismatch_is_rejected():
    a = record("a", vec(1.0), (vec(1.0), vec(2.0)))
    b = record("b", vec(1.0), (vec(1.0),))
    with pytest.raises(ShapeError, match="frame"):
        vid_con(a, b)
    with pytest.raises(ShapeError):
        MetricCase(
            case_id="bad",
            edited=a,
            source=b,
            target_prompt_embedding=vec(1.0),
            source_prompt_embedding=vec(2.0),
        )


def test_case_checks_the_dims_scoring_compares():
    frames, wide = (vec(1.0, 0.0),), (vec(1.0, 0.0, 0.0),)
    fields = {
        "case_id": "c",
        "edited": record("e", vec(1.0, 0.0, 0.0), frames),
        "source": record("s", vec(1.0), frames),  # its video embedding is never scored
        "target_prompt_embedding": vec(1.0, 0.0, 1.0),
        "source_prompt_embedding": vec(0.0, 1.0, 0.0),
        "ground_truth": record("g", vec(2.0), frames),
    }
    assert prompt_hit(MetricCase(**fields))
    for key, value, what in (
        ("source", record("s", vec(1.0), wide), "source frame dim 3"),
        ("ground_truth", record("g", vec(1.0), wide), "ground-truth frame dim 3"),
        ("target_prompt_embedding", vec(1.0, 0.0), "target prompt dim 2"),
        ("source_prompt_embedding", vec(1.0, 0.0), "source prompt dim 2"),
    ):
        with pytest.raises(ShapeError, match=f"^case 'c': {what} does not match"):
            MetricCase(**{**fields, key: value})


def test_record_needs_frames_and_uniform_dims():
    with pytest.raises(ShapeError, match="frame"):
        record("empty", vec(1.0), ())
    with pytest.raises(ShapeError, match="dim"):
        record("ragged", vec(1.0), (vec(1.0), vec(1.0, 2.0)))


# --- manifest parsing ----------------------------------------------------------------


def manifest_reader():
    base = fixture_path("metrics")

    def read_file(path):
        full = path if os.path.isabs(path) else os.path.join(base, path)
        with open(full, "r", encoding="utf-8") as fh:
            return fh.read()

    return read_file


def test_parse_metric_cases_fixture():
    cases = parse_metric_cases(read_fixture("metrics", "manifest.json"), manifest_reader())
    assert len(cases) == 20
    assert cases[0].case_id == "case_00"
    with_gt = [c for c in cases if c.ground_truth is not None]
    assert len(with_gt) == 14


def test_parse_metric_cases_resolves_path_slots():
    cases = parse_metric_cases(read_fixture("metrics", "manifest.json"), manifest_reader())
    inline = json.loads(read_fixture("metrics", "parts", "case00_edited.json"))
    assert cases[0].edited.video_id == inline["video_id"]
    assert cases[0].edited.video_embedding.values == tuple(
        inline["video_embedding"]["values"]
    )
    target = json.loads(read_fixture("metrics", "parts", "case03_target.json"))
    assert cases[3].target_prompt_embedding.values == tuple(target["values"])


def test_parse_metric_cases_duplicate_id_rejected():
    doc = json.loads(read_fixture("metrics", "manifest_no_gt.json"))
    doc[1]["case_id"] = doc[0]["case_id"]
    with pytest.raises(ParseError, match="duplicate"):
        parse_metric_cases(json.dumps(doc), manifest_reader())


def test_parse_metric_cases_missing_field_rejected():
    doc = json.loads(read_fixture("metrics", "manifest_no_gt.json"))
    del doc[0]["source"]
    with pytest.raises(ParseError, match="source"):
        parse_metric_cases(json.dumps(doc), manifest_reader())


def test_parse_metric_cases_reads_files_only_for_path_slots():
    doc = json.loads(read_fixture("metrics", "manifest_no_gt.json"))
    calls = []

    def refuse(path):
        calls.append(path)
        raise AssertionError("no path slot in this manifest")

    cases = parse_metric_cases(json.dumps(doc), refuse)
    assert calls == []
    assert len(cases) == 2
