"""Robustness of every JSON input parser: whatever the document, a parser
returns a value or raises PoseditError, never anything else."""

import json
import os

import pytest
from hypothesis import given, strategies as st

from posedit import (
    ParseError,
    PoseditError,
    StageError,
    parse_attention_stack,
    parse_db_manifest,
    parse_detections,
    parse_embedding,
    parse_metric_cases,
    parse_pipeline_config,
    parse_pose_video,
)
from conftest import fixture_path, read_fixture


def read_sidecar(ref):
    """Metric sidecar reader that fails like the CLI's: with a StageError."""
    try:
        with open(os.path.join(fixture_path("metrics"), ref), "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise StageError(f"cannot read {ref}: {exc}") from exc


PARSERS = {
    "pose_video": parse_pose_video,
    "pipeline_config": parse_pipeline_config,
    "embedding": parse_embedding,
    "db_manifest": parse_db_manifest,
    "metric_cases": lambda text: parse_metric_cases(text, read_sidecar),
    "detections": parse_detections,
    "attention_stack": parse_attention_stack,
}

_EMB = '{"dim": 1, "values": [1]}'
_REC = '{"video_id": "v", "video_embedding": %s, "frame_embeddings": [%s]}' % (_EMB, _EMB)
_MAP = '{"h": 1, "w": 1, "values": [1]}'

# one valid document per parser, with NUM in a real-valued slot
TEMPLATES = {
    "pose_video": '{"width": 1, "height": 1, "skeleton": ["a"], "frames": [{"frame_index": 0,'
    ' "instances": [{"instance_id": 0, "keypoints": [{"x": NUM, "y": 0, "visible": true,'
    ' "confidence": 1}]}]}]}',
    "pipeline_config": '{"iou_threshold": NUM}',
    "embedding": '{"dim": 1, "values": [NUM]}',
    "db_manifest": '[{"entry_id": "a", "label": "b", "pose_video_path": "c",'
    ' "embedding": [NUM]}]',
    "metric_cases": '[{"case_id": "c", "edited": %s, "source": %s,'
    ' "target_prompt_embedding": {"dim": 1, "values": [NUM]},'
    ' "source_prompt_embedding": %s}]' % (_REC, _REC, _EMB),
    "detections": '{"frame_index": 0, "detections": [{"phrase": "p", "box": [0, 0, 1, 1],'
    ' "score": NUM}]}',
    "attention_stack": '{"steps": [{"step": 1, "c_inv": [%s], "s_inv": %s, "c_den": [%s],'
    ' "s_den": {"h": 1, "w": 1, "values": [NUM]}}]}' % (_MAP, _MAP, _MAP),
}

OUT_OF_RANGE = {
    "400-digit integer": "1" * 400,
    "5000-digit integer": "1" * 5000,
    "100000-deep nesting": "[" * 100_000 + "]" * 100_000,
    "1e999": "1e999",
}


@pytest.mark.parametrize("literal", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
@pytest.mark.parametrize("parser", PARSERS.keys())
def test_out_of_range_number_is_a_parse_error(parser, literal):
    template = TEMPLATES[parser]
    PARSERS[parser](template.replace("NUM", "0.5"))  # the document is otherwise valid
    with pytest.raises(ParseError):
        PARSERS[parser](template.replace("NUM", literal))


def test_finite_numbers_whose_sum_overflows_are_accepted():
    # the whole-column check sums the column; the walk must then accept it
    assert list(parse_embedding('{"dim": 2, "values": [1e308, 1e308]}').values) == [1e308] * 2
    doc = json.loads(TEMPLATES["pose_video"].replace("NUM", "1e308"))
    doc["skeleton"].append("b")
    doc["frames"][0]["instances"][0]["keypoints"].append(
        {"x": 1e308, "y": 0, "visible": True, "confidence": 1}
    )
    assert parse_pose_video(json.dumps(doc)).xy[0, :, 0].tolist() == [1e308] * 2


def test_parse_errors_name_the_offending_node():
    doc = TEMPLATES["pose_video"].replace("NUM", '"one"')
    with pytest.raises(ParseError, match=r"^frames\[0\]\.instances\[0\]\.keypoints\[0\]\.x: "):
        parse_pose_video(doc)
    entries = [
        {"entry_id": f"e{i}", "label": "l", "pose_video_path": "p", "embedding": [0.0] * 9}
        for i in range(4)
    ]
    entries[3]["embedding"][7] = "x"
    with pytest.raises(ParseError, match=r"^\$\[3\]\.embedding\[7\]: "):
        parse_db_manifest(json.dumps(entries))


def three_frame_clip():
    """A valid clip of three frames with people 0 and 3 in each."""
    def keypoint(x):
        return {"x": x, "y": 2.5, "visible": True, "confidence": 0.5}

    return {
        "width": 8,
        "height": 8,
        "skeleton": ["a", "b"],
        "frames": [
            {
                "frame_index": f,
                "instances": [
                    {"instance_id": i, "keypoints": [keypoint(1.0 + f), keypoint(2.0 + i)]}
                    for i in (0, 3)
                ],
            }
            for f in (0, 2, 5)
        ],
    }


def _last_keypoint(doc):
    return doc["frames"][-1]["instances"][-1]["keypoints"][-1]


def _set_last_keypoint(field, value):
    return lambda doc: _last_keypoint(doc).__setitem__(field, value)


LAST = "frames[2].instances[1]"

# each breaks one node of the last frame, past every whole-column check that
# could let it through: bool is an int subclass, an extra key keeps the
# required ones, and the frame-level checks of earlier frames all pass
TRAPS = {
    "true as x": (
        _set_last_keypoint("x", True),
        f"{LAST}.keypoints[1].x: expected a number, got True",
    ),
    "1 as visible": (
        _set_last_keypoint("visible", 1),
        f"{LAST}.keypoints[1].visible: expected a boolean, got 1",
    ),
    "extra keypoint key": (
        _set_last_keypoint("z", 0.0),
        f"{LAST}.keypoints[1]: unexpected field 'z'",
    ),
    "keypoint not an object": (
        lambda doc: doc["frames"][-1]["instances"][-1]["keypoints"].__setitem__(-1, [1.0, 2.0]),
        f"{LAST}.keypoints[1]: expected an object, got list",
    ),
    "confidence above 1": (
        _set_last_keypoint("confidence", 1.5),
        f"{LAST}.keypoints[1].confidence: must be in [0, 1], got 1.5",
    ),
    "duplicate instance_id": (
        lambda doc: doc["frames"][-1]["instances"][-1].__setitem__("instance_id", 0),
        f"{LAST}.instance_id: duplicate id 0",
    ),
    "non-increasing frame_index": (
        lambda doc: doc["frames"][-1].__setitem__("frame_index", 2),
        "frames[2].frame_index: must be strictly increasing (got 2 after 2)",
    ),
    "instance_id past int64": (
        lambda doc: doc["frames"][-1]["instances"][-1].__setitem__("instance_id", 2**63),
        f"{LAST}.instance_id: expected an integer <= 9223372036854775807, "
        "got 9223372036854775808",
    ),
}


@pytest.mark.parametrize("trap", TRAPS.keys())
def test_pose_parser_names_a_bad_node_in_the_last_frame(trap):
    doc = three_frame_clip()
    parse_pose_video(json.dumps(doc))  # valid before the change
    mutate, message = TRAPS[trap]
    mutate(doc)
    with pytest.raises(ParseError) as caught:
        parse_pose_video(json.dumps(doc))
    assert str(caught.value) == message


# --- property tests -------------------------------------------------------------

FIELD_NAMES = sorted(
    {
        "width", "height", "skeleton", "frames", "label", "frame_index", "instances",
        "instance_id", "keypoints", "x", "y", "visible", "confidence", "tokens", "top_k",
        "iou_threshold", "source", "dim", "values", "entry_id", "embedding",
        "pose_video_path", "case_id", "edited", "target_prompt_embedding",
        "source_prompt_embedding", "ground_truth", "video_id", "video_embedding",
        "frame_embeddings", "path", "detections", "phrase", "box", "score", "steps",
        "step", "c_inv", "s_inv", "c_den", "s_den", "h", "w",
    }
)

json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**308, max_value=10**400)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(FIELD_NAMES) | st.text(max_size=6), children, max_size=5),
    max_leaves=24,
)

FIXTURE_DOCS = {
    "pose_video": read_fixture("align", "align_noisy_01.json"),
    "pipeline_config": json.dumps(
        {"frame_count": 24, "iou_threshold": 0.4, "tokens": [0, 2], "top_k": 2,
         "union_initial_mask": True, "source": "source.json"}
    ),
    "embedding": read_fixture("retrieval", "query.json"),
    "db_manifest": read_fixture("retrieval", "db_manifest.json"),
    "metric_cases": read_fixture("metrics", "manifest.json"),
    "detections": read_fixture("e2e_girl_dance", "detections.json"),
    "attention_stack": read_fixture("blend", "single_step.json"),
}


def node_paths(node, prefix=()):
    """Key paths of every node below the root, parents before children."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from node_paths(child, prefix + (key,))


def parses_or_refuses(parser, text):
    try:
        PARSERS[parser](text)
    except PoseditError:
        pass


@pytest.mark.parametrize("parser", PARSERS.keys())
@given(value=json_values)
def test_arbitrary_json_only_raises_posedit_errors(parser, value):
    parses_or_refuses(parser, json.dumps(value))


@pytest.mark.parametrize("parser", PARSERS.keys())
@given(data=st.data(), value=json_leaves | json_values)
def test_fixture_with_one_node_swapped_only_raises_posedit_errors(parser, data, value):
    doc = json.loads(FIXTURE_DOCS[parser])
    path = data.draw(st.sampled_from(list(node_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    parses_or_refuses(parser, json.dumps(doc))
