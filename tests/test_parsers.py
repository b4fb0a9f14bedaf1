"""Robustness of every JSON input parser: whatever the document, a parser
returns a value or raises PoseditError, never anything else."""

import json
import os
import re

import pytest
from hypothesis import assume, given, strategies as st

from posedit import (
    DatabaseError,
    EmbeddingVector,
    ParseError,
    PoseditError,
    StageError,
    build_index,
    make_config,
    parse_attention_stack,
    parse_db_manifest,
    parse_detections,
    parse_embedding,
    parse_metric_cases,
    parse_pipeline_config,
    parse_pose_video,
    query,
)
from posedit._schema import reals
from conftest import fixture_path, read_fixture
from oracles import ranking_by_sort


def read_sidecar(ref):
    """Metric sidecar reader that fails like the CLI's: with a StageError."""
    try:
        with open(os.path.join(fixture_path("metrics"), ref), "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:
        raise StageError(f"cannot read {ref}: {exc}") from exc


PARSERS = {
    "pose_video": parse_pose_video,
    "pipeline_config": lambda text: make_config(parse_pipeline_config(text)),
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


# --- embeddings: each value is checked once, faults keep their order -------------

NUM = '"NUM"'  # stands for a number literal that json.dumps cannot write

# a bad value's literal and how the error describes it
VALUE_FAULTS = {
    "true": ("true", "expected a number, got True"),
    '"1.5"': ('"1.5"', "expected a number, got '1.5'"),
    "null": ("null", "expected a number, got None"),
    "1e999": ("1e999", "number must be finite"),
    "10**400": ("1" + "0" * 400, "number must be finite"),
}


def parse_error(parse, text):
    with pytest.raises(ParseError) as caught:
        parse(text)
    return str(caught.value)


def db_doc():
    """Three valid entries whose rows mix ints and floats."""
    return [
        {"entry_id": f"e{i}", "label": "wave", "embedding": [0.5, 1, -2.0 - i],
         "pose_video_path": f"clips/{i}.json"}
        for i in range(3)
    ]


def _db_set(i, key, value):
    return lambda doc: doc[i].__setitem__(key, value)


def _db_value(i, j, value):
    return lambda doc: doc[i]["embedding"].__setitem__(j, value)


def _db_drop(i, key):
    return lambda doc: doc[i].pop(key)


def _steps(*mutations):
    return lambda node: [mutate(node) for mutate in mutations]


DB_FAULTS = {
    "embedding not a list": (_db_set(1, "embedding", {"dim": 3}),
                             "$[1].embedding: expected an array, got dict"),
    "embedding a number": (_db_set(1, "embedding", 0.5),
                           "$[1].embedding: expected an array, got float"),
    "empty row": (_db_set(1, "embedding", []), "$[1].embedding: must not be empty"),
    "missing field": (_db_drop(1, "label"), "$[1]: missing field 'label'"),
    "bad value, then a later entry's missing field": (
        _steps(_db_value(0, 1, True), _db_drop(2, "pose_video_path")),
        "$[0].embedding[1]: expected a number, got True",
    ),
    "missing field, then a later entry's bad value": (
        _steps(_db_drop(0, "label"), _db_value(2, 0, None)),
        "$[0]: missing field 'label'",
    ),
    "bad value, then an empty pose_video_path in the same entry": (
        _steps(_db_value(1, 0, "x"), _db_set(1, "pose_video_path", "")),
        "$[1].embedding[0]: expected a number, got 'x'",
    ),
    "empty label, then a bad value in the same entry": (
        _steps(_db_set(1, "label", ""), _db_value(1, 0, None)),
        "$[1].label: expected a non-empty string, got ''",
    ),
    "two bad values in one row": (
        _steps(_db_value(1, 2, True), _db_value(1, 1, "1.5")),
        "$[1].embedding[1]: expected a number, got '1.5'",
    ),
    "bad value, then a later entry's empty row": (
        _steps(_db_value(0, 2, False), _db_set(1, "embedding", [])),
        "$[0].embedding[2]: expected a number, got False",
    ),
}


@pytest.mark.parametrize("fault", VALUE_FAULTS.keys())
def test_db_manifest_names_a_bad_value(fault):
    literal, reason = VALUE_FAULTS[fault]
    doc = db_doc()
    doc[1]["embedding"][2] = "NUM"
    text = json.dumps(doc).replace(NUM, literal)
    assert parse_error(parse_db_manifest, text) == f"$[1].embedding[2]: {reason}"


def test_db_manifest_names_the_earlier_of_two_bad_values():
    doc = db_doc()
    doc[0]["embedding"][2] = "NUM"
    doc[1]["embedding"][0] = "1.5"
    text = json.dumps(doc).replace(NUM, "1e999")
    assert parse_error(parse_db_manifest, text) == "$[0].embedding[2]: number must be finite"


@pytest.mark.parametrize("fault", DB_FAULTS.keys())
def test_db_manifest_names_the_first_fault_in_document_order(fault):
    mutate, message = DB_FAULTS[fault]
    doc = db_doc()
    mutate(doc)
    assert parse_error(parse_db_manifest, json.dumps(doc)) == message


def test_db_manifest_rows_are_floats():
    entries = parse_db_manifest(json.dumps(db_doc()))
    rows = [list(e.embedding.values) for e in entries]
    assert rows == [[0.5, 1.0, -2.0], [0.5, 1.0, -3.0], [0.5, 1.0, -4.0]]
    assert {type(v) for row in rows for v in row} == {float}
    # one embedding form: a parsed row is a tuple, equal to and hashing like one built
    assert {type(e.embedding.values) for e in entries} == {tuple}
    built = EmbeddingVector(values=(0.5, 1, -2))
    assert entries[0].embedding == built and hash(entries[0].embedding) == hash(built)
    assert entries[1].embedding != built


def test_embedding_constructor_refuses_what_the_parsers_refuse():
    with pytest.raises(ValueError, match=r"^values\[0\]: expected a number, got '1.5'$"):
        EmbeddingVector(values=["1.5", True, " 2 "])
    with pytest.raises(ValueError, match=r"^values\[1\]: expected a number, got True$"):
        EmbeddingVector(values=(0.5, True))


@given(st.lists(json_leaves, min_size=1, max_size=6))
def test_embedding_constructor_accepts_exactly_what_reals_accepts(items):
    try:
        expected = reals(list(items), "values")
    except ParseError:
        with pytest.raises(ValueError):
            EmbeddingVector(values=items)
    else:
        built = EmbeddingVector(values=items)
        assert built.values == tuple(expected)
        assert {type(v) for v in built.values} == {float}


def test_db_manifest_row_of_the_wrong_length_is_refused_by_build_index():
    doc = db_doc()
    doc[2]["embedding"].append(1.0)
    entries = parse_db_manifest(json.dumps(doc))
    with pytest.raises(DatabaseError) as caught:
        build_index(entries)
    assert str(caught.value) == "entry 'e2' has embedding dim 4, expected 3"


def metric_doc():
    """One valid case with two-frame records; embeddings mix ints and floats."""
    def emb():
        return {"dim": 3, "values": [0.5, 1, -2.0]}

    def record(video_id):
        return {"video_id": video_id, "video_embedding": emb(),
                "frame_embeddings": [emb(), emb()]}

    return [{"case_id": "c0", "edited": record("e"), "source": record("s"),
             "target_prompt_embedding": emb(), "source_prompt_embedding": emb()}]


# where a faulty embedding node sits: (slot, keys inside the slot's node,
# the node's path in error messages)
PLACEMENTS = {
    "prompt slot": ("target_prompt_embedding", (), "$[0].target_prompt_embedding"),
    "frame of a record slot": (
        "edited", ("frame_embeddings", 1), "$[0].edited.frame_embeddings[1]"
    ),
}


def metric_text_with(node_fault, placement, sidecar):
    """The manifest text and sidecar files with ``node_fault`` applied to the
    embedding node at ``placement``, inline or behind ``{"path": ...}``."""
    slot, inner, _ = PLACEMENTS[placement]
    doc = metric_doc()
    node = doc[0][slot]
    for key in inner:
        node = node[key]
    node_fault(node)
    files = {}
    if sidecar:
        files[f"{slot}.json"] = json.dumps(doc[0][slot])
        doc[0][slot] = {"path": f"{slot}.json"}
    return json.dumps(doc), files


def _node_value(j, value):
    return lambda node: node["values"].__setitem__(j, value)


def _node_set(key, value):
    return lambda node: node.__setitem__(key, value)


# faults of one embedding node; each message follows the node's path
NODE_FAULTS = {
    "values not a list": (_node_set("values", 5), ".values: expected an array, got int"),
    "empty row": (_node_set("values", []), ".values: length 0 does not match dim 3"),
    "row of the wrong length": (_node_set("values", [0.5, 1]),
                                ".values: length 2 does not match dim 3"),
    "missing field": (lambda node: node.pop("dim"), ": missing field 'dim'"),
    "two bad values in one row": (_steps(_node_value(2, None), _node_value(0, True)),
                                  ".values[0]: expected a number, got True"),
    "bad value in a row of the wrong length": (
        _steps(_node_value(1, "1.5"), lambda node: node["values"].pop()),
        ".values[1]: expected a number, got '1.5'",
    ),
    "bad dim before a bad value": (_steps(_node_set("dim", "3"), _node_value(0, None)),
                                   ".dim: expected an integer >= 1, got '3'"),
}


def parse_metric_text(text, files, literal=None):
    def read(ref):
        return files[ref] if literal is None else files[ref].replace(NUM, literal)

    if literal is not None:
        text = text.replace(NUM, literal)
    return parse_error(lambda t: parse_metric_cases(t, read), text)


@pytest.mark.parametrize("sidecar", [False, True], ids=["inline", "sidecar"])
@pytest.mark.parametrize("placement", PLACEMENTS.keys())
@pytest.mark.parametrize("fault", VALUE_FAULTS.keys())
def test_metric_manifest_names_a_bad_value(fault, placement, sidecar):
    literal, reason = VALUE_FAULTS[fault]
    text, files = metric_text_with(_node_value(2, "NUM"), placement, sidecar)
    message = parse_metric_text(text, files, literal)
    assert message == f"{PLACEMENTS[placement][2]}.values[2]: {reason}"


@pytest.mark.parametrize("sidecar", [False, True], ids=["inline", "sidecar"])
@pytest.mark.parametrize("placement", PLACEMENTS.keys())
@pytest.mark.parametrize("fault", NODE_FAULTS.keys())
def test_metric_manifest_names_the_first_fault_of_an_embedding(fault, placement, sidecar):
    mutate, suffix = NODE_FAULTS[fault]
    text, files = metric_text_with(mutate, placement, sidecar)
    assert parse_metric_text(text, files) == PLACEMENTS[placement][2] + suffix


@pytest.mark.parametrize("sidecar", [False, True], ids=["inline", "sidecar"])
def test_metric_manifest_names_the_earlier_slot_first(sidecar):
    # slots are read in order: edited, source, target and source prompts
    text, files = metric_text_with(_node_value(2, "NUM"), "frame of a record slot", sidecar)
    doc = json.loads(text)
    doc[0]["target_prompt_embedding"]["values"][0] = None
    doc.append(metric_doc()[0])  # a second case with a duplicate id
    message = parse_metric_text(json.dumps(doc), files, "1e999")
    assert message == "$[0].edited.frame_embeddings[1].values[2]: number must be finite"


def test_metric_manifest_embeddings_are_float_tuples():
    (case,) = parse_metric_cases(json.dumps(metric_doc()), None)
    for embedding in (case.target_prompt_embedding, *case.edited.frame_embeddings):
        assert embedding.values == (0.5, 1.0, -2.0)
        assert {type(v) for v in embedding.values} == {float}


mixed_numbers = st.integers(-40, 40) | st.floats(-40.0, 40.0, allow_subnormal=False)


@given(
    rows=st.lists(st.lists(mixed_numbers, min_size=3, max_size=3), min_size=1, max_size=10),
    q=st.lists(st.floats(-40.0, 40.0, allow_subnormal=False), min_size=3, max_size=3),
    k=st.integers(1, 10),
)
def test_manifest_mixing_ints_and_floats_ranks_like_the_oracle(rows, q, k):
    assume(all(sum(v * v for v in row) > 0 for row in rows) and sum(v * v for v in q) > 0)
    k = min(k, len(rows))
    manifest = [
        {"entry_id": f"e{i}", "label": "l", "embedding": row, "pose_video_path": "p"}
        for i, row in enumerate(rows)
    ]
    got = query(build_index(parse_db_manifest(json.dumps(manifest))),
                EmbeddingVector(values=q), k)
    order, scores = ranking_by_sort(q, [[float(v) for v in row] for row in rows], k)
    assert [eid for eid, _ in got] == [f"e{i}" for i in order]
    assert [s for _, s in got] == [scores[i] for i in order]


# --- strings --------------------------------------------------------------------------
# JSON can escape half of a surrogate pair ("\ud800"), which decodes to a str
# that no encoding can write; every document string refuses one.

# parser, the string literal of its template to replace, the node then named
STRING_FIELDS = {
    "skeleton name": ("pose_video", '"a"', r"skeleton\[0\]"),
    "pose label": ("pose_video", '"skeleton"', r"label"),
    "entry_id": ("db_manifest", '"a"', r"\$\[0\]\.entry_id"),
    "label": ("db_manifest", '"b"', r"\$\[0\]\.label"),
    "pose_video_path": ("db_manifest", '"c"', r"\$\[0\]\.pose_video_path"),
    "case_id": ("metric_cases", '"c"', r"\$\[0\]\.case_id"),
    "video_id": ("metric_cases", '"v"', r"\$\[0\]\.edited\.video_id"),
    "phrase": ("detections", '"p"', r"detections\[0\]\.phrase"),
}


def with_string(field, literal):
    parser, old, _ = STRING_FIELDS[field]
    template = TEMPLATES[parser].replace("NUM", "0.5")
    if field == "pose label":  # the template has no label: add one
        return template.replace(old, f'"label": {literal}, {old}', 1)
    return template.replace(old, literal, 1)


@pytest.mark.parametrize("field", STRING_FIELDS.keys())
def test_a_string_with_an_unpaired_surrogate_is_a_parse_error(field):
    parser, _, node = STRING_FIELDS[field]
    for literal in (r'"wave \ud800"', r'"\udfff"', r'"\ude00\ud83d"'):
        message = parse_error(PARSERS[parser], with_string(field, literal))
        assert re.match(f"{node}: unpaired surrogate in ", message), message


@pytest.mark.parametrize("field", STRING_FIELDS.keys())
def test_a_string_with_a_paired_surrogate_escape_parses(field):
    parser, _, _ = STRING_FIELDS[field]
    text = with_string(field, r'"wave \ud83d\ude00"')
    assert "wave \U0001F600" in repr(PARSERS[parser](text))


def test_config_paths_keep_surrogate_escapes_for_open_to_judge():
    # an argv path may carry the surrogate escape of an undecodable byte
    assert make_config({"db": "db-\udcff.json"}).db == "db-\udcff.json"
    assert make_config(parse_pipeline_config(r'{"db": "\ud800"}')).db == "\ud800"
