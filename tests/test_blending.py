import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from posedit import (
    AttentionStack,
    BlendStepRecord,
    CrossAttentionMap,
    GeometryError,
    Mask,
    ParseError,
    ShapeError,
    SpatialMap,
    blend_step,
    parse_attention_stack,
    run_blend_schedule_with_masks,
    threshold_mask,
)
from posedit.blending import resize_mask
from conftest import read_fixture
from oracles import (
    grids_from_stack_doc,
    resize_by_loops,
    threshold_by_loops,
    unroll_blend_schedule,
)


def smap(rows):
    arr = np.asarray(rows, dtype=np.float64)
    return SpatialMap(h=arr.shape[0], w=arr.shape[1], values=arr)


def cross(*token_grids):
    return CrossAttentionMap(maps=tuple(smap(g) for g in token_grids))


def mask(rows):
    arr = np.asarray(rows, dtype=np.uint8)
    return Mask(h=arr.shape[0], w=arr.shape[1], bits=arr)


# --- thresholding -------------------------------------------------------------------


def test_threshold_of_an_overflowing_token_sum_is_a_geometry_error():
    # each map is finite; their sum is not, and numpy must not warn about it
    c = cross([[1.7e308, 1.0]], [[1.7e308, 1.0]])
    with pytest.raises(GeometryError, match="overflow"):
        threshold_mask(c, (0, 1), 0.5)
    assert threshold_mask(c, (0,), 0.5).bits.tolist() == [[1, 0]]


def test_threshold_known_grid():
    c = cross([[4.0, 1.0], [0.0, 2.0]])
    got = threshold_mask(c, (0,), 0.5)
    assert got.bits.tolist() == [[1, 0], [0, 1]]


def test_threshold_sums_selected_tokens():
    c = cross([[4.0, 0.0], [0.0, 0.0]], [[0.0, 4.0], [0.0, 0.0]])
    got = threshold_mask(c, (0, 1), 0.9)
    assert got.bits.tolist() == [[1, 1], [0, 0]]
    only_first = threshold_mask(c, (0,), 0.9)
    assert only_first.bits.tolist() == [[1, 0], [0, 0]]


def test_threshold_all_zero_map_is_all_zero_mask():
    c = cross([[0.0, 0.0], [0.0, 0.0]])
    assert threshold_mask(c, (0,), 0.3).bits.tolist() == [[0, 0], [0, 0]]


def test_threshold_ratio_one_keeps_only_the_peak():
    c = cross([[1.0, 2.0], [3.0, 4.0]])
    assert threshold_mask(c, (0,), 1.0).bits.tolist() == [[0, 0], [0, 1]]


def test_threshold_domain_errors():
    c = cross([[1.0]])
    with pytest.raises(ValueError):
        threshold_mask(c, (), 0.5)
    with pytest.raises(IndexError):
        threshold_mask(c, (1,), 0.5)
    with pytest.raises(ValueError):
        threshold_mask(c, (0,), 0.0)
    with pytest.raises(ValueError):
        threshold_mask(c, (0,), 1.5)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_threshold_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 7)), int(rng.integers(1, 7))
    n_tok = int(rng.integers(1, 4))
    grids = [rng.uniform(0.0, 1.0, (h, w)) for _ in range(n_tok)]
    ratio = float(rng.uniform(0.05, 1.0))
    tokens = tuple(sorted(rng.choice(n_tok, size=int(rng.integers(1, n_tok + 1)), replace=False).tolist()))
    got = threshold_mask(cross(*grids), tokens, ratio)
    expected = threshold_by_loops([g.tolist() for g in grids], tokens, ratio)
    assert got.bits.tolist() == expected


# --- the blend itself ----------------------------------------------------------------


def test_full_mask_selects_denoise_map_exactly():
    den = smap([[1.0, 2.0], [3.0, 4.0]])
    inv = smap([[9.0, 8.0], [7.0, 6.0]])
    ones = mask([[1, 1], [1, 1]])
    got = blend_step(ones, den, inv)
    assert np.array_equal(got.values, den.values)


def test_empty_mask_selects_inversion_map_exactly():
    den = smap([[1.0, 2.0], [3.0, 4.0]])
    inv = smap([[9.0, 8.0], [7.0, 6.0]])
    zeros = mask([[0, 0], [0, 0]])
    got = blend_step(zeros, den, inv)
    assert np.array_equal(got.values, inv.values)


def test_equal_maps_blend_to_themselves():
    x = smap([[0.5, 1.5], [2.5, 0.0]])
    m = mask([[1, 0], [0, 1]])
    got = blend_step(m, x, x)
    assert np.array_equal(got.values, x.values)


def test_blend_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        blend_step(mask([[1]]), smap([[1.0, 2.0]]), smap([[1.0, 2.0]]))


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_blend_stays_within_pointwise_bounds(seed):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    den = rng.uniform(0.0, 5.0, (h, w))
    inv = rng.uniform(0.0, 5.0, (h, w))
    bits = rng.integers(0, 2, (h, w)).astype(np.uint8)
    got = blend_step(Mask(h=h, w=w, bits=bits), SpatialMap(h, w, den), SpatialMap(h, w, inv))
    lo = np.minimum(den, inv)
    hi = np.maximum(den, inv)
    assert np.all(got.values >= lo)
    assert np.all(got.values <= hi)


# --- resizing -------------------------------------------------------------------------


def test_resize_mask_down_picks_pixel_centers():
    # centers of the 2x2 grid land on source rows/cols 1 and 3
    m = mask([[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]])
    got = resize_mask(m, 2, 2)
    assert got.bits.tolist() == [[0, 0], [0, 1]]
    m2 = mask([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    assert resize_mask(m2, 2, 2).bits.tolist() == [[1, 0], [0, 0]]


def test_resize_mask_up_replicates():
    m = mask([[1, 0], [0, 1]])
    got = resize_mask(m, 4, 4)
    assert got.bits.tolist() == [
        [1, 1, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, 1],
    ]


def test_resize_mask_same_shape_returns_same_object():
    m = mask([[1, 0], [0, 1]])
    assert resize_mask(m, 2, 2) is m


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_resize_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    h2, w2 = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    bits = rng.integers(0, 2, (h, w)).astype(np.uint8)
    got = resize_mask(Mask(h=h, w=w, bits=bits), h2, w2)
    assert got.bits.tolist() == resize_by_loops(bits.tolist(), h2, w2)


# --- schedules ------------------------------------------------------------------------


def stack_from_fixture(name):
    return parse_attention_stack(read_fixture("blend", name))


def test_schedule_on_fixture_matches_unrolled_recurrence_bitwise():
    doc = json.loads(read_fixture("blend", "blend_sched_01.json"))
    stack = stack_from_fixture("blend_sched_01.json")
    for tokens in [(0,), (1,), (0, 1)]:
        for ratio in (0.3, 0.62, 1.0):
            got = run_blend_schedule_with_masks(stack, tokens, ratio)
            expected = unroll_blend_schedule(grids_from_stack_doc(doc), tokens, ratio)
            assert len(got) == len(expected) == 3
            for (g_step, g_mask, g_map), (e_step, e_bits, e_map) in zip(got, expected):
                assert g_step == e_step
                assert g_mask.bits.tolist() == e_bits
                assert g_map.values.tolist() == e_map


def test_schedule_union_variant_matches_oracle():
    doc = json.loads(read_fixture("blend", "blend_sched_01.json"))
    stack = stack_from_fixture("blend_sched_01.json")
    got = run_blend_schedule_with_masks(stack, (0,), 0.3, union_with_initial=True)
    expected = unroll_blend_schedule(grids_from_stack_doc(doc), (0,), 0.3, union_with_initial=True)
    for (g_step, g_mask, g_map), (e_step, e_bits, e_map) in zip(got, expected):
        assert g_step == e_step
        assert g_mask.bits.tolist() == e_bits
        assert g_map.values.tolist() == e_map


def test_schedule_first_step_masks_from_own_inversion_cross():
    stack = stack_from_fixture("single_step.json")
    (step, m, _), = run_blend_schedule_with_masks(stack, (0,), 0.5)
    assert step == 5
    expected = threshold_mask(stack.steps[0].inversion_cross, (0,), 0.5)
    assert np.array_equal(m.bits, expected.bits)


def test_schedule_maps_are_blends_of_the_returned_masks():
    stack = stack_from_fixture("blend_sched_01.json")
    with_masks = run_blend_schedule_with_masks(stack, (0,), 0.3)
    without = [
        (record.step, blend_step(m, record.denoise_self, record.inversion_self))
        for record, (_, m, _) in zip(stack.steps, with_masks)
    ]
    assert [(s, m.values.tolist()) for s, _, m in with_masks] == [
        (s, m.values.tolist()) for s, m in without
    ]


# --- construction and parsing ----------------------------------------------------------


def one_record(step=1, h=2, w=2):
    grid = [[1.0] * w for _ in range(h)]
    return BlendStepRecord(
        step=step,
        inversion_cross=cross(grid),
        inversion_self=smap(grid),
        denoise_cross=cross(grid),
        denoise_self=smap(grid),
    )


def test_stack_requires_descending_steps():
    with pytest.raises(ShapeError, match="descending"):
        AttentionStack(steps=(one_record(1), one_record(2)))
    with pytest.raises(ShapeError, match="descending"):
        AttentionStack(steps=(one_record(2), one_record(2)))


def test_record_requires_uniform_shapes():
    grid = [[1.0, 1.0]]
    with pytest.raises(ShapeError):
        BlendStepRecord(
            step=1,
            inversion_cross=cross(grid),
            inversion_self=smap(grid),
            denoise_cross=cross([[1.0]]),
            denoise_self=smap(grid),
        )


def test_spatial_map_rejects_negative_values():
    with pytest.raises(ValueError):
        smap([[-0.5]])


def test_mask_rejects_non_binary_bits():
    with pytest.raises(ValueError):
        Mask(h=1, w=1, bits=np.array([[2]], dtype=np.uint8))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d["steps"].clear(), "steps"),
        (lambda d: d["steps"][0]["s_inv"]["values"].pop(), "values"),
        (lambda d: d["steps"][0]["c_den"].append(d["steps"][0]["c_den"][0]), "token"),
        (
            lambda d: d["steps"][0]["s_den"]["values"].__setitem__(0, -1.0),
            "negative|non-negative",
        ),
        (lambda d: d["steps"].append(d["steps"][-1]), "descending"),
    ],
)
def test_parse_attention_stack_rejects_malformed(mutate, message):
    doc = json.loads(read_fixture("blend", "blend_sched_01.json"))
    mutate(doc)
    with pytest.raises(ParseError, match=message):
        parse_attention_stack(json.dumps(doc))
