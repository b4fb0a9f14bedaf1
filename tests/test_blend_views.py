"""The blend path checks each attention value once, where it enters.

Parsed maps, thresholded and resized masks, mask unions, blended maps and the
synthetic attention maps skip the public constructors' second check; these
tests hold each of them to an independent reference, byte for byte.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from posedit import (
    GeometryError,
    LatentState,
    SpatialMap,
    parse_attention_stack,
    run_blend_schedule_with_masks,
)
from posedit.blending import synthetic_attention_stack
from oracles import grids_from_stack_doc, unroll_blend_schedule

# token sets sum at most 4 maps of at most 1e300 each, so sums stay finite
cells = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.3, 0.6, 1.0, 5e-324]), st.floats(0.0, 1e300)
)


@st.composite
def blend_cases(draw):
    """A stack document whose grid may differ from step to step, and the
    schedule's token list, ratio and union flag."""
    tokens = draw(st.integers(1, 3))
    step_ids = sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=4)), reverse=True)
    steps = []
    for step in step_ids:
        h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))

        def grid():
            return {"h": h, "w": w, "values": draw(st.lists(cells, min_size=h * w, max_size=h * w))}

        steps.append(
            {
                "step": step,
                "c_inv": [grid() for _ in range(tokens)],
                "s_inv": grid(),
                "c_den": [grid() for _ in range(tokens)],
                "s_den": grid(),
            }
        )
    token_set = draw(st.lists(st.integers(0, tokens - 1), min_size=1, max_size=4))
    ratio = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.0, 1.0, exclude_min=True))
    return {"steps": steps}, token_set, ratio, draw(st.booleans())


def one_step(c_inv):
    grid = {"h": 1, "w": len(c_inv[0]), "values": [1.0] * len(c_inv[0])}
    maps = [{**grid, "values": values} for values in c_inv]
    return {"steps": [{"step": 1, "c_inv": maps, "s_inv": grid, "c_den": maps, "s_den": grid}]}


@given(blend_cases())
# in token order the first cell sums to 0.6000000000000001, above the second
# cell's 0.6; summed in another order it would be 0.6 and both bits set
@example((one_step([[0.1, 0.6], [0.2, 0.0], [0.3, 0.0]]), [0, 1, 2], 1.0, False))
def test_schedule_matches_the_unrolled_oracle_bytewise(case):
    doc, token_set, ratio, union = case
    stack = parse_attention_stack(json.dumps(doc))
    got = run_blend_schedule_with_masks(stack, token_set, ratio, union)
    want = unroll_blend_schedule(grids_from_stack_doc(doc), token_set, ratio, union)
    assert len(got) == len(want) == len(doc["steps"])
    for (step, mask, s_edit), (want_step, bits, values), step_doc in zip(got, want, doc["steps"]):
        assert step == want_step
        shape = (step_doc["s_den"]["h"], step_doc["s_den"]["w"])
        assert (mask.h, mask.w) == (s_edit.h, s_edit.w) == shape
        assert mask.bits.tobytes() == np.array(bits, dtype=np.uint8).tobytes()
        assert s_edit.values.tobytes() == np.array(values, dtype=np.float64).tobytes()
        assert not mask.bits.flags.writeable and not s_edit.values.flags.writeable


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
    st.integers(1, 3000),
    st.integers(1, 4),
)
@example([0.7, -1.3], 9, 4)  # 0.5 + 0.01 * 9 + 0.25 * 2 rounds differently
def test_synthetic_attention_matches_the_per_map_construction(z, t, tokens):
    z = np.array(z)
    trajectory = [LatentState(values=z, t=t), LatentState(values=z, t=t - 1)]
    (record,) = synthetic_attention_stack(trajectory, tokens).steps
    tiled = np.tile(np.abs(z), -(-16 // z.size))[:16].reshape(4, 4)

    def reference(scale):
        return SpatialMap(4, 4, scale * tiled).values.tobytes()

    assert record.step == t
    assert [m.values.tobytes() for m in record.inversion_cross.maps] == [
        reference(1.0 + 0.25 * k) for k in range(tokens)
    ]
    assert record.inversion_self.values.tobytes() == reference(2.0)
    assert [m.values.tobytes() for m in record.denoise_cross.maps] == [
        reference(0.5 + 0.25 * k + 0.01 * t) for k in range(tokens)
    ]
    assert record.denoise_self.values.tobytes() == reference(3.0 + 0.01 * t)
    for m in (*record.inversion_cross.maps, record.denoise_self):
        assert (m.h, m.w) == (4, 4) and not m.values.flags.writeable


def test_synthetic_attention_has_one_record_per_step_but_the_last():
    trajectory = [LatentState(values=[float(t)], t=t) for t in (3, 2, 1, 0)]
    stack = synthetic_attention_stack(trajectory, tokens=2)
    assert [r.step for r in stack.steps] == [3, 2, 1]
    assert stack.tokens == 2
    assert [float(r.inversion_self.values[0, 0]) for r in stack.steps] == [6.0, 4.0, 2.0]


def test_synthetic_attention_refuses_a_map_that_overflows():
    # finite at scales up to 2.0; 3.02 * 6e307 is not
    trajectory = [LatentState(values=[6e307], t=2), LatentState(values=[1.0], t=1)]
    trajectory.append(LatentState(values=[1.0], t=0))
    with pytest.raises(GeometryError, match="^step 2: attention maps overflow"):
        synthetic_attention_stack(trajectory, tokens=1)
