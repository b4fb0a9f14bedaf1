import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from posedit import (
    GeometryError,
    LatentState,
    ShapeError,
    ddim_denoise_step,
    ddim_invert_step,
    linear_predictor,
    make_schedule,
    sample_with_blend,
)
from posedit.ddim import _row_sums
from oracles import ddim_linear_final, linear_betas


def running_alphas(betas):
    alphas = [1.0]
    for b in betas:
        alphas.append(alphas[-1] * (1.0 - b))
    return tuple(alphas)


def test_default_schedule_shape_and_endpoints():
    sched = make_schedule()
    assert sched.steps == 50
    assert (sched.beta_start, sched.beta_end) == (0.00085, 0.012)
    assert sched.alphas == running_alphas(linear_betas(0.00085, 0.012, 50))


def test_schedule_betas_form_a_linear_ramp():
    sched = make_schedule(beta_start=0.001, beta_end=0.02, steps=10)
    # alphas are the running product of (1 - beta) over the linear ramp
    assert sched.alphas == running_alphas(linear_betas(0.001, 0.02, 10))


def test_schedule_alphas_strictly_decrease():
    sched = make_schedule()
    for a, b in zip(sched.alphas, sched.alphas[1:]):
        assert b < a
        assert 0.0 < b <= 1.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule(steps=0)
    # a one-step schedule is legal and uses beta_start alone
    assert make_schedule(steps=1, beta_start=0.5, beta_end=0.6).alphas == running_alphas(
        linear_betas(0.5, 0.6, 1)
    )
    with pytest.raises(ValueError):
        make_schedule(beta_start=0.0)
    with pytest.raises(ValueError):
        make_schedule(beta_start=0.02, beta_end=0.001)


def test_latent_state_validation():
    with pytest.raises(ShapeError):
        LatentState(values=np.zeros((2, 2)), t=0)
    with pytest.raises(ValueError):
        LatentState(values=np.zeros(3), t=-1)


def test_step_range_checks():
    sched = make_schedule(steps=5)
    z0 = LatentState(values=np.zeros(2), t=0)
    z5 = LatentState(values=np.zeros(2), t=5)
    eps = np.zeros(2)
    with pytest.raises(ValueError):
        ddim_denoise_step(z0, eps, sched)
    with pytest.raises(ValueError):
        ddim_invert_step(z5, eps, sched)


def test_single_step_inverse_identity():
    sched = make_schedule()
    rng = np.random.default_rng(8)
    for t_prev in (0, 10, 49):
        z = LatentState(values=rng.standard_normal(6), t=t_prev)
        eps = rng.standard_normal(6)
        up = ddim_invert_step(z, eps, sched)
        assert up.t == t_prev + 1
        back = ddim_denoise_step(up, eps, sched)
        assert back.t == t_prev
        assert np.max(np.abs(back.values - z.values)) < 1e-12


def test_denoise_then_invert_is_also_identity():
    sched = make_schedule()
    rng = np.random.default_rng(9)
    z = LatentState(values=rng.standard_normal(4), t=30)
    eps = rng.standard_normal(4)
    down = ddim_denoise_step(z, eps, sched)
    again = ddim_invert_step(down, eps, sched)
    assert np.max(np.abs(again.values - z.values)) < 1e-12


def test_zero_noise_scales_by_alpha_ratio():
    sched = make_schedule()
    z = LatentState(values=np.array([2.0, -4.0]), t=50)
    out = ddim_denoise_step(z, np.zeros(2), sched)
    ratio = math.sqrt(sched.alphas[49] / sched.alphas[50])
    assert np.allclose(out.values, ratio * z.values, rtol=1e-15)


def test_full_round_trip_with_recorded_noise_is_exact():
    sched = make_schedule()
    rng = np.random.default_rng(10)
    z0 = LatentState(values=rng.standard_normal(8), t=0)

    z = z0
    log = [None]
    for t_prev in range(0, 50):
        eps = rng.standard_normal(8)
        log.append(eps)
        z = ddim_invert_step(z, eps, sched)
    assert z.t == 50

    down = z
    for t in range(50, 0, -1):
        down = ddim_denoise_step(down, log[t], sched)
    assert down.t == 0
    assert np.max(np.abs(down.values - z0.values)) < 1e-9


def test_linear_predictor_matches_matrix_recurrence():
    sched = make_schedule()
    rng = np.random.default_rng(11)
    matrix = 0.1 * rng.standard_normal((5, 5))
    pred = linear_predictor(matrix)
    z = LatentState(values=rng.standard_normal(5), t=50)
    z_top = z.values.copy()
    while z.t > 0:
        z = ddim_denoise_step(z, pred(z.values, z.t, None), sched)
    expected = ddim_linear_final(matrix, z_top, sched.alphas, 50)
    assert np.allclose(z.values, expected, rtol=1e-9, atol=1e-12)


@given(
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(min_value=0.01, max_value=100.0),
    st.integers(min_value=1, max_value=50),
)
def test_denoise_step_is_homogeneous_in_latent_and_noise(z_val, eps_val, lam, t):
    sched = make_schedule()
    z = LatentState(values=np.array([z_val]), t=t)
    z_scaled = LatentState(values=np.array([lam * z_val]), t=t)
    eps = np.array([eps_val])
    base = ddim_denoise_step(z, eps, sched).values[0]
    scaled = ddim_denoise_step(z_scaled, lam * eps, sched).values[0]
    assert math.isclose(scaled, lam * base, rel_tol=1e-12, abs_tol=1e-300)


def test_steps_refuse_a_latent_that_overflows():
    sched = make_schedule(steps=1000, beta_start=0.3, beta_end=0.5)
    z = LatentState(values=[1e300, -1.0], t=900)
    # dividing by sqrt(alphas[900]) carries 1e300 past the float range
    with pytest.raises(GeometryError, match=r"^step 900 -> 899: latent values overflow"):
        ddim_denoise_step(z, np.zeros(2), sched)
    with pytest.raises(GeometryError, match=r"^step 900 -> 901: latent values overflow"):
        ddim_invert_step(z, [1e308, 0.0], sched)


def test_an_overflowing_linear_eps_is_refused_by_the_step():
    sched = make_schedule(steps=3)
    pred = linear_predictor(np.full((2, 2), 1e300))
    z = LatentState(values=[1e300, 1e300], t=0)
    eps = pred(z.values, 1, None)
    assert np.isinf(eps).all()
    with pytest.raises(GeometryError, match=r"^step 0 -> 1: "):
        ddim_invert_step(z, eps, sched)


# subnormals, signed zeros, magnitudes whose products overflow, and infinities
# whose sums give inf - inf
SPECIAL_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, np.inf, -np.inf])


@given(
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=16),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_row_sums_equal_the_one_shot_reduction_bit_for_bit(dim, rows, special_share, seed):
    rng = np.random.default_rng(seed)

    def draw(shape):
        values = rng.standard_normal(shape)
        special = rng.random(shape) < special_share
        values[special] = rng.choice(SPECIAL_VALUES, size=int(special.sum()))
        return values

    a, z = draw((dim, dim)), draw(dim)
    with np.errstate(over="ignore", invalid="ignore"):
        want = (a * z).sum(axis=1)
        got = _row_sums(a, z, rows)
    # NaN rows must carry the same NaN bits too
    assert got.tobytes() == want.tobytes()


# --- trajectory sampling -------------------------------------------------------------


def test_sample_with_blend_returns_full_trajectory():
    sched = make_schedule(steps=6)
    rng = np.random.default_rng(12)
    z = LatentState(values=rng.standard_normal(3), t=6)
    pred = linear_predictor(np.zeros((3, 3)))
    traj = sample_with_blend(z, pred, sched)
    assert len(traj) == 7
    assert [s.t for s in traj] == [6, 5, 4, 3, 2, 1, 0]
    assert traj[0] is z
    for state in traj[1:]:
        # each state is built by the public LatentState constructor, which freezes it
        assert state.values.dtype == np.float64 and state.values.shape == (3,)
        assert not state.values.flags.writeable
    manual = z
    for t in range(6, 0, -1):
        manual = ddim_denoise_step(manual, np.zeros(3), sched)
    assert np.array_equal(traj[-1].values, manual.values)
