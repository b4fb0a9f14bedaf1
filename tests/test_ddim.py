import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from posedit import (
    DdimSchedule,
    LatentState,
    ShapeError,
    constant_predictor,
    ddim_denoise_step,
    ddim_invert_step,
    ldm_loss,
    linear_predictor,
    make_schedule,
    sample_with_blend,
    zero_predictor,
)
from oracles import ddim_linear_final, linear_betas


def test_default_schedule_shape_and_endpoints():
    sched = make_schedule()
    assert sched.steps == 50
    assert len(sched.betas) == 50
    assert len(sched.alphas) == 51
    assert sched.alphas[0] == 1.0
    assert math.isclose(sched.betas[0], 0.00085, rel_tol=1e-12)
    assert math.isclose(sched.betas[-1], 0.012, rel_tol=1e-12)


def test_schedule_betas_form_a_linear_ramp():
    sched = make_schedule(beta_start=0.001, beta_end=0.02, steps=10)
    expected = linear_betas(0.001, 0.02, 10)
    assert list(sched.betas) == expected
    # alphas are the running product of (1 - beta)
    prod = 1.0
    for i, beta in enumerate(sched.betas, start=1):
        prod *= 1.0 - beta
        assert math.isclose(sched.alphas[i], prod, rel_tol=1e-12)


def test_schedule_alphas_strictly_decrease():
    sched = make_schedule()
    for a, b in zip(sched.alphas, sched.alphas[1:]):
        assert b < a
        assert 0.0 < b <= 1.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule(steps=0)
    # a one-step schedule is legal and uses beta_start alone
    assert make_schedule(steps=1, beta_start=0.5, beta_end=0.6).betas == (0.5,)
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


def test_zero_predictor_scales_by_alpha_ratio():
    sched = make_schedule()
    z = LatentState(values=np.array([2.0, -4.0]), t=50)
    pred = zero_predictor()
    out = ddim_denoise_step(z, pred(z.values, 50, None), sched)
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


def test_constant_predictor_returns_its_vector():
    eps0 = np.array([1.0, 2.0])
    pred = constant_predictor(eps0)
    out = pred(np.zeros(2), 3, None)
    assert np.array_equal(out, eps0)


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


def test_ldm_loss_known_value():
    assert ldm_loss(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == 5.0
    assert ldm_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0


def test_ldm_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        ldm_loss(np.zeros(2), np.zeros(3))


# --- trajectory sampling -------------------------------------------------------------


def test_sample_with_blend_returns_full_trajectory():
    sched = make_schedule(steps=6)
    rng = np.random.default_rng(12)
    z = LatentState(values=rng.standard_normal(3), t=6)
    pred = zero_predictor()
    traj = sample_with_blend(z, pred, None, sched)
    assert len(traj) == 7
    assert [s.t for s in traj] == [6, 5, 4, 3, 2, 1, 0]
    assert traj[0] is z
    manual = z
    for t in range(6, 0, -1):
        manual = ddim_denoise_step(manual, np.zeros(3), sched)
    assert np.array_equal(traj[-1].values, manual.values)


def test_sample_with_blend_requires_attention_record_for_hook():
    sched = make_schedule(steps=3)
    z = LatentState(values=np.zeros(2), t=3)
    with pytest.raises(ValueError, match="attention_record"):
        sample_with_blend(z, zero_predictor(), None, sched, blend_hook=lambda r: None)


def test_sample_with_blend_hook_does_not_change_latents():
    from posedit.blending import SyntheticAttentionPredictor

    sched = make_schedule(steps=4)
    rng = np.random.default_rng(13)
    z = LatentState(values=rng.standard_normal(4), t=4)
    base = constant_predictor(np.full(4, 0.25))
    plain = sample_with_blend(z, base, None, sched)
    seen = []
    wrapped = SyntheticAttentionPredictor(base, tokens=2)
    hooked = sample_with_blend(z, wrapped, None, sched, blend_hook=seen.append)
    assert len(seen) == 4
    assert [r.step for r in seen] == [4, 3, 2, 1]
    for a, b in zip(plain, hooked):
        assert np.array_equal(a.values, b.values)
