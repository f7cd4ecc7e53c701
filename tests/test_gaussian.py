import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm

from nongauss.errors import InvalidStateError
from nongauss.gaussian import (
    GaussianState,
    SymplecticOp,
    apply_symplectic,
    condition_on_projection,
    gaussian_entropy,
    gaussian_unitary,
    partial_trace_gaussian,
    photon_tail_bound,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_entropy,
    thermal_state,
    tmsv_state,
    vacuum_state,
    williamson,
)

from conftest import random_gaussian_state, random_symplectic

Z = np.diag([1.0, -1.0])


def test_symplectic_form_blocks():
    omega = symplectic_form(2)
    expected = np.array(
        [
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
        ],
        dtype=float,
    )
    assert_allclose(omega, expected)
    assert_allclose(omega @ omega, -np.eye(4))


def test_symplectic_form_is_cached_read_only():
    for n in (1, 2, 3):
        omega = symplectic_form(n)
        assert symplectic_form(n) is omega
        assert not omega.flags.writeable
        assert_array_equal(omega, symplectic_form.__wrapped__(n))
        with pytest.raises(ValueError):
            omega[0, 1] = 2.0


def test_vacuum_and_thermal_states():
    vac = vacuum_state(2)
    assert_allclose(vac.cov, np.eye(4))
    assert_allclose(vac.mean, np.zeros(4))
    th = thermal_state(0.5)
    assert_allclose(th.cov, 2.0 * np.eye(2))


def test_state_validation_rejects_unphysical():
    with pytest.raises(InvalidStateError):
        GaussianState(1, np.zeros(2), 0.5 * np.eye(2))
    with pytest.raises(InvalidStateError):
        GaussianState(1, np.zeros(2), np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(3), np.eye(2))


def test_state_arrays_are_readonly():
    vac = vacuum_state(1)
    with pytest.raises(ValueError):
        vac.cov[0, 0] = 5.0


def test_thermal_entropy_values():
    # g(N) = (N+1) log2(N+1) - N log2(N)
    assert thermal_entropy(0.0) == 0.0
    assert_allclose(thermal_entropy(1.0), 2.0, rtol=0, atol=1e-14)
    assert_allclose(thermal_entropy(0.5), 1.377443751081734, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        thermal_entropy(-0.1)


def test_symplectic_eigenvalues_thermal_product():
    cov = np.diag([3.0, 3.0, 5.0, 5.0, 1.0, 1.0])
    state = GaussianState(3, np.zeros(6), cov)
    mu = symplectic_eigenvalues(state).mu
    assert_allclose(mu, [5.0, 3.0, 1.0], atol=1e-12)


def test_symplectic_eigenvalues_invariant_under_symplectics():
    rng = np.random.default_rng(7)
    for _ in range(20):
        state = random_gaussian_state(3, rng)
        s = random_symplectic(3, rng)
        cov2 = s @ state.cov @ s.T
        other = GaussianState(3, np.zeros(6), 0.5 * (cov2 + cov2.T))
        assert_allclose(
            np.sort(symplectic_eigenvalues(other).mu),
            np.sort(symplectic_eigenvalues(state).mu),
            atol=1e-8,
        )


def test_gaussian_entropy_matches_thermal():
    assert_allclose(gaussian_entropy(thermal_state(1.0)), 2.0, atol=1e-12)
    assert gaussian_entropy(vacuum_state(2)) == 0.0
    # Additivity over a product of thermals.
    cov = np.diag([3.0, 3.0, 2.0, 2.0])
    state = GaussianState(2, np.zeros(4), cov)
    expected = thermal_entropy(1.0) + thermal_entropy(0.5)
    assert_allclose(gaussian_entropy(state), expected, atol=1e-12)


def test_displacement_moves_mean_only():
    op = gaussian_unitary("displacement", 1.0 + 0.5j)
    out = apply_symplectic(vacuum_state(1), op)
    assert_allclose(out.mean, [2.0, 1.0])
    assert_allclose(out.cov, np.eye(2))


def test_rotation_matches_annihilation_phase():
    # exp(-i theta a^dag a) maps a -> a e^{-i theta}; on a displaced vacuum
    # the mean (2 Re alpha, 2 Im alpha) must rotate the same way.
    theta = 0.7
    alpha = 1.2 + 0.3j
    coh = apply_symplectic(vacuum_state(1), gaussian_unitary("displacement", alpha))
    out = apply_symplectic(coh, gaussian_unitary("rotation", theta))
    rotated = alpha * np.exp(-1j * theta)
    assert_allclose(out.mean, [2.0 * rotated.real, 2.0 * rotated.imag], atol=1e-12)
    assert_allclose(out.cov, np.eye(2), atol=1e-12)


def test_squeeze_on_vacuum():
    r = 0.4
    out = apply_symplectic(vacuum_state(1), gaussian_unitary("squeeze", r))
    assert_allclose(out.cov, np.diag([np.exp(-2 * r), np.exp(2 * r)]), atol=1e-12)


def test_two_mode_squeeze_gives_tmsv():
    # r = arctanh(sqrt(N_S/(N_S+1))) at N_S = 1
    r = float(np.arctanh(np.sqrt(0.5)))
    assert_allclose(r, 0.8813735870195429, atol=1e-12)
    out = apply_symplectic(vacuum_state(2), gaussian_unitary("two_mode_squeeze", r))
    assert_allclose(out.cov, tmsv_state(1.0).cov, atol=1e-12)


def test_tmsv_state_blocks():
    state = tmsv_state(1.0)
    c = 2.0 * np.sqrt(2.0)
    assert_allclose(state.cov[:2, :2], 3.0 * np.eye(2))
    assert_allclose(state.cov[2:, 2:], 3.0 * np.eye(2))
    assert_allclose(state.cov[:2, 2:], c * Z)
    mu = symplectic_eigenvalues(state).mu
    assert_allclose(mu, [1.0, 1.0], atol=1e-12)


def test_beamsplitter_balanced_on_displaced_input():
    # a -> sqrt(tau) a - sqrt(1-tau) b
    alpha = 1.0
    st = apply_symplectic(vacuum_state(2), gaussian_unitary("displacement", alpha, 2, (0,)))
    out = apply_symplectic(st, gaussian_unitary("beamsplitter", 0.5))
    s = np.sqrt(0.5)
    assert_allclose(out.mean, [2 * alpha * s, 0.0, 2 * alpha * s, 0.0], atol=1e-12)
    assert_allclose(out.cov, np.eye(4), atol=1e-12)


def test_gaussian_unitary_embedding():
    op = gaussian_unitary("squeeze", 0.3, n_modes=3, targets=(1,))
    assert_allclose(op.S[0:2, 0:2], np.eye(2))
    assert_allclose(op.S[2:4, 2:4], np.diag([np.exp(-0.3), np.exp(0.3)]))
    assert_allclose(op.S[4:6, 4:6], np.eye(2))
    with pytest.raises(ValueError):
        gaussian_unitary("beamsplitter", 0.5, n_modes=3, targets=(1, 1))
    with pytest.raises(ValueError):
        gaussian_unitary("beamsplitter", 1.5)


def test_symplectic_op_rejects_non_symplectic():
    with pytest.raises(ValueError):
        SymplecticOp(1, 2.0 * np.eye(2), np.zeros(2))


def test_apply_symplectic_random_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(10):
        state = random_gaussian_state(2, rng)
        s = random_symplectic(2, rng)
        op = SymplecticOp(2, s, np.zeros(4))
        inv = SymplecticOp(2, np.linalg.inv(s), np.zeros(4))
        back = apply_symplectic(apply_symplectic(state, op), inv)
        assert_allclose(back.cov, state.cov, atol=1e-9)
        assert_allclose(back.mean, state.mean, atol=1e-9)


def test_partial_trace_gaussian():
    state = tmsv_state(1.0)
    reduced = partial_trace_gaussian(state, (0,))
    # Each arm of a TMSV is thermal with N = N_S.
    assert_allclose(reduced.cov, 3.0 * np.eye(2), atol=1e-12)
    assert_allclose(reduced.mean, np.zeros(2))
    with pytest.raises(ValueError):
        partial_trace_gaussian(state, (0, 2))
    with pytest.raises(ValueError):
        partial_trace_gaussian(state, ())


def test_williamson_reconstructs_and_is_symplectic():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for _ in range(8):
            state = random_gaussian_state(n, rng)
            mu, s = williamson(state.cov)
            omega = symplectic_form(n)
            assert_allclose(s @ omega @ s.T, omega, atol=1e-8)
            d = np.diag(np.repeat(mu, 2))
            assert_allclose(s @ d @ s.T, state.cov, atol=1e-8)
            assert_allclose(
                np.sort(mu), np.sort(symplectic_eigenvalues(state).mu), atol=1e-8
            )


# ------------------------------------------------------- Gaussian conditioning


def test_conditioning_a_product_leaves_the_other_mode():
    rng = np.random.default_rng(23)
    a = random_gaussian_state(1, rng)
    b = random_gaussian_state(1, rng)
    joint = GaussianState(
        2,
        np.concatenate([a.mean, b.mean]),
        np.block([[a.cov, np.zeros((2, 2))], [np.zeros((2, 2)), b.cov]]),
    )
    out = condition_on_projection(joint, [1], [0.7, -0.3])
    assert_allclose(out.cov, a.cov, atol=1e-12)
    assert_allclose(out.mean, a.mean, atol=1e-12)


def test_heterodyne_on_tmsv_arm_leaves_coherent_state():
    # C (B + I)^-1 = sqrt(N/(N+1)) Z and A - C (B + I)^-1 C = I
    n_s = 1.3
    r = np.array([0.8, -1.1])
    out = condition_on_projection(tmsv_state(n_s), [0], r)
    assert_allclose(out.cov, np.eye(2), atol=1e-12)
    assert_allclose(out.mean, np.sqrt(n_s / (n_s + 1.0)) * Z @ r, atol=1e-12)


def test_conditioned_states_stay_physical():
    rng = np.random.default_rng(29)
    for _ in range(8):
        state = random_gaussian_state(3, rng)
        projector = random_gaussian_state(1, rng)
        out = condition_on_projection(state, [2], projector.mean, projector.cov)
        assert out.n_modes == 2
        assert symplectic_eigenvalues(out).mu.min() >= 1.0 - 1e-9


def test_conditioning_rejects_bad_mode_sets():
    with pytest.raises(ValueError):
        condition_on_projection(tmsv_state(1.0), [0, 1], np.zeros(4))
    with pytest.raises(ValueError):
        condition_on_projection(tmsv_state(1.0), [2], np.zeros(2))
    with pytest.raises(ValueError):
        condition_on_projection(tmsv_state(1.0), [0], np.zeros(3))


# ------------------------------------------------------- photon-number tails


def test_photon_tail_bound_thermal_and_coherent():
    levels = np.arange(0, 30)
    # thermal: P(n >= k) = (N/(N+1))^k exactly
    exact = (0.6 / 1.6) ** levels
    bound = photon_tail_bound(thermal_state(0.6), levels)
    assert np.all(bound >= exact * (1.0 - 1e-12))
    assert bound[0] == 1.0
    # coherent |1.2>: Poisson tail with mean 1.44
    coherent = GaussianState(1, np.array([2.4, 0.0]), np.eye(2))
    pmf = np.exp(-1.44) * np.cumprod(np.concatenate([[1.0], 1.44 / np.arange(1, 40)]))
    tail = pmf[::-1].cumsum()[::-1][: len(levels)]
    bound = photon_tail_bound(coherent, levels)
    assert np.all(bound >= tail * (1.0 - 1e-12))
    assert bound[20] < 1e-10


def test_photon_tail_bound_takes_the_worst_mode():
    state = GaussianState(
        2, np.zeros(4), np.diag([1.0, 1.0, 3.0, 3.0])
    )
    assert_allclose(
        photon_tail_bound(state, [5, 10]),
        photon_tail_bound(thermal_state(1.0), [5, 10]),
        rtol=1e-12,
    )
