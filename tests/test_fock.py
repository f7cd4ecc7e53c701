import tracemalloc
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import expm, logm, polar

from nongauss.errors import (
    InvalidStateError,
    TruncationError,
    ZeroProbabilityError,
)
from nongauss.fock import (
    EDGE_COST,
    ConditionalMap,
    _generator_eigenbasis,
    _ladder_ket,
    FockArray,
    apply_map,
    apply_unitary,
    build_state,
    build_unitary,
    certify_edge,
    covariance_from_moments,
    delta_g,
    delta_g_relent,
    edge_occupancy,
    gaussian_cutoff,
    gaussian_to_fock,
    gaussify,
    ladder,
    moments,
    number_distribution,
    partial_trace,
    relative_entropy,
    symplectic_to_unitary,
    von_neumann_entropy,
)
from nongauss.gaussian import (
    GaussianState,
    SymplecticOp,
    apply_symplectic,
    gaussian_unitary,
    symplectic_form,
    thermal_entropy,
    tmsv_state,
    vacuum_state,
    williamson,
)

from conftest import random_gaussian_state, random_symplectic

Z = np.diag([1.0, -1.0])


def random_low_ket(n_modes, rng, cutoff, levels=4):
    """Random normalized ket supported on the lowest Fock levels."""
    shape = (cutoff,) * n_modes
    psi = np.zeros(shape, dtype=complex)
    block = tuple(slice(0, levels) for _ in range(n_modes))
    psi[block] = rng.normal(size=(levels,) * n_modes) + 1j * rng.normal(
        size=(levels,) * n_modes
    )
    psi /= np.sqrt(np.vdot(psi, psi).real)
    return FockArray(n_modes, cutoff, "ket", psi)


def random_density(dim, rng, rank=3):
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# ---------------------------------------------------------------- ladder ops


def test_ladder_matrix():
    assert_allclose(ladder(2), [[0, 1], [0, 0]])
    a = ladder(6)
    assert_allclose(np.diag(a.conj().T @ a).real, np.arange(6), atol=1e-14)
    comm = a @ a.conj().T - a.conj().T @ a
    assert_allclose(comm[:5, :5], np.eye(5), atol=1e-14)
    assert comm[5, 5] == pytest.approx(-5.0)  # truncation corner
    with pytest.raises(ValueError):
        ladder(1)


# ---------------------------------------------------------------- states


def test_build_fock_and_vacuum():
    one = build_state("fock", 1, cutoff=10)
    assert one.kind == "ket"
    assert one.data[1] == 1.0 and abs(one.data).sum() == 1.0
    vac = build_state("vacuum", cutoff=8)
    assert vac.data[0] == 1.0
    with pytest.raises(TruncationError) as exc:
        build_state("fock", 12, cutoff=10)
    assert exc.value.suggested_cutoff == 13


def test_build_coherent_amplitudes():
    st = build_state("coherent", 1.0, cutoff=30)
    # e^{-1/2} α^n / √(n!)
    assert st.data[0] == pytest.approx(0.6065306597126334, abs=1e-12)
    assert st.data[2] == pytest.approx(0.6065306597126334 / np.sqrt(2), abs=1e-12)
    assert st.trace_deficit < 1e-10


def test_build_coherent_truncation_error():
    with pytest.raises(TruncationError) as exc:
        build_state("coherent", 4.0, cutoff=12)
    assert exc.value.deficit > 1e-8
    assert exc.value.suggested_cutoff > 12


def test_build_thermal_diag():
    st = build_state("thermal", 1.0, cutoff=40)
    assert st.kind == "density"
    diag = np.diag(st.data).real
    assert_allclose(diag[:5], 0.5 ** np.arange(1, 6), atol=1e-12)


def test_build_tmsv_schmidt_series():
    st = build_state("tmsv", 1.0, cutoff=40)
    assert st.data.shape == (40, 40)
    assert st.data[0, 0] == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert st.data[1, 1] == pytest.approx(np.sqrt(0.5) ** 2 / np.sqrt(2) * np.sqrt(2), abs=1e-12)
    assert st.data[2, 3] == 0.0


def test_tmsv_refusal_builds_no_ket():
    # the suggestion needs cutoff 1024, where a TMSV ket alone is 16 MiB
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError) as exc:
            build_state("tmsv", 50.0, cutoff=8)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "tmsv state loses 8.535e-01 of its weight at cutoff 8"
    assert exc.value.deficit == pytest.approx((50.0 / 51.0) ** 8, abs=1e-15)
    assert exc.value.suggested_cutoff == 1024
    assert peak < 1.0


def test_thermal_refusal_builds_no_density():
    # the suggestion needs cutoff 1024, where a thermal density is 16 MiB
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError) as exc:
            build_state("thermal", 50.0, cutoff=8)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert str(exc.value) == "thermal state loses 8.535e-01 of its weight at cutoff 8"
    assert exc.value.deficit == pytest.approx((50.0 / 51.0) ** 8, abs=1e-15)
    assert exc.value.suggested_cutoff == 1024
    assert peak < 1.0


def test_build_cat_even_support():
    st = build_state("cat", 1.5, cutoff=40)
    assert abs(st.data[1]) < 1e-14 and abs(st.data[3]) < 1e-14
    assert st.trace_deficit == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------- unitaries


def test_unitary_diagonals():
    u = build_unitary("rotation", 0.3, cutoff=6)
    assert_allclose(np.diag(u), np.exp(-0.3j * np.arange(6)), atol=1e-14)
    u = build_unitary("kerr", 0.5, cutoff=6)
    assert_allclose(np.diag(u), np.exp(-0.5j * np.arange(6) ** 2), atol=1e-14)
    for kind in ("rotation", "kerr"):
        with pytest.raises(ValueError, match="cutoff must be >= 2"):
            build_unitary(kind, 0.3, cutoff=1)


def test_displacement_builds_coherent():
    for alpha in (0.7, 1.3 - 0.4j, 2.0):
        u = build_unitary("displacement", alpha, cutoff=40)
        ket = u[:, 0]
        assert_allclose(
            ket, build_state("coherent", alpha, cutoff=40).data, atol=1e-8
        )


def test_two_mode_squeeze_builds_tmsv():
    d = 28
    r = float(np.arctanh(np.sqrt(0.5)))  # N_S = 1
    u = build_unitary("two_mode_squeeze", r, cutoff=d)
    vac = np.zeros(d * d)
    vac[0] = 1.0
    out = (u @ vac).reshape(d, d)
    ref = build_state("tmsv", 1.0, cutoff=d, trace_tol=1e-4).data
    # amplitudes near the cutoff carry truncation distortion
    assert_allclose(out[:12, :12], ref[:12, :12], atol=1e-9)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_beamsplitter_on_single_photon():
    d = 12
    tau = 0.7
    u = build_unitary("beamsplitter", tau, cutoff=d)
    ket = np.zeros((d, d), dtype=complex)
    ket[1, 0] = 1.0  # |1, 0⟩
    out = (u @ ket.reshape(-1)).reshape(d, d)
    assert out[1, 0] == pytest.approx(np.sqrt(tau), abs=1e-12)
    assert out[0, 1] == pytest.approx(np.sqrt(1 - tau), abs=1e-12)


def test_beamsplitter_sector_route_matches_dense():
    d = 9
    a = ladder(d)
    theta = np.arccos(np.sqrt(0.35))
    g = np.kron(a, a.conj().T)
    dense = expm(theta * (g - g.conj().T))
    assert_allclose(build_unitary("beamsplitter", 0.35, d), dense, atol=1e-12)


def test_two_mode_lifts_share_one_dimension_limit():
    # 64² = 4096 dimensions is the largest dense two-mode unitary
    op = gaussian_unitary("beamsplitter", 0.5, n_modes=2)
    for build in (
        lambda d: build_unitary("beamsplitter", 0.5, d),
        lambda d: symplectic_to_unitary(op, cutoff=d),
    ):
        with pytest.raises(ValueError, match="dimension 4225 too large"):
            build(65)
        assert build(64).shape == (4096, 4096)
    with pytest.raises(ValueError, match="dimension 4225 too large"):
        build_unitary("two_mode_squeeze", 0.1, 65)


@pytest.mark.parametrize("d", [2, 8, 32, 120])
def test_displacement_and_squeeze_match_expm_of_their_generators(d):
    a = ladder(d)
    adag = a.conj().T
    for alpha in (0.7, 1.1 + 0.8j, -1.3, -0.4j, 3.0 * np.exp(2.5j), 0.0):
        want = expm(alpha * adag - np.conj(alpha) * a)
        got = build_unitary("displacement", alpha, d)
        assert_allclose(got, want, rtol=0, atol=1e-12)
    for r in (0.4, -0.9, 1.5, -1.5, 0.0):
        want = expm(0.5 * r * (a @ a - adag @ adag))
        assert_allclose(build_unitary("squeeze", r, d), want, rtol=0, atol=1e-12)


def test_generator_eigenbases_are_cached_read_only():
    for kind in ("displacement", "squeeze"):
        for d in (2, 9, 32):
            w, v = _generator_eigenbasis(kind, d)
            again = _generator_eigenbasis(kind, d)
            assert again[0] is w and again[1] is v
            assert not w.flags.writeable and not v.flags.writeable
            w_ref, v_ref = _generator_eigenbasis.__wrapped__(kind, d)
            assert_array_equal(w, w_ref)
            assert_array_equal(v, v_ref)
            with pytest.raises(ValueError):
                v[0, 0] = 2.0


def test_convention_lock_single_mode():
    # Fock unitaries and symplectic matrices must agree on first/second
    # moments; this pins every sign convention in both backends at once.
    rng = np.random.default_rng(42)
    d = 40
    cases = [("displacement", 0.4 + 0.3j), ("rotation", 0.9), ("squeeze", 0.35)]
    for kind, param in cases:
        u = build_unitary(kind, param, cutoff=d)
        op = gaussian_unitary(kind, param)
        for _ in range(3):
            psi = random_low_ket(1, rng, d)
            g_in = covariance_from_moments(moments(psi))
            g_exp = apply_symplectic(g_in, op)
            g_out = covariance_from_moments(moments(apply_unitary(psi, u)))
            assert_allclose(g_out.mean, g_exp.mean, atol=1e-6)
            assert_allclose(g_out.cov, g_exp.cov, atol=1e-6)


def test_convention_lock_two_mode():
    rng = np.random.default_rng(43)
    d = 18
    for kind, param in [("two_mode_squeeze", 0.3), ("beamsplitter", 0.6)]:
        u = build_unitary(kind, param, cutoff=d)
        op = gaussian_unitary(kind, param)
        for _ in range(3):
            psi = random_low_ket(2, rng, d, levels=3)
            g_in = covariance_from_moments(moments(psi))
            g_exp = apply_symplectic(g_in, op)
            g_out = covariance_from_moments(moments(apply_unitary(psi, u)))
            assert_allclose(g_out.mean, g_exp.mean, atol=1e-6)
            assert_allclose(g_out.cov, g_exp.cov, atol=1e-6)


# ---------------------------------------------------------------- apply_map


def test_apply_map_unitary_and_mixture():
    d = 16
    st = build_state("coherent", 1.0, cutoff=d)
    ident = ConditionalMap(1, 1, (np.eye(d, dtype=complex),), False)
    out, prob = apply_map(st, ident)
    assert prob == float(np.vdot(st.data, st.data).real)
    assert_allclose(out.data, st.data, atol=1e-14)

    parity = np.diag((-1.0 + 0j) ** np.arange(d))
    bps = ConditionalMap(
        1, 1, (np.sqrt(0.5) * np.eye(d, dtype=complex), np.sqrt(0.5) * parity), False
    )
    out, prob = apply_map(st, bps)
    assert prob == pytest.approx(1.0, abs=1e-12)
    ref = 0.5 * np.outer(st.data, st.data.conj())
    minus = build_state("coherent", -1.0, cutoff=d).data
    ref += 0.5 * np.outer(minus, minus.conj())
    assert_allclose(out.data, ref, atol=1e-10)


def test_apply_map_kraus_subtraction():
    d = 12
    sub = ConditionalMap(1, 1, (ladder(d),), True)
    one = build_state("fock", 1, cutoff=d)
    out, prob = apply_map(one, sub)
    assert prob == pytest.approx(1.0, abs=1e-12)
    assert abs(out.data[0]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ZeroProbabilityError):
        apply_map(build_state("vacuum", cutoff=d), sub)


def test_apply_map_subtraction_on_tmsv():
    # a_B on TMSV: success weight ⟨a_B†a_B⟩ = N_S; oracle by direct arithmetic.
    d = 40
    st = build_state("tmsv", 1.0, cutoff=d)
    sub = ConditionalMap(1, 1, (ladder(d),), True)
    out, prob = apply_map(st, sub, targets=(1,))
    assert prob == pytest.approx(1.0, abs=1e-8)
    psi_ref = np.zeros((d, d), dtype=complex)
    lam = np.sqrt(0.5)
    for n in range(1, d):
        psi_ref[n, n - 1] = lam**n / np.sqrt(2) * np.sqrt(n)
    psi_ref /= np.linalg.norm(psi_ref)
    assert_allclose(np.abs(out.data), np.abs(psi_ref), atol=1e-8)
    rec = moments(out)
    assert rec.adag_a[1, 1].real == pytest.approx(2.0, abs=1e-7)


def test_ket_route_keeps_the_lost_trace_and_zero_probability_checks():
    d = 10
    half = ConditionalMap(1, 1, (0.5 * np.eye(d), 0.5 * np.eye(d)), False)
    with pytest.raises(TruncationError) as exc:
        apply_map(build_state("coherent", 0.5, cutoff=d), half)
    assert exc.value.deficit == pytest.approx(0.5, abs=1e-12)
    assert exc.value.suggested_cutoff == 2 * d
    a = ladder(d)
    lower = ConditionalMap(1, 1, (a, a @ a), True)
    with pytest.raises(ZeroProbabilityError):
        apply_map(build_state("vacuum", cutoff=d), lower)


def test_apply_map_mode_changing_projector():
    d = 14
    bra = build_state("vacuum", cutoff=d).data.conj()
    k = np.kron(np.eye(d, dtype=complex), bra.reshape(1, -1))  # I_A ⊗ ⟨0|
    proj = ConditionalMap(2, 1, (k,), True)
    psi = np.zeros((d, d), dtype=complex)
    psi[:, 0] = build_state("coherent", 0.8, cutoff=d).data  # |β⟩_A |0⟩_B
    st = FockArray(2, d, "ket", psi)
    out, prob = apply_map(st, proj)
    assert out.n_modes == 1
    assert prob == pytest.approx(1.0, abs=1e-10)
    assert_allclose(out.data, build_state("coherent", 0.8, cutoff=d).data, atol=1e-8)


# ---------------------------------------------------------------- entropies


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(build_state("fock", 3, cutoff=10)) == 0.0
    th = build_state("thermal", 1.0, cutoff=60)
    assert von_neumann_entropy(th) == pytest.approx(2.0, abs=1e-4)
    half = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    st = FockArray(1, 4, "density", half)
    assert von_neumann_entropy(st) == pytest.approx(1.0, abs=1e-12)


def test_gram_entropy_matches_the_density_spectrum():
    rng = np.random.default_rng(5)
    d = 6
    phi = rng.normal(size=(3, d * d)) + 1j * rng.normal(size=(3, d * d))
    phi /= np.linalg.norm(phi)
    rho = phi.T @ phi.conj()
    with_branches = FockArray.from_branches(2, d, phi)
    assert_allclose(with_branches.data, rho, atol=1e-15)
    w = np.linalg.eigvalsh(rho)
    w = w[w > 1e-12]
    assert von_neumann_entropy(with_branches) == pytest.approx(
        float(-(w @ np.log2(w))), abs=1e-12
    )
    with pytest.raises(ValueError):
        with_branches.branches[0, 0] = 0.0
    # branches cannot be passed alongside data that they might not match
    with pytest.raises(TypeError):
        FockArray(2, d, "density", rho, branches=phi)
    assert FockArray(2, d, "density", rho).branches is None
    with pytest.raises(ValueError):
        FockArray.from_branches(2, d, phi[:, :-1])


def test_relative_entropy_basics():
    rho = build_state("thermal", 0.7, cutoff=30)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-9)
    zero = build_state("fock", 0, cutoff=10)
    one = build_state("fock", 1, cutoff=10)
    assert relative_entropy(zero, one) == np.inf
    # S(|1⟩⟨1| ‖ th(1)) = −log₂(1/4) = 2
    th = build_state("thermal", 1.0, cutoff=60)
    one = build_state("fock", 1, cutoff=60)
    assert relative_entropy(one, th) == pytest.approx(2.0, abs=1e-3)


def test_relative_entropy_properties_sampled():
    rng = np.random.default_rng(5)
    for _ in range(5):
        rho = FockArray(1, 8, "density", random_density(8, rng))
        sig = FockArray(1, 8, "density", random_density(8, rng, rank=8))
        val = relative_entropy(rho, sig)
        assert val >= -1e-9
    # additivity on products
    r1 = random_density(6, rng)
    r2 = random_density(6, rng)
    s1 = random_density(6, rng, rank=6)
    s2 = random_density(6, rng, rank=6)
    joint = relative_entropy(
        FockArray(2, 6, "density", np.kron(r1, r2)),
        FockArray(2, 6, "density", np.kron(s1, s2)),
    )
    parts = relative_entropy(
        FockArray(1, 6, "density", r1), FockArray(1, 6, "density", s1)
    ) + relative_entropy(FockArray(1, 6, "density", r2), FockArray(1, 6, "density", s2))
    assert joint == pytest.approx(parts, abs=1e-4)
    # monotonicity under partial trace
    for _ in range(4):
        rho12 = FockArray(2, 6, "density", random_density(36, rng, rank=4))
        sig12 = FockArray(2, 6, "density", random_density(36, rng, rank=36))
        full = relative_entropy(rho12, sig12)
        red = relative_entropy(partial_trace(rho12, (0,)), partial_trace(sig12, (0,)))
        assert red <= full + 1e-4


# ---------------------------------------------------------------- moments


@pytest.mark.parametrize("n_modes", [1, 2, 3])
def test_ladder_ket_matches_moveaxis_lowering(n_modes):
    # bitwise: moments must not move when the lowering changes indexing
    rng = np.random.default_rng(4)
    psi = random_low_ket(n_modes, rng, 5, levels=5).data
    for mode in range(n_modes):
        root = np.sqrt(np.arange(1.0, 5)).reshape((-1,) + (1,) * (n_modes - 1))
        want = np.zeros_like(psi)
        np.moveaxis(want, mode, 0)[:-1] = root * np.moveaxis(psi, mode, 0)[1:]
        assert_array_equal(_ladder_ket(psi, mode), want)


def test_moments_oracles():
    alpha = 0.9 + 0.4j
    st = build_state("coherent", alpha, cutoff=40)
    rec = moments(st)
    assert rec.first[0] == pytest.approx(alpha, abs=1e-9)
    assert rec.aa[0, 0] == pytest.approx(alpha**2, abs=1e-9)
    assert rec.adag_a[0, 0].real == pytest.approx(abs(alpha) ** 2, abs=1e-9)

    one = build_state("fock", 1, cutoff=10)
    rec = moments(one)
    assert abs(rec.first[0]) < 1e-14
    assert rec.adag_a[0, 0].real == pytest.approx(1.0, abs=1e-14)

    tm = build_state("tmsv", 1.0, cutoff=40)
    rec = moments(tm)
    assert rec.aa[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert abs(rec.adag_a[0, 1]) < 1e-10


def test_moments_density_matches_ket():
    rng = np.random.default_rng(9)
    psi = random_low_ket(2, rng, 10, levels=4)
    ket_rec = moments(psi)
    dm_rec = moments(psi.to_density())
    assert_allclose(dm_rec.first, ket_rec.first, atol=1e-10)
    assert_allclose(dm_rec.aa, ket_rec.aa, atol=1e-10)
    assert_allclose(dm_rec.adag_a, ket_rec.adag_a, atol=1e-10)


def test_covariance_from_moments_oracles():
    st = build_state("coherent", 1.0, cutoff=40)
    g = gaussify(st)
    assert_allclose(g.mean, [2.0, 0.0], atol=1e-9)
    assert_allclose(g.cov, np.eye(2), atol=1e-9)

    one = build_state("fock", 1, cutoff=10)
    g = gaussify(one)
    assert_allclose(g.mean, np.zeros(2), atol=1e-12)
    assert_allclose(g.cov, 3.0 * np.eye(2), atol=1e-12)

    tm = build_state("tmsv", 1.0, cutoff=40)
    g = gaussify(tm)
    assert_allclose(g.cov, tmsv_state(1.0).cov, atol=1e-7)


def test_partial_trace_tmsv_arm():
    tm = build_state("tmsv", 1.0, cutoff=30)
    red = partial_trace(tm, (1,))
    ref = build_state("thermal", 1.0, cutoff=30, trace_tol=1e-6)
    assert_allclose(red.data, ref.data, atol=1e-8)


def test_number_distribution_poisson():
    st = build_state("coherent", 1.2, cutoff=40)
    p = number_distribution(st)
    n = np.arange(5)
    expected = np.exp(-1.44) * 1.44**n / np.array([1, 1, 2, 6, 24])
    assert_allclose(p[:5], expected, atol=1e-10)


# ------------------------------------------------------ gaussian_to_fock


def test_gaussian_to_fock_vacuum_and_thermal():
    rho = gaussian_to_fock(vacuum_state(1), cutoff=12)
    assert rho.data[0, 0] == pytest.approx(1.0, abs=1e-10)
    th = GaussianState(1, np.zeros(2), 3.0 * np.eye(2))
    rho = gaussian_to_fock(th, cutoff=40)
    assert_allclose(np.diag(rho.data).real[:6], 0.5 ** np.arange(1, 7), atol=1e-9)


def test_gaussian_to_fock_coherent():
    g = GaussianState(1, np.array([2.0, 0.0]), np.eye(2))
    rho = gaussian_to_fock(g, cutoff=40)
    ket = build_state("coherent", 1.0, cutoff=40).data
    assert_allclose(rho.data, np.outer(ket, ket.conj()), atol=1e-8)


def test_gaussian_to_fock_tmsv_matches_series():
    # Amplitudes within a few levels of the cutoff carry truncation
    # distortion from the exponential route, so compare the interior block.
    d = 24
    rho = gaussian_to_fock(tmsv_state(1.0), cutoff=d)
    ket = build_state("tmsv", 1.0, cutoff=d, trace_tol=1e-6).data.reshape(-1)
    ref = np.outer(ket, ket.conj())
    diff = np.abs(rho.data - ref).reshape(d, d, d, d)
    assert diff[:12, :12, :12, :12].max() < 1e-6
    fidelity = np.real(ket.conj() @ rho.data @ ket)
    assert abs(fidelity - 1.0) < 1e-6


def test_gaussian_to_fock_moment_roundtrip():
    rng = np.random.default_rng(21)
    for _ in range(5):
        g = random_gaussian_state(1, rng, max_thermal=0.8)
        rho = gaussian_to_fock(g, cutoff=80)
        back = gaussify(rho)
        assert_allclose(back.mean, g.mean, atol=1e-5)
        assert_allclose(back.cov, g.cov, atol=1e-5)


def test_gaussian_to_fock_truncation_error():
    th = GaussianState(1, np.zeros(2), 101.0 * np.eye(2))  # N = 50
    with pytest.raises(TruncationError) as exc:
        gaussian_to_fock(th, cutoff=20)
    assert exc.value.suggested_cutoff > 20


def dense_lift(g, d):
    """Reference lift (u·w)u† with the unclamped Williamson weights w."""
    mu, s_mat = williamson(g.cov)
    occ = np.maximum((mu - 1.0) / 2.0, 0.0)
    w = reduce(np.kron, [(N / (N + 1.0)) ** np.arange(d) / (N + 1.0) for N in occ])
    u = symplectic_to_unitary(SymplecticOp(g.n_modes, s_mat, g.mean), cutoff=d)
    return (u * w) @ u.conj().T, w


@pytest.mark.parametrize("n_modes, d", [(1, 30), (2, 9)])
@pytest.mark.parametrize("pure", [True, False])
@pytest.mark.parametrize("displaced", [False, True])
def test_branch_lift_matches_dense_reference(n_modes, d, pure, displaced):
    rng = np.random.default_rng(17 + n_modes)
    for _ in range(2):
        g = random_gaussian_state(n_modes, rng, max_thermal=0.0 if pure else 0.3)
        if not displaced:
            g = GaussianState(n_modes, np.zeros(2 * n_modes), g.cov)
        rho = gaussian_to_fock(g, cutoff=d, trace_tol=1e-3)
        want, w = dense_lift(g, d)
        assert_allclose(rho.data, want, rtol=0, atol=1e-12)
        assert rho.branches.shape == (1 if pure else np.count_nonzero(w), d**n_modes)
        spectrum = np.linalg.eigvalsh(rho.data)
        spectrum = spectrum[spectrum > 1e-12]
        assert von_neumann_entropy(rho) == pytest.approx(
            float(-(spectrum @ np.log2(spectrum))), abs=1e-12
        )


@pytest.mark.parametrize("n_modes, d", [(1, 24), (2, 9)])
def test_unitary_columns_match_the_full_matrix(n_modes, d):
    rng = np.random.default_rng(29)
    op = SymplecticOp(
        n_modes, random_symplectic(n_modes, rng, scale=0.3), rng.normal(size=2 * n_modes)
    )
    full = symplectic_to_unitary(op, cutoff=d)
    subset = np.sort(rng.choice(d**n_modes, size=d**n_modes // 3, replace=False))
    for cols in ([0], [1], [2, 5, 7, 8], subset):
        assert_allclose(
            symplectic_to_unitary(op, d, np.asarray(cols)), full[:, cols], rtol=0, atol=1e-14
        )


@pytest.mark.parametrize("n_modes, d", [(1, 24), (2, 9)])
def test_passive_unitary_columns_match_the_full_matrix(n_modes, d):
    # a passive symplectic exponentiates only the total-photon sectors that
    # hold a requested column
    rng = np.random.default_rng(31)
    s = gaussian_unitary("rotation", 0.7, n_modes=n_modes, targets=[n_modes - 1]).S
    if n_modes == 2:
        s = gaussian_unitary("beamsplitter", 0.35, n_modes=2).S @ s
    op = SymplecticOp(n_modes, s, rng.normal(size=2 * n_modes))
    full = symplectic_to_unitary(op, cutoff=d)
    assert_allclose(full, dense_symplectic_unitary(op, d), atol=1e-12)
    subset = np.sort(rng.choice(d**n_modes, size=d**n_modes // 3, replace=False))
    for cols in ([0], [1], [2, 5, 7, 8], subset):
        assert_allclose(
            symplectic_to_unitary(op, d, np.asarray(cols)), full[:, cols], rtol=0, atol=1e-14
        )


def test_nearly_pure_mode_is_lifted_as_pure():
    # N = 2e-10 puts μ = 1 + 4e-10 inside the MU_CLAMP_TOL band
    d = 20
    th = GaussianState(1, np.array([0.4, -0.2]), (1.0 + 4e-10) * np.eye(2))
    rho = gaussian_to_fock(th, cutoff=d)
    assert rho.branches.shape[0] == 1
    want, w = dense_lift(th, d)
    assert np.count_nonzero(w) == d
    assert np.abs(np.linalg.eigvalsh(rho.data - want)).sum() <= 1e-9


def test_symplectic_to_unitary_random_single_mode():
    rng = np.random.default_rng(33)
    d = 40
    for _ in range(4):
        s = random_symplectic(1, rng, scale=0.3)
        dx = rng.normal(scale=0.5, size=2)
        op = SymplecticOp(1, s, dx)
        u = symplectic_to_unitary(op, cutoff=d)
        psi = random_low_ket(1, rng, d)
        g_exp = apply_symplectic(covariance_from_moments(moments(psi)), op)
        g_out = covariance_from_moments(moments(apply_unitary(psi, u)))
        assert_allclose(g_out.mean, g_exp.mean, atol=1e-6)
        assert_allclose(g_out.cov, g_exp.cov, atol=1e-6)


def dense_symplectic_unitary(op, d):
    """Reference: every generator lifted to dim × dim and exponentiated whole."""
    n = op.n_modes
    eye = np.eye(d)
    a = [
        reduce(np.kron, [ladder(d) if m == k else eye for m in range(n)])
        for k in range(n)
    ]
    orth, pos = polar(op.S)
    K = -symplectic_form(n) @ logm(pos)
    K = 0.5 * (K + K.T).real
    xs = [x for b in a for x in (b + b.conj().T, 1j * (b.conj().T - b))]
    active = sum(K[i, j] * xs[i] @ xs[j] for i in range(2 * n) for j in range(2 * n))
    theta = 1j * logm(orth[0::2, 0::2] + 1j * orth[1::2, 0::2])
    theta = 0.5 * (theta + theta.conj().T)
    passive = sum(theta[j, k] * a[j].conj().T @ a[k] for j in range(n) for k in range(n))
    alpha = 0.5 * (op.delta_x[0::2] + 1j * op.delta_x[1::2])
    disp = sum(alpha[k] * a[k].conj().T - np.conj(alpha[k]) * a[k] for k in range(n))
    return expm(disp) @ expm(-1j * passive) @ expm(-0.25j * active)


@pytest.mark.parametrize("d", [8, 32, 60])
def test_single_mode_lift_is_frame_independent(d):
    # S·R(χ) lifts to U(S)·diag(e^{−iχn}): the input rotation stays in the box
    rng = np.random.default_rng(37)
    for _ in range(4):
        s = random_symplectic(1, rng, scale=0.4)
        chi = rng.uniform(-np.pi, np.pi)
        dx = rng.normal(scale=0.5, size=2)
        turn = gaussian_unitary("rotation", chi).S
        assert_allclose(
            symplectic_to_unitary(SymplecticOp(1, s @ turn, dx), d),
            symplectic_to_unitary(SymplecticOp(1, s, dx), d)
            * np.exp(-1j * chi * np.arange(d)),
            rtol=0,
            atol=1e-12,
        )


@pytest.mark.parametrize("n_modes, d", [(1, 24), (2, 9)])
@pytest.mark.parametrize("displaced", [False, True])
def test_parity_blocked_unitary_matches_dense_reference(n_modes, d, displaced):
    rng = np.random.default_rng(61 + n_modes)
    for _ in range(2):
        s = random_symplectic(n_modes, rng, scale=0.3)
        dx = rng.normal(scale=0.5, size=2 * n_modes) if displaced else np.zeros(2 * n_modes)
        op = SymplecticOp(n_modes, s, dx)
        assert_allclose(
            symplectic_to_unitary(op, cutoff=d), dense_symplectic_unitary(op, d), atol=1e-12
        )


def test_single_mode_lift_matches_dense_reference_at_cutoff_60():
    rng = np.random.default_rng(41)
    for _ in range(3):
        s = random_symplectic(1, rng, scale=0.3)
        for dx in (np.zeros(2), rng.normal(scale=0.5, size=2)):
            op = SymplecticOp(1, s, dx)
            assert_allclose(
                symplectic_to_unitary(op, 60), dense_symplectic_unitary(op, 60), rtol=0, atol=1e-12
            )


def _composed(n_modes, *factors):
    """SymplecticOp of the named Gaussian unitaries, the last applied first."""
    s = reduce(
        np.matmul,
        [gaussian_unitary(kind, par, n_modes, targets).S for kind, par, targets in factors],
    )
    return SymplecticOp(n_modes, s, np.zeros(2 * n_modes))


@pytest.mark.parametrize(
    "op, d",
    [
        (_composed(1, ("rotation", np.pi, [0])), 24),
        (_composed(1, ("rotation", np.pi, [0]), ("squeeze", 0.3, [0])), 24),
        (_composed(1, ("rotation", -2.0, [0]), ("squeeze", -0.5, [0])), 24),
        (_composed(2, ("rotation", np.pi, [1]), ("beamsplitter", 0.4, [0, 1])), 9),
        (
            _composed(
                2,
                ("rotation", np.pi, [1]),
                ("beamsplitter", 0.4, [0, 1]),
                ("rotation", 0.7, [0]),
            ),
            9,
        ),
        (_composed(2, ("rotation", np.pi, [0]), ("rotation", np.pi, [1])), 9),
        (
            _composed(
                2,
                ("beamsplitter", 0.3, [0, 1]),
                ("rotation", np.pi, [0]),
                ("two_mode_squeeze", 0.3, [0, 1]),
            ),
            9,
        ),
        (
            _composed(
                2,
                ("squeeze", 0.2, [0]),
                ("rotation", np.pi, [1]),
                ("beamsplitter", 0.6, [0, 1]),
            ),
            9,
        ),
    ],
)
def test_symplectic_logs_match_the_logm_route(op, d):
    # the polar factors' logarithms come from eigenbases; at a π rotation
    # θ may move by 2π on the eigenvalue −1, but the unitary may not
    assert_allclose(
        symplectic_to_unitary(op, cutoff=d), dense_symplectic_unitary(op, d), atol=1e-12
    )


def test_symplectic_to_unitary_two_mode_squeeze():
    d = 14
    r = 0.4
    op = gaussian_unitary("two_mode_squeeze", r)
    u = symplectic_to_unitary(op, cutoff=d)
    ref = build_unitary("two_mode_squeeze", r, cutoff=d)
    vac = np.zeros(d * d)
    vac[0] = 1.0
    assert_allclose(u @ vac, ref @ vac, atol=1e-8)


def test_symplectic_to_unitary_refuses_three_modes():
    # the passive exponential covers one or two modes only
    for op in (
        SymplecticOp(3, np.eye(6), np.zeros(6)),
        gaussian_unitary("beamsplitter", 0.5, n_modes=3, targets=(0, 2)),
    ):
        with pytest.raises(ValueError, match="got 3"):
            symplectic_to_unitary(op, cutoff=4)


def test_symplectic_to_unitary_refuses_large_dense_dimension():
    # a two-mode lift at cutoff 65 is 4225 > 4096 dimensional
    op = gaussian_unitary("beamsplitter", 0.5, n_modes=2)
    with pytest.raises(ValueError, match="4225"):
        symplectic_to_unitary(op, cutoff=65)


# ---------------------------------------------------------------- delta_g


def test_delta_g_fock_states():
    one = build_state("fock", 1, cutoff=30)
    assert delta_g(one) == pytest.approx(2.0, abs=1e-3)
    two = build_state("fock", 2, cutoff=30)
    assert delta_g(two) == pytest.approx(2.7548875021634686, abs=1e-3)


def test_delta_g_vanishes_on_gaussians():
    rng = np.random.default_rng(71)
    assert delta_g(build_state("coherent", 1.1, cutoff=40)) <= 1e-6
    for _ in range(5):
        g = random_gaussian_state(1, rng, max_thermal=0.7)
        rho = gaussian_to_fock(g, cutoff=40)
        assert delta_g(rho) <= 1e-4


def test_delta_g_coherent_mixture_bound():
    # ½|α⟩⟨α| + ½|−α⟩⟨−α| at α=2: gaussified cov Diag(4α²+1, 1)
    d = 40
    plus = build_state("coherent", 2.0, cutoff=d).data
    minus = build_state("coherent", -2.0, cutoff=d).data
    rho = 0.5 * np.outer(plus, plus.conj()) + 0.5 * np.outer(minus, minus.conj())
    st = FockArray(1, d, "density", rho)
    g = gaussify(st)
    assert_allclose(g.cov, np.diag([17.0, 1.0]), atol=1e-6)
    val = delta_g(st)
    bound = thermal_entropy((np.sqrt(17.0) - 1.0) / 2.0) - 1.0
    assert bound <= val <= bound + 1e-5


def test_delta_g_additive_on_products():
    d = 25
    cat = build_state("cat", 1.2, cutoff=d)
    one = build_state("fock", 1, cutoff=d)
    joint = np.kron(
        np.outer(cat.data, cat.data.conj()), np.outer(one.data, one.data.conj())
    )
    st = FockArray(2, d, "density", joint)
    assert delta_g(st) == pytest.approx(delta_g(cat) + delta_g(one), abs=1e-3)


def test_delta_g_invariant_under_gaussian_unitaries():
    d = 40
    cat = build_state("cat", 1.0, cutoff=d)
    base = delta_g(cat)
    for kind, param in [("displacement", 0.4), ("rotation", 0.8), ("squeeze", 0.3)]:
        out = apply_unitary(cat, build_unitary(kind, param, cutoff=d))
        assert delta_g(out) == pytest.approx(base, abs=1e-3)
    d2 = 20
    psi = np.zeros((d2, d2), dtype=complex)
    psi[1, 0] = 1.0
    st = FockArray(2, d2, "ket", psi)
    base = delta_g(st)
    for kind, param in [("beamsplitter", 0.7), ("two_mode_squeeze", 0.25)]:
        out = apply_unitary(st, build_unitary(kind, param, cutoff=d2))
        assert delta_g(out) == pytest.approx(base, abs=1e-3)


def test_delta_g_nonincreasing_under_partial_trace():
    d = 12
    psi = np.zeros((d, d), dtype=complex)
    psi[0, 1] = np.sqrt(0.5)
    psi[1, 0] = np.sqrt(0.5)
    st = FockArray(2, d, "ket", psi)
    assert delta_g(partial_trace(st, (0,))) <= delta_g(st) + 1e-3
    rng = np.random.default_rng(17)
    rho = np.zeros((d * d, d * d), dtype=complex)
    small = random_density(9, rng)
    idx = [i * d + j for i in range(3) for j in range(3)]
    rho[np.ix_(idx, idx)] = small
    st = FockArray(2, d, "density", rho)
    assert delta_g(partial_trace(st, (0,))) <= delta_g(st) + 1e-3


def test_delta_g_two_routes_agree():
    for st in [
        build_state("fock", 1, cutoff=40),
        build_state("fock", 2, cutoff=40),
        build_state("cat", 1.0, cutoff=40),
    ]:
        assert delta_g_relent(st) == pytest.approx(delta_g(st), abs=2e-3)


# ------------------------------------------------- truncation certificate


def test_certify_edge_admits_and_refuses():
    mild = build_state("coherent", 1.0, 30)
    assert certify_edge(mild, 1e-12) is mild
    hot = build_state("coherent", 3.0, 20, trace_tol=1e-2)
    edge = edge_occupancy(hot)
    assert_allclose(edge, number_distribution(hot)[-2:].sum(), rtol=1e-12)
    assert certify_edge(hot, edge) is hot
    with pytest.raises(TruncationError) as exc:
        certify_edge(hot, 0.5 * edge, suggested_cutoff=40)
    assert exc.value.deficit == edge
    assert exc.value.suggested_cutoff == 40


def test_gaussian_cutoff_is_passed_by_the_fock_image():
    rng = np.random.default_rng(31)
    for _ in range(3):
        state = random_gaussian_state(1, rng)
        d = gaussian_cutoff(state, 1e-3, above=8)
        assert d > 8
        rho = gaussian_to_fock(state, d, trace_tol=1e-5)
        assert certify_edge(rho, 1e-3 / (EDGE_COST * d**2)) is rho
