import math
import re
import sys
import threading
import time
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

import nongauss.maps
from nongauss.errors import TruncationError, UnsupportedMapError, ZeroProbabilityError
from nongauss.fock import (
    ConditionalMap,
    FockArray,
    apply_map,
    apply_unitary,
    build_state,
    build_unitary,
    delta_g,
    gaussian_to_fock,
    gaussify,
    moments,
    symplectic_to_unitary,
    von_neumann_entropy,
)
from nongauss.maps import (
    _gaussian_environment,
    arm_photon_number,
    bps,
    coherent_projector,
    compose,
    gaussian_dilatable,
    identity_map,
    kerr,
    loss,
    parse_map_spec,
    parse_state_spec,
    pna,
    pns,
)
from nongauss.gaussian import (
    GaussianState,
    apply_symplectic,
    condition_on_projection,
    gaussian_unitary,
    thermal_state,
)
from nongauss.monotone import InputParams, analytic_output_covariance
from nongauss.verify import correlated_coherent_mixture, projection_counterexample


def _product_ket(a, b):
    return FockArray(
        a.n_modes + b.n_modes, a.cutoff, "ket", np.multiply.outer(a.data, b.data)
    )


def test_pns_on_fock_two():
    d = 12
    state = build_state("fock", 2, d)
    out, weight = apply_map(state, pns(d).body)
    ref = build_state("fock", 1, d)
    assert_allclose(out.data, ref.data, atol=1e-12)
    assert abs(weight - 2.0) < 1e-12  # <a†a> of |2>


def test_pna_on_vacuum():
    d = 12
    out, weight = apply_map(build_state("vacuum", None, d), pna(d).body)
    ref = build_state("fock", 1, d)
    assert_allclose(out.data, ref.data, atol=1e-12)
    assert abs(weight - 1.0) < 1e-12


def test_pns_success_weight_on_tmsv():
    d = 20
    zeta = build_state("tmsv", 1.0, d, trace_tol=1e-5)
    out, weight = apply_map(zeta, pns(d).body, targets=[1])
    assert abs(weight - 1.0) < 1e-4  # Tr[a_B ρ a_B†] = N_S
    m = moments(out)
    assert abs(m.adag_a[1, 1].real - 2.0) < 1e-3  # subtraction doubles <n_B>


def test_small_cutoff_rejected():
    with pytest.raises(ValueError):
        pns(2)
    with pytest.raises(ValueError):
        pna(2)


def test_normalization_closed_forms():
    # subtraction weighs ⟨a†a⟩ of the arm, addition ⟨a†a⟩ + 1
    assert abs(arm_photon_number(0.0, 0.0, 1.0) - 1.0) < 1e-12
    assert arm_photon_number(0.0, 0.0, 0.0) == 0.0
    vacuum_arm = InputParams(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ZeroProbabilityError):
        analytic_output_covariance(vacuum_arm, "pns")
    assert analytic_output_covariance(vacuum_arm, "pna").n_modes == 2


def test_normalization_matches_fock_weight():
    # displaced squeezed TMSV arm, weights from the closed forms
    d = 45
    alpha, r, theta, n_s = 1.0, 0.5, 0.7, 0.5
    psi = build_state("tmsv", n_s, d, trace_tol=1e-5)
    for kind, par in (("squeeze", r), ("rotation", theta), ("displacement", alpha)):
        psi = apply_unitary(psi, build_unitary(kind, par, d), targets=[1])
    _, w_sub = apply_map(psi, pns(d).body, targets=[1])
    _, w_add = apply_map(psi, pna(d).body, targets=[1])
    w = arm_photon_number(alpha, r, n_s)
    assert abs(w_sub**-0.5 - w**-0.5) < 1e-6
    assert abs(w_add**-0.5 - (w + 1.0) ** -0.5) < 1e-6


def test_bps_on_vacuum_is_identity():
    d = 10
    out, prob = apply_map(build_state("vacuum", None, d), bps(d).body)
    assert abs(prob - 1.0) < 1e-12
    ref = build_state("vacuum", None, d).to_density()
    assert_allclose(out.data, ref.data, atol=1e-12)


def test_bps_dephases_coherent_state():
    d = 25
    alpha = 1.0
    out, prob = apply_map(build_state("coherent", alpha, d), bps(d).body)
    assert abs(prob - 1.0) < 1e-12
    plus = build_state("coherent", alpha, d).to_density().data
    minus = build_state("coherent", -alpha, d).to_density().data
    assert_allclose(out.data, 0.5 * plus + 0.5 * minus, atol=1e-10)


def test_bps_output_entropy_at_most_one_bit():
    d = 30
    for spec in ("coherent:1.3", "fock:3", "cat:1.0"):
        state = parse_state_spec(spec, d)
        out, _ = apply_map(state, bps(d).body)
        assert von_neumann_entropy(out) <= 1.0 + 1e-9


def test_kerr_trivial_angles():
    d = 15
    for gamma in (0.0, 2.0 * np.pi):
        (u,) = kerr(gamma, d).body.kraus
        assert_allclose(u, np.eye(d), atol=1e-12)


def test_kerr_makes_coherent_state_non_gaussian():
    d = 40
    out, _ = apply_map(build_state("coherent", 1.0, d), kerr(np.pi / 2, d).body)
    assert delta_g(out) > 0.1


def test_identity_map_passthrough():
    d = 12
    state = build_state("cat", 1.0, d)
    out, prob = apply_map(state, identity_map(d).body)
    assert prob == float(np.vdot(state.data, state.data).real)
    assert_allclose(out.data, state.data, atol=1e-12)


@pytest.mark.parametrize("cutoff", [0, 1])
def test_identity_map_refuses_a_cutoff_below_two(cutoff):
    with pytest.raises(ValueError, match="cutoff must be >= 2"):
        identity_map(cutoff)


def test_conditional_unitary_is_one_operator_on_unchanged_modes():
    d = 12
    rotate = ConditionalMap(1, 1, (build_unitary("rotation", 0.3, d),), False)
    for desc in (pns(d), pna(d), kerr(0.5, d), identity_map(d)):
        assert desc.body.conditional_unitary, desc.name
    assert compose(rotate, pns(d).body).conditional_unitary
    gd = parse_map_spec("gd:bs0.5,env=fock:1", d)
    for desc in (bps(d), loss(0.7, d), gd, coherent_projector(1.0, d)):
        assert not desc.body.conditional_unitary, desc.name


@pytest.mark.parametrize("make", [lambda d: kerr(0.5, d), identity_map], ids=["kerr", "id"])
def test_single_operator_channel_keeps_a_ket_a_ket(make):
    d = 20
    (u,) = make(d).body.kraus
    coherent = build_state("coherent", 1.0 + 0.5j, d)
    pair = build_state("tmsv", 0.5, d)
    for state, targets in ((coherent, [0]), (pair, [1])):
        out, prob = apply_map(state, make(d).body, targets=targets)
        assert out.kind == "ket"
        assert np.array_equal(out.data, apply_unitary(state, u, targets).data)
        # a channel reports its output weight, here the input's ⟨ψ|ψ⟩
        assert prob == float(np.vdot(out.data, out.data).real)
        assert prob == pytest.approx(np.vdot(state.data, state.data).real, abs=1e-15)


def test_apply_map_refuses_targets_outside_the_register():
    d = 12
    # the thermal lift carries 12 branch rows, so a negative mode would
    # otherwise index the row axis of the branch product
    rho = gaussian_to_fock(thermal_state(0.3), d)
    for targets in ([-1], [5]):
        with pytest.raises(ValueError, match="distinct modes"):
            apply_map(rho, pns(d).body, targets=targets)
    split = ConditionalMap(2, 2, (build_unitary("beamsplitter", 0.3, d),), False)
    with pytest.raises(ValueError, match="distinct modes"):
        apply_map(build_state("tmsv", 0.2, d), split, targets=[1, 1])


def test_apply_map_refuses_a_map_built_at_another_cutoff():
    state = build_state("coherent", 0.5, 20)
    with pytest.raises(ValueError, match="map cutoff 12 does not match the state's cutoff 20"):
        apply_map(state, pns(12).body)
    pair = build_state("tmsv", 0.1, 10)
    with pytest.raises(ValueError, match="map cutoff 12 does not match the state's cutoff 10"):
        apply_map(pair, coherent_projector(0.5, 12).body)


def test_register_map_takes_targets_as_any_sequence():
    d = 25
    joint = _product_ket(build_state("coherent", 0.8, d), build_state("coherent", -0.3, d))
    body = coherent_projector(1.0, d).body
    ref, ref_weight = apply_map(joint, body)
    for targets in ([0, 1], (0, 1), range(2)):
        out, weight = apply_map(joint, body, targets=targets)
        assert weight == ref_weight
        assert np.array_equal(out.data, ref.data)


def test_coherent_projector_on_product_input():
    d = 25
    beta, gamma_in, alpha = 0.8, -0.3, 1.0
    joint = _product_ket(
        build_state("coherent", beta, d), build_state("coherent", gamma_in, d)
    )
    out, weight = apply_map(joint, coherent_projector(alpha, d).body)
    assert out.n_modes == 1
    expected_weight = np.exp(-abs(alpha - gamma_in) ** 2)
    assert abs(weight - expected_weight) < 1e-8
    ref = build_state("coherent", beta, d).to_density()
    assert_allclose(out.to_density().data, ref.data, atol=1e-8)


def test_correlated_mixture_covariance():
    d = 30
    alpha = 1.0
    g = gaussify(correlated_coherent_mixture(alpha, d))
    block = 4.0 * alpha**2
    expected = np.array(
        [
            [block + 1.0, 0.0, block, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [block, 0.0, block + 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    assert_allclose(g.cov, expected, atol=1e-8)
    assert_allclose(g.mean, np.zeros(4), atol=1e-10)


def test_projection_does_not_commute_with_gaussification():
    # the two composition orders give different <a> on the surviving mode
    d = 30
    for alpha in (0.5, 1.0):
        sigma = correlated_coherent_mixture(alpha, d)
        t_map = coherent_projector(alpha, d).body

        direct, _ = apply_map(sigma, t_map)
        expected_direct = (
            alpha
            * (1.0 - np.exp(-4.0 * alpha**2))
            / (1.0 + np.exp(-4.0 * alpha**2))
        )
        assert abs(moments(direct).first[0].real - expected_direct) < 1e-3

        fitted = gaussian_to_fock(gaussify(sigma), cutoff=d)
        swapped, _ = apply_map(fitted, t_map)
        expected_swapped = 2.0 * alpha**3 / (1.0 + 2.0 * alpha**2)
        assert abs(moments(swapped).first[0].real - expected_swapped) < 1e-3


def test_gaussian_conditioning_matches_fock_projection():
    # projecting the gaussified pair's mode 1 onto |α⟩ in Fock space leaves
    # the Gaussian state that conditioning on the outcome (2α, 0) predicts
    d = 30
    for alpha in (0.5, 1.0):
        gauss = gaussify(correlated_coherent_mixture(alpha, d))
        want = condition_on_projection(gauss, [1], [2.0 * alpha, 0.0])
        assert_allclose(
            want.mean, [4.0 * alpha**3 / (1.0 + 2.0 * alpha**2), 0.0], atol=1e-9
        )
        fitted = gaussian_to_fock(gauss, cutoff=d, trace_tol=1e-4)
        swapped, _ = apply_map(fitted, coherent_projector(alpha, d).body)
        got = gaussify(swapped)
        assert_allclose(got.mean, want.mean, atol=1e-6)
        assert_allclose(got.cov, want.cov, atol=1e-6)


def test_projection_can_increase_non_gaussianity():
    # two-mode input: nearly Gaussian, but the branch the projector keeps
    # carries a Fock state
    d, alpha, n = 30, 2.5, 2
    rho, w0 = projection_counterexample(0.01, alpha, n, d)
    out, weight = apply_map(rho, coherent_projector(alpha, d).body)
    assert abs(weight - w0) < 1e-4  # only the |α> branch survives
    assert out.data[n, n].real > 0.999
    assert delta_g(out) > delta_g(rho) + 0.5


def test_loss_channel_on_coherent_state():
    d = 30
    tau = 0.7
    desc = loss(tau, d)
    out, prob = apply_map(build_state("coherent", 1.0, d), desc.body)
    assert abs(prob - 1.0) < 1e-10
    ref = build_state("coherent", np.sqrt(tau), d).to_density()
    assert_allclose(out.data, ref.data, atol=1e-8)
    assert delta_g(out) < 1e-6


def test_loss_rejects_bad_transmissivity():
    with pytest.raises(ValueError):
        loss(0.0)
    with pytest.raises(ValueError):
        loss(1.2)


@pytest.mark.parametrize("env", ["vacuum", "fock:1"])
def test_a_gd_spec_refuses_transmissivity_zero_as_loss_does(env, monkeypatch):
    # gd:bs0 once built the τ = 0 channel that loss(0) refuses
    def build(*args, **kwargs):
        raise AssertionError("a beamsplitter channel was built")

    monkeypatch.setattr(nongauss.maps, "gaussian_dilatable", build)
    spec = f"gd:bs0,env={env}"
    with pytest.raises(ValueError, match=re.escape(f"bad map spec {spec!r}: transmissivity")):
        parse_map_spec(spec)
    with pytest.raises(ValueError, match="transmissivity"):
        loss(0.0)


def test_dilated_channel_with_single_photon_environment():
    d = 15
    sym = gaussian_unitary("beamsplitter", 0.5, n_modes=2)
    env = build_state("fock", 1, d)
    desc = gaussian_dilatable(sym, env, d)
    out, prob = apply_map(build_state("vacuum", None, d), desc.body)
    assert abs(prob - 1.0) < 1e-12
    diag = np.diag(out.data).real
    assert_allclose(diag[:2], [0.5, 0.5], atol=1e-10)
    assert abs(diag[2:].sum()) < 1e-10


def test_dilated_channel_preserves_trace_on_random_input():
    d = 20
    rng = np.random.default_rng(7)
    amps = rng.normal(size=5) + 1j * rng.normal(size=5)
    vec = np.zeros(d, dtype=complex)
    vec[:5] = amps / np.linalg.norm(amps)
    state = FockArray(1, d, "ket", vec)
    sym = gaussian_unitary("beamsplitter", 0.31, n_modes=2)
    desc = gaussian_dilatable(sym, build_state("fock", 1, d), d)
    _, prob = apply_map(state, desc.body)
    assert abs(prob - 1.0) < 1e-10


def _branch_inputs(d):
    """Two-mode inputs: a ket; branch densities from gaussian_to_fock with 14
    and with d² branches; and one from a prior apply_map."""
    rng = np.random.default_rng(23)
    amps = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    psi = np.zeros((d, d), dtype=complex)
    psi[:4, :4] = amps / np.linalg.norm(amps)
    ket = FockArray(2, d, "ket", psi)

    def lift(n0, n1):
        g = GaussianState(2, np.zeros(4), np.diag([1 + 2 * n0] * 2 + [1 + 2 * n1] * 2))
        for op in (
            gaussian_unitary("beamsplitter", 0.6, n_modes=2),
            gaussian_unitary("two_mode_squeeze", 0.15, n_modes=2),
            gaussian_unitary("displacement", 0.2 - 0.1j, n_modes=2, targets=[1]),
        ):
            g = apply_symplectic(g, op)
        return gaussian_to_fock(g, d)

    mapped, _ = apply_map(ket, loss(0.8, d).body, targets=[0])
    return {"ket": ket, "lift": lift(0.3, 0.0), "thermal-lift": lift(0.3, 0.2),
            "mapped": mapped}


def _dense_moments(rho, n, d):
    """Ladder moments Tr(Xρ)/Tr ρ of a density matrix, in plain numpy."""
    eye = np.eye(d)
    low = np.diag(np.sqrt(np.arange(1.0, d)), k=1)
    lows = [reduce(np.kron, [low if m == j else eye for m in range(n)]) for j in range(n)]
    tr = np.trace(rho).real
    first = np.array([np.trace(a @ rho) for a in lows]) / tr
    aa = np.array([[np.trace(a @ b @ rho) for b in lows] for a in lows]) / tr
    adag_a = np.array([[np.trace(a.conj().T @ b @ rho) for b in lows] for a in lows]) / tr
    return first, aa, adag_a


def _assert_same_moments(got, want):
    for field_, ref in zip(("first", "aa", "adag_a"), want):
        assert_allclose(getattr(got, field_), ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "make_map",
    [
        lambda d: parse_map_spec("gd:bs0.4,env=fock:1", d).body,
        lambda d: loss(0.7, d).body,
        lambda d: bps(d).body,
        lambda d: compose(pns(d).body, loss(0.6, d).body),
        lambda d: pns(d).body,
        lambda d: coherent_projector(0.5, d).body,
    ],
    ids=["gd", "loss", "bps", "pns-after-loss", "pns", "talpha"],
)
def test_ket_branch_route_matches_density_route(make_map):
    # each input against Σ_j K_j ρ K_j† formed from its matrix in plain numpy
    d = 14
    body = make_map(d)
    k = len(body.kraus)
    n_out = 2 if body.n_in == body.n_out else body.n_out
    inputs = _branch_inputs(d)
    # the d-branch inputs meet the row rule k·r ≤ d² with equality under a
    # d-operator family; the d²-branch lift fails it for any k > 1
    assert [inputs[n].branches.shape[0] for n in ("lift", "thermal-lift", "mapped")] == [
        d, d * d, d,
    ]
    eye = np.eye(d)
    for name, state in inputs.items():
        rho = state.to_density().data
        if state.kind == "density":
            _assert_same_moments(moments(state), _dense_moments(rho, 2, d))
        rows = 1 if state.kind == "ket" else state.branches.shape[0]
        for targets in ([0], [1]) if body.n_in == 1 else (None,):
            out, prob = apply_map(state, body, targets=targets)
            if targets is None:
                full = body.kraus
            elif targets == [0]:
                full = [np.kron(op, eye) for op in body.kraus]
            else:
                full = [np.kron(eye, op) for op in body.kraus]
            ref = sum(op @ rho @ op.conj().T for op in full)
            ref_prob = float(np.trace(ref).real)
            if body.renormalize:
                ref = ref / ref_prob
            if state.kind == "ket" and k == 1:
                assert out.kind == "ket", name
            elif state.kind == "ket" or k * rows <= d**n_out:
                assert out.kind == "density", name
                assert out.branches.shape == (k * rows, d**n_out)
                _assert_same_moments(moments(out), _dense_moments(ref, n_out, d))
            else:
                assert out.branches.shape[0] <= d**n_out, name
            if state.kind == "ket" and k > 1:
                assert out.branches.shape[0] < d * d
            assert prob == pytest.approx(ref_prob, abs=1e-12)
            assert_allclose(out.to_density().data, ref, atol=1e-12)
            assert out.trace_deficit == pytest.approx(
                1.0 - float(np.trace(ref).real), abs=1e-12
            )
            w = np.linalg.eigvalsh(ref)
            w = w[w > 1e-12]
            assert von_neumann_entropy(out) == pytest.approx(
                float(-(w @ np.log2(w))), abs=1e-12
            )


@pytest.mark.parametrize("d", [8, 32, 60])
def test_loss_kraus_match_the_binomial_closed_form(d):
    # K_k[n−k, n] = √C(n,k) τ^{(n−k)/2} (1−τ)^{k/2} (Ivan, Sabapathy &
    # Simon, arXiv:1012.4266)
    tau = 0.7
    want = np.zeros((d, d, d))
    for k in range(d):
        n = np.arange(k, d)
        binom = np.array([math.comb(int(m), k) for m in n], dtype=float)
        want[k, n - k, n] = np.sqrt(binom) * tau ** ((n - k) / 2) * (1 - tau) ** (k / 2)
    assert_allclose(np.stack(loss(tau, d).body.kraus), want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("env_spec", ["vacuum", "fock:1", "coherent:0.5"])
@pytest.mark.parametrize(
    "sym",
    [
        gaussian_unitary("beamsplitter", 0.35, n_modes=2),
        gaussian_unitary("two_mode_squeeze", 0.2, n_modes=2),
    ],
    ids=["beamsplitter", "two-mode-squeeze"],
)
def test_dilation_kraus_match_the_full_unitary(sym, env_spec):
    # the coherent environment has full support, so every column is taken
    d = 20
    env = parse_state_spec(env_spec, d)
    u = symplectic_to_unitary(sym, d).reshape((d,) * 4)
    # axes: output system, output environment, input system
    want = np.tensordot(u, env.data, axes=([3], [0]))
    got = np.stack(gaussian_dilatable(sym, env, d).body.kraus, axis=1)
    assert_allclose(got, want, rtol=0, atol=1e-14)


def _traced_peak_mb(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_loss_dilation_builds_only_the_columns_it_reads():
    # the full cutoff-60 beamsplitter alone would take 3600² · 16 B = 198 MiB
    assert _traced_peak_mb(lambda: loss(0.7, 60).body.kraus) < 32.0


@pytest.mark.parametrize("make", [pns, pna])
def test_a_ladder_map_allocates_no_operator_until_it_is_read(make):
    # the d × d operator would take 61 MiB at d = 2000 and 5.96 GiB at
    # d = 20000; the small cutoff goes first, so an eager build fails there
    for d in (2000, 20000):
        assert _traced_peak_mb(lambda: parse_map_spec(make.__name__, d)) < 1.0, d


def test_a_family_is_built_once_on_its_first_read():
    d = 6
    calls = []

    def family():
        calls.append(d)
        return (np.eye(d),)

    body = ConditionalMap(1, 1, family, False, shape=(1, d, d))
    assert body.conditional_unitary and body.shape == (1, d, d)
    assert not calls
    first = body.kraus
    assert body.kraus is first and calls == [d]
    assert first.dtype == complex and not first.flags.writeable
    assert_allclose(first[0], np.eye(d))


def test_compose_refuses_factors_at_different_cutoffs_before_any_build():
    with pytest.raises(ValueError, match="cannot compose: inner yields dimension 9"):
        compose(pns(8).body, pns(9).body)


def test_a_builder_that_breaks_its_shape_is_refused_on_read():
    body = ConditionalMap(1, 1, lambda: (np.eye(4),), False, shape=(1, 5, 5))
    with pytest.raises(ValueError, match="shape"):
        body.kraus


def _read_in_threads(body, count=4):
    # `count` threads released together, each reading body.kraus once
    barrier = threading.Barrier(count)
    stacks = [None] * count

    def read(i):
        barrier.wait(timeout=30)
        stacks[i] = body.kraus

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return stacks


def test_concurrent_first_reads_build_one_read_only_family():
    stacks = _read_in_threads(loss(0.7, 30).body)
    assert all(s is stacks[0] for s in stacks)
    assert not stacks[0].flags.writeable
    assert_allclose(stacks[0], loss(0.7, 30).body.kraus, rtol=0, atol=0)


def test_a_slow_family_read_by_threads_at_once_is_built_once():
    calls = []

    def family():
        calls.append(None)
        time.sleep(0.05)
        return (np.eye(3),)

    stacks = _read_in_threads(ConditionalMap(1, 1, family, False, shape=(1, 3, 3)))
    assert len(calls) == 1
    assert all(s is stacks[0] for s in stacks)


def test_mixed_lift_through_loss_keeps_the_kraus_loop():
    # 625 branches · 25 operators as rows would take about 150 MiB
    d = 25
    g = GaussianState(2, np.zeros(4), np.diag([1.6, 1.6, 1.4, 1.4]))
    g = apply_symplectic(g, gaussian_unitary("beamsplitter", 0.6, n_modes=2))
    rho = gaussian_to_fock(g, d)
    assert rho.branches.shape[0] == d * d
    body = loss(0.7, d).body
    assert _traced_peak_mb(lambda: apply_map(rho, body, targets=[0])) < 64.0


def test_dilated_channel_rejects_mixed_environment():
    d = 10
    sym = gaussian_unitary("beamsplitter", 0.5, n_modes=2)
    env = build_state("thermal", 0.5, d, trace_tol=1e-4)
    with pytest.raises(UnsupportedMapError):
        gaussian_dilatable(sym, env, d)


def test_parse_state_spec_kinds():
    d = 20
    coh = parse_state_spec("coherent:1.0,0.5", d)
    ref = build_state("coherent", 1.0 + 0.5j, d)
    assert_allclose(coh.data, ref.data, atol=1e-12)
    assert parse_state_spec("fock:3", d).data[3] == 1.0
    assert parse_state_spec("thermal:0.5", d).kind == "density"
    assert parse_state_spec("tmsv:1.0", d, trace_tol=1e-5).n_modes == 2
    assert parse_state_spec("vacuum", d).data[0] == 1.0
    with pytest.raises(ValueError):
        parse_state_spec("squeezed:0.5", d)
    with pytest.raises(ValueError):
        parse_state_spec("fock:abc", d)


def test_parse_map_spec_kinds():
    d = 25
    assert parse_map_spec("pns", d).name == "pns"
    assert parse_map_spec("pna", d).name == "pna"
    assert parse_map_spec("bps", d).name == "bps"
    assert parse_map_spec("kerr", d).metadata["gamma"] == 0.5
    assert parse_map_spec("kerr:0.25", d).metadata["gamma"] == 0.25
    with pytest.raises(ValueError, match="unknown map spec"):
        parse_map_spec("talpha:1.0", d)
    assert parse_map_spec("id", d).name == "id"
    assert parse_map_spec("loss:0.9", d).name == "loss"
    gd = parse_map_spec("gd:bs0.5,env=fock:1", d)
    assert gd.name == "gd"
    assert gd.metadata["environment"].n_modes == 1
    with pytest.raises(ValueError):
        parse_map_spec("nonsense", d)
    with pytest.raises(ValueError):
        parse_map_spec("gd:bs0.5", d)
    with pytest.raises(UnsupportedMapError):
        parse_map_spec("gd:bs0.5,env=thermal:1.0", d)


def test_an_amplitude_takes_at_most_two_fields():
    d = 12
    with pytest.raises(ValueError, match=r"re\[,im\]"):
        parse_state_spec("coherent:1,2,3", d)
    with pytest.raises(ValueError, match="unknown map spec"):
        parse_map_spec("talpha:1,2,3", d)
    with pytest.raises(ValueError):
        parse_state_spec("coherent:", d)
    # the field after an environment's coherent:re is its im
    env = parse_map_spec("gd:bs0.5,env=coherent:0.3,-0.2", d).metadata["environment"]
    assert_allclose(env.data, build_state("coherent", 0.3 - 0.2j, d).data, rtol=0, atol=1e-15)


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
def test_kerr_refuses_a_gamma_that_is_not_finite(gamma, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("a Kerr unitary was built")

    monkeypatch.setattr(nongauss.maps, "build_unitary", build)
    with pytest.raises(ValueError, match="finite"):
        kerr(float(gamma), 8)
    with pytest.raises(ValueError, match="finite"):
        parse_map_spec(f"kerr:{gamma}", 8)


def test_pure_inputs_stay_pure_under_pns_and_pna():
    d = 25
    rng = np.random.default_rng(11)
    for desc in (pns(d), pna(d)):
        for _ in range(5):
            amps = rng.normal(size=6) + 1j * rng.normal(size=6)
            vec = np.zeros(d, dtype=complex)
            vec[:6] = amps / np.linalg.norm(amps)
            out, _ = apply_map(FockArray(1, d, "ket", vec), desc.body)
            assert out.kind == "ket"  # single Kraus keeps kets kets
            assert abs(np.linalg.norm(out.data) - 1.0) < 1e-9


_MARKED_GAUSSIAN = (
    "id", "loss:0.4", "loss:1",
    *(f"gd:bs0.4,env={env}" for env in ("vacuum", "fock:0", "coherent:0.5", "coherent:0.3,-0.2")),
    # at τ = 1 the Kraus operators are ψ_E[j]·I: the identity, whatever ψ_E
    *(f"gd:bs1,env={env}" for env in ("vacuum", "fock:1", "fock:3", "cat:1.0", "coherent:0.5")),
)


def test_gaussian_channels_carry_their_gaussian_form():
    d = 12
    for spec in _MARKED_GAUSSIAN:
        assert parse_map_spec(spec, d).metadata.get("gaussian") is True, spec
    assert identity_map(d).metadata == {"gaussian": True}
    assert loss(0.4, d).metadata["gaussian"] is True
    unmarked = ("gd:bs0.4,env=fock:1", "gd:bs0.4,env=cat:1.0", "pns", "pna", "bps", "kerr")
    for spec in unmarked:
        assert "gaussian" not in parse_map_spec(spec, d).metadata, spec


@pytest.mark.parametrize("spec", ["vacuum", "fock:0", "coherent:0.5", "coherent:0.3,-0.2"])
def test_gaussian_environment_matches_its_ket(spec):
    # an environment the beamsplitter channel marks Gaussian is one: its
    # ket equals its Gaussification
    env, gaussian = _gaussian_environment(spec, 20)
    assert gaussian
    assert abs(delta_g(env)) <= 1e-12
    desc = parse_map_spec(f"gd:bs0.4,env={spec}", 20)
    assert desc.metadata["gaussian"] is True
    assert abs(delta_g(desc.metadata["environment"])) <= 1e-12


def _squeezed_thermal(n_th, r, theta):
    state = apply_symplectic(thermal_state(n_th), gaussian_unitary("squeeze", r, 1))
    return apply_symplectic(state, gaussian_unitary("rotation", theta, 1))


@pytest.mark.parametrize(
    "spec, d, tau, env_mean",
    [("loss:0.7", 30, 0.7, [0.0, 0.0]), ("gd:bs0.4,env=coherent:0.3", 25, 0.4, [0.6, 0.0])],
    ids=["loss", "gd"],
)
@pytest.mark.parametrize(
    "state",
    [
        GaussianState(1, np.array([1.2, -0.6]), np.eye(2)),
        _squeezed_thermal(0.2, 0.2, 0.7),
    ],
    ids=["coherent", "squeezed-thermal"],
)
def test_gaussian_form_agrees_with_its_kraus_family(spec, d, tau, env_mean, state):
    # a marked channel's Kraus family against the beamsplitter in phase
    # space, [[√τ, −√(1−τ)], [√(1−τ), √τ]] on (system, environment): a sign
    # or transmissivity convention of the Fock lift that differs shows here
    desc = parse_map_spec(spec, d)
    assert desc.metadata["gaussian"] is True
    out, _ = apply_map(gaussian_to_fock(state, d, trace_tol=1e-5), desc.body)
    got = gaussify(out)
    want_mean = np.sqrt(tau) * state.mean - np.sqrt(1.0 - tau) * np.asarray(env_mean)
    assert_allclose(got.mean, want_mean, rtol=0, atol=1e-6)
    assert_allclose(got.cov, tau * state.cov + (1.0 - tau) * np.eye(2), rtol=0, atol=1e-6)


@pytest.mark.parametrize(
    "spec",
    ["pns:3", "pna:1", "bps:x", "id:7", "gd:bs0.5,bs0.7,env=vacuum", "gd:bs0.5,env=vacuum,env=fock:1"],
)
def test_a_map_spec_field_its_name_does_not_take_is_refused(spec):
    # once silently ignored, or the last of a repeated gd field kept
    with pytest.raises(ValueError, match=re.escape(repr(spec))):
        parse_map_spec(spec, 12)


def test_vacuum_takes_no_argument_and_kerr_keeps_its_default_gamma():
    with pytest.raises(ValueError, match="'vacuum:3'"):
        parse_state_spec("vacuum:3", 12)
    for spec in ("kerr", "kerr:"):
        assert parse_map_spec(spec, 12).metadata["gamma"] == nongauss.maps.DEFAULT_KERR_GAMMA


def test_a_spec_an_environment_and_the_library_refuse_one_truncation():
    # coherent:3.1 loses 1.1e-7 of its weight at cutoff 30, above build_state's
    # tolerance: a spec and a gd environment build at that tolerance too
    for build in (
        lambda: build_state("coherent", 3.1, 30),
        lambda: parse_state_spec("coherent:3.1", 30),
        lambda: parse_map_spec("gd:bs0.5,env=coherent:3.1", 30),
    ):
        with pytest.raises(TruncationError) as exc:
            build()
        assert exc.value.suggested_cutoff == 60


@pytest.mark.parametrize("env", ["thermal:1.0", "tmsv:1.0"])
def test_a_mixed_or_two_mode_environment_is_refused_before_it_is_built(env, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("an environment state was built")

    monkeypatch.setattr(nongauss.maps, "build_state", build)
    with pytest.raises(UnsupportedMapError):
        parse_map_spec(f"gd:bs0.5,env={env}", 25)
