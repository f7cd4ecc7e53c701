import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nongauss.cli import _correlated_coherent_mixture
from nongauss.errors import UnsupportedMapError, ZeroProbabilityError
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
    bps,
    coherent_projector,
    compose,
    gaussian_dilatable,
    identity_map,
    kerr,
    loss,
    normalization_pna,
    normalization_pns,
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
    assert abs(normalization_pns(0.0, 0.0, 1.0) - 1.0) < 1e-12
    assert abs(normalization_pna(0.0, 0.0, 0.0) - 1.0) < 1e-12
    with pytest.raises(ZeroProbabilityError):
        normalization_pns(0.0, 0.0, 0.0)


def test_normalization_matches_fock_weight():
    # displaced squeezed TMSV arm, weights from the closed forms
    d = 45
    alpha, r, theta, n_s = 1.0, 0.5, 0.7, 0.5
    psi = build_state("tmsv", n_s, d, trace_tol=1e-5)
    for kind, par in (("squeeze", r), ("rotation", theta), ("displacement", alpha)):
        psi = apply_unitary(psi, build_unitary(kind, par, d), targets=[1])
    _, w_sub = apply_map(psi, pns(d).body, targets=[1])
    _, w_add = apply_map(psi, pna(d).body, targets=[1])
    assert abs(w_sub**-0.5 - normalization_pns(alpha, r, n_s)) < 1e-6
    assert abs(w_add**-0.5 - normalization_pna(alpha, r, n_s)) < 1e-6


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
    g = gaussify(_correlated_coherent_mixture(alpha, d))
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
        sigma = _correlated_coherent_mixture(alpha, d)
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
        gauss = gaussify(_correlated_coherent_mixture(alpha, d))
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
    d = 30
    eps, alpha, n = 0.01, 2.5, 2
    w = np.array([np.sqrt(eps), np.sqrt(1.0 - eps)])
    w /= w.sum()
    fock_n = build_state("fock", n, d).to_density().data
    th = build_state("thermal", 1.0, d).data
    coh_p = build_state("coherent", alpha, d).to_density().data
    coh_m = build_state("coherent", -alpha, d).to_density().data
    rho = FockArray(
        2, d, "density", w[0] * np.kron(fock_n, coh_p) + w[1] * np.kron(th, coh_m)
    )
    out, weight = apply_map(rho, coherent_projector(alpha, d).body)
    assert abs(weight - w[0]) < 1e-4  # only the |α> branch survives
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


def _without_branches(state):
    return FockArray(state.n_modes, state.cutoff, "density", state.to_density().data)


def _assert_same_moments(got, want):
    for field_ in ("first", "aa", "adag_a"):
        assert_allclose(getattr(got, field_), getattr(want, field_), rtol=0, atol=1e-12)


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
    # each input against the same density rebuilt without branches, which
    # takes the one-operator-at-a-time Kraus loop
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
    for name, state in inputs.items():
        plain = _without_branches(state)
        if state.kind == "density":
            assert state.branches is not None
            _assert_same_moments(moments(state), moments(plain))
        rows = 1 if state.kind == "ket" else state.branches.shape[0]
        for targets in ([0], [1]) if body.n_in == 1 else (None,):
            out, prob = apply_map(state, body, targets=targets)
            ref, ref_prob = apply_map(plain, body, targets=targets)
            assert ref.branches is None
            if state.kind == "ket" and k == 1:
                assert out.kind == "ket", name
            elif state.kind == "ket" or k * rows <= d**n_out:
                assert out.kind == "density" and out.branches is not None, name
                assert out.branches.shape == (k * rows, d**n_out)
                _assert_same_moments(moments(out), moments(_without_branches(out)))
            else:
                assert out.branches is None, name
            if state.kind == "ket" and k > 1:
                assert out.branches.shape[0] < d * d
            assert prob == pytest.approx(ref_prob, abs=1e-12)
            assert_allclose(out.to_density().data, ref.data, atol=1e-12)
            assert out.trace_deficit == pytest.approx(ref.trace_deficit, abs=1e-12)
            assert von_neumann_entropy(out) == pytest.approx(
                von_neumann_entropy(ref), abs=1e-12
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
    assert _traced_peak_mb(lambda: loss(0.7, 60)) < 32.0


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
    assert parse_map_spec("talpha:1.0", d).metadata["alpha"] == 1.0 + 0.0j
    assert parse_map_spec("id", d).name == "id"
    assert parse_map_spec("loss:0.9", d).metadata["tau"] == 0.9
    gd = parse_map_spec("gd:bs0.5,env=fock:1", d)
    assert gd.name == "gd"
    assert gd.metadata["environment"].n_modes == 1
    with pytest.raises(ValueError):
        parse_map_spec("nonsense", d)
    with pytest.raises(ValueError):
        parse_map_spec("gd:bs0.5", d)
    with pytest.raises(UnsupportedMapError):
        parse_map_spec("gd:bs0.5,env=thermal:1.0", d)


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
