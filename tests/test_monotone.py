import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import optimize

import nongauss.fock
import nongauss.monotone as monotone
from nongauss.errors import TruncationError, UnsupportedMapError
from nongauss.fock import (
    EDGE_COST,
    ConditionalMap,
    FockArray,
    apply_map,
    apply_unitary,
    build_state,
    build_unitary,
    certify_edge,
    covariance_from_moments,
    delta_g,
    gaussian_to_fock,
    gaussify,
    ladder,
    mean_and_covariance,
    moments,
)
from nongauss.gaussian import (
    GaussianState,
    apply_symplectic,
    gaussian_entropies,
    gaussian_entropy,
    gaussian_unitary,
    partial_trace_gaussian,
    symplectic_form,
    thermal_entropy,
    thermal_state,
    tmsv_state,
    vacuum_state,
)
from nongauss.maps import (
    MapDescriptor,
    bps,
    coherent_projector,
    compose,
    gaussian_dilatable,
    identity_map,
    kerr,
    loss,
    parse_map_spec,
    pna,
    pns,
)
from nongauss.monotone import (
    DivergenceProfile,
    InputParams,
    MonotoneResult,
    _family_member,
    _ladder_moments,
    _ordered_moments,
    alpha_zero_spread,
    analytic_output_covariance,
    d_g_bound,
    delta_tilde,
    divergence_profile,
    energy_ceiling,
    environment_bound,
    gaussian_mean_photons,
    input_family,
    mixed_unitary_bounds,
)


def _kerr_state(p, gamma):
    # the joint Kerr output of one member: the closed form on that member alone
    return covariance_from_moments(monotone._kerr_outputs(p, gamma)[1])


def test_input_params_rejects_bad_values():
    with pytest.raises(ValueError):
        InputParams(0.0, 0.0, 0.0, -0.1)
    with pytest.raises(ValueError):
        InputParams(complex(np.inf), 0.0, 0.0, 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", range(4))
def test_input_params_rejects_non_finite_fields(field, bad):
    values = [0.5 + 0.1j, 0.3, 0.2, 1.0]
    values[field] = complex(bad, 0.0) if field == 0 else bad
    with pytest.raises(ValueError, match="finite"):
        InputParams(*values)


def test_input_family_backends_agree():
    p = InputParams(0.4 + 0.2j, 0.9, 0.3, 0.8)
    exact = input_family(p, "gaussian")
    ket = input_family(p, "fock", cutoff=40)
    assert exact.n_modes == 2 and ket.n_modes == 2
    fitted = gaussify(ket)
    assert_allclose(fitted.cov, exact.cov, atol=1e-5)
    assert_allclose(fitted.mean, exact.mean, atol=1e-5)


def test_input_family_refuses_a_spilled_ket():
    # the hottest draw of the c04 oracle: in-box unitaries park 1.6e-3 of
    # its weight in the top two levels at cutoff 50
    p = InputParams(0.8718 + 1.1805j, 6.1112, 0.7119, 1.6447)
    with pytest.raises(TruncationError) as info:
        input_family(p, "fock", cutoff=50)
    assert info.value.deficit > 1e-3
    suggested = info.value.suggested_cutoff
    assert suggested > 50
    ket = input_family(p, "fock", cutoff=suggested)
    assert ket.cutoff == suggested
    # a fixed edge bound names no moment tolerance to carry elsewhere
    with pytest.raises(TruncationError) as info:
        input_family(p, "fock", cutoff=50, edge_tol=1e-6)
    assert info.value.suggested_cutoff is None


def test_input_family_fock_matches_the_three_step_chain():
    # the one-product ket against the TMSV rotated, squeezed and displaced
    # in turn, over draws up to the search's caps
    d = 40
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = InputParams(
            3.0 * np.sqrt(rng.random()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)),
            rng.uniform(-np.pi, np.pi),
            rng.uniform(-1.5, 1.5),
            rng.uniform(0.0, 4.0),
        )
        ket = build_state("tmsv", p.n_s, d, trace_tol=1e-3)
        ops = (("squeeze", p.r), ("rotation", p.theta), ("displacement", p.alpha))
        for kind, par in ops:
            ket = apply_unitary(ket, build_unitary(kind, par, d), targets=[1])
        got = input_family(p, "fock", cutoff=d, edge_tol=1.0)
        assert_allclose(got.data, ket.data, rtol=0, atol=1e-13)
        assert got.trace_deficit == pytest.approx(ket.trace_deficit, abs=1e-13)


def test_input_family_ket_matches_the_tmsv_state_route():
    # the Schmidt coefficients against the diagonal of build_state's TMSV
    d = 32
    rng = np.random.default_rng(19)
    for _ in range(40):
        p = InputParams(
            3.0 * np.sqrt(rng.random()) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)),
            rng.uniform(-np.pi, np.pi),
            rng.uniform(-1.5, 1.5),
            rng.uniform(0.0, 4.0),
        )
        tmsv = build_state("tmsv", p.n_s, d, trace_tol=1e-3)
        u = build_unitary("displacement", p.alpha, d) @ (
            build_unitary("rotation", p.theta, d).diagonal()[:, None]
            * build_unitary("squeeze", p.r, d)
        )
        want = FockArray(2, d, "ket", (u * np.diagonal(tmsv.data)).T, trace_tol=1e-3)
        got = input_family(p, "fock", cutoff=d, edge_tol=1.0)
        assert_allclose(got.data, want.data, rtol=0, atol=1e-15)
        assert got.trace_deficit == pytest.approx(want.trace_deficit, abs=1e-15)


def test_input_family_refuses_a_tmsv_as_build_state_does():
    p = InputParams(0.0, 0.0, 0.0, 4.0)
    with pytest.raises(TruncationError) as want:
        build_state("tmsv", 4.0, 8, trace_tol=1e-3)
    with pytest.raises(TruncationError) as got:
        input_family(p, "fock", cutoff=8, trace_tol=1e-3)
    assert str(got.value) == str(want.value)
    assert got.value.deficit == want.value.deficit
    assert got.value.suggested_cutoff == want.value.suggested_cutoff == 32


def test_kerr_output_at_r_zero_does_not_depend_on_theta():
    # at r = 0, R_θ on the consumed mode of the TMSV is R_θ on the kept one
    body = kerr(0.5, 32).body
    for alpha, n_s in ((0.0, 0.5), (1.0, 1.0), (1.5, 0.1)):
        values = []
        for theta in (0.0, np.pi / 4.0, np.pi / 2.0, 2.0):
            p = InputParams(alpha, theta, 0.0, n_s)
            ket = input_family(p, "fock", cutoff=32, edge_tol=1.0)
            values.append(delta_g(apply_map(ket, body, targets=[1])[0]))
        assert_allclose(values, values[0], rtol=0, atol=1e-12)


def test_input_family_at_origin_is_tmsv():
    p = InputParams(0.0, 0.0, 0.0, 1.0)
    assert_allclose(input_family(p, "gaussian").cov, tmsv_state(1.0).cov, atol=1e-12)
    with pytest.raises(ValueError):
        input_family(p, backend="wigner")


# indices into _ladder_moments: ξ = (a, a†, b, b†), then the unit
A, ADAG, B, BDAG, ONE = range(5)


def test_ordered_moments_two_symbol_tmsv_values():
    mu, g = _ladder_moments(InputParams(0.0, 0.0, 0.0, 1.0))
    assert_allclose(mu, np.zeros(4), atol=1e-12)
    words = [(A, B), (ADAG, BDAG), (B, BDAG), (BDAG, B), (A, A), (A, BDAG)]
    got = _ordered_moments(mu, g, [w + (ONE, ONE) for w in words])
    c_p = np.sqrt(2.0)
    assert_allclose(got, [c_p, c_p, 2.0, 1.0, 0.0, 0.0], atol=1e-12)


def test_ordered_moments_number_correlator():
    # ⟨n_A n_B⟩ on the TMSV: Σ n² λ^{2n} (1-λ²) with λ² = 1/2 sums to 3
    mu, g = _ladder_moments(InputParams(0.0, 0.0, 0.0, 1.0))
    assert_allclose(_ordered_moments(mu, g, [(ADAG, A, BDAG, B)]), [3.0], atol=1e-12)


def test_ladder_moments_match_the_phase_space_state():
    # ξ = T x with a = (q + ip)/2 per mode; the ordered fluctuations are
    # ⟨δξ_i δξ_j⟩ = T (V + iΩ) Tᵀ for covariance V (ħ = 2)
    t = np.kron(np.eye(2), [[0.5, 0.5j], [0.5, -0.5j]])
    rng = np.random.default_rng(17)
    for _ in range(40):
        p = InputParams(
            3.0 * rng.uniform() * np.exp(2j * np.pi * rng.uniform()),
            rng.uniform(-np.pi, np.pi),
            rng.uniform(-1.5, 1.5),
            rng.uniform(0.0, 4.0),
        )
        state = input_family(p, "gaussian")
        mu, g = _ladder_moments(p)
        want = t @ (state.cov + 1j * symplectic_form(2)) @ t.T
        scale = np.abs(want).max()
        assert_allclose(mu, t @ state.mean, rtol=0, atol=1e-12)
        assert_allclose(g, want, rtol=0, atol=1e-12 * scale)


def test_ordered_moments_match_fock_numerics():
    p = InputParams(0.3 - 0.2j, 0.8, -0.2, 0.7)
    d = 45
    psi = input_family(p, "fock", cutoff=d).data
    a = ladder(d)
    ops = {
        A: lambda v: a @ v,
        ADAG: lambda v: a.conj().T @ v,
        B: lambda v: v @ a.T,
        BDAG: lambda v: v @ a.conj(),
        ONE: lambda v: v,
    }
    mu, g = _ladder_moments(p)
    rng = np.random.default_rng(11)
    words = rng.integers(0, 5, size=(12, 4))
    for word, got in zip(words, _ordered_moments(mu, g, words)):
        out = psi
        for s in word[::-1]:
            out = ops[s](out)
        assert_allclose(got, np.vdot(psi, out), atol=1e-8)


def test_analytic_addition_on_vacuum():
    # adding a photon to the vacuum arm leaves A in vacuum and B in |1⟩
    state = analytic_output_covariance(InputParams(0.0, 0.0, 0.0, 0.0), "pna")
    assert_allclose(state.cov, np.diag([1.0, 1.0, 3.0, 3.0]), atol=1e-12)
    assert_allclose(state.mean, np.zeros(4), atol=1e-12)


def test_analytic_subtraction_entropy_peak():
    state = analytic_output_covariance(InputParams(0.0, 0.0, 0.0, 1.0), "pns")
    assert_allclose(gaussian_entropy(state), 2.0, atol=1e-9)


def test_analytic_objective_flat_at_zero_displacement():
    # the whole α = 0 manifold sits at two bits, independent of θ, r, N_S
    rng = np.random.default_rng(5)
    for _ in range(6):
        p = InputParams(
            0.0, rng.uniform(0.0, np.pi), rng.uniform(0.0, 0.8), rng.uniform(0.1, 2.0)
        )
        for which in ("pns", "pna"):
            val = gaussian_entropy(analytic_output_covariance(p, which))
            assert_allclose(val, 2.0, atol=1e-9)
    assert alpha_zero_spread("pns") < 1e-9
    assert alpha_zero_spread("pna") < 1e-9


def test_analytic_matches_fock_at_adequate_cutoff():
    # four draws with r ≥ 0, then two with negative r
    rng = np.random.default_rng(3)
    for r_lo, r_hi in [(0.0, 0.35)] * 4 + [(-0.35, 0.0)] * 2:
        p = InputParams(
            complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
            rng.uniform(0.0, 2.0 * np.pi),
            rng.uniform(r_lo, r_hi),
            rng.uniform(0.2, 1.0),
        )
        for which, desc in (("pns", pns(60)), ("pna", pna(60))):
            want = analytic_output_covariance(p, which)
            out, _ = apply_map(input_family(p, "fock", cutoff=60), desc.body, targets=[1])
            got = gaussify(out)
            assert_allclose(got.cov, want.cov, atol=1e-8)
            assert_allclose(got.mean, want.mean, atol=1e-8)


def test_analytic_covariance_rejects_other_maps():
    with pytest.raises(UnsupportedMapError):
        analytic_output_covariance(InputParams(0.0, 0.0, 0.0, 1.0), "bps")


def test_delta_tilde_subtraction():
    res = delta_tilde(pns())
    assert res.quantity == "delta_tilde"
    assert abs(res.value - 2.0) < 1e-6
    assert abs(res.argmax.alpha) < 0.05
    assert res.diagnostics["backend"] == "analytic"
    assert res.diagnostics["alpha_zero_spread"] < 1e-9
    assert res.evaluations > 100


def test_delta_tilde_addition():
    res = delta_tilde(pna())
    assert abs(res.value - 2.0) < 1e-6
    assert abs(res.argmax.alpha) < 0.05


def test_delta_tilde_seed_stability():
    a = delta_tilde(pns(), seed=0).value
    b = delta_tilde(pns(), seed=7).value
    assert abs(a - b) < 1e-6


def test_delta_tilde_fock_route_agrees():
    # a descriptor without metadata["ladder"] takes the truncated backend
    d = 32
    res = delta_tilde(MapDescriptor("subtract", pns(d).body, d))
    assert res.diagnostics["backend"] == "fock"
    assert abs(res.value - 2.0) < 2e-2
    assert res.diagnostics["excluded"] > 0


def _kerr_on_fock(gamma=0.5, d=32):
    # without metadata["gamma"] the descriptor takes the truncated backend
    return MapDescriptor("kerr-fock", kerr(gamma, d).body, d)


def test_delta_tilde_fock_search_pins():
    # the input certificate lives in input_family; the search still admits
    # exactly the points it admitted when it checked the edge itself
    res = delta_tilde(_kerr_on_fock(), seed=0)
    assert res.diagnostics["backend"] == "fock"
    assert res.evaluations == 744
    assert res.diagnostics["excluded"] == 224
    assert_allclose(res.value, 5.667567367933926, rtol=1e-12)


def test_delta_tilde_ignores_rounding_noise(monkeypatch):
    # a 1e-13 relative wobble, alternating in sign, breaks the exact ties
    # the search meets; neither its starts nor its simplex steps may move
    plain = delta_tilde(_kerr_on_fock(), seed=0)
    for sign in (1.0, -1.0):
        calls = []

        def wobbled(state):
            calls.append(None)
            return delta_g(state) * (1.0 + sign * 1e-13 * (-1) ** len(calls))

        monkeypatch.setattr(monotone, "delta_g", wobbled)
        noisy = delta_tilde(_kerr_on_fock(), seed=0)
        assert calls
        assert noisy.argmax == plain.argmax
        assert noisy.evaluations == plain.evaluations
        assert noisy.diagnostics["excluded"] == plain.diagnostics["excluded"]


def _generator_visits(x0, f, maxfev):
    # every point monotone._nelder_mead asks for, in order
    run = monotone._nelder_mead(np.asarray(x0, dtype=float), maxfev)
    visits = []
    try:
        batch = next(run)
        while True:
            visits.extend(batch.copy())
            batch = run.send([f(x) for x in batch])
    except StopIteration:
        return np.array(visits)


def _scipy_visits(x0, f, maxfev):
    visits = []

    def counted(x):
        visits.append(x.copy())
        return f(x)

    options = {
        "xatol": monotone.SIMPLEX_XATOL,
        "fatol": monotone.SIMPLEX_FATOL,
        "maxfev": maxfev,
    }
    optimize.minimize(counted, np.asarray(x0, dtype=float), method="Nelder-Mead", options=options)
    return np.array(visits)


@pytest.mark.parametrize(
    "f, x0",
    [
        # reflections, expansions, outside and inside contractions
        (optimize.rosen, [1.3, 0.7, 0.8, 1.9]),
        # exact ties among vertices; inside contractions and shrinks, then
        # the xatol/fatol stop
        (lambda x: float(np.round(x @ x, 1)), [0.4, 0.0, -0.3, 0.2]),
        (lambda x: 1.0, [0.5, 0.0, 1.0, 2.0]),
        # a reflection and an expansion every step
        (lambda x: -float(x.sum()), [0.0, 0.0, 0.0, 0.0]),
    ],
    ids=["rosen", "ties", "flat", "slope"],
)
def test_nelder_mead_generator_visits_scipys_points(f, x0):
    full = _scipy_visits(x0, f, 150)
    assert len(full) > 50
    # a budget ends the search after every visit in turn: mid-step, after
    # the reflection that an expansion or contraction would follow, and
    # partway through a shrink
    for maxfev in range(1, len(full) + 2):
        want = _scipy_visits(x0, f, maxfev)
        got = _generator_visits(x0, f, maxfev)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), maxfev


@pytest.mark.parametrize(
    "make, view, atol",
    [
        (pns, lambda p: analytic_output_covariance(p, "pns"), 0.0),
        (pna, lambda p: analytic_output_covariance(p, "pna"), 0.0),
        (lambda: kerr(0.5, 32), lambda p: _kerr_state(p, 0.5), 1e-12),
        (_kerr_on_fock, None, None),
    ],
    ids=["pns", "pna", "kerr", "kerr-fock"],
)
def test_lockstep_search_matches_sequential_scipy_restarts(make, view, atol):
    # the five simplex searches, run one after another by scipy from the
    # starts the lattice gives, on the values the search recorded; on a
    # closed form each recorded value is also that of its member alone
    res = delta_tilde(make(), seed=3)
    value = dict(res.trace)

    def rank(v):
        return round(v, monotone._RANK_DECIMALS) if np.isfinite(v) else monotone._PENALTY

    want = list(res.trace[:144])
    order = sorted(range(144), key=lambda i: (-rank(want[i][1]), i))
    starts = [want[i][0] for i in order[:3]]
    rng = np.random.default_rng(3)
    top = starts[0]
    for _ in range(2):
        x = np.array([abs(top.alpha), top.theta, top.r, top.n_s])
        starts.append(monotone._clamp(x + rng.normal(scale=0.05, size=4), monotone._CAP_NS))
    for p0 in starts:

        def f(x):
            p = monotone._clamp(x, monotone._CAP_NS)
            want.append((p, value[p]))
            return -rank(value[p])

        x0 = [abs(p0.alpha), p0.theta, p0.r, p0.n_s]
        _scipy_visits(x0, f, monotone._SIMPLEX_MAXFEV)
    assert res.trace == tuple(want)
    if view is not None:
        for p, v in value.items():
            assert abs(v - gaussian_entropy(view(p))) <= atol


def test_delta_tilde_rejects_non_conditional_unitaries():
    with pytest.raises(UnsupportedMapError):
        delta_tilde(bps(20))
    with pytest.raises(UnsupportedMapError):
        delta_tilde(loss(0.5, 16))


def test_delta_tilde_refuses_a_two_mode_conditional_unitary():
    d = 8
    body = ConditionalMap(2, 2, (build_unitary("beamsplitter", 0.5, d),), renormalize=False)
    assert body.conditional_unitary
    with pytest.raises(UnsupportedMapError, match="single-mode"):
        delta_tilde(MapDescriptor("beamsplitter", body, d))


def test_delta_tilde_raises_when_cutoff_hopeless():
    with pytest.raises(TruncationError) as info:
        delta_tilde(MapDescriptor("subtract", pns(4).body, 4))
    assert info.value.suggested_cutoff == 8


def test_monotone_result_guards_its_trace():
    trace = ((InputParams(0.0, 0.0, 0.0, 1.0), 2.0),)
    with pytest.raises(ValueError):
        MonotoneResult("delta_tilde", 1.0, trace[0][0], 1, trace, {})


def test_gaussian_input_bound_stays_below_family_bound():
    bound = d_g_bound(pns(cutoff=60))
    sup = delta_tilde(pns())
    assert bound.quantity == "d_g_lower_bound"
    assert 1.0 < bound.value <= sup.value + 1e-3
    assert bound.diagnostics["backend"] == "fock"


def test_gaussian_input_bound_on_identity_is_tiny():
    assert d_g_bound(identity_map(60)).value < 1e-3


def test_gaussian_input_bound_dephasing_oracle():
    # equal ±α mixture at α = 2: gaussified covariance diag(17, 1), and the
    # branch overlap e^{-32} leaves the mixing entropy at one bit
    state = GaussianState(1, np.array([4.0, 0.0]), np.eye(2))
    res = d_g_bound(bps(40), inputs=[state])
    n_eff = (np.sqrt(17.0) - 1.0) / 2.0
    assert res.value >= thermal_entropy(n_eff) - 1.0 - 1e-6
    assert res.value <= thermal_entropy(n_eff)
    assert res.argmax == ("input", 0)


def test_gaussian_input_bound_skips_an_input_the_cutoff_cannot_hold():
    # the lift refuses a thermal weight that spills over the cutoff
    desc = bps(16)
    held = GaussianState(1, np.array([2.0, 0.0]), np.eye(2))
    spilled = thermal_state(20.0)
    res = d_g_bound(desc, inputs=[spilled, held])
    assert res.diagnostics["excluded"] == 1
    assert res.trace[0] == (("input", 0), -np.inf)
    alone = d_g_bound(desc, inputs=[held])
    assert res.value == alone.value > 0.1
    assert res.argmax == ("input", 1)


def test_gaussian_input_bound_validation():
    with pytest.raises(ValueError):
        d_g_bound(pns(30), inputs=[])
    with pytest.raises(UnsupportedMapError):
        d_g_bound(coherent_projector(1.0, 12))


def test_composition_with_gaussian_unitaries_preserves_value():
    # conjugating subtraction by Gaussian unitaries reparametrizes the
    # input family, so the restricted supremum stays at two bits
    d = 32
    u_pre = build_unitary("rotation", 0.7, d) @ build_unitary("squeeze", 0.25, d)
    u_post = build_unitary("displacement", 0.3 - 0.2j, d)
    body = compose(
        ConditionalMap(1, 1, (u_post,), renormalize=False),
        compose(pns(d).body, ConditionalMap(1, 1, (u_pre,), renormalize=False)),
    )
    res = delta_tilde(MapDescriptor("conjugated_subtract", body, d))
    assert abs(res.value - 2.0) < 2e-2


def test_loss_after_subtraction_cannot_exceed_the_bound():
    d = 40
    desc = MapDescriptor("lossy_subtract", compose(loss(0.6, d).body, pns(d).body), d)
    res = d_g_bound(desc)
    assert res.value <= 2.0 + 1e-3


def test_divergence_profile_subtraction_plateaus():
    prof = divergence_profile(pns())
    assert prof.classification == "finite"
    assert prof.quantity == "delta_tilde"
    assert max(abs(v - 2.0) for v in prof.deltas) < 0.05


def test_divergence_profile_dephasing_grows():
    prof = divergence_profile(bps(60))
    assert prof.classification == "diverging"
    assert prof.quantity == "d_g_lower_bound"
    assert prof.slope >= 0.5
    assert all(np.diff(prof.deltas) > 0.0)


def test_divergence_profile_kerr_grows():
    prof = divergence_profile(kerr(0.5, 60))
    assert prof.classification == "diverging"
    assert prof.slope >= 0.5
    assert prof.backend == "analytic"


def _certified_ket(p, moment_tol=1e-6):
    # the smallest cutoff of a 1.5x ladder whose certificate admits p
    d = 48
    while True:
        try:
            return input_family(p, "fock", cutoff=d, moment_tol=moment_tol)
        except TruncationError:
            d = int(1.5 * d)


def _seeded_members():
    # 19 random input-family members, then one near the search caps
    rng = np.random.default_rng(2026)
    members = [
        InputParams(
            complex(rng.uniform(0.0, 1.5) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))),
            float(rng.uniform(-np.pi, np.pi)),
            float(rng.uniform(-0.6, 0.6)),
            float(rng.uniform(0.0, 1.5)),
        )
        for _ in range(19)
    ]
    return members + [InputParams(2.5, 1.0, 1.0, 3.0)]


def test_kerr_closed_form_matches_the_fock_route():
    # the same seeded members for each γ; γ = 1 puts 4γ past π, where the
    # overlap's square root must stay on its continuous branch
    for p in _seeded_members():
        ket = _certified_ket(p)
        for gamma in (0.3, 0.5, 1.0):
            out, _ = apply_map(ket, kerr(gamma, ket.cutoff).body, targets=[1])
            want = gaussify(out)
            got = _kerr_state(p, gamma)
            assert_allclose(got.mean, want.mean, rtol=0, atol=1e-9)
            assert_allclose(got.cov, want.cov, rtol=0, atol=1e-9)
            assert abs(gaussian_entropy(got) - delta_g(out)) <= 1e-9


@pytest.mark.parametrize(
    "outputs, view, atol",
    [
        (lambda ps: monotone._ladder_outputs(ps, "pns"),
         lambda p: analytic_output_covariance(p, "pns"), 0.0),
        (lambda ps: monotone._ladder_outputs(ps, "pna"),
         lambda p: analytic_output_covariance(p, "pna"), 0.0),
    ]
    + [
        (lambda ps, g=g: monotone._kerr_outputs(ps, g),
         lambda p, g=g: _kerr_state(p, g), 1e-12)
        for g in (0.3, 0.5, 1.0)
    ],
    ids=["pns", "pna", "kerr-0.3", "kerr-0.5", "kerr-1.0"],
)
def test_closed_form_stack_matches_each_member_alone(outputs, view, atol):
    # one vectorised pass over 20 distinct members gives each member the
    # state and entropy of its one-member view, in its own place: pns/pna
    # bit for bit; Kerr to rounding, since numpy may fuse the complex
    # arithmetic of an array differently from that of a scalar
    members = _seeded_members()
    weight, m = outputs(monotone._members(members))
    mean, cov = mean_and_covariance(m)
    entropies = gaussian_entropies(mean, cov)
    assert weight.shape == entropies.shape == (len(members),)
    for i, p in enumerate(members):
        state = view(p)
        assert_allclose(mean[i], state.mean, rtol=0, atol=atol)
        assert_allclose(cov[i], state.cov, rtol=0, atol=atol)
        assert_allclose(entropies[i], gaussian_entropy(state), rtol=0, atol=atol)


def _single_mode_input(n_th, r, theta):
    state = apply_symplectic(thermal_state(n_th), gaussian_unitary("squeeze", r, 1))
    state = apply_symplectic(state, gaussian_unitary("rotation", theta, 1))
    return apply_symplectic(state, gaussian_unitary("displacement", 0.8 - 0.3j, 1))


_KERR_INPUTS = [(0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.1, 0.4, 0.7), (0.4, 0.25, 2.5)]


@pytest.mark.parametrize("n_th, r, theta", _KERR_INPUTS)
def test_kerr_gaussian_input_bound_matches_a_certified_lift(n_th, r, theta):
    state = _single_mode_input(n_th, r, theta)
    member = partial_trace_gaussian(input_family(_family_member(state)), [1])
    assert_allclose(member.mean, state.mean, rtol=0, atol=1e-12)
    assert_allclose(member.cov, state.cov, rtol=0, atol=1e-12)
    d = 96
    rho = certify_edge(gaussian_to_fock(state, d, trace_tol=1e-12), 1e-8 / (EDGE_COST * d**2))
    out, _ = apply_map(rho, kerr(0.45, d).body)
    res = d_g_bound(kerr(0.45, 8), inputs=[state])
    assert res.diagnostics == {
        "backend": "analytic", "max_deficit": 0.0, "excluded": 0, "energy": None
    }
    assert abs(res.value - delta_g(out)) <= 1e-9


def test_kerr_gaussian_input_bound_on_several_inputs_matches_each_alone():
    # d_g_bound hands all its members to the closed form as one stack; each
    # input keeps the value it has when it is the only one
    desc = kerr(0.45, 8)
    states = [_single_mode_input(*args) for args in _KERR_INPUTS]
    res = d_g_bound(desc, inputs=states)
    assert res.evaluations == len(states)
    for i, ((label, value), state) in enumerate(zip(res.trace, states)):
        assert label == ("input", i)
        assert abs(value - d_g_bound(desc, inputs=[state]).value) <= 1e-12


def test_kerr_search_stays_below_the_energy_ceiling():
    # Kerr keeps photon numbers, so the output's Gaussian entropy is at most
    # that of two thermal modes sharing the input's energy
    res = delta_tilde(kerr(0.5, 32), seed=0)
    assert res.diagnostics == {"backend": "analytic", "max_deficit": 0.0, "excluded": 0}
    assert res.value > 10.0
    for p, value in res.trace:
        energy = gaussian_mean_photons(input_family(p))
        assert value <= energy_ceiling(energy, 2) + 1e-9


def test_kerr_runs_without_building_a_fock_state(monkeypatch):
    desc = kerr(0.5, 32)

    def refuse(*args, **kwargs):
        raise AssertionError("the Kerr closed form built a Fock object")

    for module, name in (
        (monotone, "apply_map"),
        (monotone, "build_unitary"),
        (monotone, "gaussian_to_fock"),
        (monotone, "FockArray"),
        (nongauss.fock, "build_unitary"),
    ):
        monkeypatch.setattr(module, name, refuse)
    res = delta_tilde(desc, seed=0)
    assert (res.evaluations, res.diagnostics["excluded"]) == (744, 0)
    prof = divergence_profile(desc, grid=(1.0, 4.0, 16.0, 64.0))
    assert prof.classification == "diverging"
    assert prof.backend == "analytic"


def test_kerr_route_follows_the_metadata_not_the_name():
    renamed = dataclasses.replace(kerr(0.5, 32), name="kerr-renamed")
    assert delta_tilde(renamed, seed=0).diagnostics["backend"] == "analytic"
    assert d_g_bound(renamed).diagnostics["backend"] == "analytic"
    stripped = MapDescriptor("kerr", kerr(0.5, 8).body, 8)
    assert d_g_bound(stripped, inputs=[vacuum_state(1)]).diagnostics["backend"] == "fock"


def test_ladder_route_follows_the_metadata_not_the_name():
    renamed = dataclasses.replace(pns(), name="renamed")
    res = delta_tilde(renamed, seed=0)
    assert res.diagnostics["backend"] == "analytic"
    assert res.value == delta_tilde(pns(), seed=0).value
    assert "alpha_zero_spread" in res.diagnostics
    prof = divergence_profile(renamed, seed=0)
    assert (prof.quantity, prof.backend) == ("delta_tilde", "analytic")
    # named pns, but without the metadata: the truncated backend
    d = 32
    stripped = delta_tilde(MapDescriptor("pns", pns(d).body, d), seed=0)
    assert stripped.diagnostics["backend"] == "fock"
    assert "alpha_zero_spread" not in stripped.diagnostics


def _count_closed_form_points(monkeypatch, name):
    """Members handed to the batched closed form monotone.<name>, across
    all of its calls; the number of calls is len(batches)."""
    points, batches = [], []
    exact = getattr(monotone, name)

    def counted(members, *args, **kwargs):
        batch = [InputParams(*fields) for fields in zip(*(f.tolist() for f in members))]
        points.extend(batch)
        batches.append(len(batch))
        return exact(members, *args, **kwargs)

    monkeypatch.setattr(monotone, name, counted)
    return points, batches


def test_kerr_search_evaluates_each_distinct_point_once(monkeypatch):
    # the simplex clamps many vertices beyond the caps onto one member;
    # each distinct member costs one closed-form point
    points, batches = _count_closed_form_points(monkeypatch, "_kerr_outputs")
    res = delta_tilde(kerr(0.5, 32), seed=937)
    assert res.evaluations == 744
    assert len(points) == len(set(points)) == 561
    assert set(points) == {p for p, _ in res.trace}
    # the lattice is one call, and each lock-step round at most one more
    assert batches[0] == 144 and len(batches) < 744 - 144


@pytest.mark.parametrize(
    "make", [lambda: kerr(0.5, 8), lambda: bps(8), lambda: loss(0.7, 8)],
    ids=["analytic", "fock", "phase-space"],
)
def test_d_g_bound_refuses_an_input_that_is_not_single_mode_gaussian(monkeypatch, make):
    desc = make()

    def refuse(*args, **kwargs):
        raise AssertionError("a route ran before the inputs were checked")

    for name in ("_kerr_outputs", "gaussian_to_fock"):
        monkeypatch.setattr(monotone, name, refuse)
    good = vacuum_state(1)
    with pytest.raises(ValueError, match=r"input \('input', 1\) is a 2-mode GaussianState"):
        d_g_bound(desc, inputs=[good, tmsv_state(0.5)])
    with pytest.raises(ValueError, match="is a 1-mode FockArray"):
        d_g_bound(desc, inputs=[good, build_state("vacuum", None, 8)])


@pytest.mark.parametrize("make", [pns, pna])
def test_divergence_profile_evaluates_each_point_once(monkeypatch, make):
    points, _ = _count_closed_form_points(monkeypatch, "_ladder_outputs")
    divergence_profile(make(), seed=3)
    assert len(points) > 100
    assert len(points) == len(set(points))


@pytest.mark.parametrize("make", [pns, pna])
def test_divergence_profile_matches_independent_searches(monkeypatch, make):
    desc = make()
    grid = monotone.DEFAULT_NS_GRID
    want = tuple(delta_tilde(desc, seed=3, max_n_s=e).value for e in grid)
    points, _ = _count_closed_form_points(monkeypatch, "_ladder_outputs")
    first = divergence_profile(desc, seed=3)
    calls = len(points)
    second = divergence_profile(desc, seed=3)
    assert first.deltas == want
    assert second.deltas == want
    assert calls > 0
    # nothing is kept between sweeps: the second one evaluates afresh
    assert len(points) == 2 * calls


@pytest.mark.parametrize("seed", [3, 618])
@pytest.mark.parametrize("make", [pns, pna])
def test_one_search_over_the_grid_equals_delta_tilde_at_each_cap(make, seed):
    desc = make()
    grid = monotone.DEFAULT_NS_GRID
    swept = monotone._delta_tilde_search(desc, seed, grid)
    assert len(swept) == len(grid)
    for cap, got in zip(grid, swept):
        want = delta_tilde(desc, seed=seed, max_n_s=cap)
        assert (got.value, got.argmax, got.evaluations) == (
            want.value, want.argmax, want.evaluations
        )
        assert got.trace == want.trace
        # delta_tilde adds the ladder maps' α = 0 spread, and only that
        assert want.diagnostics.pop("alpha_zero_spread") >= 0.0
        assert got.diagnostics == want.diagnostics


def test_a_sweep_makes_one_closed_form_call_per_lockstep_round(monkeypatch):
    # every cap's lattice is one call, then each round of the 5·4 lock-step
    # simplex runs at most one more; four searches one after another made
    # 160 calls at this seed
    _, batches = _count_closed_form_points(monkeypatch, "_ladder_outputs")
    asks = []
    exact = monotone._nelder_mead

    def counted(x0, maxfev):
        k = len(asks)
        asks.append(0)
        run, values = exact(x0, maxfev), None
        while True:
            try:
                points = run.send(values)
            except StopIteration:
                return
            asks[k] += 1
            values = yield points

    monkeypatch.setattr(monotone, "_nelder_mead", counted)
    divergence_profile(pns(), seed=618)
    assert len(asks) == 5 * len(monotone.DEFAULT_NS_GRID)
    assert batches[0] == 144
    assert len(batches) <= 1 + max(asks)
    assert len(batches) < 160


def test_divergence_profile_is_inconclusive_on_a_slow_rise():
    # bps's Gaussian-input bound at low energy rises by more than a plateau
    # allows, but slower than SLOPE_MIN per doubling
    prof = divergence_profile(bps(30), grid=(0.05, 0.1, 0.2, 0.4))
    top = prof.deltas[2:]
    assert top[1] - top[0] > monotone.PLATEAU_TOL
    assert 0.0 < prof.slope < monotone.SLOPE_MIN
    assert prof.classification == "inconclusive"


def test_divergence_profile_validation():
    with pytest.raises(ValueError):
        divergence_profile(pns(), grid=(1.0, 2.0, 4.0))
    with pytest.raises(ValueError):
        DivergenceProfile(
            (1.0, 2.0, 2.0, 4.0), (0.0,) * 4, 0.0, "finite", "delta_tilde", "analytic"
        )


@pytest.mark.parametrize("make", [pns, lambda: bps(8)], ids=["pns", "bps"])
@pytest.mark.parametrize(
    "grid",
    [
        (4.0, 2.0, 1.0, 8.0),
        (1.0, 2.0, 4.0, np.nan),
        (1.0, 2.0, 4.0, np.inf),
        (-1.0, 1.0, 2.0, 4.0),
        (1.0, 2.0, 4.0),
    ],
)
def test_divergence_profile_refuses_a_bad_grid_before_searching(monkeypatch, make, grid):
    def search(*args, **kwargs):
        raise AssertionError("searched a refused grid")

    monkeypatch.setattr(monotone, "delta_tilde", search)
    monkeypatch.setattr(monotone, "_delta_tilde_search", search)
    monkeypatch.setattr(monotone, "d_g_bound", search)
    with pytest.raises(ValueError, match="grid"):
        divergence_profile(make(), grid=grid)


def _refuse(monkeypatch, *names):
    def work(*args, **kwargs):
        raise AssertionError("worked on a refused argument")

    for name in names:
        monkeypatch.setattr(monotone, name, work)


@pytest.mark.parametrize("cap", [np.nan, np.inf, -1.0])
def test_delta_tilde_refuses_an_n_s_cap_that_is_not_finite_and_nonnegative(cap, monkeypatch):
    # min(abs(x), nan) is abs(x): a NaN cap would drop the cap silently
    _refuse(monkeypatch, "_delta_tilde_search", "alpha_zero_spread")
    with pytest.raises(ValueError, match="max_n_s"):
        delta_tilde(pns(), max_n_s=cap)


@pytest.mark.parametrize("energy", [-1.0, np.nan, np.inf])
def test_d_g_bound_refuses_an_energy_that_is_not_finite_and_nonnegative(energy, monkeypatch):
    _refuse(monkeypatch, "_default_gaussian_inputs", "gaussian_to_fock")
    with pytest.raises(ValueError, match="energy"):
        d_g_bound(bps(20), energy=energy)


def test_environment_bound_refuses_a_negative_sample_count(monkeypatch):
    _refuse(monkeypatch, "input_family", "delta_g")
    with pytest.raises(ValueError, match="samples"):
        environment_bound(loss(0.5, 25), samples=-1)


@pytest.mark.parametrize("count", [0, -3])
def test_alpha_zero_spread_refuses_a_count_below_one(count, monkeypatch):
    _refuse(monkeypatch, "analytic_output_covariance")
    with pytest.raises(ValueError, match="count"):
        alpha_zero_spread("pns", count=count)


def test_mixed_unitary_bounds_oracle():
    lo, hi = mixed_unitary_bounds((0.5, 0.5), 4.0)
    assert_allclose((lo, hi), (3.0, 4.0), atol=1e-12)
    assert mixed_unitary_bounds((1.0,), 2.5) == (2.5, 2.5)
    assert mixed_unitary_bounds((0.25,) * 4, 1.0) == (0.0, 1.0)


def test_mixed_unitary_bounds_validation():
    with pytest.raises(ValueError):
        mixed_unitary_bounds((0.5, 0.4), 1.0)
    with pytest.raises(ValueError):
        mixed_unitary_bounds((1.2, -0.2), 1.0)


@given(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6))
def test_mixed_unitary_bounds_sandwich(weights):
    p = np.asarray(weights) / np.sum(weights)
    s = 3.0
    lo, hi = mixed_unitary_bounds(p, s)
    assert 0.0 <= lo <= hi == s


def test_gd_bound_vacuum_environment_is_gaussian():
    assert environment_bound(loss(0.5, 25)).bound == 0.0


def test_gd_bound_single_photon_environment():
    env = build_state("fock", 1, cutoff=25)
    desc = gaussian_dilatable(gaussian_unitary("beamsplitter", 0.5, 2), env, 25)
    assert_allclose(environment_bound(desc).bound, 2.0, atol=1e-9)


def test_gd_bound_equals_environment_non_gaussianity():
    env = build_state("fock", 2, cutoff=25)
    desc = gaussian_dilatable(gaussian_unitary("beamsplitter", 0.3, 2), env, 25)
    assert_allclose(environment_bound(desc).bound, delta_g(env), atol=1e-12)


def test_environment_bound_replaces_and_counts_refused_members():
    # at seed 0 the second member parks 2.0e-6 of its weight in the top
    # levels at cutoff 25; it is counted and the next draw is checked
    desc = gaussian_dilatable(
        gaussian_unitary("beamsplitter", 0.5, 2), build_state("fock", 1, 25), 25
    )
    res = environment_bound(desc, seed=0)
    assert (res.checked, res.excluded) == (4, 1)
    assert_allclose(res.bound, 2.0, atol=1e-9)
    assert 0.0 < res.sampled_max <= res.bound + 1e-3


def test_environment_bound_raises_when_no_member_fits():
    with pytest.raises(TruncationError) as info:
        environment_bound(loss(0.5, 4))
    assert info.value.deficit > 0.0
    assert info.value.suggested_cutoff > 4
    assert environment_bound(loss(0.5, 4), samples=0).checked == 0


@pytest.mark.parametrize(
    "build, want, calls",
    [
        (lambda: loss(0.5, 4), (0.0010088808348280853, 8), 0),
        (lambda: loss(0.5, 8), (2.3640961837365858e-05, 12), 1),
        (
            lambda: gaussian_dilatable(
                gaussian_unitary("beamsplitter", 0.5, 2), build_state("fock", 1, 25), 25
            ),
            (4, 1),
            0,
        ),
    ],
    ids=["amplitude-refusals", "edge-refusals", "gd-fock-environment"],
)
def test_environment_bound_derives_only_the_cutoff_it_reports(build, want, calls, monkeypatch):
    # a refused member's suggested cutoff is read only when no member fits,
    # and then only for the mildest refusal; an amplitude refusal carries one
    made = []
    real = monotone.gaussian_cutoff
    monkeypatch.setattr(
        monotone, "gaussian_cutoff", lambda *a, **k: made.append(a) or real(*a, **k)
    )
    try:
        res = environment_bound(build(), seed=0)
        got = (res.checked, res.excluded)
    except TruncationError as exc:
        got = (exc.deficit, exc.suggested_cutoff)
    assert got == want
    assert len(made) == calls


@pytest.mark.parametrize(
    "d, samples", [(16, 4), (40, 1)], ids=["input-and-output-refusals", "output-refusals"]
)
def test_environment_bound_excludes_a_member_whose_output_loses_trace(d, samples, monkeypatch):
    # a body that keeps a quarter of the trace: every member's output is
    # refused, so every draw is excluded; the error carries the mildest
    # refusal, input or output, seen where each is raised
    body = ConditionalMap(1, 1, (0.5 * np.eye(d),), renormalize=False)
    desc = MapDescriptor("half", body, d, {"environment": build_state("fock", 1, d)})
    seen = []

    def spy(real):
        def wrapped(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except TruncationError as exc:
                seen.append((exc.deficit, exc.suggested_cutoff))
                raise

        return wrapped

    monkeypatch.setattr(monotone, "input_family", spy(monotone.input_family))
    monkeypatch.setattr(monotone, "apply_map", spy(monotone.apply_map))
    with pytest.raises(TruncationError, match=f"none of {4 * samples} input-family") as info:
        environment_bound(desc, seed=0, samples=samples)
    assert len(seen) == 4 * samples
    deficit, suggestion = min(seen, key=lambda refusal: refusal[0])
    assert info.value.deficit == deficit
    if suggestion is None:
        assert info.value.suggested_cutoff > d
    else:
        assert info.value.suggested_cutoff == suggestion == 2 * d


def test_environment_bound_raises_when_a_sample_exceeds_it():
    # a Kerr body mislabelled with a vacuum environment: the bound reads 0,
    # while Kerr makes its sampled inputs non-Gaussian
    d = 25
    desc = MapDescriptor(
        "kerr-as-gd", kerr(0.5, d).body, d, {"environment": build_state("vacuum", None, d)}
    )
    with pytest.raises(RuntimeError, match="exceeds the environment bound 0.000000"):
        environment_bound(desc, seed=0)


def test_gd_bound_needs_environment_metadata():
    with pytest.raises(UnsupportedMapError):
        environment_bound(pns(20))


def test_mean_photon_oracles():
    assert_allclose(gaussian_mean_photons(tmsv_state(1.0)), 2.0, atol=1e-12)
    assert_allclose(gaussian_mean_photons(thermal_state(0.7)), 0.7, atol=1e-12)
    coherent = GaussianState(1, np.array([2.0 * 1.3, 0.0]), np.eye(2))
    assert_allclose(gaussian_mean_photons(coherent), 1.69, atol=1e-12)


def test_energy_ceiling_values():
    assert energy_ceiling(0.0) == 0.0
    assert_allclose(energy_ceiling(1.0), 2.0, atol=1e-12)
    assert_allclose(energy_ceiling(4.0, n_modes=2), 2.0 * thermal_entropy(2.0), atol=1e-12)


def test_energy_ceiling_caps_cat_state():
    cat = build_state("cat", 1.5, cutoff=40)
    n_bar = float(np.real(np.trace(moments(cat).adag_a)))
    assert delta_g(cat) <= energy_ceiling(n_bar) + 1e-9


def _refuse_fock_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Gaussian channel's Gaussian input went to Fock space")

    monkeypatch.setattr(monotone, "gaussian_to_fock", refuse)
    monkeypatch.setattr(monotone, "apply_map", refuse)


@pytest.mark.parametrize(
    "make", [lambda: loss(0.7, 30), lambda: identity_map(60)], ids=["loss", "id"]
)
def test_gaussian_channel_bound_is_exact_in_phase_space(make, monkeypatch):
    desc = make()
    _refuse_fock_work(monkeypatch)
    res = d_g_bound(desc, seed=0)
    assert res.value == 0.0
    assert all(v == 0.0 for _, v in res.trace)
    assert res.evaluations == 10
    assert res.diagnostics["backend"] == "phase-space"
    assert res.diagnostics["excluded"] == 0
    assert res.diagnostics["max_deficit"] == 0.0


def test_gaussian_channel_profile_is_finite_at_zero(monkeypatch):
    desc = parse_map_spec("gd:bs0.5,env=coherent:0.5", 16)
    _refuse_fock_work(monkeypatch)
    prof = divergence_profile(desc)
    assert prof.classification == "finite"
    assert prof.deltas == (0.0, 0.0, 0.0, 0.0)


def test_gd_spec_takes_a_complex_coherent_environment(monkeypatch):
    desc = parse_map_spec("gd:bs0.4,env=coherent:0.3,-0.2", 25)
    want = build_state("coherent", 0.3 - 0.2j, 25)
    assert_allclose(desc.metadata["environment"].data, want.data, rtol=0, atol=1e-15)
    _refuse_fock_work(monkeypatch)
    res = d_g_bound(desc, seed=0)
    assert res.value == 0.0
    assert res.diagnostics["backend"] == "phase-space"


def test_identity_delta_tilde_is_one_phase_space_member(monkeypatch):
    _refuse_fock_work(monkeypatch)
    monkeypatch.setattr(monotone, "build_unitary", None)
    res = delta_tilde(identity_map(32))
    assert res.value == 0.0
    assert res.evaluations == 1
    assert res.diagnostics == {"backend": "phase-space", "max_deficit": 0.0, "excluded": 0}
    # the conditional-unitary refusal still comes first
    with pytest.raises(UnsupportedMapError):
        delta_tilde(loss(0.7, 12))


def test_identity_delta_tilde_builds_no_input(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an input-family member was built for a Gaussian channel")

    monkeypatch.setattr(monotone, "input_family", refuse)
    res = delta_tilde(identity_map())
    assert res.value == 0.0
    assert res.evaluations == 1


def test_a_unit_transmissivity_beamsplitter_is_the_identity_channel(monkeypatch):
    # at τ = 1 the Kraus operators are ψ_E[j]·I, whatever the environment:
    # the channel is marked Gaussian, and the environment bound's sampled
    # check, which pushes members through that family, agrees with its 0
    d = 25
    desc = parse_map_spec("gd:bs1,env=fock:1", d)
    assert desc.metadata["gaussian"] is True
    env = desc.metadata["environment"].data
    assert_allclose(desc.body.kraus, np.multiply.outer(env, np.eye(d)), rtol=0, atol=1e-12)
    bound = environment_bound(desc)
    assert bound.bound == 0.0
    assert bound.checked == 4
    assert bound.sampled_max <= monotone.ENVIRONMENT_SLACK
    _refuse_fock_work(monkeypatch)
    res = d_g_bound(desc, seed=0)
    assert res.value == 0.0
    assert res.evaluations == 10
    assert res.diagnostics["backend"] == "phase-space"


def test_gaussian_environment_bound_is_read_without_a_lift(monkeypatch):
    desc = parse_map_spec("gd:bs0.5,env=coherent:0.5", 16)
    monkeypatch.setattr(monotone, "delta_g", None)
    assert environment_bound(desc, samples=0).bound == 0.0


def test_non_gaussian_environment_and_compositions_stay_on_fock():
    d = 12
    coherent = GaussianState(1, np.array([0.6, 0.0]), np.eye(2))
    fock_env = parse_map_spec("gd:bs0.5,env=fock:1", d)
    res = d_g_bound(fock_env, inputs=[vacuum_state(1), coherent])
    assert res.diagnostics["backend"] == "fock"
    assert res.value > 0.1
    lossy = MapDescriptor("lossy_subtract", compose(loss(0.6, d).body, pns(d).body), d)
    res = d_g_bound(lossy, inputs=[coherent])
    assert res.diagnostics["backend"] == "fock"


@pytest.mark.parametrize(
    "evaluate, backend, want",
    [
        (lambda: delta_tilde(pns()), "analytic", monotone.SIMPLEX_FATOL),
        (lambda: delta_tilde(identity_map(32)), "phase-space", 0.0),
        (lambda: d_g_bound(bps(40), inputs=[vacuum_state(1)]), "fock", monotone.FOCK_MOMENT_TOL),
        (lambda: divergence_profile(identity_map(60)), "phase-space", 0.0),
        (lambda: environment_bound(loss(0.5, 25)), None, monotone.ENVIRONMENT_SLACK),
    ],
    ids=["delta-tilde-pns", "delta-tilde-id", "d-g-bound-bps", "profile-id", "environment-loss"],
)
def test_tolerance_follows_the_backend_of_each_result(evaluate, backend, want):
    # exact in phase space, the simplex's on a closed form, the input
    # certificate's on the Fock route, the sampled check's slack on an
    # environment bound; read from the result, never stored on it
    res = evaluate()
    if backend is not None:
        got = res.backend if isinstance(res, DivergenceProfile) else res.diagnostics["backend"]
        assert got == backend
    assert res.tolerance == want
    assert "tolerance" not in {f.name for f in dataclasses.fields(res)}
