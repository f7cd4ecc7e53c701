"""Verification suites: seeded, named checks of the structural claims about
δ_G and δ̃.  `SUITES` maps a suite's name to its function, which takes a
seed and returns its checks.  Fixtures use the library's own routes: a
product of kets is a two-mode ket, a mixture of kets the density of its
rows √w_i ψ_i, and a product of densities the product of their rows.
"""

import numpy as np

from .fock import (
    ConditionalMap,
    FockArray,
    apply_map,
    apply_unitary,
    build_state,
    build_unitary,
    delta_g,
    delta_g_relent,
    gaussian_to_fock,
    gaussify,
    moments,
    number_distribution,
    partial_trace,
    relative_entropy,
)
from .gaussian import (
    apply_symplectic,
    condition_on_projection,
    gaussian_unitary,
    thermal_state,
)
from .maps import MapDescriptor, coherent_projector, compose, loss, pna, pns
from .monotone import ALPHA_ZERO_SPREAD_TOL, d_g_bound, delta_tilde


def _check(name, measured, tolerance, comparison="le"):
    """measured ≤ tolerance ("le") or measured > tolerance ("gt")."""
    passed = measured <= tolerance if comparison == "le" else measured > tolerance
    return {
        "name": name,
        "comparison": comparison,
        "measured": float(measured),
        "tolerance": float(tolerance),
        "pass": bool(passed),
    }


def _product_ket(a, b):
    """|a⟩ ⊗ |b⟩ of two single-mode kets."""
    return FockArray(
        2, a.cutoff, "ket", np.multiply.outer(a.data, b.data),
        trace_tol=a.trace_tol + b.trace_tol,
    )


def _mixture(weighted_kets):
    """Σ_i w_i |ψ_i⟩⟨ψ_i| of (w_i, ψ_i) pairs, as its rows √w_i ψ_i."""
    first = weighted_kets[0][1]
    rows = [np.sqrt(w) * ket.data.reshape(-1) for w, ket in weighted_kets]
    return FockArray.from_branches(first.n_modes, first.cutoff, rows)


def _product_density(a, b):
    """ρ_a ⊗ ρ_b of two single-mode densities, as the rows Φ_a ⊗ Φ_b."""
    return FockArray.from_branches(
        2, a.cutoff, np.kron(a.branches, b.branches), trace_tol=a.trace_tol + b.trace_tol
    )


def correlated_coherent_mixture(alpha, d):
    """(|a,a⟩⟨a,a| + |−a,−a⟩⟨−a,−a|)/2, as its two rows √½·|±a,±a⟩."""
    kets = [build_state("coherent", a, d) for a in (alpha, -alpha)]
    return _mixture([(0.5, _product_ket(ket, ket)) for ket in kets])


def projection_counterexample(eps, alpha, n, d):
    """w₀|n,α⟩⟨n,α| + w₁ Σ_k p_k |k,−α⟩⟨k,−α| and its weight w₀.

    w ∝ (√ε, √(1−ε)) and p_k is the thermal distribution with one mean
    photon, so the state is its d + 1 rows.  Nearly Gaussian for small ε,
    yet projecting mode 1 onto |α⟩ keeps only the Fock branch |n⟩.
    """
    w = np.array([np.sqrt(eps), np.sqrt(1.0 - eps)])
    w /= w.sum()
    minus = build_state("coherent", -alpha, d)
    thermal = number_distribution(build_state("thermal", 1.0, d))
    plus = _product_ket(build_state("fock", n, d), build_state("coherent", alpha, d))
    weighted = [(w[0], plus)] + [
        (w[1] * p, _product_ket(build_state("fock", k, d), minus)) for k, p in enumerate(thermal)
    ]
    return _mixture(weighted), w[0]


def _random_gaussian_fock(rng, cutoff):
    state = thermal_state(float(rng.uniform(0.0, 0.7)))
    for kind, par in (
        ("squeeze", float(rng.uniform(0.0, 0.4))),
        ("rotation", float(rng.uniform(0.0, np.pi))),
        ("displacement", complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))),
    ):
        state = apply_symplectic(state, gaussian_unitary(kind, par, 1))
    return gaussian_to_fock(state, cutoff, trace_tol=1e-5)


def _state_props(seed):
    rng = np.random.default_rng(seed)
    checks = []

    vals = [delta_g(_random_gaussian_fock(rng, 50)) for _ in range(20)]
    checks.append(_check("delta_g_nonnegative", -min(vals), 1e-9))
    checks.append(_check("delta_g_zero_on_gaussians", max(vals), 1e-4))
    checks.append(
        _check("delta_g_positive_on_fock", delta_g(build_state("fock", 2, 30)), 1e-3, "gt")
    )

    d = 25
    one, cat = build_state("fock", 1, d), build_state("cat", 1.2, d)
    dev = abs(delta_g(_product_ket(one, cat)) - delta_g(one) - delta_g(cat))
    checks.append(_check("product_additivity", dev, 1e-3))

    # equal gaussifications: both branches are Fock-diagonal with n̄ = 1
    d = 20
    fock = [build_state("fock", n, d) for n in range(3)]
    lhs = delta_g(_mixture([(0.5, fock[1]), (0.25, fock[0]), (0.25, fock[2])]))
    rhs = 0.5 * delta_g(fock[1]) + 0.5 * delta_g(_mixture([(0.5, fock[0]), (0.5, fock[2])]))
    checks.append(_check("convexity_equal_gaussifications", lhs - rhs, 1e-9))

    d = 30
    base = build_state("cat", 0.8, d)
    ref = delta_g(base)
    dev = 0.0
    for kind, par in (
        ("displacement", 0.4 - 0.3j),
        ("rotation", 0.7),
        ("squeeze", 0.2),
    ):
        conj = apply_unitary(base, build_unitary(kind, par, d), targets=[0])
        dev = max(dev, abs(delta_g(conj) - ref))
    checks.append(_check("unitary_invariance_single_mode", dev, 1e-3))

    d = 25
    vacuum = build_state("vacuum", None, d)
    photon = _product_ket(build_state("fock", 1, d), vacuum)
    split = apply_unitary(photon, build_unitary("beamsplitter", 0.3, d), targets=[0, 1])
    checks.append(_check("unitary_invariance_beamsplitter", abs(delta_g(split) - 2.0), 1e-3))

    margins = []
    out, _ = apply_map(build_state("tmsv", 1.0, 24, trace_tol=1e-4), pns(24).body, targets=[1])
    margins.append(delta_g(partial_trace(out, keep=(0,))) - delta_g(out))
    margins.append(delta_g(partial_trace(split, keep=(0,))) - delta_g(split))
    cat_pair = _product_ket(build_state("cat", 1.0, d), vacuum)
    mixed = apply_unitary(cat_pair, build_unitary("beamsplitter", 0.4, d), targets=[0, 1])
    margins.append(delta_g(partial_trace(mixed, keep=(0,))) - delta_g(mixed))
    checks.append(_check("partial_trace_monotone", max(margins), 1e-3))
    return checks


def _lemma1_states(d):
    out = [build_state("fock", n, d) for n in (1, 2, 3)]
    out += [build_state("cat", a, d) for a in (0.8, 1.3, 1.7)]
    sub, _ = apply_map(build_state("thermal", 1.0, d, trace_tol=1e-5), pns(d).body)
    out.append(sub)
    add, _ = apply_map(build_state("thermal", 0.5, d, trace_tol=1e-6), pna(d).body)
    out.append(add)
    out.append(
        apply_unitary(build_state("coherent", 1.0, d), build_unitary("kerr", 0.6, d), targets=[0])
    )
    out.append(_mixture([(0.5, build_state("fock", 0, d)), (0.5, build_state("fock", 3, d))]))
    return out


def _lemma1(seed):
    d = 30
    rng = np.random.default_rng(seed)
    taus = rng.uniform(0.1, 0.95, size=10)
    states = _lemma1_states(d)
    worst = 0.0
    for tau in taus:
        channel = loss(float(tau), d)
        for state in states:
            before = gaussify(state)
            out, _ = apply_map(state, channel.body)
            after = gaussify(out)
            cov_ref = tau * before.cov + (1.0 - tau) * np.eye(2)
            mean_ref = np.sqrt(tau) * before.mean
            worst = max(
                worst,
                np.abs(after.cov - cov_ref).max(),
                np.abs(after.mean - mean_ref).max(),
            )
    return [_check("gaussify_commutes_with_loss", worst, 1e-4)]


def _counterexamples(_seed):
    checks = []
    d = 40
    for alpha in (0.5, 1.0):
        sigma = correlated_coherent_mixture(alpha, d)
        projector = coherent_projector(alpha, d).body
        projected, _ = apply_map(sigma, projector)
        got = complex(moments(projected).first[0])
        want = alpha * (1.0 - np.exp(-4.0 * alpha**2)) / (1.0 + np.exp(-4.0 * alpha**2))
        checks.append(_check(f"project_then_gaussify_alpha_{alpha:g}", abs(got - want), 1e-3))
        gauss = gaussify(sigma)
        fitted = gaussian_to_fock(gauss, d, trace_tol=1e-4)
        swapped, _ = apply_map(fitted, projector)
        got2 = complex(moments(swapped).first[0])
        conditioned = condition_on_projection(gauss, [1], [2.0 * alpha, 0.0])
        want2 = complex(*conditioned.mean) / 2.0
        checks.append(_check(f"gaussify_then_project_alpha_{alpha:g}", abs(got2 - want2), 1e-3))

    d, alpha = 30, 2.5
    rho, _ = projection_counterexample(0.01, alpha, 2, d)
    out, _ = apply_map(rho, coherent_projector(alpha, d).body)
    checks.append(
        _check("projection_increases_delta_g", delta_g(out) - delta_g(rho), 0.5, "gt")
    )
    return checks


def _random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return FockArray(1, d, "density", rho / np.trace(rho).real)


def _relent(seed):
    rng = np.random.default_rng(seed)
    checks = []
    d = 12
    worst = min(
        relative_entropy(_random_density(rng, d), _random_density(rng, d))
        for _ in range(4)
    )
    checks.append(_check("relent_nonnegative", -worst, 1e-9))

    d = 25
    dev = abs(
        relative_entropy(
            build_state("fock", 1, d), build_state("thermal", 1.0, d, trace_tol=1e-6)
        )
        - 2.0
    )
    checks.append(_check("relent_fock_vs_thermal_pinned", dev, 1e-6))

    d = 18
    psi1 = build_state("fock", 1, d)
    psi2 = build_state("cat", 0.9, d)
    sig1 = build_state("thermal", 1.0, d, trace_tol=1e-4)
    sig2 = build_state("thermal", 0.6, d, trace_tol=1e-4)
    joint = relative_entropy(_product_ket(psi1, psi2), _product_density(sig1, sig2))
    split = relative_entropy(psi1, sig1) + relative_entropy(psi2, sig2)
    checks.append(_check("relent_product_additivity", abs(joint - split), 1e-4))

    d = 10
    psi, _ = apply_map(
        build_state("tmsv", 0.8, d, trace_tol=1e-2), pns(d).body, targets=[1]
    )
    sigma = _product_density(
        build_state("thermal", 0.5, d, trace_tol=1e-2),
        build_state("thermal", 0.5, d, trace_tol=1e-2),
    )
    lhs = relative_entropy(
        partial_trace(psi, keep=(0,)), partial_trace(sigma, keep=(0,))
    )
    rhs = relative_entropy(psi, sigma)
    checks.append(_check("relent_partial_trace_monotone", lhs - rhs, 1e-9))

    dev = abs(delta_g_relent(build_state("cat", 1.0, 30)) - delta_g(build_state("cat", 1.0, 30)))
    checks.append(_check("relent_delta_g_consistency", dev, 1e-6))
    return checks


def _monotone_props(seed):
    rng = np.random.default_rng(seed)
    checks = []
    sup = delta_tilde(pns(), seed=seed)

    d = 32
    u_pre = build_unitary("rotation", float(rng.uniform(0.0, np.pi)), d) @ build_unitary(
        "squeeze", float(rng.uniform(0.0, 0.3)), d
    )
    u_post = build_unitary(
        "displacement", complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)), d
    )
    body = compose(
        ConditionalMap(1, 1, (u_post,), renormalize=False),
        compose(pns(d).body, ConditionalMap(1, 1, (u_pre,), renormalize=False)),
    )
    res = delta_tilde(MapDescriptor("conjugated_subtract", body, d), seed=seed)
    checks.append(_check("conjugation_invariance", abs(res.value - sup.value), 2e-2))

    d = 40
    tau = float(rng.uniform(0.3, 0.9))
    lossy = MapDescriptor("lossy_subtract", compose(loss(tau, d).body, pns(d).body), d)
    bound = d_g_bound(lossy, seed=seed)
    checks.append(_check("loss_composition_bound", bound.value - sup.value, 1e-3))

    checks.append(
        _check(
            "lower_bound_below_supremum_pns", d_g_bound(pns(60), seed=seed).value - sup.value, 1e-3
        )
    )
    sup_a = delta_tilde(pna(), seed=seed)
    checks.append(
        _check(
            "lower_bound_below_supremum_pna",
            d_g_bound(pna(60), seed=seed).value - sup_a.value,
            1e-3,
        )
    )

    finite = max(v for _, v in sup.trace if np.isfinite(v))
    checks.append(_check("optimizer_value_covers_trace", finite - sup.value, 1e-12))
    for name, res in (("stationarity_pns", sup), ("stationarity_pna", sup_a)):
        checks.append(_check(name, res.diagnostics["alpha_zero_spread"], ALPHA_ZERO_SPREAD_TOL))
    return checks


SUITES = {
    "state-props": _state_props,
    "lemma1": _lemma1,
    "counterexamples": _counterexamples,
    "relent": _relent,
    "monotone-props": _monotone_props,
}
