"""Command-line front end: named computations, sweeps, verification suites.

Reports are JSON (schema "nongauss/1") with every measured number carrying
a sibling tolerance or deficit field; sweep tables can also be emitted as
CSV.  Identical configurations produce byte-identical reports apart from
the timing block.  Exit codes: 0 success, 2 usage error, 3 numerical or
truncation failure.
"""

import argparse
import io
import json
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import (
    InvalidStateError,
    TruncationError,
    UnsupportedMapError,
    ZeroProbabilityError,
)
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
    partial_trace,
    relative_entropy,
    von_neumann_entropy,
)
from .gaussian import (
    apply_symplectic,
    condition_on_projection,
    gaussian_unitary,
    thermal_state,
)
from .maps import (
    MapDescriptor,
    coherent_projector,
    compose,
    loss,
    parse_map_spec,
    parse_state_spec,
    pna,
    pns,
)
from .monotone import (
    ENVIRONMENT_SLACK,
    alpha_zero_spread,
    d_g_bound,
    delta_tilde,
    divergence_profile,
    environment_bound,
)

_EXIT_USAGE = 2
_EXIT_NUMERIC = 3

# default truncation per command; sweeps need headroom for the top of the
# default energy grid, two-mode dilations are kept small for memory
_STATE_CUTOFF = 40
_SWEEP_CUTOFF = 60
_MAP_CUTOFFS = {
    "pns": 40,
    "pna": 40,
    "kerr": 32,
    "id": 32,
    "bps": 60,
    "loss": 30,
    "gd": 25,
    "talpha": 30,
}

def _utc_now():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _measured(value, tolerance=None, deficit=None):
    out = {"value": float(value)}
    if tolerance is not None:
        out["tolerance"] = float(tolerance)
    if deficit is not None:
        out["deficit"] = float(deficit)
    return out


def _report(command, config, results, wall_s):
    return {
        "schema": "nongauss/1",
        "version": __version__,
        "command": command,
        "config": config,
        "results": results,
        "timing": {"utc": _utc_now(), "wall_s": round(wall_s, 3)},
    }


def _emit(report, args, csv_text=None):
    if args.format == "csv":
        text = csv_text
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args, **extra):
    cfg = {
        "cutoff": args.cutoff,
        "seed": args.seed,
        "format": args.format,
        "out": args.out,
    }
    cfg.update(extra)
    return cfg


def _argmax_fields(p, tolerance, analytic):
    fields = {
        "alpha_re": float(np.real(p.alpha)),
        "alpha_im": float(np.imag(p.alpha)),
        "theta": float(p.theta),
        "r": float(p.r),
        "n_s": float(p.n_s),
        "tolerance": float(tolerance),
    }
    if analytic:
        # the analytic δ̃ of pns/pna is flat on the α = 0 manifold its
        # maximum lies on, so there θ, r and n_s are rounding artefacts
        fields.update(theta=None, r=None, n_s=None)
    return fields


def cmd_state_ng(args):
    cutoff = args.cutoff or _STATE_CUTOFF
    state = parse_state_spec(args.spec, cutoff, trace_tol=args.trace_tol)
    value = delta_g(state)
    entropy = von_neumann_entropy(state)
    results = {
        "quantity": "delta_g",
        "delta_g": _measured(value, deficit=state.trace_deficit),
        "entropy": _measured(entropy, deficit=state.trace_deficit),
        "gaussian_entropy": _measured(
            value + entropy, deficit=state.trace_deficit
        ),
        "n_modes": state.n_modes,
    }
    config = _config(args, spec=args.spec, cutoff=cutoff, trace_tol=args.trace_tol)
    return config, results


def cmd_map_ng(args):
    name = args.spec.split(":", 1)[0].strip().lower()
    cutoff = args.cutoff or _MAP_CUTOFFS.get(name, _STATE_CUTOFF)
    desc = parse_map_spec(args.spec, cutoff)
    config = _config(args, spec=args.spec, cutoff=cutoff, bound=args.bound)
    if args.bound:
        if "environment" not in desc.metadata:
            raise UnsupportedMapError(
                "--bound applies to Gaussian-dilatable maps (gd:..., loss:...)"
            )
        res = environment_bound(desc, seed=args.seed)
        results = {
            "method": "gd_upper_bound",
            "upper_bound": _measured(res.bound, tolerance=ENVIRONMENT_SLACK),
            "sampled_max": _measured(res.sampled_max, tolerance=ENVIRONMENT_SLACK),
            "checked": res.checked,
            "excluded": res.excluded,
        }
        return config, results
    if desc.body.conditional_unitary:
        res = delta_tilde(desc, seed=args.seed)
        analytic = res.diagnostics["backend"] == "analytic"
        results = {
            "method": "delta_tilde",
            "value": _measured(
                res.value,
                tolerance=1e-7 if analytic else 1e-2,
                deficit=res.diagnostics["max_deficit"],
            ),
            "argmax": _argmax_fields(res.argmax, res.diagnostics["xatol"], analytic),
            "evaluations": res.evaluations,
            "excluded": res.diagnostics["excluded"],
            "backend": res.diagnostics["backend"],
        }
        if "alpha_zero_spread" in res.diagnostics:
            results["alpha_zero_spread"] = _measured(
                res.diagnostics["alpha_zero_spread"], tolerance=1e-3
            )
    else:
        res = d_g_bound(desc, seed=args.seed)
        results = {
            "method": "d_g_lower_bound",
            "value": _measured(
                res.value, tolerance=1e-2, deficit=res.diagnostics["max_deficit"]
            ),
            "argmax_input": list(res.argmax),
            "evaluations": res.evaluations,
            "excluded": res.diagnostics["excluded"],
            "backend": res.diagnostics["backend"],
        }
    return config, results


def cmd_sweep(args):
    cutoff = args.cutoff or _SWEEP_CUTOFF
    desc = parse_map_spec(args.spec, cutoff)
    grid = tuple(float(x) for x in args.grid.split(",")) if args.grid else None
    prof = divergence_profile(desc, grid=grid, seed=args.seed)
    points = [
        {"energy": float(e), "delta": _measured(v, tolerance=1e-2)}
        for e, v in zip(prof.grid, prof.deltas)
    ]
    results = {
        "quantity": prof.quantity,
        "classification": prof.classification,
        "slope_fit": _measured(prof.slope, tolerance=0.05),
        "points": points,
    }
    buf = io.StringIO()
    buf.write("energy,delta,slope_fit,classification\n")
    for e, v in zip(prof.grid, prof.deltas):
        buf.write(f"{e:g},{v:.6f},{prof.slope:.6f},{prof.classification}\n")
    config = _config(
        args, spec=args.spec, cutoff=cutoff, grid=list(grid) if grid else None
    )
    return config, results, buf.getvalue()


def _assert_le(name, measured, tolerance):
    return {
        "name": name,
        "comparison": "le",
        "measured": float(measured),
        "tolerance": float(tolerance),
        "pass": bool(measured <= tolerance),
    }


def _assert_gt(name, measured, tolerance):
    return {
        "name": name,
        "comparison": "gt",
        "measured": float(measured),
        "tolerance": float(tolerance),
        "pass": bool(measured > tolerance),
    }


def _random_gaussian_fock(rng, cutoff):
    state = thermal_state(float(rng.uniform(0.0, 0.7)))
    for kind, par in (
        ("squeeze", float(rng.uniform(0.0, 0.4))),
        ("rotation", float(rng.uniform(0.0, np.pi))),
        ("displacement", complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))),
    ):
        state = apply_symplectic(state, gaussian_unitary(kind, par, 1))
    return gaussian_to_fock(state, cutoff, trace_tol=1e-5)


def _product_density(a, b):
    return FockArray(
        a.n_modes + b.n_modes,
        a.cutoff,
        "density",
        np.kron(a.data, b.data),
        trace_tol=a.trace_tol + b.trace_tol,
    )


def _suite_state_props(seed):
    rng = np.random.default_rng(seed)
    checks = []

    vals = [delta_g(_random_gaussian_fock(rng, 50)) for _ in range(20)]
    checks.append(_assert_le("delta_g_nonnegative", -min(vals), 1e-9))
    checks.append(_assert_le("delta_g_zero_on_gaussians", max(vals), 1e-4))
    checks.append(
        _assert_gt("delta_g_positive_on_fock", delta_g(build_state("fock", 2, 30)), 1e-3)
    )

    d = 25
    rho1 = build_state("fock", 1, d).to_density()
    rho2 = build_state("cat", 1.2, d).to_density()
    joint = _product_density(rho1, rho2)
    dev = abs(delta_g(joint) - delta_g(rho1) - delta_g(rho2))
    checks.append(_assert_le("product_additivity", dev, 1e-3))

    # equal gaussifications: both branches are Fock-diagonal with n̄ = 1
    d = 20
    one = build_state("fock", 1, d).to_density().data
    zero_two = 0.5 * (
        build_state("fock", 0, d).to_density().data
        + build_state("fock", 2, d).to_density().data
    )
    lhs = delta_g(FockArray(1, d, "density", 0.5 * one + 0.5 * zero_two))
    rhs = 0.5 * delta_g(FockArray(1, d, "density", one)) + 0.5 * delta_g(
        FockArray(1, d, "density", zero_two)
    )
    checks.append(_assert_le("convexity_equal_gaussifications", lhs - rhs, 1e-9))

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
    checks.append(_assert_le("unitary_invariance_single_mode", dev, 1e-3))

    d = 25
    photon = _product_density(
        build_state("fock", 1, d).to_density(), build_state("vacuum", None, d).to_density()
    )
    split = apply_unitary(photon, build_unitary("beamsplitter", 0.3, d), targets=[0, 1])
    checks.append(_assert_le("unitary_invariance_beamsplitter", abs(delta_g(split) - 2.0), 1e-3))

    margins = []
    out, _ = apply_map(build_state("tmsv", 1.0, 24, trace_tol=1e-4), pns(24).body, targets=[1])
    margins.append(delta_g(partial_trace(out, keep=(0,))) - delta_g(out))
    margins.append(delta_g(partial_trace(split, keep=(0,))) - delta_g(split))
    cat_pair = _product_density(
        build_state("cat", 1.0, d).to_density(), build_state("vacuum", None, d).to_density()
    )
    mixed = apply_unitary(cat_pair, build_unitary("beamsplitter", 0.4, d), targets=[0, 1])
    margins.append(delta_g(partial_trace(mixed, keep=(0,))) - delta_g(mixed))
    checks.append(_assert_le("partial_trace_monotone", max(margins), 1e-3))
    return checks


def _lemma1_states(d):
    out = [build_state("fock", n, d).to_density() for n in (1, 2, 3)]
    out += [build_state("cat", a, d).to_density() for a in (0.8, 1.3, 1.7)]
    sub, _ = apply_map(build_state("thermal", 1.0, d, trace_tol=1e-5), pns(d).body)
    out.append(sub)
    add, _ = apply_map(build_state("thermal", 0.5, d, trace_tol=1e-6), pna(d).body)
    out.append(add)
    kicked = apply_unitary(
        build_state("coherent", 1.0, d), build_unitary("kerr", 0.6, d), targets=[0]
    )
    out.append(kicked.to_density())
    mix = 0.5 * build_state("fock", 0, d).to_density().data
    mix += 0.5 * build_state("fock", 3, d).to_density().data
    out.append(FockArray(1, d, "density", mix))
    return out


def _suite_lemma1(seed):
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
    return [_assert_le("gaussify_commutes_with_loss", worst, 1e-4)]


def _correlated_coherent_mixture(alpha, d):
    plus = build_state("coherent", alpha, d).data
    minus = build_state("coherent", -alpha, d).data
    both_p = np.multiply.outer(plus, plus).reshape(-1)
    both_m = np.multiply.outer(minus, minus).reshape(-1)
    data = 0.5 * np.outer(both_p, both_p.conj()) + 0.5 * np.outer(
        both_m, both_m.conj()
    )
    return FockArray(2, d, "density", data)


def _first_moment(state):
    return complex(moments(state).first[0])


def _suite_counterexamples(_seed):
    checks = []
    d = 40
    for alpha in (0.5, 1.0):
        sigma = _correlated_coherent_mixture(alpha, d)
        projected, _ = apply_map(sigma, coherent_projector(alpha, d).body)
        got = _first_moment(projected)
        want = alpha * (1.0 - np.exp(-4.0 * alpha**2)) / (1.0 + np.exp(-4.0 * alpha**2))
        checks.append(
            _assert_le(
                f"project_then_gaussify_alpha_{alpha:g}", abs(got - want), 1e-3
            )
        )
        gauss = gaussify(sigma)
        fitted = gaussian_to_fock(gauss, d, trace_tol=1e-4)
        swapped, _ = apply_map(fitted, coherent_projector(alpha, d).body)
        got2 = _first_moment(swapped)
        conditioned = condition_on_projection(gauss, [1], [2.0 * alpha, 0.0])
        want2 = complex(*conditioned.mean) / 2.0
        checks.append(
            _assert_le(
                f"gaussify_then_project_alpha_{alpha:g}", abs(got2 - want2), 1e-3
            )
        )

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
    out, _ = apply_map(rho, coherent_projector(alpha, d).body)
    checks.append(
        _assert_gt("projection_increases_delta_g", delta_g(out) - delta_g(rho), 0.5)
    )
    return checks


def _random_density(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return FockArray(1, d, "density", rho / np.trace(rho).real)


def _suite_relent(seed):
    rng = np.random.default_rng(seed)
    checks = []
    d = 12
    worst = min(
        relative_entropy(_random_density(rng, d), _random_density(rng, d))
        for _ in range(4)
    )
    checks.append(_assert_le("relent_nonnegative", -worst, 1e-9))

    d = 25
    dev = abs(
        relative_entropy(
            build_state("fock", 1, d).to_density(),
            build_state("thermal", 1.0, d, trace_tol=1e-6),
        )
        - 2.0
    )
    checks.append(_assert_le("relent_fock_vs_thermal_pinned", dev, 1e-6))

    d = 18
    rho1 = build_state("fock", 1, d).to_density()
    rho2 = build_state("cat", 0.9, d).to_density()
    sig1 = build_state("thermal", 1.0, d, trace_tol=1e-4)
    sig2 = build_state("thermal", 0.6, d, trace_tol=1e-4)
    joint = relative_entropy(_product_density(rho1, rho2), _product_density(sig1, sig2))
    split = relative_entropy(rho1, sig1) + relative_entropy(rho2, sig2)
    checks.append(_assert_le("relent_product_additivity", abs(joint - split), 1e-4))

    d = 10
    rho, _ = apply_map(
        build_state("tmsv", 0.8, d, trace_tol=1e-2), pns(d).body, targets=[1]
    )
    rho = rho.to_density()
    sigma = _product_density(
        build_state("thermal", 0.5, d, trace_tol=1e-2),
        build_state("thermal", 0.5, d, trace_tol=1e-2),
    )
    lhs = relative_entropy(
        partial_trace(rho, keep=(0,)), partial_trace(sigma, keep=(0,))
    )
    rhs = relative_entropy(rho, sigma)
    checks.append(_assert_le("relent_partial_trace_monotone", lhs - rhs, 1e-9))

    dev = abs(delta_g_relent(build_state("cat", 1.0, 30)) - delta_g(build_state("cat", 1.0, 30)))
    checks.append(_assert_le("relent_delta_g_consistency", dev, 1e-6))
    return checks


def _suite_monotone_props(seed):
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
    checks.append(_assert_le("conjugation_invariance", abs(res.value - sup.value), 2e-2))

    d = 40
    tau = float(rng.uniform(0.3, 0.9))
    lossy = MapDescriptor("lossy_subtract", compose(loss(tau, d).body, pns(d).body), d)
    bound = d_g_bound(lossy, seed=seed)
    checks.append(_assert_le("loss_composition_bound", bound.value - sup.value, 1e-3))

    checks.append(
        _assert_le(
            "lower_bound_below_supremum_pns", d_g_bound(pns(60), seed=seed).value - sup.value, 1e-3
        )
    )
    sup_a = delta_tilde(pna(), seed=seed)
    checks.append(
        _assert_le(
            "lower_bound_below_supremum_pna",
            d_g_bound(pna(60), seed=seed).value - sup_a.value,
            1e-3,
        )
    )

    finite = max(v for _, v in sup.trace if np.isfinite(v))
    checks.append(_assert_le("optimizer_value_covers_trace", finite - sup.value, 1e-12))
    checks.append(_assert_le("stationarity_pns", alpha_zero_spread("pns", seed), 1e-3))
    checks.append(_assert_le("stationarity_pna", alpha_zero_spread("pna", seed), 1e-3))
    return checks


_SUITES = {
    "state-props": _suite_state_props,
    "lemma1": _suite_lemma1,
    "counterexamples": _suite_counterexamples,
    "relent": _suite_relent,
    "monotone-props": _suite_monotone_props,
}


def cmd_verify(args):
    checks = _SUITES[args.suite](args.seed)
    failed = sum(not c["pass"] for c in checks)
    results = {
        "suite": args.suite,
        "assertions": checks,
        "passed": len(checks) - failed,
        "failed": failed,
    }
    return _config(args, suite=args.suite), results, failed == 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nongauss",
        description="Non-Gaussianity measures for states and conditional maps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cutoff", type=int, default=None, help="Fock truncation")
    common.add_argument("--seed", type=int, default=0, help="generator seed")
    common.add_argument("--out", default=None, help="write the report here")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state-ng", parents=[common], help="δ_G of a state")
    p.add_argument("spec", help="vacuum | fock:n | coherent:re[,im] | thermal:N | tmsv:NS | cat:alpha")
    p.add_argument("--trace-tol", type=float, default=1e-6, dest="trace_tol")

    p = sub.add_parser("map-ng", parents=[common], help="monotone of a map")
    p.add_argument("spec", help="pns | pna | bps | kerr:g | talpha:a | gd:bs<tau>,env=<state> | loss:tau | id")
    p.add_argument("--bound", action="store_true", help="environment upper bound (gd/loss)")

    p = sub.add_parser("sweep", parents=[common], help="divergence classification")
    p.add_argument("spec")
    p.add_argument("--grid", default=None, help="comma-separated energies")

    p = sub.add_parser("verify", parents=[common], help="named assertion suite")
    p.add_argument("suite", choices=_SUITES)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0,) else 0
    if args.cutoff is not None and args.cutoff < 8:
        print("error: cutoff must be at least 8", file=sys.stderr)
        return _EXIT_USAGE
    if args.format == "csv" and args.command != "sweep":
        print("error: CSV output is for sweep tables only", file=sys.stderr)
        return _EXIT_USAGE
    start = time.perf_counter()
    try:
        csv_text = None
        ok = True
        if args.command == "state-ng":
            config, results = cmd_state_ng(args)
        elif args.command == "map-ng":
            config, results = cmd_map_ng(args)
        elif args.command == "sweep":
            config, results, csv_text = cmd_sweep(args)
        else:
            config, results, ok = cmd_verify(args)
    except (InvalidStateError, UnsupportedMapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (TruncationError, ZeroProbabilityError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    report = _report(args.command, config, results, time.perf_counter() - start)
    _emit(report, args, csv_text)
    return 0 if ok else _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
