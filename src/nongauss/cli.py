"""Command-line front end: named computations, sweeps, verification suites.

Reports are JSON (schema "nongauss/1") with every measured number carrying
a sibling tolerance or deficit field; sweep tables can also be emitted as
CSV.  Identical configurations produce byte-identical reports apart from
the timing block.  Exit codes: 0 success, 2 usage error, 3 numerical,
truncation or out-of-memory failure.
"""

import argparse
import io
import json
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__, verify
from .errors import (
    InvalidStateError,
    TruncationError,
    UnsupportedMapError,
    ZeroProbabilityError,
)
# perfbench's tracer test checks that apply_map and build_unitary are rebound here
from .fock import BUILD_DEFICIT_TOL, apply_map, build_unitary, delta_g, von_neumann_entropy  # noqa: F401
from .maps import parse_map_spec, parse_state_spec
from .monotone import (
    ALPHA_ZERO_SPREAD_TOL,
    SIMPLEX_XATOL,
    SLOPE_FIT_TOL,
    d_g_bound,
    delta_tilde,
    divergence_profile,
    environment_bound,
)

_EXIT_USAGE = 2
_EXIT_NUMERIC = 3

# default truncation of sweep, which needs headroom for the top of the default
# energy grid; state-ng and map-ng build at their library defaults
_SWEEP_CUTOFF = 60


def _seed(text):
    # a generator seed, which numpy takes only as an integer >= 0
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _grid(text):
    # comma-separated energies; divergence_profile checks the points
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated numbers, got {text!r}")


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


def _emit(report, args, csv_text):
    if csv_text is None:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        text = csv_text
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _config(args, **ran_at):
    # the options the command takes, as parsed, updated with what it ran at
    return {k: v for k, v in vars(args).items() if k not in ("command", "run")} | ran_at


def _argmax_fields(res, tolerance):
    p = res.argmax
    fields = {
        "alpha_re": float(np.real(p.alpha)),
        "alpha_im": float(np.imag(p.alpha)),
        "theta": float(p.theta),
        "r": float(p.r),
        "n_s": float(p.n_s),
        "tolerance": float(tolerance),
    }
    if "alpha_zero_spread" in res.diagnostics:
        # the analytic δ̃ of pns/pna is flat on the α = 0 manifold its
        # maximum lies on, so there θ, r and n_s are rounding artefacts
        fields.update(theta=None, r=None, n_s=None)
    elif res.diagnostics["backend"] == "phase-space":
        # a Gaussian unitary's δ̃ is 0 at every member: no coordinate counts
        fields.update(alpha_re=None, alpha_im=None, theta=None, r=None, n_s=None)
    return fields


def cmd_state_ng(args):
    if args.trace_tol is not None and not args.trace_tol >= 0.0:
        raise ValueError(f"--trace-tol must be a nonnegative number, got {args.trace_tol}")
    state = parse_state_spec(args.spec, args.cutoff, args.trace_tol)
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
    return _config(args, cutoff=state.cutoff, trace_tol=state.trace_tol), results, None, True


def cmd_map_ng(args):
    desc = parse_map_spec(args.spec, args.cutoff)
    config = _config(args, cutoff=desc.cutoff)
    if args.bound:
        res = environment_bound(desc, seed=args.seed)
        results = {
            "method": "gd_upper_bound",
            "upper_bound": _measured(res.bound, tolerance=res.tolerance),
            "sampled_max": _measured(res.sampled_max, tolerance=res.tolerance),
            "checked": res.checked,
            "excluded": res.excluded,
        }
        return config, results, None, True
    res = (delta_tilde if desc.body.conditional_unitary else d_g_bound)(desc, seed=args.seed)
    results = {
        "method": res.quantity,
        "value": _measured(
            res.value, tolerance=res.tolerance, deficit=res.diagnostics["max_deficit"]
        ),
        "evaluations": res.evaluations,
        "excluded": res.diagnostics["excluded"],
        "backend": res.diagnostics["backend"],
    }
    if res.quantity == "delta_tilde":
        results["argmax"] = _argmax_fields(res, SIMPLEX_XATOL)
    else:
        results["argmax_input"] = list(res.argmax)
    if "alpha_zero_spread" in res.diagnostics:
        results["alpha_zero_spread"] = _measured(
            res.diagnostics["alpha_zero_spread"], tolerance=ALPHA_ZERO_SPREAD_TOL
        )
    return config, results, None, True


def cmd_sweep(args):
    desc = parse_map_spec(args.spec, args.cutoff)
    prof = divergence_profile(desc, grid=args.grid, seed=args.seed)
    points = [
        {"energy": float(e), "delta": _measured(v, tolerance=prof.tolerance)}
        for e, v in zip(prof.grid, prof.deltas)
    ]
    results = {
        "quantity": prof.quantity,
        "backend": prof.backend,
        "classification": prof.classification,
        "slope_fit": _measured(prof.slope, tolerance=SLOPE_FIT_TOL),
        "points": points,
    }
    buf = io.StringIO()
    buf.write("energy,delta,slope_fit,classification\n")
    for e, v in zip(prof.grid, prof.deltas):
        buf.write(f"{e:g},{v:.6f},{prof.slope:.6f},{prof.classification}\n")
    config = _config(args, cutoff=desc.cutoff)
    return config, results, buf.getvalue() if args.format == "csv" else None, True


def cmd_verify(args):
    checks = verify.SUITES[args.suite](args.seed)
    failed = sum(not c["pass"] for c in checks)
    results = {
        "suite": args.suite,
        "assertions": checks,
        "passed": len(checks) - failed,
        "failed": failed,
    }
    return _config(args), results, None, failed == 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nongauss",
        description="Non-Gaussianity measures for states and conditional maps.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=0, help="generator seed (>= 0)")
    common.add_argument("--out", default=None, help="write the report here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("state-ng", parents=[common], help="δ_G of a state")
    p.set_defaults(run=cmd_state_ng)
    p.add_argument("spec", help="vacuum | fock:n | coherent:re[,im] | thermal:N | tmsv:NS | cat:alpha")
    p.add_argument("--cutoff", type=int, help="Fock truncation (default: the state's)")
    tol_help = f"weight the state may lose to truncation (default {BUILD_DEFICIT_TOL:g})"
    p.add_argument("--trace-tol", type=float, help=tol_help)

    map_spec = "pns | pna | bps | kerr:g | gd:bs<tau>,env=<state> | loss:tau | id"
    p = sub.add_parser("map-ng", parents=[common], help="monotone of a map")
    p.set_defaults(run=cmd_map_ng)
    p.add_argument("spec", help=map_spec)
    p.add_argument("--cutoff", type=int, help="Fock truncation (default: the map's)")
    p.add_argument("--bound", action="store_true", help="environment upper bound (gd/loss)")

    p = sub.add_parser("sweep", parents=[common], help="divergence classification")
    p.set_defaults(run=cmd_sweep)
    p.add_argument("spec", help=map_spec)
    p.add_argument("--cutoff", type=int, default=_SWEEP_CUTOFF, help="Fock truncation")
    p.add_argument("--grid", type=_grid, default=None, help="comma-separated energies")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("verify", parents=[common], help="named assertion suite")
    p.set_defaults(run=cmd_verify)
    p.add_argument("suite", choices=verify.SUITES)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0,) else 0
    if getattr(args, "cutoff", None) is not None and args.cutoff < 8:
        print("error: cutoff must be at least 8", file=sys.stderr)
        return _EXIT_USAGE
    start = time.perf_counter()
    try:
        config, results, csv_text, ok = args.run(args)
    except (InvalidStateError, UnsupportedMapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (TruncationError, ZeroProbabilityError, ArithmeticError, RuntimeError) as exc:
        retry = getattr(exc, "suggested_cutoff", None)
        print(f"error: {exc}" + (f"; try --cutoff {retry}" if retry else ""), file=sys.stderr)
        return _EXIT_NUMERIC
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    report = _report(args.command, config, results, time.perf_counter() - start)
    try:
        _emit(report, args, csv_text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    return 0 if ok else _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
