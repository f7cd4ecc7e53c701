"""The benchmark's workloads: seeded job lists, job execution, reference checks.

Each workload is a fixed list of job templates whose parameters, and the
``--seed`` handed to the program, are drawn from the workload seed.  CLI
jobs run in-process through ``nongauss.cli.main`` and their JSON report is
checked against a reference; the two-mode Gaussian lift, which has no CLI
route, calls ``nongauss.gaussian_to_fock`` directly.

Every program call goes through a module attribute looked up at call time,
so the tracer's rebinding sees it.
"""

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

import nongauss
import nongauss.cli
import nongauss.gaussian

# Reserved for confirming a claimed gain on a seed nobody tuned against.
HELD_OUT_SEED = 20260917

# ROADMAP open item 1: the in-box symplectic unitary hides squeeze and
# displacement spill, so Gaussian channels report non-Gaussianity.
# These jobs stay, pinned as first measured, and count as failed until the
# program is fixed.
_GAUSSIAN_CHANNEL_DEFECT = "ROADMAP item 1: Gaussian channel reports delta > 0"

# Two-mode lift cutoff; the dense 900-dimensional squeezing branch of
# symplectic_to_unitary is the cost being measured.
LIFT_CUTOFF = 30
ROUND_TRIP_TOL = 1e-6
LIFT_DELTA_TOL = 1e-4


@dataclass(frozen=True)
class Job:
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], Optional[str]]
    known_defect: Optional[str] = None


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = nongauss.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
    report = json.loads(out.getvalue())
    del report["timing"]  # the only clock-dependent block
    return report


def _run_lift(n_s, r, alpha, cutoff):
    g = nongauss.gaussian
    state = g.tmsv_state(n_s)
    state = g.apply_symplectic(
        state, g.gaussian_unitary("squeeze", r, n_modes=2, targets=[1])
    )
    state = g.apply_symplectic(
        state, g.gaussian_unitary("displacement", alpha, n_modes=2, targets=[0])
    )
    rho = nongauss.gaussian_to_fock(state, cutoff, trace_tol=1e-5)
    back = nongauss.gaussify(rho)
    error = max(
        float(np.abs(back.mean - state.mean).max()),
        float(np.abs(back.cov - state.cov).max()),
    )
    return {
        "round_trip_error": error,
        "delta_g": float(nongauss.delta_g(rho)),
        "trace_deficit": float(rho.trace_deficit),
    }


def _g(n):
    """Entropy in bits of a thermal state with mean photon number n."""
    if n <= 0.0:
        return 0.0
    return (n + 1.0) * math.log2(n + 1.0) - n * math.log2(n)


def _cat_delta_g(alpha):
    # pure even cat: <a> = 0, <a^2> = alpha^2, <a†a> = alpha^2 tanh(alpha^2)
    occ = alpha**2 * math.tanh(alpha**2)
    var_q = 2.0 * alpha**2 + 2.0 * occ + 1.0
    var_p = -2.0 * alpha**2 + 2.0 * occ + 1.0
    nu = math.sqrt(var_q * var_p)
    return _g((nu - 1.0) / 2.0)


# ---- reference checks: each returns None when the output is right -------


def _value(report):
    return report["results"]["value"]


def _within(name, got, want, tol):
    return None if abs(got - want) <= tol else f"{name} {got:.6g}, want {want:.6g} ± {tol:g}"


def check_supremum_two(report):
    return _within("delta_tilde", _value(report)["value"], 2.0, 1e-2)


def check_sweep_two(report):
    res = report["results"]
    if res["classification"] != "finite":
        return f"classified {res['classification']}, want finite"
    worst = max(abs(p["delta"]["value"] - 2.0) for p in res["points"])
    return None if worst <= 0.05 else f"a sweep point is {worst:.4f} away from 2.0"


def check_at_most_tolerance(report):
    v = _value(report)
    if v["value"] <= v["tolerance"]:
        return None
    return f"Gaussian channel reports {v['value']:.4g} > tolerance {v['tolerance']:g}"


def check_gaussian_sweep(report):
    res = report["results"]
    high = [p for p in res["points"] if p["delta"]["value"] > p["delta"]["tolerance"]]
    if res["classification"] == "finite" and not high:
        return None
    worst = ", ".join(f"{p['delta']['value']:.4g} at E={p['energy']:g}" for p in high)
    return f"classified {res['classification']}, want finite; above tolerance: {worst}"


def check_above_tolerance(report):
    v = _value(report)
    if v["value"] > v["tolerance"]:
        return None
    return f"non-Gaussian map reports {v['value']:.4g} <= tolerance {v['tolerance']:g}"


def check_diverging(report):
    label = report["results"]["classification"]
    return None if label == "diverging" else f"classified {label}, want diverging"


def check_delta_g(want, report):
    return _within("delta_g", report["results"]["delta_g"]["value"], want, 1e-6)


def check_environment_bound(report):
    res = report["results"]
    bound, sampled = res["upper_bound"]["value"], res["sampled_max"]["value"]
    fault = _within("upper bound", bound, _g(1.0), 1e-9)
    if fault is None and sampled > bound + res["sampled_max"]["tolerance"]:
        fault = f"sampled maximum {sampled:.6g} exceeds the bound {bound:.6g}"
    return fault


def check_lift(out):
    if out["round_trip_error"] > ROUND_TRIP_TOL:
        return f"round-trip error {out['round_trip_error']:.3g} > {ROUND_TRIP_TOL:g}"
    if out["delta_g"] > LIFT_DELTA_TOL:
        return f"delta_g of a Gaussian lift is {out['delta_g']:.3g}"
    return None


# ---- job lists ------------------------------------------------------------


def cli_job(argv, check, known_defect=None):
    return Job(" ".join(argv), partial(_run_cli, tuple(argv)), check, known_defect)


def _seeded(rng, *argv):
    return [*argv, "--seed", str(rng.randrange(1000))]


def analytic_search(seed):
    rng = random.Random(seed)
    jobs = []
    for _ in range(3):
        jobs.append(cli_job(_seeded(rng, "map-ng", "pns"), check_supremum_two))
        jobs.append(cli_job(_seeded(rng, "map-ng", "pna"), check_supremum_two))
    jobs.append(cli_job(_seeded(rng, "sweep", "pns"), check_sweep_two))
    jobs.append(cli_job(_seeded(rng, "sweep", "pna"), check_sweep_two))
    return jobs


def fock_search(seed):
    rng = random.Random(seed)
    jobs = []
    for _ in range(3):
        gamma = f"kerr:{rng.uniform(0.3, 0.7):.3f}"
        jobs.append(cli_job(_seeded(rng, "map-ng", gamma), check_above_tolerance))
    jobs.append(cli_job(_seeded(rng, "map-ng", "id"), check_at_most_tolerance))
    jobs.append(cli_job(_seeded(rng, "map-ng", "bps"), check_above_tolerance))
    jobs.append(cli_job(_seeded(rng, "sweep", "bps"), check_diverging))
    gamma = f"kerr:{rng.uniform(0.3, 0.7):.3f}"
    jobs.append(cli_job(_seeded(rng, "sweep", gamma), check_diverging))
    n = rng.randint(1, 6)
    jobs.append(
        cli_job(_seeded(rng, "state-ng", f"fock:{n}"), partial(check_delta_g, _g(n)))
    )
    alpha = round(rng.uniform(0.5, 2.0), 3)
    jobs.append(
        cli_job(
            _seeded(rng, "state-ng", f"cat:{alpha}"),
            partial(check_delta_g, _cat_delta_g(alpha)),
        )
    )
    return jobs


def dense_channels(seed):
    rng = random.Random(seed)
    pinned = [
        ("map-ng", "loss:0.7"),
        ("sweep", "loss:0.7"),
        ("sweep", "id"),
        ("map-ng", "gd:bs0.5,env=vacuum"),
    ]
    jobs = [
        cli_job(
            [*argv, "--seed", "0"],
            check_at_most_tolerance if argv[0] == "map-ng" else check_gaussian_sweep,
            _GAUSSIAN_CHANNEL_DEFECT,
        )
        for argv in pinned
    ]
    for _ in range(4):
        tau = f"{rng.uniform(0.3, 0.8):.3f}"
        jobs.append(
            cli_job(
                _seeded(rng, "map-ng", f"gd:bs{tau},env=fock:1", "--bound"),
                check_environment_bound,
            )
        )
    n_s = round(rng.uniform(0.1, 0.3), 4)
    r = round(rng.uniform(0.05, 0.2), 4)
    alpha = complex(round(rng.uniform(-0.3, 0.3), 4), round(rng.uniform(-0.3, 0.3), 4))
    jobs.append(
        Job(
            f"lift tmsv:{n_s} squeeze:{r} displace:{alpha} cutoff:{LIFT_CUTOFF}",
            partial(_run_lift, n_s, r, alpha, LIFT_CUTOFF),
            check_lift,
        )
    )
    return jobs


WORKLOADS = {
    "analytic-search": analytic_search,
    "fock-search": fock_search,
    "dense-channels": dense_channels,
}

# job_tail_s is read from a block of this many passes over the job list,
# every job at its normalised latency, so its rank does not depend on how
# many passes fit in a run.  Each block leaves at least ten jobs beyond it:
# analytic-search 3 x 8 jobs, rank 13 (p58.3): an upper map-ng, below the
#   two sweeps;
# fock-search 6 x 9 jobs, rank 43 (p81.5): inside the kerr map-ng jobs,
#   above the id jobs;
# dense-channels 3 x 9 jobs, rank 16 (p63.0): a gd:bs --bound job.
TAIL_PASSES = {
    "analytic-search": 3,
    "fock-search": 6,
    "dense-channels": 3,
}
