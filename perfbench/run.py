"""End-to-end and per-layer benchmark of nongauss.

    python3 perfbench/run.py --workload fock-search --seed 3 --seconds 35 --trace 0

Runs one workload's seeded job list back to back (closed loop, one client)
in this process for ``--seconds``, repeating the list while the next pass
is expected to fit (with ``--trace 0`` at least ``MIN_PASSES``), and checks
every job's output against its reference.  With ``--trace 0`` a fixed
reference kernel runs before and after every job, and each latency is read
against it (``probe.py``), so that the host's changing speed cancels.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics of the traced ones.  A readable table and the run's environment
come first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2.  BLAS is pinned to one thread before
numpy loads: on small matrices a second OpenBLAS thread mostly measures
contention between the two.
"""

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from probe import PROBE_REF_S, probe, warm_up
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
# a --trace 0 run makes at least this many untraced passes, so that
# solve_s can take each job's median over them
MIN_PASSES = 2
SETUP_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import nongauss.cli\n"
    "nongauss.cli.build_parser()\n"
    "print(time.perf_counter() - t)\n"
)

CALL_METRICS = (
    "monotone.analytic_output_covariance",
    "gaussian.symplectic_eigenvalues",
    "fock.build_unitary",
    "fock.number_distribution",
    "fock.symplectic_to_unitary",
)
SELF_METRICS = (
    "monotone.analytic_output_covariance",
    "gaussian.symplectic_eigenvalues",
    "fock.build_unitary",
    "fock.apply_unitary",
    "fock.moments",
    "fock.symplectic_to_unitary",
    "fock.gaussian_to_fock",
    "maps.parse_map_spec",
    "fock.apply_map",
    "fock.von_neumann_entropy",
    "monotone.delta_tilde",
    "monotone.d_g_bound",
    "gaussian.williamson",
    "cli.main",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("analytic-search", "fock-search", "dense-channels"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup():
    """Seconds from a fresh process's `import nongauss` to a built CLI parser,
    normalised by the reference kernel run before and after each one."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, probes = [], []
    for _ in range(SETUP_REPEATS + 1):  # the first run may compile bytecode
        probes.append(probe())
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    probes.append(probe())
    return [t / scale for t, scale in zip(times, host_scales(probes))][1:]


def host_scales(probes):
    """How much slower than the reference the host ran each interval between
    consecutive probes: the mean of the two over ``PROBE_REF_S``."""
    return [(a + b) / (2.0 * PROBE_REF_S) for a, b in zip(probes, probes[1:])]


def blas_threads():
    """Thread count in force in each loaded OpenBLAS, by library file."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return {}
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def environment(args, held_out_seed):
    import numpy
    import scipy

    blas = {}
    for module in (numpy, scipy):
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[module.__name__] = f"{dep['name']} {dep['version']}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ[var] for var in BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "workload_seed": args.seed,
        "held_out_seed": held_out_seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_pass(jobs, probed=False):
    """Run the job list once; returns wall time, (latency, output, fault) per
    job and, when ``probed``, each job's host scale (see ``host_scales``)."""
    records, probes = [], []
    start = perf_counter()
    for job in jobs:
        if probed:
            probes.append(probe())
        began = perf_counter()
        try:
            out = job.run()
            latency = perf_counter() - began
            fault = job.check(out)
        except Exception as exc:  # a failing job is counted; the run goes on
            latency = perf_counter() - began
            out = {"error": f"{type(exc).__name__}: {exc}"}
            fault = out["error"]
        records.append((latency, out, fault))
    if probed:
        probes.append(probe())
    return perf_counter() - start, records, host_scales(probes)


def normalised_runs(pass_latencies, pass_scales):
    """Per pass, each job's latency divided by the host scale around it:
    seconds on the reference host."""
    return [
        [latency / scale for latency, scale in zip(latencies, scales)]
        for latencies, scales in zip(pass_latencies, pass_scales)
    ]


def tail(runs, passes):
    """Latency at the highest percentile with at least ten jobs beyond it.

    The percentile is fixed by a block of ``passes`` passes over the job
    list, so it does not depend on how many passes a run fits; it is read,
    by nearest rank, over every pass given.  Returns the latency and the
    percentile.
    """
    block = passes * len(runs[0])
    if block <= 10:
        raise ValueError("a tail block needs more than ten jobs")
    sample = sorted(x for latencies in runs for x in latencies)
    rank = math.ceil((block - 10) * len(sample) / block) - 1
    return sample[rank], 100.0 * (block - 10) / block


def layer_metrics(agg, traced_wall, untraced_wall):
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    calls, self_s = agg["calls"], agg["self_s"]
    out = {f"{name}.calls": (calls.get(name, 0), "count") for name in CALL_METRICS}
    for name in SELF_METRICS:
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for layer in LAYERS:
        total = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
        out[f"layer.{layer}.self_s"] = (total, "s")
    evaluations, excluded = agg["evaluations"], agg["excluded"]
    out["monotone.evaluations"] = (evaluations, "count")
    out["monotone.excluded"] = (excluded, "count")
    out["monotone.useful_ratio"] = ((evaluations - excluded) / max(evaluations, 1), "ratio")
    out["fock.max_dense_dim"] = (agg["max_dense_dim"], "count")
    out["fock.truncation_errors"] = (agg["truncation_errors"], "count")
    out["trace.solve_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


class Measurement:
    """Passes over one job list for a time budget, and at least
    ``min_passes`` untraced ones, untraced and (optionally) traced in
    alternation, with every output checked."""

    def __init__(self, jobs, seconds, tracer=None, min_passes=1):
        self.walls = {False: [], True: []}
        self.pass_latencies, self.pass_scales, self.aggregates = [], [], []
        self.faults, self.mismatched = {}, set()
        self.attempted = self.failed = 0
        first_outputs = {}
        begun = perf_counter()
        while True:
            traced = tracer is not None and len(self.walls[False]) > len(self.walls[True])
            if traced:
                tracer.reset()
                with tracer:
                    wall, records, _ = run_pass(jobs)
                self.aggregates.append(tracer.aggregate())
            else:
                # a traced run compares raw walls, so only --trace 0 probes
                wall, records, scales = run_pass(jobs, probed=tracer is None)
                self.pass_latencies.append([latency for latency, _, _ in records])
                self.pass_scales.append(scales)
            self.walls[traced].append(wall)
            for job, (_, out, fault) in zip(jobs, records):
                self.attempted += 1
                if fault is not None:
                    self.failed += 1
                    self.faults.setdefault(job.label, (fault, job.known_defect))
                if first_outputs.setdefault(job.label, out) != out:
                    self.mismatched.add(job.label)
            # start another pass only if one more is expected to fit
            done = self.walls[False] + self.walls[True]
            has_traced = tracer is None or self.walls[True]
            enough = has_traced and len(self.walls[False]) >= min_passes
            if enough and perf_counter() - begun + statistics.fmean(done) > seconds:
                break

    @property
    def correct(self):
        unexpected = [label for label, (_, known) in self.faults.items() if known is None]
        return not unexpected and not self.mismatched


def end_to_end_table(m, setup_times, tail_passes):
    """Rows of (name, value, unit, samples, note); fail_share is last.

    The timings are in seconds on the reference host: every job latency is
    divided by the host scale measured around it (see ``probe.py``).
    """
    runs = normalised_runs(m.pass_latencies, m.pass_scales)
    tail_value, tail_pct = tail(runs, tail_passes)
    n_runs = len(runs) * len(runs[0])
    raw_pass = statistics.median(sum(latencies) for latencies in m.pass_latencies)
    scale = statistics.median(x for scales in m.pass_scales for x in scales)
    return [
        ("solve_s", sum(statistics.median(job) for job in zip(*runs)), "s", n_runs,
         f"job list, each job at its median; raw median pass {raw_pass:.4g} s, "
         f"host scale {scale:.3g}"),
        ("job_p50_s", statistics.median(x for latencies in runs for x in latencies),
         "s", n_runs, "median job"),
        ("job_tail_s", tail_value, "s", n_runs, f"p{tail_pct:.1f}"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         "MB", 1, "this process"),
        ("setup_s", statistics.median(setup_times), "s", len(setup_times), "median"),
        ("fail_share", m.failed / m.attempted, "ratio", m.attempted,
         f"{m.failed} failed / {m.attempted} attempted"),
    ]


def per_layer_metrics(m):
    """Median over traced passes of each per-layer metric."""
    traced_wall = statistics.median(m.walls[True])
    untraced_wall = statistics.median(m.walls[False])
    values = {}
    for agg in m.aggregates:
        for name, (value, unit) in layer_metrics(agg, traced_wall, untraced_wall).items():
            values.setdefault(name, (unit, []))[1].append(value)
    return {
        name: {"value": statistics.median(vals), "unit": unit}
        for name, (unit, vals) in values.items()
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nongauss" / "__init__.py").is_file():
        print(f"error: no nongauss sources under {SRC}", file=sys.stderr)
        return 2
    warm_up()
    setup_times = measure_setup()
    sys.path.insert(0, str(SRC))
    import nongauss

    if Path(nongauss.__file__).resolve().parent != SRC / "nongauss":
        print(f"error: imported nongauss from {nongauss.__file__}", file=sys.stderr)
        return 2
    import workloads

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        m = Measurement(jobs, args.seconds, Tracer())
    else:
        m = Measurement(jobs, args.seconds, min_passes=MIN_PASSES)
    heading = f"{args.workload} · seed {args.seed} · {args.seconds:g} s"
    if args.trace:
        metrics = per_layer_metrics(m)
        print(f"per-layer · {heading} · {len(m.walls[True])} traced, "
              f"{len(m.walls[False])} untraced passes")
        for name, metric in metrics.items():
            print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    else:
        table = end_to_end_table(m, setup_times, workloads.TAIL_PASSES[args.workload])
        print(f"end-to-end · {heading}")
        for name, value, unit, n, note in table:
            print(f"  {name:<12} {value:>12.6g} {unit:<6} n={n:<5} {note}")
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _, _ in table[:-1]}
    for label, (fault, known) in m.faults.items():
        tag = f"known defect ({known})" if known else "FAILED"
        print(f"  {tag}: {label}: {fault}")
    for label in sorted(m.mismatched):
        print(f"  FAILED: {label}: output differs between passes")
    print("env " + json.dumps(environment(args, workloads.HELD_OUT_SEED), sort_keys=True))
    result = {
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
