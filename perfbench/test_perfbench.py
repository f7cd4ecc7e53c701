"""Tests of the benchmark itself: tracer fidelity, reproducible counts and
the result line.  Run from the repository root with

    PYTHONPATH=src python -m pytest perfbench -q
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from probe import PROBE_REF_S  # noqa: E402
from run import host_scales, normalised_runs, run_pass, tail  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

EXACT_COUNTS = (
    ("calls", "fock.build_unitary"),
    ("calls", "monotone.analytic_output_covariance"),
    ("evaluations", None),
    ("excluded", None),
    ("max_dense_dim", None),
)


def sample_jobs():
    """A few jobs of each workload that reach every layer in a few seconds."""
    fock = workloads.fock_search(0)
    dense = workloads.dense_channels(0)
    return (
        workloads.analytic_search(0)[:1]
        + [fock[0], fock[3], fock[5], fock[7], fock[8]]
        + [dense[1], dense[4], dense[-1]]
    )


@pytest.fixture(scope="module")
def passes():
    jobs = sample_jobs()
    untraced = run_pass(jobs, probed=True)
    tracer = Tracer()
    traced = []
    for _ in range(2):
        tracer.reset()
        with tracer:
            wall, records, _ = run_pass(jobs)
        traced.append((wall, records, list(tracer.spans), tracer.aggregate()))
    return untraced, traced


def _layer_function(obj):
    return (
        inspect.isfunction(obj)
        and not obj.__name__.startswith("_")
        and obj.__module__ in {f"nongauss.{layer}" for layer in LAYERS}
    )


def _nongauss_bindings():
    for name, module in list(sys.modules.items()):
        if name == "nongauss" or name.startswith("nongauss."):
            yield from ((module, attr, obj) for attr, obj in vars(module).items())


def test_tracer_rebinds_every_import_and_restores_them():
    tracer = Tracer()
    with tracer:
        missed = [
            f"{module.__name__}.{attr}"
            for module, attr, obj in _nongauss_bindings()
            if _layer_function(obj) and not hasattr(obj, "__traced__")
        ]
        # monotone and cli import these from fock by name
        import nongauss.cli
        import nongauss.monotone

        for module in (nongauss.cli, nongauss.monotone):
            for name in ("build_unitary", "apply_map", "delta_g"):
                assert hasattr(getattr(module, name), "__traced__")
    assert not missed
    assert not [
        attr for _, attr, obj in _nongauss_bindings() if hasattr(obj, "__traced__")
    ]


def test_traced_outputs_match_untraced(passes):
    (_, untraced, scales), traced = passes
    assert len(scales) == len(untraced) and min(scales) > 0.0
    plain = [(out, fault) for _, out, fault in untraced]
    for _, records, _, _ in traced:
        assert [(out, fault) for _, out, fault in records] == plain


def test_self_times_are_consistent(passes):
    for wall, _, spans, _ in passes[1]:
        assert spans
        for index, span in enumerate(spans):
            assert span.self_s >= 0.0, span
            assert span.end >= span.start
            assert span.parent < index
        assert sum(span.self_s for span in spans) <= wall


def test_exact_counts_repeat(passes):
    (_, _, _, first), (_, _, _, second) = passes[1]
    for key, name in EXACT_COUNTS:
        a = first[key] if name is None else first[key][name]
        b = second[key] if name is None else second[key][name]
        assert a == b and a > 0, (key, name)


def test_job_lists_follow_the_seed():
    for make in workloads.WORKLOADS.values():
        labels = [job.label for job in make(7)]
        assert labels == [job.label for job in make(7)]
        assert labels != [job.label for job in make(8)]


def test_tail_leaves_ten_jobs_beyond_it():
    value, percentile = tail([[float(i) for i in range(20)]] * 2, 2)
    assert value == 14.0 and percentile == pytest.approx(75.0)
    with pytest.raises(ValueError):
        tail([[1.0, 3.0, 2.0]], 3)


def test_host_speed_cancels_and_program_speed_shows():
    ref = PROBE_REF_S
    assert host_scales([ref, 3 * ref, 2 * ref]) == pytest.approx([2.0, 2.5])
    one_pass = [0.54, 0.62, 0.68, 0.79, 0.81, 0.55, 2.95, 3.27]
    reference = normalised_runs([one_pass] * 3, [[1.0] * 8] * 3)
    assert reference == [one_pass] * 3
    slow_host = normalised_runs([[2 * x for x in one_pass]] * 3, [[2.0] * 8] * 3)
    assert slow_host == reference
    faster_program = normalised_runs([[x / 2 for x in one_pass]] * 3, [[1.0] * 8] * 3)
    assert faster_program == [[x / 2 for x in one_pass]] * 3


def test_tail_does_not_depend_on_the_pass_count():
    # one pass of analytic-search: six map-ng jobs, then two longer sweeps
    one_pass = [0.54, 0.62, 0.68, 0.79, 0.81, 0.55, 2.95, 3.27]
    passes = workloads.TAIL_PASSES["analytic-search"]
    reads = {tail([one_pass] * k, passes) for k in (2, 3, 4, 5, 6)}
    assert reads == {(0.79, 100.0 * 14 / 24)}
    for name, make in workloads.WORKLOADS.items():
        block = workloads.TAIL_PASSES[name] * len(make(0))
        assert block > 10, name


def _run_bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fock-search",
         "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_matches_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run_bench(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_bench(tmp_path, 0)
    assert done.returncode != 0
    assert "{" not in done.stdout
