"""Exit codes, report schema, and output formats of the command line."""

import json
import os
import subprocess
import sys

import pytest

import nongauss.cli
import nongauss.fock
import nongauss.maps
import nongauss.monotone
from nongauss.cli import main
from nongauss.fock import build_state
from nongauss.maps import parse_map_spec


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_report(out):
    report = json.loads(out)
    assert report["schema"] == "nongauss/1"
    return report


def walk_measured(node, path=""):
    """Yield every dict that reports a numeric value."""
    if isinstance(node, dict):
        if "value" in node:
            yield path, node
        for key, child in node.items():
            yield from walk_measured(child, f"{path}/{key}")
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from walk_measured(child, f"{path}[{i}]")


def test_state_ng_fock_one(capsys):
    code, out, _ = run_cli(["state-ng", "fock:1"], capsys)
    assert code == 0
    report = load_report(out)
    assert report["command"] == "state-ng"
    assert report["config"]["seed"] == 0
    assert report["config"]["cutoff"] >= 8
    assert report["results"]["n_modes"] == 1
    assert abs(report["results"]["delta_g"]["value"] - 2.0) < 1e-9


def test_seed_recorded_in_config(capsys):
    code, out, _ = run_cli(["state-ng", "vacuum", "--seed", "5"], capsys)
    assert code == 0
    assert load_report(out)["config"]["seed"] == 5


def test_every_number_has_tolerance_or_deficit(capsys):
    code, out, _ = run_cli(["state-ng", "cat:1.0"], capsys)
    assert code == 0
    report = load_report(out)
    found = list(walk_measured(report["results"]))
    assert found
    for path, node in found:
        assert "tolerance" in node or "deficit" in node, path


def test_state_ng_applies_and_echoes_trace_tol(capsys):
    # thermal:1 loses 1.5e-5 of its weight at cutoff 16
    argv = ["state-ng", "thermal:1", "--cutoff", "16"]
    assert run_cli(argv, capsys)[0] == 3
    code, out, _ = run_cli(argv + ["--trace-tol", "1e-4"], capsys)
    assert code == 0
    assert load_report(out)["config"]["trace_tol"] == 1e-4


@pytest.mark.parametrize(
    "argv",
    [
        ["map-ng", "id", "--cutoff", "8"],
        ["sweep", "id", "--cutoff", "8", "--grid", "0.1,0.2,0.3,0.4"],
        ["verify", "relent"],
    ],
    ids=["map-ng", "sweep", "verify"],
)
def test_trace_tol_belongs_to_state_ng_only(argv, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert "trace_tol" not in load_report(out)["config"]
    code, _, err = run_cli(argv + ["--trace-tol", "1e-5"], capsys)
    assert code == 2
    assert "--trace-tol" in err


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["state-ng", "vacuum"], {"spec", "cutoff", "trace_tol", "seed", "out"}),
        (["map-ng", "id", "--cutoff", "8"], {"spec", "cutoff", "bound", "seed", "out"}),
        (
            ["sweep", "id", "--cutoff", "8", "--grid", "0.1,0.2,0.3,0.4"],
            {"spec", "cutoff", "grid", "format", "seed", "out"},
        ),
        (["verify", "relent"], {"suite", "seed", "out"}),
    ],
    ids=["state-ng", "map-ng", "sweep", "verify"],
)
def test_a_report_echoes_exactly_the_options_its_command_takes(argv, keys, capsys):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert set(load_report(out)["config"]) == keys


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lemma1", "--cutoff", "30"],
        ["verify", "relent", "--format", "json"],
        ["map-ng", "pns", "--format", "json"],
        ["state-ng", "vacuum", "--format", "json"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_an_option_its_command_does_not_read_is_a_usage_error(argv, capsys, monkeypatch):
    # once accepted and echoed, though nothing read it
    def run(*args, **kwargs):
        raise AssertionError("ran a command with an option it does not take")

    suites = dict.fromkeys(nongauss.cli.verify.SUITES, run)
    monkeypatch.setattr(nongauss.cli.verify, "SUITES", suites)
    monkeypatch.setattr(nongauss.cli, "parse_map_spec", run)
    monkeypatch.setattr(nongauss.cli, "parse_state_spec", run)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {' '.join(argv[2:])}" in err


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_state_ng_refuses_a_trace_tol_that_is_not_a_nonnegative_number(tol, capsys):
    # a NaN tolerance once admitted a cutoff-40 coherent:10 that had lost all
    # but 3e-12 of its weight, and printed it as NaN, which is not JSON
    code, out, err = run_cli(["state-ng", "coherent:10", "--trace-tol", tol], capsys)
    assert code == 2
    assert out == ""
    assert "--trace-tol" in err


def test_out_to_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(["state-ng", "vacuum", "--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    assert not path.exists()


def test_map_ng_pns_analytic(capsys):
    code, out, _ = run_cli(["map-ng", "pns"], capsys)
    assert code == 0
    results = load_report(out)["results"]
    assert results["method"] == "delta_tilde"
    assert results["backend"] == "analytic"
    assert abs(results["value"]["value"] - 2.0) <= 1e-2
    peak = results["argmax"]
    assert abs(complex(peak["alpha_re"], peak["alpha_im"])) <= 0.05
    # δ̃ is flat on α = 0: the other coordinates are not determined
    assert peak["theta"] is None and peak["r"] is None and peak["n_s"] is None
    assert results["alpha_zero_spread"]["value"] <= 1e-3
    assert results["evaluations"] > 50
    assert results["excluded"] == 0


def test_map_ng_kerr_reports_full_analytic_argmax(capsys):
    code, out, _ = run_cli(["map-ng", "kerr:0.5"], capsys)
    assert code == 0
    results = load_report(out)["results"]
    assert results["backend"] == "analytic"
    # only pns/pna are flat on α = 0; the Kerr maximum is a point
    for key in ("alpha_re", "alpha_im", "theta", "r", "n_s"):
        assert isinstance(results["argmax"][key], float), key
    assert results["evaluations"] == 744
    assert results["excluded"] == 0
    assert results["value"]["tolerance"] == nongauss.monotone.SIMPLEX_FATOL
    assert "alpha_zero_spread" not in results


@pytest.mark.parametrize(
    "diagnostics, nulled",
    [
        ({"backend": "analytic", "alpha_zero_spread": 0.0}, {"theta", "r", "n_s"}),
        ({"backend": "analytic"}, set()),
        ({"backend": "phase-space"}, {"alpha_re", "alpha_im", "theta", "r", "n_s"}),
    ],
    ids=["alpha-zero-spread", "analytic", "phase-space"],
)
def test_argmax_fields_read_the_result(diagnostics, nulled):
    # which coordinates are reported follows the result, not the map's name
    p = nongauss.monotone.InputParams(0.5 + 0.25j, 0.1, 0.2, 1.0)
    res = nongauss.monotone.MonotoneResult(
        "delta_tilde", 1.0, p, 1, ((p, 1.0),), diagnostics
    )
    fields = nongauss.cli._argmax_fields(res, 1e-4)
    assert {key for key, value in fields.items() if value is None} == nulled
    assert fields["tolerance"] == 1e-4


def test_sweep_kerr_is_diverging_on_the_closed_form(capsys):
    code, out, _ = run_cli(["sweep", "kerr:0.5", "--grid=1,4,16,64"], capsys)
    assert code == 0
    results = load_report(out)["results"]
    assert results["backend"] == "analytic"
    assert results["classification"] == "diverging"
    values = [point["delta"]["value"] for point in results["points"]]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "argv, backend",
    [
        (["map-ng", "id"], "phase-space"),
        (["map-ng", "loss:0.7"], "phase-space"),
        (["map-ng", "kerr:0.5"], "analytic"),
        (["map-ng", "bps"], "fock"),
        (["sweep", "id"], "phase-space"),
        (["sweep", "kerr:0.5"], "analytic"),
    ],
    ids=lambda x: "-".join(x) if isinstance(x, list) else x,
)
def test_values_carry_the_tolerance_of_their_backend(argv, backend, capsys):
    # exact in phase space, the simplex's on a closed form, the input
    # certificate's on the Fock route
    want = {
        "phase-space": 0.0,
        "analytic": nongauss.monotone.SIMPLEX_FATOL,
        "fock": nongauss.monotone.FOCK_MOMENT_TOL,
    }[backend]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    results = load_report(out)["results"]
    assert results["backend"] == backend
    values = [p["delta"] for p in results["points"]] if "points" in results else [
        results["value"]
    ]
    assert [v["tolerance"] for v in values] == [want] * len(values)


def test_map_ng_loss_routes_to_lower_bound(capsys):
    code, out, _ = run_cli(["map-ng", "loss:0.7"], capsys)
    assert code == 0
    results = load_report(out)["results"]
    assert results["method"] == "d_g_lower_bound"
    # loss keeps Gaussian inputs Gaussian, so only truncation noise remains
    assert results["value"]["value"] <= 0.05
    label, index = results["argmax_input"]
    assert isinstance(label, str) and index >= 0
    assert 0 <= results["excluded"] < results["evaluations"]


def test_map_ng_gd_bound(capsys):
    code, out, _ = run_cli(["map-ng", "gd:bs0.5,env=fock:1", "--bound"], capsys)
    assert code == 0
    results = load_report(out)["results"]
    assert results["method"] == "gd_upper_bound"
    assert abs(results["upper_bound"]["value"] - 2.0) <= 1e-3
    assert results["sampled_max"]["value"] <= results["upper_bound"]["value"] + 1e-3


def test_map_ng_gd_bound_counts_its_samples(capsys):
    code, out, _ = run_cli(["map-ng", "gd:bs0.5,env=fock:1", "--bound"], capsys)
    assert code == 0
    results = load_report(out)["results"]
    assert results["checked"] == 4
    assert results["excluded"] == 1


def test_sweep_json(capsys):
    code, out, _ = run_cli(["sweep", "pns", "--grid", "1,2,3,4"], capsys)
    assert code == 0
    results = load_report(out)["results"]
    assert results["classification"] == "finite"
    assert len(results["points"]) == 4
    for point in results["points"]:
        assert abs(point["delta"]["value"] - 2.0) <= 0.05
    assert abs(results["slope_fit"]["value"]) <= 0.05


def test_sweep_csv(capsys):
    code, out, _ = run_cli(["sweep", "bps", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "energy,delta,slope_fit,classification"
    assert len(lines) == 5
    for line in lines[1:]:
        energy, delta, slope, label = line.split(",")
        assert float(energy) > 0
        assert float(delta) > 0
        assert float(slope) >= 0.5
        assert label == "diverging"


def test_report_deterministic_modulo_timing(capsys):
    reports = []
    for _ in range(2):
        code, out, _ = run_cli(["map-ng", "pns"], capsys)
        assert code == 0
        reports.append(json.loads(out))
    first, second = reports
    first.pop("timing")
    second.pop("timing")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_out_file_ends_with_newline(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _, _ = run_cli(["state-ng", "fock:1", "--out", str(path)], capsys)
    assert code == 0
    assert path.read_text().endswith("\n")


def test_usage_cutoff_too_small(capsys):
    code, _, err = run_cli(["state-ng", "fock:1", "--cutoff", "4"], capsys)
    assert code == 2
    assert "cutoff" in err


def test_usage_csv_outside_sweep(capsys):
    code, _, _ = run_cli(["state-ng", "fock:1", "--format", "csv"], capsys)
    assert code == 2


def test_usage_unknown_state(capsys):
    code, _, _ = run_cli(["state-ng", "wiggle:3"], capsys)
    assert code == 2


def test_usage_unknown_map(capsys):
    code, _, _ = run_cli(["map-ng", "warp"], capsys)
    assert code == 2


def test_usage_unsupported_map_monotone(capsys):
    # the two-mode projective map is a library constructor, not a map spec
    code, _, err = run_cli(["map-ng", "talpha:0.5"], capsys)
    assert code == 2
    assert "unknown map spec" in err


@pytest.mark.parametrize("command", ["map-ng", "sweep"])
def test_two_mode_map_spec_is_refused_before_it_is_built(command, capsys, monkeypatch):
    def build(alpha, cutoff):
        raise AssertionError(f"talpha:{alpha} was built")

    monkeypatch.setattr(nongauss.maps, "coherent_projector", build)
    code, _, err = run_cli([command, "talpha:0.5"], capsys)
    assert code == 2
    assert "unknown map spec 'talpha:0.5'" in err


def test_map_ng_refuses_a_gd_transmissivity_of_zero(capsys):
    # gd:bs0,env=vacuum, the channel loss:0 refuses, once built and read 0
    for spec in ("loss:0", "gd:bs0,env=vacuum"):
        code, out, err = run_cli(["map-ng", spec], capsys)
        assert code == 2
        assert out == ""
        assert spec in err and "transmissivity must lie in (0, 1]" in err


@pytest.mark.parametrize("grid", ["4,2,1,8", "1,2,4,nan", "1,2,4,inf", "-1,1,2,4"])
def test_sweep_refuses_a_bad_grid_before_searching(grid, capsys, monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("searched a refused grid")

    monkeypatch.setattr(nongauss.monotone, "delta_tilde", search)
    monkeypatch.setattr(nongauss.monotone, "_delta_tilde_search", search)
    code, _, err = run_cli(["sweep", "pns", f"--grid={grid}"], capsys)
    assert code == 2
    assert "grid" in err


def test_sweep_refuses_a_grid_with_an_empty_field_by_name(capsys, monkeypatch):
    monkeypatch.setattr(nongauss.cli, "divergence_profile", None)
    code, out, err = run_cli(["sweep", "pns", "--grid=1,,2,4,8"], capsys)
    assert code == 2
    assert out == ""
    assert "--grid" in err and "'1,,2,4,8'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["state-ng", "vacuum"],
        ["map-ng", "id"],
        ["map-ng", "pns"],
        ["map-ng", "bps"],
        ["sweep", "id"],
        ["verify", "counterexamples"],
        ["verify", "state-props"],
    ],
    ids=lambda argv: "-".join(argv),
)
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_every_command_refuses_a_bad_seed_by_name_before_any_work(argv, seed, capsys, monkeypatch):
    for name in ("cmd_state_ng", "cmd_map_ng", "cmd_sweep", "cmd_verify"):
        monkeypatch.setattr(nongauss.cli, name, None)
    code, out, err = run_cli([*argv, "--seed", seed], capsys)
    assert code == 2
    assert out == ""
    assert "--seed" in err


@pytest.mark.parametrize("gamma", ["nan", "inf"])
def test_map_ng_refuses_a_kerr_gamma_that_is_not_finite(gamma, capsys, monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("searched a non-finite Kerr map")

    monkeypatch.setattr(nongauss.cli, "delta_tilde", search)
    code, out, err = run_cli(["map-ng", f"kerr:{gamma}"], capsys)
    assert code == 2
    assert out == ""
    assert "Kerr γ must be finite" in err


def test_an_amplitude_with_a_third_field_is_a_usage_error(capsys):
    code, out, err = run_cli(["state-ng", "coherent:1,2,3"], capsys)
    assert code == 2
    assert out == ""
    assert "re[,im]" in err


def test_an_allocation_failure_is_a_numerical_failure(capsys, monkeypatch):
    def search(*args, **kwargs):
        raise MemoryError("Unable to allocate 5.96 GiB for an array with shape (20000, 20000)")

    monkeypatch.setattr(nongauss.cli, "delta_tilde", search)
    code, out, err = run_cli(["map-ng", "pns"], capsys)
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "error: out of memory: Unable to allocate 5.96 GiB for an array with shape (20000, 20000)"
    ]


def test_usage_bound_without_environment(capsys):
    code, _, err = run_cli(["map-ng", "pns", "--bound"], capsys)
    assert code == 2
    assert "pns carries no environment state" in err and "Gaussian-dilatable" in err


def test_usage_unknown_suite(capsys):
    code, _, _ = run_cli(["verify", "bogus"], capsys)
    assert code == 2


def test_usage_missing_command(capsys):
    code, _, _ = run_cli([], capsys)
    assert code == 2


def test_version_exits_clean(capsys):
    assert run_cli(["--version"], capsys)[0] == 0


def test_numeric_error_exit(capsys):
    # thermal:6 keeps 21% of its weight above cutoff 10
    code, _, err = run_cli(["state-ng", "thermal:6", "--cutoff", "10"], capsys)
    assert code == 3
    assert "cutoff" in err


@pytest.mark.parametrize("suite", ["lemma1", "relent"])
def test_verify_green_suites(suite, capsys):
    code, out, _ = run_cli(["verify", suite], capsys)
    assert code == 0
    results = load_report(out)["results"]
    assert results["failed"] == 0
    assert all(check["pass"] for check in results["assertions"])


def test_verify_counterexamples_all_green_exit_zero(capsys):
    # both projection orderings agree with their references (the
    # gaussify-then-project one comes from Gaussian conditioning), so the
    # suite reports no red assertion and exits 0
    code, out, _ = run_cli(["verify", "counterexamples"], capsys)
    assert code == 0
    results = load_report(out)["results"]
    assert results["failed"] == 0
    assert all(check["pass"] for check in results["assertions"])


@pytest.mark.parametrize("spec", ["id", "loss:0.7"])
def test_sweep_of_a_gaussian_channel_is_finite(spec, capsys):
    code, out, _ = run_cli(["sweep", spec], capsys)
    assert code == 0
    results = load_report(out)["results"]
    assert results["classification"] == "finite"
    assert len(results["points"]) == 4
    for point in results["points"]:
        assert point["delta"]["value"] <= point["delta"]["tolerance"]


def test_map_ng_identity_reads_zero_in_phase_space(capsys):
    code, out, _ = run_cli(["map-ng", "id"], capsys)
    assert code == 0
    results = load_report(out)["results"]
    assert results["method"] == "delta_tilde"
    assert results["backend"] == "phase-space"
    assert results["value"]["value"] == 0.0
    assert (results["evaluations"], results["excluded"]) == (1, 0)
    # δ̃ of a Gaussian unitary is 0 at every member: no argmax coordinate
    assert {k for k, v in results["argmax"].items() if v is not None} == {"tolerance"}


# gd:bs1 is the identity channel, so even a Fock-state environment leaves it Gaussian
@pytest.mark.parametrize("spec", ["loss:0.7", "gd:bs0.5,env=vacuum", "gd:bs1,env=fock:1"])
def test_map_ng_gaussian_channel_reads_zero_within_its_bound(spec, capsys):
    code, out, _ = run_cli(["map-ng", spec], capsys)
    assert code == 0
    results = load_report(out)["results"]
    assert results["backend"] == "phase-space"
    assert results["value"]["value"] == 0.0
    code, out, _ = run_cli(["map-ng", spec, "--bound"], capsys)
    assert code == 0
    assert load_report(out)["results"]["upper_bound"]["value"] == 0.0


def test_a_pure_density_reports_no_negative_zero(capsys):
    code, out, _ = run_cli(["state-ng", "thermal:0"], capsys)
    assert code == 0
    assert "-0.0" not in out
    assert load_report(out)["results"]["entropy"]["value"] == 0.0


@pytest.mark.parametrize(
    "command, cutoff",
    [
        ("map-ng pns", 40),
        ("map-ng pna", 40),
        ("map-ng kerr:0.5", 32),
        ("map-ng id", 32),
        ("map-ng bps", 60),
        ("map-ng loss:0.7", 30),
        ("map-ng gd:bs0.5,env=vacuum", 25),
        ("sweep id", 60),
        ("state-ng vacuum", 40),
    ],
)
def test_each_command_echoes_the_default_cutoff_it_ran_at(command, cutoff, capsys):
    # map-ng runs each map at its constructor's default, as the library does
    name, spec = command.split()
    code, out, _ = run_cli([name, spec], capsys)
    assert code == 0
    assert load_report(out)["config"]["cutoff"] == cutoff
    if name == "map-ng":
        assert parse_map_spec(spec).cutoff == cutoff


@pytest.mark.parametrize(
    "command",
    [
        "map-ng pns:3",
        "map-ng id:7",
        "map-ng bps:x",
        "sweep id:7",
        "state-ng vacuum:3",
        "map-ng gd:bs0.5,bs0.7,env=vacuum",
        "map-ng gd:bs0.5,env=vacuum,env=fock:1",
    ],
)
def test_a_spec_field_its_name_does_not_take_is_a_usage_error(command, capsys):
    # once silently ignored, or the last of a repeated gd field kept
    name, spec = command.split()
    code, out, err = run_cli([name, spec], capsys)
    assert code == 2
    assert out == ""
    assert spec in err


def test_a_coherent_state_past_the_underflow_of_its_vacuum_term_runs(capsys):
    code, out, _ = run_cli(["state-ng", "coherent:39", "--cutoff", "4096"], capsys)
    assert code == 0
    results = load_report(out)["results"]
    assert abs(results["delta_g"]["deficit"]) <= 1e-10
    assert results["delta_g"]["value"] == pytest.approx(0.0, abs=1e-9)


def test_state_ng_echoes_the_cutoff_and_tolerance_its_state_was_built_at(capsys):
    code, out, _ = run_cli(["state-ng", "vacuum"], capsys)
    assert code == 0
    config = load_report(out)["config"]
    default = build_state("vacuum")
    assert (config["cutoff"], config["trace_tol"]) == (default.cutoff, default.trace_tol) == (40, 1e-8)


def test_a_truncation_refusal_names_the_cutoff_to_retry_at(capsys):
    # coherent:3.1 loses 1.1e-7 of its weight at cutoff 30 and holds at 60
    argv = ["state-ng", "coherent:3.1", "--cutoff", "30"]
    code, out, err = run_cli(argv, capsys)
    assert code == 3
    assert out == ""
    assert err == "error: coherent state loses 1.104e-07 of its weight at cutoff 30; try --cutoff 60\n"
    assert run_cli(argv + ["--trace-tol", "1e-6"], capsys)[0] == 0


@pytest.mark.parametrize(
    "command",
    [
        "state-ng coherent:inf",
        "state-ng cat:inf",
        "state-ng cat:nan",
        "state-ng thermal:nan",
        "state-ng tmsv:inf",
        "map-ng gd:bs0.5,env=coherent:inf",
    ],
)
def test_a_state_parameter_that_is_not_finite_is_a_usage_error(command, capsys):
    # refused by name before any arithmetic; a RuntimeWarning is an error here
    name, spec = command.split()
    code, out, err = run_cli([name, spec], capsys)
    assert code == 2
    assert out == ""
    assert "must be finite" in err


@pytest.mark.parametrize("spec", ["loss:0.7", "gd:bs0.5,env=fock:1"])
def test_a_channel_too_large_to_lift_is_refused_when_its_spec_is_built(spec, capsys):
    # cutoff 100 puts the beamsplitter lift at 100² > fock._MAX_DENSE_DIM
    # dimensions, refused before anything is allocated
    code, out, err = run_cli(["map-ng", spec, "--cutoff", "100"], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: bad map spec {spec!r}: dimension 10000 too large for a dense unitary\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["map-ng", "loss:0.7"],
        ["sweep", "loss:0.7"],
        ["map-ng", "gd:bs0.5,env=vacuum"],
        ["map-ng", "gd:bs0.5,env=coherent:0.5"],
        ["map-ng", "pns"],
        ["map-ng", "kerr:0.5"],
    ],
)
def test_a_phase_space_or_closed_form_route_never_builds_the_kraus_family(argv, capsys, monkeypatch):
    def unread(body):
        raise AssertionError("the Kraus family was built")

    monkeypatch.setattr(nongauss.fock.ConditionalMap, "kraus", property(unread))
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err


def test_importing_the_cli_loads_no_scipy_module():
    probe = "import sys, nongauss.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert done.stdout.strip() == "[]"
