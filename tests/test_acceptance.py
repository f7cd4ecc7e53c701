"""Release acceptance, one test per criterion.

Criterion 4 runs the Fock route at cutoff 50 and, for a draw the route's
truncation certificate refuses there, once more at the cutoff the refusal
suggests.  The gaussify-then-project value of criterion 6 is the Schur
complement of the gaussified pair on the coherent outcome,
2a^3/(1+2a^2), checked by Gaussian conditioning and by the Fock route.
"""

import json
import time

import numpy as np

from nongauss.cli import main
from nongauss.errors import TruncationError
from nongauss.fock import (
    apply_map,
    build_state,
    delta_g,
    gaussian_to_fock,
    gaussify,
    moments,
)
from nongauss.gaussian import condition_on_projection, thermal_entropy
from nongauss.maps import coherent_projector, parse_map_spec, pna, pns
from nongauss.monotone import (
    InputParams,
    alpha_zero_spread,
    analytic_output_covariance,
    d_g_bound,
    delta_tilde,
    environment_bound,
    input_family,
)
from nongauss.verify import correlated_coherent_mixture, projection_counterexample


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_c01_single_photon_delta_g():
    start = time.perf_counter()
    value = delta_g(build_state("fock", 1, 30))
    elapsed = time.perf_counter() - start
    assert abs(value - 2.0) <= 1e-3
    assert elapsed < 1.0


def check_map_monotone(name, capsys):
    start = time.perf_counter()
    code, out = run_cli(["map-ng", name], capsys)
    assert code == 0
    results = json.loads(out)["results"]
    assert abs(results["value"]["value"] - 2.0) <= 1e-2
    peak = results["argmax"]
    assert abs(complex(peak["alpha_re"], peak["alpha_im"])) <= 0.05
    # flatness of the objective along 10 random (r, theta, n_s) rays at alpha=0
    assert alpha_zero_spread(name, seed=0, count=10) <= 1e-3
    assert time.perf_counter() - start < 60.0


def test_c02_photon_subtraction_monotone(capsys):
    check_map_monotone("pns", capsys)


def test_c03_photon_addition_monotone(capsys):
    check_map_monotone("pna", capsys)


def fock_subtracted_covariance(p, cutoff, moment_tol):
    ket = input_family(p, backend="fock", cutoff=cutoff, moment_tol=moment_tol)
    out, _ = apply_map(ket, pns(cutoff).body, targets=[1])
    return gaussify(out).cov


def test_c04_analytic_vs_fock_covariance_oracle():
    # The Fock route certifies its ket for the oracle's own tolerance.  A
    # draw the starting cutoff cannot hold is refused with a larger cutoff
    # taken from that certificate, and is rerun there.
    d, tol = 50, 1e-4
    rng = np.random.default_rng(0)
    devs = []
    for _ in range(20):
        rad = 1.5 * np.sqrt(rng.random())
        ang = rng.uniform(0.0, 2.0 * np.pi)
        p = InputParams(
            alpha=rad * np.exp(1j * ang),
            theta=rng.uniform(0.0, 2.0 * np.pi),
            r=rng.uniform(0.0, 0.8),
            n_s=rng.uniform(0.0, 2.0),
        )
        exact = analytic_output_covariance(p, "pns")
        try:
            cov = fock_subtracted_covariance(p, d, tol)
        except TruncationError as exc:
            assert exc.suggested_cutoff is not None and exc.suggested_cutoff > d
            cov = fock_subtracted_covariance(p, exc.suggested_cutoff, tol)
        devs.append(np.abs(cov - exact.cov).max())
    assert max(devs) <= tol, (
        f"{sum(dev > tol for dev in devs)}/20 draws exceed {tol:g}, "
        f"worst {max(devs):.3e}"
    )


def test_c05_gaussification_commutes_with_loss(capsys):
    code, out = run_cli(["verify", "lemma1"], capsys)
    assert code == 0
    checks = json.loads(out)["results"]["assertions"]
    assert checks[0]["pass"] and checks[0]["measured"] <= 1e-4


def test_c06_projection_gaussification_order():
    d = 40
    for alpha in (0.5, 1.0):
        sigma = correlated_coherent_mixture(alpha, d)
        projector = coherent_projector(alpha, d)

        projected, _ = apply_map(sigma, projector.body)
        got = complex(moments(projected).first[0])
        want = alpha * (1.0 - np.exp(-4.0 * alpha**2))
        want /= 1.0 + np.exp(-4.0 * alpha**2)
        assert abs(got - want) <= 1e-3

        # gaussify(sigma) has q-block [[1+4a^2, 4a^2], [4a^2, 1+4a^2]]; the
        # Schur complement on the coherent outcome (2a, 0) of mode 1 gives
        # <q_1> = 4a^2/(2+4a^2) * 2a
        want = 2.0 * alpha**3 / (1.0 + 2.0 * alpha**2)
        gauss = gaussify(sigma)
        conditioned = condition_on_projection(gauss, [1], [2.0 * alpha, 0.0])
        assert abs(complex(*conditioned.mean) / 2.0 - want) <= 1e-9

        fitted = gaussian_to_fock(gauss, d, trace_tol=1e-4)
        swapped, _ = apply_map(fitted, projector.body)
        got = complex(moments(swapped).first[0])
        assert abs(got - want) <= 1e-3, (
            f"alpha={alpha}: got {got.real:.6f}, want {want:.6f}"
        )


def test_c07_projection_can_increase_nongaussianity():
    d, alpha = 30, 2.5
    rho, _ = projection_counterexample(0.01, alpha, 2, d)
    out, _ = apply_map(rho, coherent_projector(alpha, d).body)
    assert delta_g(out) > delta_g(rho) + 0.5


def test_c08_phase_dephasing_lower_bound():
    d = 60
    dephased = parse_map_spec("bps", d)
    excesses = []
    for alpha in (0.5, 1.0, 2.0, 3.0):
        out, _ = apply_map(build_state("coherent", alpha, d), dephased.body)
        floor = thermal_entropy((np.sqrt(4.0 * alpha**2 + 1.0) - 1.0) / 2.0) - 1.0
        excesses.append(delta_g(out) - floor)
    for excess in excesses:
        # the bound saturates at the top of the range; allow machine noise
        assert -1e-12 <= excess <= 1.0
    assert all(b < a for a, b in zip(excesses, excesses[1:]))


def test_c09_divergence_classification(capsys):
    start = time.perf_counter()
    for spec, label in (
        ("pns", "finite"),
        ("pna", "finite"),
        ("bps", "diverging"),
        ("kerr:0.5", "diverging"),
    ):
        code, out = run_cli(["sweep", spec], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["classification"] == label, spec
        if label == "finite":
            for point in results["points"]:
                assert abs(point["delta"]["value"] - 2.0) <= 0.05
        else:
            assert results["slope_fit"]["value"] >= 0.5
    assert time.perf_counter() - start < 600.0


def test_c10_dilated_channel_environment_bound():
    desc = parse_map_spec("gd:bs0.5,env=fock:1", 25)
    res = environment_bound(desc, seed=0)
    assert abs(res.bound - 2.0) <= 1e-9
    assert res.sampled_max <= 2.0 + 1e-3


def test_c11_lower_bound_below_supremum():
    for make, name in ((pns, "pns"), (pna, "pna")):
        sup = delta_tilde(make(), seed=0)
        low = d_g_bound(make(60), seed=0)
        assert low.value <= sup.value + 1e-3, name


def test_c12_property_suites(capsys):
    for suite in ("state-props", "relent", "monotone-props"):
        code, out = run_cli(["verify", suite], capsys)
        assert code == 0, suite
        assert json.loads(out)["results"]["failed"] == 0, suite
