"""Restricted non-Gaussianity monotones for conditional maps.

delta_tilde maximizes the joint-output non-Gaussianity over the four
parameter entangled input family D_α R_θ S_r |ζ⟩; d_g_bound evaluates the
unentangled lower bound on Gaussian inputs.  Photon subtraction and
addition get an exact closed-form Gaussian-moment (Isserlis) backend: the
output moments are ordered ladder words whose expectations on the Gaussian
input follow from its means and pair contractions alone.  Everything else
runs on the truncated Fock backend.

Objective evaluations at distinct parameter points are independent; the
search aggregates them in a fixed order, so results are deterministic for
a given seed.
"""

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .errors import TruncationError, UnsupportedMapError, ZeroProbabilityError
from .fock import (
    DEFAULT_CUTOFF,
    EDGE_COST,
    FockArray,
    MomentRecord,
    apply_map,
    build_unitary,
    certify_edge,
    covariance_from_moments,
    delta_g,
    gaussian_cutoff,
    gaussian_to_fock,
    tmsv_schmidt,
)
from .gaussian import (
    GaussianState,
    apply_symplectic,
    gaussian_entropy,
    gaussian_unitary,
    thermal_entropy,
    thermal_state,
    tmsv_state,
)
from .maps import normalization_pna, normalization_pns

DEFAULT_NS_GRID = (0.5, 1.0, 2.0, 4.0)
DEFAULT_ENERGY_GRID = (1.0, 2.0, 4.0, 8.0)
SLOPE_MIN = 0.5
PLATEAU_TOL = 0.05

# deterministic multi-start lattice for the δ̃ search
_LATTICE_ALPHA = (0.0, 0.5, 1.0, 1.5)
_LATTICE_THETA = (0.0, np.pi / 4.0, np.pi / 2.0)
_LATTICE_R = (0.0, 0.3, 0.6)
_LATTICE_NS = (0.1, 0.5, 1.0, 2.0)

# |α|, |θ|, |r|, N_S caps during simplex refinement (truncation budget)
_CAP_ALPHA = 3.0
_CAP_THETA = np.pi
_CAP_R = 1.5
_CAP_NS = 4.0


@dataclass(frozen=True)
class InputParams:
    """Parameters of the input family (I ⊗ D_α R_θ S_r)|ζ⟩."""

    alpha: complex
    theta: float
    r: float
    n_s: float

    def __post_init__(self):
        if self.n_s < 0.0:
            raise ValueError("n_s must be nonnegative")
        vals = np.array([self.alpha, self.theta, self.r, self.n_s], dtype=complex)
        if not np.all(np.isfinite(vals)):
            raise ValueError("parameters must be finite")


@dataclass(frozen=True)
class MonotoneResult:
    """Outcome of a monotone evaluation.

    quantity marks which bound this is ('delta_tilde' or 'd_g_lower_bound');
    value is a certified lower bound on the true supremum, never below any
    entry of its own evaluation trace.
    """

    quantity: str
    value: float
    argmax: object
    evaluations: int
    trace: tuple
    diagnostics: dict

    def __post_init__(self):
        finite = [v for _, v in self.trace if np.isfinite(v)]
        if finite and self.value < max(finite) - 1e-12:
            raise ValueError("result value below its own evaluation trace")


@dataclass(frozen=True)
class DivergenceProfile:
    """δ values along an energy grid plus the fitted growth rate.

    The profile is a diagnostic of the constrained bound, not a monotone;
    slope is fitted against log₂(energy) over the top half of the grid.
    """

    grid: tuple
    deltas: tuple
    slope: float
    classification: str
    quantity: str

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.size < 4:
            raise ValueError("grid needs at least 4 points")
        if np.any(np.diff(g) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if min(self.deltas) < -1e-6:
            raise ValueError("negative delta in profile")


def input_family(
    p,
    backend="gaussian",
    cutoff=DEFAULT_CUTOFF,
    trace_tol=1e-3,
    moment_tol=1e-2,
    edge_tol=None,
):
    """Two-mode pure state (I ⊗ D_α R_θ S_r)|ζ⟩ with TMSV occupation n_s.

    The displacement, rotation and squeeze act on the second mode (the one
    the map will consume).  backend 'gaussian' returns the exact
    GaussianState; 'fock' a truncated ket carrying its build deficit.  The
    TMSV is Σ_i c_i |i, i⟩, so with the in-box U = D_α R_θ S_r of
    fock.build_unitary the ket is ψ[i, j] = c_i U[j, i], one product.  It is
    certified by fock.certify_edge at edge_tol, by default
    moment_tol/(EDGE_COST·cutoff²): the truncation error of its second
    moments, and of those of its image under one ladder operator, is
    estimated to be within moment_tol.  The default moment_tol is the
    tolerance the Fock route reports.

    :raises TruncationError: (fock) the cutoff cannot hold the state; the
        error carries the edge weight and, unless edge_tol was given, a
        cutoff at which the same moment certificate is expected to hold
        (fock.gaussian_cutoff).
    """
    ops = (("squeeze", p.r), ("rotation", p.theta), ("displacement", p.alpha))
    if backend == "gaussian":
        state = tmsv_state(p.n_s)
        for kind, par in ops:
            state = apply_symplectic(
                state, gaussian_unitary(kind, par, n_modes=2, targets=[1])
            )
        return state
    if backend == "fock":
        c, _ = tmsv_schmidt(p.n_s, cutoff, trace_tol)
        u = build_unitary("displacement", p.alpha, cutoff) @ (
            build_unitary("rotation", p.theta, cutoff).diagonal()[:, None]
            * build_unitary("squeeze", p.r, cutoff)
        )
        ket = FockArray(2, cutoff, "ket", (u * c).T, trace_tol=trace_tol)
        if edge_tol is not None:
            return certify_edge(ket, edge_tol)
        try:
            return certify_edge(ket, moment_tol / (EDGE_COST * cutoff**2))
        except TruncationError as exc:
            exc.suggested_cutoff = gaussian_cutoff(
                input_family(p), moment_tol, above=cutoff
            )
            raise
    raise ValueError(f"unknown backend {backend!r}")


# The search admits edge weight up to 1e-6 on its input and its output at
# every cutoff.  The kerr and id searches at cutoff 32 are pinned to this
# exact value: hundreds of their points lie within 1% of it.
_EDGE_TOL = 1e-6

# finite stand-in for excluded points so the simplex comparisons stay quiet
_PENALTY = -1e9

# The search compares values rounded to this many decimals (bits).  Its
# lattice and simplices meet exact ties: at r = 0 the rotation on the
# consumed mode equals one on the kept mode, so every θ gives one value.
# Rounding noise in the last bits must not decide between tied points.
_RANK_DECIMALS = 9


def _ladder_moments(p):
    """Ladder means and ordered fluctuations of the input family.

    Over ξ = (a, a†, b, b†), with b the consumed mode: μ = (0, 0, α, ᾱ)
    and G_ij = ⟨δξ_i δξ_j⟩ = L G_ζ Lᵀ, where G_ζ holds the TMSV's ordered
    pair contractions (⟨a a†⟩ = n_s + 1, ⟨a† a⟩ = n_s, ⟨a b⟩ = ⟨a† b†⟩ =
    √(n_s(n_s+1))) and L is the Bogoliubov map of D_α R_θ S_r, under which
    b ↦ c1 b + c2 b† + α.
    """
    n_s = float(p.n_s)
    c_p = np.sqrt(n_s * (n_s + 1.0))
    g_tmsv = np.array(
        [
            [0.0, n_s + 1.0, c_p, 0.0],
            [n_s, 0.0, 0.0, c_p],
            [c_p, 0.0, 0.0, n_s + 1.0],
            [0.0, c_p, n_s, 0.0],
        ]
    )
    phase = np.exp(-1j * p.theta)
    c1, c2 = phase * np.cosh(p.r), -phase * np.sinh(p.r)
    bogoliubov = np.eye(4, dtype=complex)
    bogoliubov[2:, 2:] = [[c1, c2], [np.conj(c2), np.conj(c1)]]
    alpha = complex(p.alpha)
    mu = np.array([0.0, 0.0, alpha, np.conj(alpha)])
    return mu, bogoliubov @ g_tmsv @ bogoliubov.T


def _ordered_moments(mu, g, words):
    """Ordered four-symbol moments of a Gaussian state, one per word.

    mu and g are ladder means and ordered fluctuations as _ladder_moments
    returns them; words is an integer array of shape (k, 4) indexing them,
    where index len(mu) is the unit (mean 1, no fluctuation) that pads a
    shorter word.  By the Isserlis (Wick) theorem, with raw second moments
    S = g + μμᵀ, ⟨ξ₁ξ₂ξ₃ξ₄⟩ = S₁₂S₃₄ + S₁₃S₂₄ + S₁₄S₂₃ − 2μ₁μ₂μ₃μ₄.
    """
    n = len(mu)
    mu = np.append(mu, 1.0)
    s = np.zeros((n + 1, n + 1), dtype=complex)
    s[:n, :n] = g
    s += np.outer(mu, mu)
    w1, w2, w3, w4 = np.asarray(words).T
    return (
        s[w1, w2] * s[w3, w4]
        + s[w1, w3] * s[w2, w4]
        + s[w1, w4] * s[w2, w3]
        - 2.0 * mu[w1] * mu[w2] * mu[w3] * mu[w4]
    )


# symbols of _ladder_moments, then the unit
_A, _ADAG, _B, _BDAG, _ONE = range(5)
# X of the nine output moments ⟨X⟩: ⟨a⟩, ⟨b⟩, ⟨ab⟩, ⟨a²⟩, ⟨b²⟩, ⟨a†a⟩,
# ⟨a†b⟩, ⟨b†a⟩, ⟨b†b⟩
_X_WORDS = (
    (_A, _ONE), (_B, _ONE), (_A, _B), (_A, _A), (_B, _B),
    (_ADAG, _A), (_ADAG, _B), (_BDAG, _A), (_BDAG, _B),
)
# the words K† X K, with K = b for subtraction and b† for addition
_WORDS = {
    "pns": np.array([(_BDAG, *x, _B) for x in _X_WORDS]),
    "pna": np.array([(_B, *x, _BDAG) for x in _X_WORDS]),
}


def analytic_output_covariance(p, which):
    """Exact joint mean and covariance of the PNS/PNA output state.

    Each of the nine output moments ⟨X⟩ = ⟨K†XK⟩/⟨K†K⟩ (K = b for
    subtraction, b† for addition) is an ordered word over the input's
    ladder operators, evaluated in closed form from _ladder_moments by
    _ordered_moments; the covariance then follows from the moment table.
    """
    if which not in ("pns", "pna"):
        raise UnsupportedMapError(f"no analytic backend for {which!r}")
    if which == "pns":
        norm = normalization_pns(abs(p.alpha), p.r, p.n_s)
    else:
        norm = normalization_pna(abs(p.alpha), p.r, p.n_s)
    m = (norm * norm) * _ordered_moments(*_ladder_moments(p), _WORDS[which])
    aa = np.array([[m[3], m[2]], [m[2], m[4]]])
    return covariance_from_moments(MomentRecord(2, m[:2], aa, m[5:].reshape(2, 2)))


def _clamp(x, n_s_cap):
    return InputParams(
        complex(min(abs(float(x[0])), _CAP_ALPHA)),
        float(np.clip(x[1], -_CAP_THETA, _CAP_THETA)),
        float(np.clip(x[2], -_CAP_R, _CAP_R)),
        float(min(abs(float(x[3])), n_s_cap)),
    )


def alpha_zero_spread(which, seed=0, count=10):
    """Spread of the analytic objective along random rays at α = 0."""
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(count):
        p = InputParams(
            0.0,
            float(rng.uniform(0.0, np.pi)),
            float(rng.uniform(0.0, 0.8)),
            float(rng.uniform(0.1, 2.0)),
        )
        vals.append(gaussian_entropy(analytic_output_covariance(p, which)))
    return float(max(vals) - min(vals))


def delta_tilde(desc, seed=0, cutoff=None, max_n_s=_CAP_NS):
    """Maximize joint-output non-Gaussianity over the input family.

    The returned value is the running maximum over every evaluation
    (deterministic lattice, then simplex refinement from the three best
    starts plus two seeded jitters), hence a certified lower bound on the
    true supremum.  Probe points the cutoff cannot represent faithfully
    are excluded from the search rather than evaluated with inflated
    truncation error.  Raises UnsupportedMapError for anything that is
    not a conditional unitary map.
    """
    body = desc.body
    if not body.conditional_unitary:
        raise UnsupportedMapError(
            "delta_tilde needs a conditional unitary map; use d_g_bound or "
            "divergence_profile for channels"
        )
    if body.n_in != 1:
        raise UnsupportedMapError("the input family covers single-mode maps only")
    analytic = desc.name in ("pns", "pna")
    d = desc.cutoff if cutoff is None else cutoff
    deficits = [0.0]
    excluded = [0]
    trace = []

    def evaluate(x):
        p = _clamp(x, max_n_s)
        try:
            if analytic:
                val = gaussian_entropy(analytic_output_covariance(p, desc.name))
            else:
                ket = input_family(p, "fock", cutoff=d, edge_tol=_EDGE_TOL)
                deficits.append(ket.trace_deficit)
                out, _ = apply_map(ket, body, targets=[1], trace_tol=1e-2)
                val = delta_g(certify_edge(out, _EDGE_TOL))
        except ZeroProbabilityError:
            val = -np.inf
        except TruncationError:
            excluded[0] += 1
            val = -np.inf
        trace.append((p, val))
        return round(val, _RANK_DECIMALS) if np.isfinite(val) else _PENALTY

    lattice_ns = sorted({min(n, max_n_s) for n in _LATTICE_NS})
    for a in _LATTICE_ALPHA:
        for t in _LATTICE_THETA:
            for r in _LATTICE_R:
                for n in lattice_ns:
                    evaluate(np.array([a, t, r, n]))

    order = sorted(
        range(len(trace)), key=lambda i: (-round(trace[i][1], _RANK_DECIMALS), i)
    )
    starts = [trace[i][0] for i in order[:3]]
    rng = np.random.default_rng(seed)
    top = starts[0]
    for _ in range(2):
        jitter = rng.normal(scale=0.05, size=4)
        starts.append(
            _clamp(
                np.array([abs(top.alpha), top.theta, top.r, top.n_s]) + jitter,
                max_n_s,
            )
        )
    for p0 in starts:
        x0 = np.array([abs(p0.alpha), p0.theta, p0.r, p0.n_s])
        optimize.minimize(
            lambda x: -evaluate(x),
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-4, "fatol": 1e-7, "maxfev": 120},
        )
    values = np.array([v for _, v in trace])
    best = int(np.argmax(values))
    if not np.isfinite(values[best]):
        raise TruncationError(
            "every probe point spills over the cutoff; raise it",
            suggested_cutoff=2 * d,
        )
    diagnostics = {
        "backend": "analytic" if analytic else "fock",
        "max_deficit": float(max(deficits)),
        "excluded": excluded[0],
        "xatol": 1e-4,
    }
    if analytic:
        diagnostics["alpha_zero_spread"] = alpha_zero_spread(desc.name, seed=seed)
    return MonotoneResult(
        "delta_tilde",
        float(values[best]),
        trace[best][0],
        len(trace),
        tuple(trace),
        diagnostics,
    )


def _coherent_input(alpha):
    return GaussianState(1, np.array([2.0 * alpha, 0.0]), np.eye(2))


def _displaced_squeezed_input(energy):
    # at fixed mean photon number, anti-squeeze q and displace along p;
    # variance split u = 2E+1 maximizes the spread a dephasing map can
    # convert into Gaussian entropy
    u = 2.0 * energy + 1.0
    p_sq = max(4.0 * energy + 2.0 - u - 1.0 / u, 0.0)
    cov = np.diag([u, 1.0 / u])
    return GaussianState(1, np.array([0.0, np.sqrt(p_sq)]), cov)


def _squeezed_thermal_input(energy_cap, rng):
    n_th = float(rng.uniform(0.0, 0.4)) * energy_cap
    cosh_cap = (2.0 * energy_cap + 1.0) / (2.0 * n_th + 1.0)
    r = 0.5 * np.arccosh(float(rng.uniform(1.0, cosh_cap)))
    state = thermal_state(n_th)
    state = apply_symplectic(state, gaussian_unitary("squeeze", r, 1))
    theta = float(rng.uniform(0.0, np.pi))
    return apply_symplectic(state, gaussian_unitary("rotation", theta, 1))


def gaussian_mean_photons(state):
    """Mean photon number of a Gaussian state, (tr Λ + |x̄|²)/4 − n/2."""
    return float(
        (np.trace(state.cov) + state.mean @ state.mean) / 4.0 - state.n_modes / 2.0
    )


def _default_gaussian_inputs(energy, rng, count):
    inputs = []
    if energy is None:
        alphas = (0.5, 1.0, 1.5, 2.0)
        ds_energies = (1.0, 2.0)
        cap = 2.0
    else:
        alphas = tuple(np.sqrt(energy * f) for f in (0.25, 0.5, 1.0))
        ds_energies = (float(energy),)
        cap = float(energy)
    for a in alphas:
        inputs.append((("coherent", round(float(a), 6)), _coherent_input(a)))
    for e in ds_energies:
        inputs.append((("displaced_squeezed", e), _displaced_squeezed_input(e)))
    for i in range(count):
        inputs.append((("squeezed_thermal", i), _squeezed_thermal_input(cap, rng)))
    return inputs


def d_g_bound(desc, inputs=None, energy=None, seed=0, cutoff=None, count=4):
    """Lower bound on δ̃ from unentangled Gaussian inputs.

    With no explicit inputs, evaluates a coherent grid, a displaced
    squeezed state, and seeded squeezed-thermal samples, all within the
    energy budget when one is given.  inputs may be a list of
    GaussianState or (label, GaussianState) pairs.  Inputs the cutoff
    cannot hold are skipped, keeping the value a faithful lower bound.
    """
    body = desc.body
    if body.n_in != 1:
        raise UnsupportedMapError("d_g_bound expects a single-mode map")
    if inputs is None:
        rng = np.random.default_rng(seed)
        supplied = _default_gaussian_inputs(energy, rng, count)
    else:
        supplied = [
            g if isinstance(g, tuple) else (("input", i), g)
            for i, g in enumerate(inputs)
        ]
    if not supplied:
        raise ValueError("no Gaussian inputs supplied")
    d = desc.cutoff if cutoff is None else cutoff
    trace = []
    deficits = [0.0]
    excluded = 0
    for label, g in supplied:
        try:
            rho = gaussian_to_fock(g, d, trace_tol=1e-5)
            deficits.append(rho.trace_deficit)
            out, _ = apply_map(rho, body, trace_tol=1e-2)
            val = delta_g(out)
        except ZeroProbabilityError:
            val = -np.inf
        except TruncationError:
            excluded += 1
            val = -np.inf
        trace.append((label, val))
    values = np.array([v for _, v in trace])
    if not np.any(np.isfinite(values)):
        raise TruncationError(
            "no Gaussian input fits the cutoff", deficit=float(max(deficits))
        )
    best = int(np.argmax(values))
    diagnostics = {
        "backend": "fock",
        "max_deficit": float(max(deficits)),
        "excluded": excluded,
        "energy": energy,
    }
    return MonotoneResult(
        "d_g_lower_bound",
        float(values[best]),
        trace[best][0],
        len(trace),
        tuple(trace),
        diagnostics,
    )


def divergence_profile(desc, grid=None, seed=0, cutoff=None):
    """Classify growth of the best available lower bound against energy.

    Maps with the analytic input-family backend (pns, pna) route through
    delta_tilde with the family's N_S capped at each grid value; all other
    maps route through d_g_bound with the grid value as the input energy
    budget.  Slope is fitted over the top half of the grid; the label is
    'finite' on a plateau (within PLATEAU_TOL), 'diverging' on a monotone
    rise with slope ≥ SLOPE_MIN, 'inconclusive' otherwise.  d_g_bound
    draws three squeezed-thermal samples at each energy.
    """
    via_family = desc.name in ("pns", "pna")
    if grid is None:
        grid = DEFAULT_NS_GRID if via_family else DEFAULT_ENERGY_GRID
    grid = tuple(float(e) for e in grid)
    if len(grid) < 4:
        raise ValueError("grid needs at least 4 points")
    deltas = []
    for e in grid:
        if via_family:
            res = delta_tilde(desc, seed=seed, cutoff=cutoff, max_n_s=e)
        else:
            res = d_g_bound(desc, energy=e, seed=seed, cutoff=cutoff, count=3)
        deltas.append(res.value)
    half = len(grid) // 2
    top_x = np.log2(np.asarray(grid[half:]))
    top_d = np.asarray(deltas[half:])
    slope = float(np.polyfit(top_x, top_d, 1)[0])
    spread = float(top_d.max() - top_d.min())
    rising = bool(np.all(np.diff(top_d) > -1e-9))
    if spread <= PLATEAU_TOL:
        label = "finite"
    elif slope >= SLOPE_MIN and rising:
        label = "diverging"
    else:
        label = "inconclusive"
    quantity = "delta_tilde" if via_family else "d_g_lower_bound"
    return DivergenceProfile(grid, tuple(deltas), slope, label, quantity)


def mixed_unitary_bounds(probabilities, s_g_max):
    """δ̃ interval for a probabilistic mixture of Gaussian unitaries.

    Returns [max(S_G^max − h({p}), 0), S_G^max] with h the Shannon entropy
    of the mixing distribution in bits.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probabilities must be a nonempty vector")
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError("probabilities must form a distribution")
    nz = p[p > 0.0]
    h = float(-(nz * np.log2(nz)).sum())
    s = float(s_g_max)
    return (max(s - h, 0.0), s)


@dataclass(frozen=True)
class EnvironmentBound:
    """δ_G of a channel's environment and the sampled check behind it."""

    bound: float
    sampled_max: float
    checked: int
    excluded: int


# draws per requested sample before environment_bound stops replacing
# members the cutoff refuses
_DRAWS_PER_SAMPLE = 4
# environment_bound's tolerance on the sampled check, also the moment
# tolerance its members are certified at
ENVIRONMENT_SLACK = 1e-3


def environment_bound(desc, seed=0, samples=4):
    """Bound δ̃ of a Gaussian-dilatable channel by δ_G of its environment.

    Also pushes `samples` seeded input-family members through the channel
    and checks the sampled joint-output δ_G never exceeds the bound
    (within ENVIRONMENT_SLACK).  Members are certified at moment tolerance
    ENVIRONMENT_SLACK; at cutoff 25 the δ_G of a member so certified was
    measured within 0.01·ENVIRONMENT_SLACK of its value at cutoff 40.  A
    member the cutoff refuses is counted in `excluded` and replaced by the
    next draw, up to _DRAWS_PER_SAMPLE·samples draws in all.

    :raises TruncationError: no drawn member fits the cutoff; the error
        carries the mildest refusal's edge weight and suggested cutoff.
    """
    env = desc.metadata.get("environment")
    if env is None:
        raise UnsupportedMapError("descriptor carries no environment state")
    bound = delta_g(env)
    rng = np.random.default_rng(seed)
    worst, checked, refusals = 0.0, 0, []
    draws = _DRAWS_PER_SAMPLE * samples
    while checked < samples and checked + len(refusals) < draws:
        p = InputParams(
            complex(rng.uniform(0.0, 0.8)),
            float(rng.uniform(0.0, np.pi)),
            float(rng.uniform(0.0, 0.4)),
            float(rng.uniform(0.05, 1.0)),
        )
        try:
            ket = input_family(
                p, "fock", cutoff=desc.cutoff, moment_tol=ENVIRONMENT_SLACK
            )
        except TruncationError as exc:
            # keep the numbers, not the exception: its traceback would hold
            # the frames alive and fragment the heap under later large arrays
            refusals.append((exc.deficit, exc.suggested_cutoff))
            continue
        out, _ = apply_map(ket, desc.body, targets=[1], trace_tol=1e-2)
        worst = max(worst, delta_g(out))
        checked += 1
    if samples and not checked:
        deficit, suggestion = min(refusals, key=lambda refusal: refusal[0])
        raise TruncationError(
            f"none of {len(refusals)} input-family members fits cutoff "
            f"{desc.cutoff}",
            deficit=deficit,
            suggested_cutoff=suggestion,
        )
    if worst > bound + ENVIRONMENT_SLACK:
        raise RuntimeError(
            f"sampled output non-Gaussianity {worst:.6f} exceeds the "
            f"environment bound {bound:.6f}"
        )
    return EnvironmentBound(float(bound), float(worst), checked, len(refusals))


def energy_ceiling(energy, n_modes=1):
    """Largest δ_G attainable at the given mean photon number."""
    if energy <= 0.0:
        return 0.0
    return float(n_modes) * thermal_entropy(energy / n_modes)
