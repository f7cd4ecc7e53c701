"""Restricted non-Gaussianity monotones for conditional maps.

delta_tilde maximizes the joint-output non-Gaussianity over the four
parameter entangled input family D_α R_θ S_r |ζ⟩; d_g_bound evaluates the
unentangled lower bound on Gaussian inputs.  Photon subtraction and
addition get an exact closed-form Gaussian-moment (Isserlis) backend: the
output moments are ordered ladder words whose expectations on the Gaussian
input follow from its means and pair contractions alone.  The self-Kerr
map gets one too: its output moments are Gaussian expectations of a phase
rotation times a ladder monomial, transition integrals between two pure
Gaussians (_kerr_outputs), for δ̃ and for d_g_bound's inputs alike.
A Gaussian channel (a descriptor marked "gaussian": id, loss, gd with a
Gaussian environment or at τ = 1) is free: it keeps a Gaussian input
Gaussian, so its values are exactly 0 and no input is built or sent
through it (backend 'phase-space').  Everything else runs on the
truncated Fock backend, through one evaluator (_FockValues) for the δ̃
search, d_g_bound and environment_bound alike: an input the cutoff
refuses, on its lift or its output, is valued −∞ and counted in
`excluded` (environment_bound draws another).

The closed forms take one member or a stack of them and evaluate a stack
in one vectorised pass, moments, covariances, physicality checks and
spectra alike.  The δ̃ search, at one N_S cap or a sweep's several,
evaluates its lattices as one batch, then advances every cap's five
simplex restarts in lock-step, one batch of new points per round; each
restart keeps its own trace, joined in restart order, so a result is
deterministic for a seed and equals that of the restarts run in turn.
"""

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError, UnsupportedMapError, ZeroProbabilityError
from .fock import (
    DEFAULT_CUTOFF,
    EDGE_COST,
    FockArray,
    MomentRecord,
    _amplitudes,
    apply_map,
    build_unitary,
    certify_edge,
    covariance_from_moments,
    delta_g,
    gaussian_cutoff,
    gaussian_to_fock,
    mean_and_covariance,
)
from .gaussian import (
    GaussianState,
    apply_symplectic,
    gaussian_entropies,
    gaussian_entropy,
    gaussian_unitary,
    thermal_entropy,
    thermal_occupation,
    thermal_state,
    tmsv_state,
    williamson_spectrum,
)
from .maps import arm_photon_number

DEFAULT_NS_GRID = (0.5, 1.0, 2.0, 4.0)
DEFAULT_ENERGY_GRID = (1.0, 2.0, 4.0, 8.0)
SLOPE_MIN = 0.5
PLATEAU_TOL = 0.05
# the tolerance a sweep's fitted slope is reported with, and the one the
# spread of the closed-form δ̃ of pns/pna along α = 0 is reported with and
# checked against (verify's stationarity checks)
SLOPE_FIT_TOL = 0.05
ALPHA_ZERO_SPREAD_TOL = 1e-3

# tolerances the searches report: the Fock route's (its input family is
# certified for it), and the δ̃ simplex's on its argmax and on the value
FOCK_MOMENT_TOL = 1e-2
SIMPLEX_XATOL = 1e-4
SIMPLEX_FATOL = 1e-7
# the trace a Fock-route output may lose beyond its input's deficit
_OUTPUT_TRACE_TOL = 1e-2
# the tolerance a value earns on its backend, each result's `tolerance`:
# exact in phase space, the input certificate's on the Fock route, the
# simplex's on a closed form (a conservative bound on a closed-form
# d_g_bound value, which is exact up to rounding)
_TOLERANCE = {"phase-space": 0.0, "analytic": SIMPLEX_FATOL, "fock": FOCK_MOMENT_TOL}

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
        reals = (self.theta, self.r, self.n_s)
        if not (cmath.isfinite(self.alpha) and all(map(math.isfinite, reals))):
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

    @property
    def tolerance(self):
        """The tolerance its backend earns (_TOLERANCE)."""
        return _TOLERANCE[self.diagnostics["backend"]]


def _result(quantity, trace, diagnostics, refusal):
    # the result of a trace of (argument, value) pairs at its first maximum
    # (np.argmax); refusal, the caller's TruncationError, if that is not finite
    values = np.array([v for _, v in trace])
    best = int(np.argmax(values))
    if not np.isfinite(values[best]):
        raise refusal
    return MonotoneResult(
        quantity, float(values[best]), trace[best][0], len(trace), tuple(trace), diagnostics
    )


def _check_grid(grid):
    """Refuse a sweep grid unless it has at least 4 finite, nonnegative,
    strictly increasing points."""
    if len(grid) < 4:
        raise ValueError(f"grid {grid} needs at least 4 points")
    if not all(math.isfinite(e) and e >= 0.0 for e in grid):
        raise ValueError(f"grid {grid} must be finite and nonnegative")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"grid {grid} must be strictly increasing")


@dataclass(frozen=True)
class DivergenceProfile:
    """δ values along an energy grid plus the fitted growth rate.

    The profile is a diagnostic of the constrained bound, not a monotone;
    slope is fitted against log₂(energy) over the top half of the grid.
    backend is that of the searches behind the deltas.
    """

    grid: tuple
    deltas: tuple
    slope: float
    classification: str
    quantity: str
    backend: str

    def __post_init__(self):
        _check_grid(self.grid)
        if min(self.deltas) < -1e-6:
            raise ValueError("negative delta in profile")

    @property
    def tolerance(self):
        """The tolerance its backend earns, on every delta (_TOLERANCE)."""
        return _TOLERANCE[self.backend]


def input_family(
    p,
    backend="gaussian",
    cutoff=DEFAULT_CUTOFF,
    trace_tol=1e-3,
    moment_tol=FOCK_MOMENT_TOL,
    edge_tol=None,
):
    """Two-mode pure state (I ⊗ D_α R_θ S_r)|ζ⟩ with TMSV occupation n_s.

    The displacement, rotation and squeeze act on the second mode (the one
    the map will consume).  backend 'gaussian' returns the exact
    GaussianState; 'fock' a truncated ket carrying its build deficit.  The
    TMSV is Σ_i c_i |i, i⟩, c and its refusal those of build_state('tmsv')
    (fock._amplitudes), so with the in-box U = D_α R_θ S_r of
    fock.build_unitary the ket is ψ[i, j] = c_i U[j, i], one product.  It is
    certified by fock.certify_edge at edge_tol, by default
    moment_tol/(EDGE_COST·cutoff²): the truncation error of its second
    moments, and of those of its image under one ladder operator, is
    estimated to be within moment_tol.

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
        c = _amplitudes("tmsv", p.n_s, cutoff, trace_tol)
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


# The Fock search admits edge weight up to 1e-6 on its input and its output
# at every cutoff.  The Fock route's kerr search at cutoff 32 (a descriptor
# renamed off the closed form) is pinned to this exact value: hundreds of
# its points lie within 1% of it.
_EDGE_TOL = 1e-6

# finite stand-in for excluded points so the simplex comparisons stay quiet
_PENALTY = -1e9

# The search compares values rounded to this many decimals (bits).  Its
# lattice and simplices meet exact ties: at r = 0 the rotation on the
# consumed mode equals one on the kept mode, so every θ gives one value.
# Rounding noise in the last bits must not decide between tied points.
_RANK_DECIMALS = 9


# a stack of input-family members: InputParams' fields as arrays over them
_Members = namedtuple("_Members", "alpha theta r n_s")


def _members(points):
    return _Members(*map(np.array, zip(*((p.alpha, p.theta, p.r, p.n_s) for p in points))))


def _ladder_moments(p):
    """Ladder means and ordered fluctuations of the input family.

    Over ξ = (a, a†, b, b†), with b the consumed mode: μ = (0, 0, α, ᾱ)
    and G_ij = ⟨δξ_i δξ_j⟩ = L G_ζ Lᵀ, where G_ζ holds the TMSV's ordered
    pair contractions (⟨a a†⟩ = n_s + 1, ⟨a† a⟩ = n_s, ⟨a b⟩ = ⟨a† b†⟩ =
    √(n_s(n_s+1))) and L is the Bogoliubov map of D_α R_θ S_r, under which
    b ↦ c1 b + c2 b† + α.  p is one member or a stack (_members), whose
    axes lead those of μ (…, 4) and G (…, 4, 4).
    """
    n_s = np.asarray(p.n_s, dtype=float)
    c_p = np.sqrt(n_s * (n_s + 1.0))
    g_tmsv = np.zeros(n_s.shape + (4, 4))
    g_tmsv[..., 0, 1] = g_tmsv[..., 2, 3] = n_s + 1.0
    g_tmsv[..., 1, 0] = g_tmsv[..., 3, 2] = n_s
    g_tmsv[..., 0, 2] = g_tmsv[..., 1, 3] = g_tmsv[..., 2, 0] = g_tmsv[..., 3, 1] = c_p
    phase = np.exp(-1j * np.asarray(p.theta))
    c1, c2 = phase * np.cosh(p.r), -phase * np.sinh(p.r)
    bogoliubov = np.zeros(n_s.shape + (4, 4), dtype=complex)
    bogoliubov[..., 0, 0] = bogoliubov[..., 1, 1] = 1.0
    bogoliubov[..., 2, 2], bogoliubov[..., 2, 3] = c1, c2
    bogoliubov[..., 3, 2], bogoliubov[..., 3, 3] = np.conj(c2), np.conj(c1)
    alpha = np.asarray(p.alpha, dtype=complex)
    mu = np.zeros(n_s.shape + (4,), dtype=complex)
    mu[..., 2], mu[..., 3] = alpha, np.conj(alpha)
    return mu, bogoliubov @ g_tmsv @ np.swapaxes(bogoliubov, -1, -2)


def _ordered_moments(mu, g, words):
    """Ordered four-symbol moments of a Gaussian state, one per word.

    mu and g are ladder means and ordered fluctuations as _ladder_moments
    returns them; words is an integer array of shape (k, 4) indexing them,
    where index len(mu) is the unit (mean 1, no fluctuation) that pads a
    shorter word.  By the Isserlis (Wick) theorem, with raw second moments
    S = g + μμᵀ, ⟨ξ₁ξ₂ξ₃ξ₄⟩ = S₁₂S₃₄ + S₁₃S₂₄ + S₁₄S₂₃ − 2μ₁μ₂μ₃μ₄.
    """
    return _isserlis(mu, g, _contractions(words, len(mu) + 1))


def _contractions(words, size):
    """Gather indices of the Isserlis sum for words of shape (k, 4).

    Over a table of `size` symbols (the unit last): the flat indices into
    S of the pairs (12), (34), (13), (24), (14), (23), and the four
    symbols.  Built once per word list, not once per input point.
    """
    w1, w2, w3, w4 = np.asarray(words).T
    pairs = ((w1, w2), (w3, w4), (w1, w3), (w2, w4), (w1, w4), (w2, w3))
    return np.array([i * size + j for i, j in pairs]), np.array([w1, w2, w3, w4])


def _isserlis(mu, g, contractions):
    # _ordered_moments on the gather indices of _contractions, over the
    # stack axes that lead mu and g
    pairs, symbols = contractions
    lead, n = mu.shape[:-1], mu.shape[-1]
    unit_mu = np.ones(lead + (n + 1,), dtype=complex)
    unit_mu[..., :n] = mu
    s = np.zeros(lead + (n + 1, n + 1), dtype=complex)
    s[..., :n, :n] = g
    s += unit_mu[..., :, None] * unit_mu[..., None, :]
    c = s.reshape(lead + (-1,))[..., pairs]
    f = unit_mu[..., symbols]
    c0, c1, c2, c3, c4, c5 = (c[..., i, :] for i in range(6))
    f0, f1, f2, f3 = (f[..., i, :] for i in range(4))
    return c0 * c1 + c2 * c3 + c4 * c5 - 2.0 * f0 * f1 * f2 * f3


# symbols of _ladder_moments, then the unit
_A, _ADAG, _B, _BDAG, _ONE = range(5)
# X of the nine output moments ⟨X⟩: ⟨a⟩, ⟨b⟩, ⟨ab⟩, ⟨a²⟩, ⟨b²⟩, ⟨a†a⟩,
# ⟨a†b⟩, ⟨b†a⟩, ⟨b†b⟩
_X_WORDS = (
    (_A, _ONE), (_B, _ONE), (_A, _B), (_A, _A), (_B, _B),
    (_ADAG, _A), (_ADAG, _B), (_BDAG, _A), (_BDAG, _B),
)
# the words K† X K, with K = b for subtraction and b† for addition, as
# _contractions gathers them
_WORDS = {
    "pns": _contractions([(_BDAG, *x, _B) for x in _X_WORDS], _ONE + 1),
    "pna": _contractions([(_B, *x, _BDAG) for x in _X_WORDS], _ONE + 1),
}


def _ladder_outputs(p, which):
    """Branch weights and output moments of PNS/PNA on a member or a stack.

    Each of the nine output moments ⟨X⟩ = ⟨K†XK⟩/⟨K†K⟩ (K = b for
    subtraction, b† for addition) is an ordered word over the input's
    ladder operators, evaluated in closed form from _ladder_moments by
    _isserlis.  Returns the weights ⟨K†K⟩ and the MomentRecord, stacked as
    p's fields are; a member of weight 0 has no output, and its record
    holds zeros.
    """
    if which not in _WORDS:
        raise UnsupportedMapError(f"no analytic backend for {which!r}")
    weight = np.asarray(arm_photon_number(np.abs(p.alpha), p.r, p.n_s))
    if which == "pna":
        weight = weight + 1.0
    # C's pow per member, through Python floats: numpy's SIMD pow can round
    # the last bit differently, which would move the reported values
    norm = [w**-0.5 if w > 0.0 else 0.0 for w in weight.ravel().tolist()]
    norm = np.reshape(norm, weight.shape)
    m = (norm * norm)[..., None] * _isserlis(*_ladder_moments(p), _WORDS[which])
    adag_a = m[..., 5:].reshape(m.shape[:-1] + (2, 2))
    return weight, MomentRecord(2, m[..., :2], m[..., [[3, 2], [2, 4]]], adag_a)


def _rotated_moments(a, beta, z):
    """Moments of ⟨ψ|e^{−iφ n_b} · |ψ⟩, z = e^{−iφ}, over the modes (a, b).

    ψ ∝ exp(½ a†ᵀ A a† + βᵀ a†)|0⟩ is a normalised pure Gaussian state,
    with A symmetric (given as A₀₀, A₀₁, A₁₁) and ‖A‖ < 1.  ⟨ψ|e^{−iφ n_b}
    is the bra of the Gaussian with (PAP, Pβ), P = diag(1, e^{iφ}), so with
    B = conj(PAP), c = conj(Pβ) and W = (I − AB)⁻¹ each transition moment
    is a Gaussian integral (Balian & Brézin, Nuovo Cimento B 64, 37
    (1969)): ⟨a⟩ = W(Ac + β) =: m, ⟨a aᵀ⟩ = WA + m mᵀ and
    ⟨a† aᵀ⟩ = B⟨a aᵀ⟩ + c mᵀ, each relative to the overlap
    det(I − AB)^{−1/2} e^E, E = ½(cᵀm + cᵀWβ + βᵀBWβ), which is returned
    as its log.  Both eigenvalues of I − AB lie in the disc of radius ‖A‖²
    about 1, so the principal log of its determinant is the branch that
    is continuous in φ from φ = 0.  Returns (log overlap, ⟨b⟩, ⟨ab⟩, ⟨b²⟩,
    ⟨a†b⟩), elementwise over arrays of members.
    """
    a0, a1, a2 = a
    beta0, beta1 = beta
    b0, b1, b2 = a0.conjugate(), z * a1.conjugate(), z * z * a2.conjugate()
    c0, c1 = beta0.conjugate(), z * beta1.conjugate()
    x00, x01 = 1.0 - a0 * b0 - a1 * b1, -(a0 * b1 + a1 * b2)
    x10, x11 = -(a1 * b0 + a2 * b1), 1.0 - a1 * b1 - a2 * b2
    det = x00 * x11 - x01 * x10
    w00, w01, w10, w11 = x11 / det, -x01 / det, -x10 / det, x00 / det
    v0, v1 = a0 * c0 + a1 * c1 + beta0, a1 * c0 + a2 * c1 + beta1
    m0, m1 = w00 * v0 + w01 * v1, w10 * v0 + w11 * v1
    wb0, wb1 = w00 * beta0 + w01 * beta1, w10 * beta0 + w11 * beta1
    e = 0.5 * (
        c0 * (m0 + wb0)
        + c1 * (m1 + wb1)
        + beta0 * (b0 * wb0 + b1 * wb1)
        + beta1 * (b1 * wb0 + b2 * wb1)
    )
    s01 = w00 * a1 + w01 * a2 + m0 * m1
    s11 = w10 * a1 + w11 * a2 + m1 * m1
    return e - 0.5 * np.log(det), m1, s01, s11, b0 * s01 + b1 * s11 + c0 * m1


def _kerr_outputs(p, gamma):
    """Ladder moments of the self-Kerr map exp(−iγ n_b²) on a member or a stack.

    Since b f(n) = f(n+1) b, U†bU = e^{−iγ(2n+1)} b and U†b²U =
    e^{−iγ(4n+4)} b², so ⟨b⟩, ⟨ab⟩ and ⟨a†b⟩ of the output are
    e^{−iγ}⟨e^{−2iγ n_b} X⟩ and ⟨b²⟩ is e^{−4iγ}⟨e^{−4iγ n_b} b²⟩ on the
    input (_rotated_moments); ⟨a⟩, ⟨a²⟩, ⟨a†a⟩ and ⟨b†b⟩ are the input's.
    The pure input is exp(½zᵀAz + βᵀz) with A = M Q⁻ᵀ and β = μ − Aμ̄,
    from the blocks M = ⟨δa δa⟩ and Q = ⟨δa δa†⟩ of _ladder_moments
    (on the family ⟨a⟩ = 0, so μ = (0, α)).  Returns the branch weights
    (all 1: the map is unitary) and the MomentRecord, stacked as p's fields
    are.
    """
    _, g = _ladder_moments(p)
    (m00, m01), (m10, m11) = (g[..., _A, _A], g[..., _A, _B]), (g[..., _B, _A], g[..., _B, _B])
    (q00, q01), (q10, q11) = (
        (g[..., _A, _ADAG], g[..., _A, _BDAG]),
        (g[..., _B, _ADAG], g[..., _B, _BDAG]),
    )
    det_q = q00 * q11 - q01 * q10
    a01 = 0.5 * (m01 * q00 - m00 * q10 + m10 * q11 - m11 * q01) / det_q
    a = ((m00 * q11 - m01 * q01) / det_q, a01, (m11 * q00 - m10 * q10) / det_q)
    alpha = np.asarray(p.alpha, dtype=complex)
    beta = (-a01 * alpha.conjugate(), alpha - a[2] * alpha.conjugate())
    log_norm = _rotated_moments(a, beta, 1.0)[0]
    turn = cmath.exp(-1j * gamma)
    log_2, b, ab, _, adag_b = _rotated_moments(a, beta, turn**2)
    log_4, _, _, bb, _ = _rotated_moments(a, beta, turn**4)
    scale_2 = turn * np.exp(log_2 - log_norm)
    ab, adag_b = scale_2 * ab, scale_2 * adag_b
    bb = bb * (turn**4 * np.exp(log_4 - log_norm))
    first = np.zeros(alpha.shape + (2,), dtype=complex)
    first[..., 1] = scale_2 * b
    aa = np.empty(alpha.shape + (2, 2), dtype=complex)
    aa[..., 0, 0], aa[..., 1, 1] = g[..., _A, _A], bb
    aa[..., 0, 1] = aa[..., 1, 0] = ab
    adag_a = np.empty(alpha.shape + (2, 2), dtype=complex)
    adag_a[..., 0, 0], adag_a[..., 0, 1] = g[..., _ADAG, _A], adag_b
    adag_a[..., 1, 0] = adag_b.conjugate()
    adag_a[..., 1, 1] = g[..., _BDAG, _B] + np.abs(alpha) ** 2
    return np.ones(alpha.shape), MomentRecord(2, first, aa, adag_a)


def analytic_output_covariance(p, which):
    """Exact joint mean and covariance of the PNS/PNA output state on member
    p: _ladder_outputs on the one member."""
    weight, m = _ladder_outputs(p, which)
    if not weight > 0.0:
        raise ZeroProbabilityError("the conditional branch vanishes on this member")
    return covariance_from_moments(m)


def _route(desc):
    """The backend of every monotone on desc, read from its metadata, never
    its name: ('phase-space', None) by "gaussian", whose values are 0;
    ('analytic', members ↦ their branch weights and output moments) by
    "ladder" (pns, pna) or "gamma" (kerr); else ('fock', None)."""
    if desc.metadata.get("gaussian"):
        return "phase-space", None
    ladder = desc.metadata.get("ladder")
    if ladder is not None:
        return "analytic", lambda p: _ladder_outputs(p, ladder)
    gamma = desc.metadata.get("gamma")
    if gamma is not None:
        return "analytic", lambda p: _kerr_outputs(p, gamma)
    return "fock", None


def _clamp(x, n_s_cap):
    return InputParams(
        complex(min(abs(float(x[0])), _CAP_ALPHA)),
        min(max(float(x[1]), -_CAP_THETA), _CAP_THETA),
        min(max(float(x[2]), -_CAP_R), _CAP_R),
        float(min(abs(float(x[3])), n_s_cap)),
    )


def alpha_zero_spread(which, seed=0, count=10):
    """Spread of the analytic objective along random rays at α = 0.

    :raises ValueError: a count below 1.
    """
    if not count >= 1:
        raise ValueError(f"count must be at least 1, got {count}")
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


# scipy.optimize's Nelder–Mead: reflection, expansion, contraction and
# shrink coefficients, and the steps of its initial simplex
_NM_RHO, _NM_CHI, _NM_PSI, _NM_SIGMA = 1, 2, 0.5, 0.5
_NM_NONZDELT, _NM_ZDELT = 0.05, 0.00025
# objective values each δ̃ restart may spend
_SIMPLEX_MAXFEV = 120


def _nelder_mead(x0, maxfev):
    """scipy.optimize.minimize(f, x0, method="Nelder-Mead") as a generator.

    It yields each batch of points, an array (m, n), whose values f(x) its
    next step needs, and is sent those values in order: the initial simplex
    and a shrink are one batch each, a reflection, an expansion or a
    contraction one point.  It visits scipy's points in scipy's order, from
    the same initial simplex, with the same coefficients and np.argsort
    ordering of the vertices; it stops once the vertices lie within
    SIMPLEX_XATOL and their values within SIMPLEX_FATOL of the best (scipy's
    xatol and fatol), or once maxfev (≥ 1) values are spent, mid-step if
    need be, as scipy's call counter stops it.
    """
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    sim = np.array([x0] * (n + 1))
    for k in range(n):
        sim[k + 1, k] = (1 + _NM_NONZDELT) * x0[k] if x0[k] != 0 else _NM_ZDELT
    fsim = np.full(n + 1, np.inf)
    left = maxfev

    def ask(points):
        nonlocal left
        points = points[:left]
        left -= len(points)
        return np.asarray((yield points), dtype=float)

    f = yield from ask(sim)
    fsim[: len(f)] = f
    # scipy sorts twice here, and argsort need not be stable on ties
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    while left:
        if (
            np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= SIMPLEX_XATOL
            and np.max(np.abs(fsim[0] - fsim[1:])) <= SIMPLEX_FATOL
        ):
            return
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + _NM_RHO) * xbar - _NM_RHO * sim[-1]
        (fxr,) = yield from ask(xr[None])
        if fxr < fsim[0]:
            if not left:
                return
            xe = (1 + _NM_RHO * _NM_CHI) * xbar - _NM_RHO * _NM_CHI * sim[-1]
            (fxe,) = yield from ask(xe[None])
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if not left:
                return
            if fxr < fsim[-1]:
                xc = (1 + _NM_PSI * _NM_RHO) * xbar - _NM_PSI * _NM_RHO * sim[-1]
                (fxc,) = yield from ask(xc[None])
                keep = fxc <= fxr
            else:
                xc = (1 - _NM_PSI) * xbar + _NM_PSI * sim[-1]
                (fxc,) = yield from ask(xc[None])
                keep = fxc < fsim[-1]
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            elif left:
                shrunk = sim[0] + _NM_SIGMA * (sim[1:] - sim[0])
                f = yield from ask(shrunk)
                sim[1 : 1 + len(f)], fsim[1 : 1 + len(f)] = shrunk[: len(f)], f
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)


class _FockValues:
    """Fock-route values δ_G(desc.body(lift(x))) by key, and their record.

    The body acts on `targets` at _OUTPUT_TRACE_TOL, and its output's edge
    is certified at edge_tol if given.  A key is valued −∞ if its branch
    vanishes or on a TruncationError, which `refused` keeps as (deficit,
    suggested cutoff): its traceback would hold the frames alive and
    fragment the heap under later large arrays.
    """

    def __init__(self, desc, lift, targets=None, edge_tol=None):
        self.desc, self.lift, self.targets, self.edge_tol = desc, lift, targets, edge_tol
        self.deficits, self.refused = {}, {}

    def value(self, key, x):
        try:
            state = self.lift(x)
            self.deficits[key] = state.trace_deficit
            out, _ = apply_map(state, self.desc.body, self.targets, _OUTPUT_TRACE_TOL)
            return delta_g(out if self.edge_tol is None else certify_edge(out, self.edge_tol))
        except ZeroProbabilityError:
            return -np.inf
        except TruncationError as exc:
            self.refused[key] = (exc.deficit, exc.suggested_cutoff)
            return -np.inf

    def diagnostics(self, trace):
        """The largest lift deficit over a trace's keys, and its refused entries."""
        deficit = max([0.0] + [self.deficits.get(k, 0.0) for k, _ in trace])
        return {"max_deficit": float(deficit), "excluded": sum(k in self.refused for k, _ in trace)}


def delta_tilde(desc, seed=0, max_n_s=_CAP_NS):
    """Maximize joint-output non-Gaussianity over the input family.

    The value is the running maximum over every evaluation of the search
    at the N_S cap max_n_s (_delta_tilde_search), hence a certified lower
    bound on the true supremum.  Raises UnsupportedMapError for anything
    that is not a single-mode conditional unitary map.

    Routes (_route): pns, pna and kerr run on the closed-form (analytic)
    backend, which needs no cutoff and excludes nothing, and a pns or pna
    result carries alpha_zero_spread at this seed; a Gaussian unitary
    (today only id) keeps every member Gaussian, so the value is 0 at the
    first lattice point, which is not built (backend 'phase-space', one
    evaluation); every other map searches on the truncated Fock backend at
    desc.cutoff, excluding the points it cannot represent faithfully.

    :raises ValueError: before any search, a max_n_s that is not finite
        and >= 0.
    """
    if not 0.0 <= max_n_s < np.inf:
        raise ValueError(f"max_n_s must be finite and >= 0, got {max_n_s}")
    if not desc.body.conditional_unitary:
        raise UnsupportedMapError(
            "delta_tilde needs a conditional unitary map; use d_g_bound or "
            "divergence_profile for channels"
        )
    if desc.body.n_in != 1:
        raise UnsupportedMapError("the input family covers single-mode maps only")
    if _route(desc)[0] == "phase-space":
        p = _clamp(np.array([0.0, 0.0, 0.0, _LATTICE_NS[0]]), max_n_s)
        diagnostics = {"backend": "phase-space", "max_deficit": 0.0, "excluded": 0}
        return _result("delta_tilde", [(p, 0.0)], diagnostics, refusal=None)  # finite
    (res,) = _delta_tilde_search(desc, seed, (max_n_s,))
    ladder = desc.metadata.get("ladder")
    if ladder is not None:
        res.diagnostics["alpha_zero_spread"] = alpha_zero_spread(ladder, seed=seed)
    return res


def _delta_tilde_search(desc, seed, caps):
    """The δ̃ searches of desc at each N_S cap in caps, one result per cap.

    A cap's search ranks a deterministic lattice, then runs scipy's
    Nelder–Mead (_nelder_mead) from its three best points and two seeded
    jitters of the best.  Every cap reads one table from clamped point to
    value: all lattices are one batch, then the 5·len(caps) runs advance
    in lock-step, each round one batch of their distinct new points (one
    vectorised call on a closed form, one point after another on Fock).
    A cap's trace is its lattice's, then its runs' in restart order, so
    its result is that of the cap searched alone.  `excluded` counts the
    trace entries on points the cutoff refused (valued −∞).
    """
    backend, route = _route(desc)
    refusal = TruncationError(
        "every probe point spills over the cutoff; raise it",
        suggested_cutoff=2 * desc.cutoff,
    )
    table = {}
    fock = _FockValues(
        desc, lambda p: input_family(p, "fock", desc.cutoff, edge_tol=_EDGE_TOL), [1], _EDGE_TOL
    )

    def objective(points):
        if backend == "fock":
            return [fock.value(p, p) for p in points]
        weight, m = route(_members(points))
        values = gaussian_entropies(*mean_and_covariance(m))
        return np.where(weight > 0.0, values, -np.inf).tolist()

    def evaluate(points):
        # one objective call for the distinct points not yet in the table
        new = [p for p in dict.fromkeys(points) if p not in table]
        if new:
            table.update(zip(new, objective(new)))

    def rank(value):
        return round(value, _RANK_DECIMALS) if np.isfinite(value) else _PENALTY

    def coords(p):
        return np.array([abs(p.alpha), p.theta, p.r, p.n_s])

    lattices = [
        [
            _clamp(np.array([a, t, r, n]), cap)
            for a in _LATTICE_ALPHA
            for t in _LATTICE_THETA
            for r in _LATTICE_R
            for n in sorted({min(n, cap) for n in _LATTICE_NS})
        ]
        for cap in caps
    ]
    evaluate([p for lattice in lattices for p in lattice])
    traces = [[(p, table[p]) for p in lattice] for lattice in lattices]
    runs = []  # (cap index, run, its trace), by cap, then in restart order
    for k, (cap, lattice) in enumerate(zip(caps, lattices)):
        # sorted is stable: tied values keep their lattice order
        starts = sorted(lattice, key=lambda p: -rank(table[p]))[:3]
        jitters = np.random.default_rng(seed).normal(scale=0.05, size=(2, 4))
        starts += [_clamp(coords(starts[0]) + jitter, cap) for jitter in jitters]
        runs += [(k, _nelder_mead(coords(p), _SIMPLEX_MAXFEV), []) for p in starts]
    asked = {i: next(run) for i, (_, run, _) in enumerate(runs)}
    while asked:
        clamped = {i: [_clamp(x, caps[runs[i][0]]) for x in xs] for i, xs in asked.items()}
        evaluate([p for points in clamped.values() for p in points])
        for i, points in clamped.items():
            _, run, run_trace = runs[i]
            run_trace += [(p, table[p]) for p in points]
            try:
                asked[i] = run.send([-rank(table[p]) for p in points])
            except StopIteration:
                del asked[i]
    for k, _, run_trace in runs:
        traces[k] += run_trace
    return [
        _result("delta_tilde", trace, {"backend": backend, **fock.diagnostics(trace)}, refusal)
        for trace in traces
    ]


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


def _family_member(state):
    """Input-family member whose consumed mode has this single-mode state.

    D_α R_θ S_r on a thermal state of n photons, as _ladder_moments maps b,
    has ⟨δb δb⟩ = −e^{−2iθ}(2n+1) sinh(2r)/2 and ⟨δb†δb⟩ =
    ((2n+1) cosh(2r) − 1)/2, with n the occupation of the state's
    symplectic eigenvalue 2n+1 (gaussian.thermal_occupation); the member's
    TMSV occupation is n, so its b marginal is the state.
    """
    (vqq, vqp), (_, vpp) = state.cov
    sq = complex(vqq - vpp, 2.0 * vqp) / 4.0
    (n,) = thermal_occupation(state.spectrum.mu).tolist()
    return InputParams(
        complex(state.mean[0], state.mean[1]) / 2.0,
        -0.5 * cmath.phase(-sq),
        0.5 * math.asinh(2.0 * abs(sq) / (2.0 * n + 1.0)),
        n,
    )


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


def d_g_bound(desc, inputs=None, energy=None, seed=0, count=4):
    """Lower bound on δ̃ from unentangled Gaussian inputs.

    With no explicit inputs, evaluates a coherent grid, a displaced
    squeezed state, and seeded squeezed-thermal samples, all within the
    energy budget when one is given.  inputs is a list of GaussianState,
    the i-th labelled ("input", i) in the trace.

    Routes (_route): a Gaussian channel keeps each input Gaussian, so every
    value is exactly 0 and no input goes through it (backend
    'phase-space').  On a closed form that does not renormalize (kerr)
    each input is the consumed-mode marginal of an input-family member
    (_family_member), all members go through the closed form in one
    call, and since the map is unitary S(out) = S(in), so
    δ_G = S_G(out) − S_G(in) (backend 'analytic').
    Otherwise, pns and pna included, each input is lifted to desc.cutoff
    and pushed through the Kraus family (backend 'fock'); inputs the
    cutoff cannot hold are skipped, keeping the value a faithful lower
    bound.

    :raises ValueError: before any route runs, an energy that is not
        finite and >= 0, no inputs, or one that is not a single-mode
        GaussianState.
    """
    if energy is not None and not 0.0 <= energy < np.inf:
        raise ValueError(f"energy must be finite and >= 0, got {energy}")
    body = desc.body
    if body.n_in != 1:
        raise UnsupportedMapError("d_g_bound expects a single-mode map")
    if inputs is None:
        rng = np.random.default_rng(seed)
        supplied = _default_gaussian_inputs(energy, rng, count)
    else:
        supplied = [(("input", i), g) for i, g in enumerate(inputs)]
    if not supplied:
        raise ValueError("no Gaussian inputs supplied")
    for label, g in supplied:
        if not isinstance(g, GaussianState) or g.n_modes != 1:
            kind = f"{getattr(g, 'n_modes', '?')}-mode {type(g).__name__}"
            raise ValueError(f"d_g_bound takes single-mode inputs; input {label} is a {kind}")
    backend, route = _route(desc)
    if backend == "analytic" and body.renormalize:
        # S(out) = S(in) needs a unitary
        backend, route = "fock", None
    fock = _FockValues(desc, lambda g: gaussian_to_fock(g, desc.cutoff, trace_tol=1e-5))
    if backend == "phase-space":
        trace = [(label, 0.0) for label, _ in supplied]
    elif backend == "analytic":
        # every input's member in one call; the joint outputs are checked as
        # states, and the consumed mode's marginals give S(out)
        _, m = route(_members([_family_member(g) for _, g in supplied]))
        mean, cov = mean_and_covariance(m)
        williamson_spectrum(mean, cov)
        s_out = gaussian_entropies(mean[:, 2:], cov[:, 2:, 2:]).tolist()
        trace = [(label, s - gaussian_entropy(g)) for s, (label, g) in zip(s_out, supplied)]
    else:
        trace = [(label, fock.value(label, g)) for label, g in supplied]
    diagnostics = {"backend": backend, **fock.diagnostics(trace), "energy": energy}
    refusal = TruncationError("no Gaussian input fits the cutoff", diagnostics["max_deficit"])
    return _result("d_g_lower_bound", trace, diagnostics, refusal)


def divergence_profile(desc, grid=None, seed=0):
    """Classify growth of the best available lower bound against energy.

    A renormalizing map with a closed-form δ̃ (pns, pna: d_g_bound has
    none for it) takes δ̃ with the family's N_S capped at each grid value,
    from one _delta_tilde_search over the whole grid: the caps share one
    table, so a point that several of them reach is evaluated once, and
    each value equals that of delta_tilde at its cap.  All other maps route
    through d_g_bound with the grid value as the input energy budget, on
    its phase-space route on a Gaussian channel (0 at every point), its
    closed form on kerr, and its Fock route on any other map.  Slope is
    fitted over the top half of the grid; the label is 'finite' on a
    plateau (within PLATEAU_TOL), 'diverging' on a monotone rise with
    slope ≥ SLOPE_MIN, 'inconclusive' otherwise.  d_g_bound draws three
    squeezed-thermal samples at each energy.

    :raises ValueError: before any search, a grid of fewer than 4 points
        or one that is not finite, nonnegative and strictly increasing.
    """
    via_family = _route(desc)[0] == "analytic" and desc.body.renormalize
    if grid is None:
        grid = DEFAULT_NS_GRID if via_family else DEFAULT_ENERGY_GRID
    grid = tuple(float(e) for e in grid)
    _check_grid(grid)
    if via_family:
        results = _delta_tilde_search(desc, seed, grid)
    else:
        results = [d_g_bound(desc, energy=e, seed=seed, count=3) for e in grid]
    deltas = [res.value for res in results]
    backend = results[-1].diagnostics["backend"]
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
    return DivergenceProfile(grid, tuple(deltas), slope, label, results[-1].quantity, backend)


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

    @property
    def tolerance(self):
        """The sampled check's slack, ENVIRONMENT_SLACK, on both values."""
        return ENVIRONMENT_SLACK


# draws per requested sample before environment_bound stops replacing
# members the cutoff refuses
_DRAWS_PER_SAMPLE = 4
# environment_bound's tolerance on the sampled check, also the moment
# tolerance its members are certified at
ENVIRONMENT_SLACK = 1e-3


def environment_bound(desc, seed=0, samples=4):
    """Bound δ̃ of a Gaussian-dilatable channel by δ_G of its environment,
    or by 0 when the channel is marked Gaussian.

    Also pushes `samples` seeded input-family members through the channel
    and checks the sampled joint-output δ_G never exceeds the bound
    (within ENVIRONMENT_SLACK).  Members are certified at moment tolerance
    ENVIRONMENT_SLACK; at cutoff 25 the δ_G of a member so certified was
    measured within 0.01·ENVIRONMENT_SLACK of its value at cutoff 40.  A
    member the cutoff refuses, input or output, is counted in `excluded`
    and replaced by the next draw, up to _DRAWS_PER_SAMPLE·samples in all.

    :raises ValueError: before any draw, a negative sample count.
    :raises TruncationError: no drawn member fits the cutoff; the error
        carries the mildest refusal's deficit and suggested cutoff.
    """
    if not samples >= 0:
        raise ValueError(f"samples must be a count >= 0, got {samples}")
    env = desc.metadata.get("environment")
    if env is None:
        raise UnsupportedMapError(
            f"{desc.name} carries no environment state: it is not Gaussian-dilatable (gd, loss)"
        )
    # a Gaussian channel (the descriptor is marked "gaussian") has δ̃ = 0
    # exactly; only another environment is read on its Fock ket
    bound = 0.0 if desc.metadata.get("gaussian") else delta_g(env)
    rng = np.random.default_rng(seed)
    edge_tol = ENVIRONMENT_SLACK / (EDGE_COST * desc.cutoff**2)
    fock = _FockValues(desc, lambda p: input_family(p, "fock", desc.cutoff, edge_tol=edge_tol), [1])
    values = []
    # draw until `samples` members are checked or the draws run out
    while len(values) < min(samples + len(fock.refused), _DRAWS_PER_SAMPLE * samples):
        p = InputParams(
            complex(rng.uniform(0.0, 0.8)),
            float(rng.uniform(0.0, np.pi)),
            float(rng.uniform(0.0, 0.4)),
            float(rng.uniform(0.05, 1.0)),
        )
        values.append(fock.value(p, p))
    checked = len(values) - len(fock.refused)
    if samples and not checked:
        p, (deficit, suggestion) = min(fock.refused.items(), key=lambda item: item[1][0])
        if suggestion is None:
            # an edge refusal: only the one reported needs its cutoff
            suggestion = gaussian_cutoff(input_family(p), ENVIRONMENT_SLACK, above=desc.cutoff)
        raise TruncationError(
            f"none of {len(values)} input-family members fits cutoff {desc.cutoff}",
            deficit=deficit,
            suggested_cutoff=suggestion,
        )
    worst = max([0.0, *values])
    if worst > bound + ENVIRONMENT_SLACK:
        raise RuntimeError(
            f"sampled output non-Gaussianity {worst:.6f} exceeds the "
            f"environment bound {bound:.6f}"
        )
    return EnvironmentBound(float(bound), float(worst), checked, len(fock.refused))


def energy_ceiling(energy, n_modes=1):
    """Largest δ_G attainable at the given mean photon number."""
    if energy <= 0.0:
        return 0.0
    return float(n_modes) * thermal_entropy(energy / n_modes)
