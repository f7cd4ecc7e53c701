"""Exact phase-space engine: symplectic algebra, Gaussian states and unitaries,
Williamson spectra, entropies and conditioning.

Conventions: hbar = 2, so the vacuum covariance matrix is the identity, and
quadratures are ordered (q1, p1, ..., qn, pn) with a = (q + ip)/2 per mode.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import linalg

from .errors import InvalidStateError

SYMMETRY_TOL = 1e-10
PHYSICALITY_TOL = 1e-9
MU_CLAMP_TOL = 1e-9

_Y = np.array([[0.0, 1.0], [-1.0, 0.0]])


@lru_cache(maxsize=None)
def symplectic_form(n):
    """Symplectic form Omega for n modes: block diagonal [[0, 1], [-1, 0]].

    The array is cached per n and read-only; copy it before writing.
    """
    if n < 1:
        raise ValueError(f"need at least one mode, got n={n}")
    omega = np.kron(np.eye(n), _Y)
    omega.setflags(write=False)
    return omega


def _frozen(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of an n-mode bosonic state.

    Invariants checked on construction: cov symmetric, and cov + i*Omega
    positive semidefinite (all symplectic eigenvalues >= 1 up to tolerance).
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        n = self.n_modes
        if n < 1:
            raise ValueError(f"need at least one mode, got n={n}")
        mean = _frozen(self.mean)
        cov = _frozen(self.cov)
        if mean.shape != (2 * n,) or cov.shape != (2 * n, 2 * n):
            raise ValueError(
                f"shape mismatch for {n} modes: mean {mean.shape}, cov {cov.shape}"
            )
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("non-finite entries in mean or covariance")
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_TOL:
            raise InvalidStateError("covariance matrix is not symmetric")
        load = np.linalg.eigvalsh(cov + 1j * symplectic_form(n))
        if load.min() < -PHYSICALITY_TOL:
            raise InvalidStateError(
                f"cov + i*Omega has eigenvalue {load.min():.3e} < 0: unphysical"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


@dataclass(frozen=True)
class SymplecticOp:
    """Affine action (S, delta_x) of a Gaussian unitary: x -> S x + delta_x."""

    n_modes: int
    S: np.ndarray
    delta_x: np.ndarray

    def __post_init__(self):
        n = self.n_modes
        S = _frozen(self.S)
        dx = _frozen(self.delta_x)
        if S.shape != (2 * n, 2 * n) or dx.shape != (2 * n,):
            raise ValueError(f"shape mismatch for {n} modes")
        omega = symplectic_form(n)
        if np.max(np.abs(S @ omega @ S.T - omega)) > SYMMETRY_TOL:
            raise ValueError("matrix is not symplectic")
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "delta_x", dx)


@dataclass(frozen=True)
class WilliamsonSpectrum:
    """Symplectic eigenvalues mu_k >= 1, sorted descending."""

    mu: np.ndarray

    def __post_init__(self):
        mu = _frozen(self.mu)
        if mu.min() < 1.0 - MU_CLAMP_TOL:
            raise InvalidStateError(f"symplectic eigenvalue {mu.min():.12f} < 1")
        object.__setattr__(self, "mu", mu)


def vacuum_state(n_modes=1):
    """n-mode vacuum: zero mean, identity covariance."""
    return GaussianState(n_modes, np.zeros(2 * n_modes), np.eye(2 * n_modes))


def thermal_state(N, n_modes=1):
    """Product of single-mode thermal states with mean photon number N each."""
    if N < 0:
        raise ValueError(f"mean photon number must be >= 0, got {N}")
    return GaussianState(
        n_modes, np.zeros(2 * n_modes), (2.0 * N + 1.0) * np.eye(2 * n_modes)
    )


def tmsv_state(N_S):
    """Two-mode squeezed vacuum with N_S mean photons per mode.

    Covariance [[ (2*N_S+1) I, 2*C_p Z ], [ 2*C_p Z, (2*N_S+1) I ]] with
    C_p = sqrt(N_S (N_S + 1)) and Z = diag(1, -1); zero mean.
    """
    if N_S < 0:
        raise ValueError(f"N_S must be >= 0, got {N_S}")
    z = np.diag([1.0, -1.0])
    c_p = np.sqrt(N_S * (N_S + 1.0))
    cov = np.block(
        [
            [(2.0 * N_S + 1.0) * np.eye(2), 2.0 * c_p * z],
            [2.0 * c_p * z, (2.0 * N_S + 1.0) * np.eye(2)],
        ]
    )
    return GaussianState(2, np.zeros(4), cov)


def symplectic_eigenvalues(state):
    """Williamson spectrum of a state: positive eigenvalues of i*Omega*cov."""
    cov = np.asarray(state.cov, dtype=float)
    if not np.all(np.isfinite(cov)):
        raise ValueError("non-finite covariance")
    w = np.linalg.eigvals(1j * symplectic_form(state.n_modes) @ cov)
    if np.max(np.abs(w.imag)) > 1e-8:
        raise InvalidStateError(
            f"eigenvalues of i*Omega*cov not real (residue {np.max(np.abs(w.imag)):.2e})"
        )
    # Eigenvalues come in +/- pairs; keep one of each.
    mu = np.sort(np.abs(w.real))[::-1][::2]
    return WilliamsonSpectrum(mu)


def thermal_entropy(N):
    """Entropy g(N) = (N+1) log2(N+1) - N log2(N) of a thermal state, in bits."""
    N = float(N)
    if N < 0:
        raise ValueError(f"mean photon number must be >= 0, got {N}")
    if N == 0.0:
        return 0.0
    return float((N + 1.0) * np.log2(N + 1.0) - N * np.log2(N))


def gaussian_entropy(state):
    """Von Neumann entropy of a Gaussian state, sum of g((mu_k - 1)/2)."""
    mu = symplectic_eigenvalues(state).mu
    # Eigen-solver noise can leave mu marginally below 1; clamp before g().
    mu = np.maximum(mu, 1.0)
    return float(sum(thermal_entropy((m - 1.0) / 2.0) for m in mu))


def _local_symplectic(kind, params):
    if kind == "displacement":
        alpha = complex(params)
        return np.eye(2), np.array([2.0 * alpha.real, 2.0 * alpha.imag]), 1
    if kind == "rotation":
        theta = float(params)
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, s], [-s, c]]), np.zeros(2), 1
    if kind == "squeeze":
        r = float(params)
        return np.diag([np.exp(-r), np.exp(r)]), np.zeros(2), 1
    if kind == "two_mode_squeeze":
        r = float(params)
        ch, sh = np.cosh(r), np.sinh(r)
        z = np.diag([1.0, -1.0])
        s = np.block([[ch * np.eye(2), sh * z], [sh * z, ch * np.eye(2)]])
        return s, np.zeros(4), 2
    if kind == "beamsplitter":
        tau = float(params)
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"transmissivity must be in [0, 1], got {tau}")
        c, s = np.sqrt(tau), np.sqrt(1.0 - tau)
        eye = np.eye(2)
        return np.block([[c * eye, -s * eye], [s * eye, c * eye]]), np.zeros(4), 2
    raise ValueError(f"unknown Gaussian unitary kind: {kind!r}")


def gaussian_unitary(kind, params, n_modes=None, targets=None):
    """Affine (S, delta_x) action of a named Gaussian unitary.

    :param kind: one of 'displacement' (complex alpha), 'rotation' (theta),
        'squeeze' (r), 'two_mode_squeeze' (r), 'beamsplitter' (transmissivity).
    :param params: the single parameter listed above.
    :param n_modes: total number of modes (defaults to the operator's arity).
    :param targets: mode indices acted on (defaults to the leading modes).
    :returns: SymplecticOp embedded at the target modes, identity elsewhere.
    """
    s_loc, dx_loc, arity = _local_symplectic(kind, params)
    if n_modes is None:
        n_modes = arity
    if targets is None:
        targets = tuple(range(arity))
    targets = tuple(int(t) for t in targets)
    if len(targets) != arity or len(set(targets)) != arity:
        raise ValueError(f"{kind} needs {arity} distinct target modes, got {targets}")
    if any(t < 0 or t >= n_modes for t in targets):
        raise ValueError(f"target modes {targets} out of range for {n_modes} modes")
    idx = np.concatenate([[2 * t, 2 * t + 1] for t in targets])
    S = np.eye(2 * n_modes)
    S[np.ix_(idx, idx)] = s_loc
    dx = np.zeros(2 * n_modes)
    dx[idx] = dx_loc
    return SymplecticOp(n_modes, S, dx)


def apply_symplectic(state, op):
    """Affine update x -> S x + delta_x, cov -> S cov S^T."""
    if op.n_modes != state.n_modes:
        raise ValueError(
            f"operator acts on {op.n_modes} modes, state has {state.n_modes}"
        )
    cov = op.S @ state.cov @ op.S.T
    cov = 0.5 * (cov + cov.T)
    return GaussianState(state.n_modes, op.S @ state.mean + op.delta_x, cov)


def partial_trace_gaussian(state, keep):
    """Reduced Gaussian state on the kept modes (sub-blocks of mean and cov)."""
    keep = tuple(int(k) for k in keep)
    if not keep:
        raise ValueError("must keep at least one mode")
    if len(set(keep)) != len(keep) or any(k < 0 or k >= state.n_modes for k in keep):
        raise ValueError(f"invalid mode subset {keep} for {state.n_modes} modes")
    idx = np.concatenate([[2 * k, 2 * k + 1] for k in keep])
    return GaussianState(len(keep), state.mean[idx], state.cov[np.ix_(idx, idx)])


def condition_on_projection(state, modes, outcome, projector_cov=None):
    """Gaussian state left on the other modes after projecting `modes`.

    The projector is a Gaussian state (general-dyne outcome) with mean
    `outcome` and covariance `projector_cov` on the projected modes.  With
    the state's blocks A (kept), B (projected) and C (cross), the kept
    modes have mean m_A + C (B + Γ)^-1 (r - m_B) and covariance
    A - C (B + Γ)^-1 C^T (Giedke & Cirac, quant-ph/0204085).  A coherent
    projector |β> has Γ = I, the default, and r = (2 Re β, 2 Im β).
    """
    modes = tuple(int(m) for m in modes)
    n = state.n_modes
    if len(set(modes)) != len(modes) or any(m < 0 or m >= n for m in modes):
        raise ValueError(f"invalid mode subset {modes} for {n} modes")
    keep = [m for m in range(n) if m not in modes]
    if not modes or not keep:
        raise ValueError("project a nonempty strict subset of the modes")
    kept = np.concatenate([[2 * k, 2 * k + 1] for k in keep])
    proj = np.concatenate([[2 * m, 2 * m + 1] for m in modes])
    r = np.asarray(outcome, dtype=float)
    gamma = np.eye(len(proj)) if projector_cov is None else np.asarray(projector_cov)
    if r.shape != (len(proj),) or gamma.shape != (len(proj), len(proj)):
        raise ValueError(f"projector needs a {len(proj)}-vector and matrix")
    a = state.cov[np.ix_(kept, kept)]
    c = state.cov[np.ix_(kept, proj)]
    gain = c @ np.linalg.inv(state.cov[np.ix_(proj, proj)] + gamma)
    cov = a - gain @ c.T
    mean = state.mean[kept] + gain @ (r - state.mean[proj])
    return GaussianState(len(keep), mean, 0.5 * (cov + cov.T))


def photon_tail_bound(state, levels):
    """Upper bound on the weight any one mode keeps at or above each level.

    Chernoff bound P(n >= k) <= G(z) / z^k, 1 <= z < R, on the photon-number
    generating function of each single-mode marginal.  For a marginal with
    covariance eigenvalues l_i and mean components u_i in that eigenbasis,
    G(z) = 2 prod_i w_i^(-1/2) exp(sum_i u_i^2 (z - 1) / (2 w_i)) with
    w_i = l_i + 1 - z (l_i - 1), finite up to R = (l_max + 1)/(l_max - 1).
    """
    k = np.asarray(levels, dtype=float).reshape(-1, 1)
    worst = np.zeros(k.shape[0])
    for mode in range(state.n_modes):
        sl = slice(2 * mode, 2 * mode + 2)
        lam, vecs = np.linalg.eigh(state.cov[sl, sl])
        u2 = (vecs.T @ state.mean[sl]) ** 2
        if lam[-1] > 1.0 + 1e-12:
            s_max = np.log((lam[-1] + 1.0) / (lam[-1] - 1.0))
        else:
            # no singularity: a displaced vacuum has Poisson tails
            s_max = np.log(2.0 + 2.0 * k.max() / max(u2.sum() / 4.0, 1e-9))
        s = s_max * np.linspace(0.0, 1.0, 258)[1:-1]
        z = np.exp(s)[:, None]
        w = lam + 1.0 - z * (lam - 1.0)
        log_g = (
            np.log(2.0)
            - 0.5 * np.log(w).sum(axis=1)
            + (u2 * (z - 1.0) / (2.0 * w)).sum(axis=1)
        )
        log_bound = np.minimum((log_g - k * s).min(axis=1), 0.0)
        worst = np.maximum(worst, np.exp(log_bound))
    return worst


def williamson(cov):
    """Williamson decomposition cov = S D S^T with S symplectic.

    D = diag(mu_1, mu_1, ..., mu_n, mu_n). Uses the real Schur form of the
    antisymmetric matrix cov^(1/2) Omega cov^(1/2).

    :returns: (mu, S) with mu the symplectic eigenvalues in block order.
    """
    cov = np.asarray(cov, dtype=float)
    n = cov.shape[0] // 2
    w, v = np.linalg.eigh(cov)
    if w.min() <= 0:
        raise InvalidStateError("covariance matrix is not positive definite")
    root = v @ np.diag(np.sqrt(w)) @ v.T
    m = root @ symplectic_form(n) @ root
    t, q = linalg.schur(0.5 * (m - m.T))
    mu = np.empty(n)
    for k in range(n):
        b = 0.5 * (t[2 * k, 2 * k + 1] - t[2 * k + 1, 2 * k])
        if b < 0:
            q[:, [2 * k, 2 * k + 1]] = q[:, [2 * k + 1, 2 * k]]
            b = -b
        mu[k] = b
    d_isqrt = np.repeat(1.0 / np.sqrt(mu), 2)
    S = root @ q @ np.diag(d_isqrt)
    return mu, S
