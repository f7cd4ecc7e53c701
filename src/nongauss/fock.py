"""Truncated Fock-space engine: states as finite complex arrays, conditional
maps as Kraus families of matrices, entropies, moment extraction, and the
Gaussian resource-destroying map.

Kets over n modes are stored as tensors of shape (D,)*n; density matrices as
(D**n, D**n) matrices with C-ordered multi-indices (mode 0 most significant).
Quadrature conventions match the phase-space module: q = a + a†, p = i(a† − a),
so means and covariances can move freely between the two backends.
"""

from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
from scipy.linalg import polar, schur

from .errors import InvalidStateError, TruncationError, ZeroProbabilityError
from .gaussian import (
    MU_CLAMP_TOL,
    GaussianState,
    SymplecticOp,
    gaussian_entropy,
    gaussian_unitary,
    photon_tail_bound,
    symplectic_form,
    williamson,
)

DEFAULT_CUTOFF = 40
BUILD_DEFICIT_TOL = 1e-8
APPLY_DEFICIT_TOL = 1e-6
ENTROPY_CLAMP = 1e-12
SUPPORT_TOL = 1e-12

# Fock lifts of Gaussian unitaries above this total dimension are refused.
_MAX_DENSE_DIM = 4096

# Truncation certificate.  In-box unitaries fold escaping amplitude back
# instead of losing norm, so truncation shows up as weight e parked in the
# top two number levels rather than as a trace deficit.  Second moments
# weight level n by n², so that weight moves them by about EDGE_COST·e·d².
# EDGE_COST is an empirical estimate, not a proven bound.  It is meant to
# cover one ladder operator applied after the check.  Over input-family
# states at cutoffs 30-200, the largest covariance error measured, in
# units of e·d² with e taken on the input family, was 0.8 for the state
# itself and 12.8 after a photon subtraction or addition; 32 leaves
# 2.5x headroom above that.
EDGE_COST = 32.0
_EDGE_LEVELS = 2


def _check_cutoff(cutoff):
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")


def ladder(cutoff):
    """Annihilation operator a|n⟩ = √n|n−1⟩ on the basis 0..cutoff−1."""
    _check_cutoff(cutoff)
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), k=1).astype(complex)


@dataclass(frozen=True)
class FockArray:
    """Truncated Fock representation of a ket or a density matrix.

    trace_deficit records 1 − ⟨ψ|ψ⟩ (ket) or 1 − Tr ρ (density); it must not
    exceed trace_tol. States are kept unnormalized-by-truncation so the
    deficit stays observable.  A density built by `from_branches` also
    carries its branch kets as the read-only `branches` field.
    """

    n_modes: int
    cutoff: int
    kind: str
    data: np.ndarray
    trace_tol: float = APPLY_DEFICIT_TOL
    trace_deficit: float = field(init=False)
    branches: np.ndarray = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        n, d = self.n_modes, self.cutoff
        if n < 1:
            raise ValueError(f"need at least one mode, got {n}")
        if d < 2:
            raise ValueError(f"cutoff must be >= 2, got {d}")
        if self.kind not in ("ket", "density"):
            raise ValueError(f"kind must be 'ket' or 'density', got {self.kind!r}")
        data = np.array(self.data, dtype=complex)
        dim = d**n
        if self.kind == "ket":
            if data.size != dim:
                raise ValueError(f"ket size {data.size} != {d}^{n}")
            data = data.reshape((d,) * n)
            deficit = 1.0 - float(np.vdot(data, data).real)
        else:
            if data.shape != (dim, dim):
                raise ValueError(f"density shape {data.shape} != ({dim}, {dim})")
            if np.max(np.abs(data - data.conj().T)) > 1e-10:
                raise InvalidStateError("density matrix is not Hermitian")
            deficit = 1.0 - float(np.trace(data).real)
        if not np.all(np.isfinite(data)):
            raise ValueError("non-finite entries")
        if deficit < -1e-9:
            raise InvalidStateError(f"trace exceeds 1 by {-deficit:.3e}")
        if deficit > self.trace_tol:
            raise TruncationError(
                f"trace deficit {deficit:.3e} exceeds bound {self.trace_tol:.1e}",
                deficit=deficit,
            )
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "trace_deficit", deficit)

    @classmethod
    def from_branches(cls, n_modes, cutoff, phi, trace_tol=APPLY_DEFICIT_TOL):
        """Density ρ = Φᵀ Φ̄ of the branch kets Φ (r × Dⁿ, e.g. [K_j ψ] of a
        channel on a pure input), which it keeps as `branches`."""
        phi = np.array(phi, dtype=complex)
        dim = cutoff**n_modes
        if phi.ndim != 2 or phi.shape[1] != dim:
            raise ValueError(f"branches must be an r x {dim} array, got {phi.shape}")
        out = cls(n_modes, cutoff, "density", phi.T @ phi.conj(), trace_tol=trace_tol)
        phi.setflags(write=False)
        object.__setattr__(out, "branches", phi)
        return out

    def to_density(self):
        """Outer product for kets; identity on densities."""
        if self.kind == "density":
            return self
        flat = self.data.reshape(-1)
        return FockArray(
            self.n_modes, self.cutoff, "density", np.outer(flat, flat.conj()),
            trace_tol=self.trace_tol,
        )

    def tensor(self):
        """Density data reshaped to 2*n_modes axes (ket indices first)."""
        if self.kind != "density":
            raise ValueError("tensor() is for densities; kets already are tensors")
        return self.data.reshape((self.cutoff,) * (2 * self.n_modes))


@dataclass(frozen=True)
class ConditionalMap:
    """A conditional quantum map ρ → T(ρ)/Tr T(ρ) (or the channel T itself),
    given by its Kraus family: T(ρ) = Σ_j K_j ρ K_j†.

    The constructor takes a nonempty tuple of matrices of one shape and
    keeps them stacked, once, as the read-only k × out × in array `kraus`.
    A unitary is the family (U,), a mixture Σ_j p_j U_j ρ U_j† the family
    (√p_j U_j).  renormalize=True gives the post-selected map.
    """

    n_in: int
    n_out: int
    kraus: np.ndarray
    renormalize: bool

    def __post_init__(self):
        if not isinstance(self.kraus, tuple) or not self.kraus:
            raise ValueError("the Kraus family must be a nonempty tuple")
        kraus = np.stack(self.kraus).astype(complex)
        kraus.setflags(write=False)
        object.__setattr__(self, "kraus", kraus)

    @property
    def conditional_unitary(self):
        """One Kraus operator and the same mode count in and out."""
        return self.n_in == self.n_out and len(self.kraus) == 1


def _coherent_amplitudes(alpha, cutoff):
    c = np.empty(cutoff, dtype=complex)
    c[0] = np.exp(-0.5 * abs(alpha) ** 2)
    for n in range(1, cutoff):
        c[n] = c[n - 1] * alpha / np.sqrt(n)
    return c


def _thermal_weights(n_mean, cutoff):
    """Number distribution (N/(N+1))ⁿ/(N+1), n < cutoff, of a thermal state."""
    if n_mean == 0.0:
        p = np.zeros(cutoff)
        p[0] = 1.0
        return p
    return (n_mean / (n_mean + 1.0)) ** np.arange(cutoff) / (n_mean + 1.0)


def _truncation_refusal(what, deficit, cutoff, trace_tol, deficit_at):
    """TruncationError for a construction that loses `deficit` at `cutoff`.

    The suggested cutoff is the first doubling d of cutoff with
    deficit_at(d) ≤ trace_tol, or None past 65536.
    """
    suggestion = None
    d = cutoff
    while d <= 65536:
        d *= 2
        if deficit_at(d) <= trace_tol:
            suggestion = d
            break
    return TruncationError(
        f"{what} loses {deficit:.3e} of its weight at cutoff {cutoff}",
        deficit=deficit,
        suggested_cutoff=suggestion,
    )


def _state_vector(kind, params, cutoff):
    """Raw data and exact trace deficit for each supported state family."""
    if kind == "vacuum":
        ket = np.zeros(cutoff, dtype=complex)
        ket[0] = 1.0
        return 1, "ket", ket, 0.0
    if kind == "fock":
        n = int(params)
        if n < 0:
            raise ValueError(f"photon number must be >= 0, got {n}")
        if n >= cutoff:
            raise TruncationError(
                f"fock({n}) needs cutoff > {n}", deficit=1.0, suggested_cutoff=n + 1
            )
        ket = np.zeros(cutoff, dtype=complex)
        ket[n] = 1.0
        return 1, "ket", ket, 0.0
    if kind == "coherent":
        c = _coherent_amplitudes(complex(params), cutoff)
        return 1, "ket", c, 1.0 - float(np.vdot(c, c).real)
    if kind == "cat":
        alpha = complex(params)
        c = _coherent_amplitudes(alpha, cutoff) + _coherent_amplitudes(-alpha, cutoff)
        norm_sq = 2.0 * (1.0 + np.exp(-2.0 * abs(alpha) ** 2))
        c = c / np.sqrt(norm_sq)
        return 1, "ket", c, 1.0 - float(np.vdot(c, c).real)
    if kind == "thermal":
        N = float(params)
        if N < 0:
            raise ValueError(f"mean photon number must be >= 0, got {N}")
        p = _thermal_weights(N, cutoff)
        return 1, "density", np.diag(p.astype(complex)), 1.0 - float(p.sum())
    if kind == "tmsv":
        c, deficit = tmsv_schmidt(params, cutoff)
        ket = np.zeros((cutoff, cutoff), dtype=complex)
        np.fill_diagonal(ket, c)
        return 2, "ket", ket, deficit
    raise ValueError(f"unknown state kind: {kind!r}")


def tmsv_schmidt(n_s, cutoff, trace_tol=np.inf):
    """Schmidt coefficients c_i = λⁱ/√(N_S+1), i < cutoff, of the TMSV
    Σ_i c_i |i, i⟩ with λ = √(N_S/(N_S+1)), and its trace deficit 1 − Σ c_i².

    :raises TruncationError: deficit above trace_tol, the refusal
        build_state('tmsv', n_s, cutoff, trace_tol) raises.
    """
    N_S = float(n_s)
    if N_S < 0:
        raise ValueError(f"N_S must be >= 0, got {N_S}")
    lam = np.sqrt(N_S / (N_S + 1.0))
    c = lam ** np.arange(cutoff) / np.sqrt(N_S + 1.0)
    deficit = 1.0 - float(c @ c)
    if deficit > trace_tol:
        raise _truncation_refusal(
            "tmsv state", deficit, cutoff, trace_tol, lambda d: tmsv_schmidt(n_s, d)[1]
        )
    return c, deficit


def build_state(kind, params=None, cutoff=DEFAULT_CUTOFF, trace_tol=BUILD_DEFICIT_TOL):
    """Normalized Fock state of a named family, within the recorded deficit.

    Kinds: 'vacuum', 'fock' (n), 'coherent' (complex α), 'cat' (even coherent
    superposition, α), 'thermal' (N), 'tmsv' (N_S, Schmidt series with
    λ = √(N_S/(N_S+1)), see tmsv_schmidt).

    :raises TruncationError: deficit above trace_tol, with a suggested cutoff.
    """
    if kind == "tmsv":
        # refuses from the Schmidt series alone, building no d×d ket
        tmsv_schmidt(params, cutoff, trace_tol)
    n_modes, arr_kind, data, deficit = _state_vector(kind, params, cutoff)
    if deficit > trace_tol:
        raise _truncation_refusal(
            f"{kind} state", deficit, cutoff, trace_tol,
            lambda d: _state_deficit(kind, params, d),
        )
    return FockArray(n_modes, cutoff, arr_kind, data, trace_tol=trace_tol)


def _state_deficit(kind, params, cutoff):
    """Trace deficit of a state family at a cutoff; a thermal state's comes
    from its number distribution, building no d×d density."""
    if kind == "thermal":
        return 1.0 - float(_thermal_weights(float(params), cutoff).sum())
    return _state_vector(kind, params, cutoff)[3]


@lru_cache(maxsize=16)
def _generator_eigenbasis(kind, cutoff):
    """Eigenpairs (w, V) of the Hermitian i·G for the truncated generator
    G = a† − a ('displacement') or (a² − a†²)/2 ('squeeze'), so that
    exp(x·G) = V e^{−ixw} V†.  Cached per cutoff and read-only; copy
    before writing."""
    a = ladder(cutoff)
    adag = a.conj().T
    gen = adag - a if kind == "displacement" else 0.5 * (a @ a - adag @ adag)
    w, v = np.linalg.eigh(1j * gen)
    w.setflags(write=False)
    v.setflags(write=False)
    return w, v


def _eigen_exp(w, v, x, cols):
    """Columns `cols` of exp(−ix·H) = v e^{−ixw} v† for the eigenpairs
    (w, v) of a Hermitian H."""
    return (v * np.exp(-1j * x * w)) @ v[cols].conj().T


def _from_eigenbasis(kind, x, cutoff, cols=slice(None)):
    """Columns `cols` of exp(x·G) for the generator G of _generator_eigenbasis."""
    return _eigen_exp(*_generator_eigenbasis(kind, cutoff), x, cols)


def build_unitary(kind, params, cutoff=DEFAULT_CUTOFF):
    """Truncated Gaussian (or Kerr) unitary as a dense matrix.

    Single-mode kinds: 'displacement' (α), 'rotation' (θ), 'squeeze' (r),
    'kerr' (γ). Two-mode: 'two_mode_squeeze' (r), 'beamsplitter' (τ), both
    symplectic_to_unitary of the gaussian_unitary of that kind.

    The displacement and the squeeze are exponentials of their truncated
    generators, taken through eigenbases cached per cutoff: S(r) =
    exp(r(a² − a†²)/2) and D(|α|) = exp(|α|(a† − a)), and for α = |α|e^{iφ}
    D(α) = R(−φ) D(|α|) R(φ), exact in the box because R is diagonal.
    """
    _check_cutoff(cutoff)
    n = np.arange(cutoff)
    if kind == "rotation":
        return np.diag(np.exp(-1j * float(params) * n))
    if kind == "kerr":
        return np.diag(np.exp(-1j * float(params) * n**2))
    if kind == "displacement":
        alpha = complex(params)
        phase = np.exp(1j * np.angle(alpha) * n)
        return phase[:, None] * _from_eigenbasis(kind, abs(alpha), cutoff) * phase.conj()
    if kind == "squeeze":
        return _from_eigenbasis(kind, float(params), cutoff)
    if kind in ("two_mode_squeeze", "beamsplitter"):
        return symplectic_to_unitary(gaussian_unitary(kind, params), cutoff)
    raise ValueError(f"unknown unitary kind: {kind!r}")


def _infer_arity(u, cutoff):
    dim = u.shape[0]
    arity = max(1, round(np.log(dim) / np.log(cutoff)))
    if cutoff**arity != dim or u.shape != (dim, dim):
        raise ValueError(f"unitary shape {u.shape} incompatible with cutoff {cutoff}")
    return arity


def apply_unitary(state, u, targets=None):
    """Apply a (possibly multi-mode) unitary matrix to the targeted modes:
    apply_map of the family (u,), keeping the input's trace_tol."""
    arity = _infer_arity(u, state.cutoff)
    out, _ = apply_map(state, ConditionalMap(arity, arity, (u,), False), targets)
    return FockArray(state.n_modes, state.cutoff, out.kind, out.data, trace_tol=state.trace_tol)


def _branch_kets(stack, rows, targets, cutoff, n_modes, n_out):
    """Branch kets [K_j φ_i] of the stacked family (k × out × in) on the
    rows φ_i (r × Dⁿ), as a (k·r) × D^n_out array, j-major.  Every
    operator fock.py applies to a state or a unitary goes through here."""
    k, r = stack.shape[0], rows.shape[0]
    if n_out != n_modes:  # register-consuming map, e.g. a projector
        return np.matmul(stack, rows.T).transpose(0, 2, 1).reshape(k * r, -1)
    a = len(targets)
    ut = stack.reshape((k,) + (cutoff,) * (2 * a))
    t = rows.reshape((r,) + (cutoff,) * n_modes)
    out = np.tensordot(ut, t, axes=(list(range(a + 1, 2 * a + 1)), [1 + m for m in targets]))
    # axes are now (k, output targets, r, other modes); put the targets back
    out = np.moveaxis(out, range(1, a + 1), [2 + m for m in targets])
    return out.reshape(k * r, -1)


def apply_map(state, cmap, targets=None, trace_tol=APPLY_DEFICIT_TOL):
    """Apply a ConditionalMap; returns (output FockArray, success probability).

    Every map acts through its Kraus family.  Post-selected maps
    (renormalize=True) return a unit-trace output and the branch
    probability; channels return their raw output and report its trace
    (for a unitary, the input's weight ⟨ψ|ψ⟩ or Tr ρ).

    A ket is one row ψ, and a density built by `FockArray.from_branches`
    is its r rows Φ.  The family, stacked once in the map, acts on all the
    rows in one product and gives the k·r branch kets [K_j φ_i] of
    `FockArray.from_branches`; one operator keeps a ket a ket.  Every ket
    takes this route, a branch density only while k·r ≤ D^n_out, so the
    branches never outgrow the density they stand for.  Any other density
    is summed as Σ_j K_j ρ K_j†, one operator at a time and through the
    same product: K on the rows ρ eᵢ gives (Kρ)ᵀ, and K on the rows of
    conj(Kρ) gives conj(K ρ K†).

    :raises ValueError: targets that repeat or leave the register, or a
        mode-count-changing map on part of it.
    :raises ZeroProbabilityError: post-selected branch weight ≤ 1e-14.
    :raises TruncationError: a channel loses more than trace_tol of its trace.
    """
    d, n = state.cutoff, state.n_modes
    targets = tuple(range(cmap.n_in)) if targets is None else tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets) or any(t < 0 or t >= n for t in targets):
        raise ValueError(f"targets {targets} must be distinct modes of {n}")
    if len(targets) != cmap.n_in:
        raise ValueError(f"map acts on {cmap.n_in} modes, got targets {targets}")
    if cmap.n_in != cmap.n_out and targets != tuple(range(n)):
        raise ValueError("mode-count-changing maps act on the full register")
    kraus = cmap.kraus
    n_out = n if cmap.n_in == cmap.n_out else cmap.n_out
    dim_out = d**n_out
    out_tol = trace_tol + state.trace_deficit
    rows = state.branches
    if state.kind == "ket":
        rows = state.data.reshape(1, -1)
    elif rows is not None and len(kraus) * rows.shape[0] > dim_out:
        rows = None
    if rows is not None:
        phi = _branch_kets(kraus, rows, targets, d, n, n_out)
        prob = float(np.vdot(phi, phi).real)
    else:
        # accumulates conj(Σ_j K_j ρ K_j†), conjugated once at the end
        acc = np.zeros((dim_out, dim_out), dtype=complex)
        for j in range(len(kraus)):
            one = kraus[j : j + 1]
            k_rho_t = _branch_kets(one, state.data.T, targets, d, n, n_out)
            acc += _branch_kets(one, k_rho_t.T.conj(), targets, d, n, n_out)
        acc = acc.conj()
        prob = float(np.trace(acc).real)
    if cmap.renormalize:
        if prob <= 1e-14:
            raise ZeroProbabilityError(f"post-selected branch has weight {prob:.3e}")
    elif 1.0 - prob > out_tol:
        raise TruncationError(
            f"channel output lost {1.0 - prob:.3e} of its trace",
            deficit=1.0 - prob,
            suggested_cutoff=2 * d,
        )
    if rows is None:
        if cmap.renormalize:
            acc = acc / prob
        return FockArray(n_out, d, "density", acc, trace_tol=out_tol), prob
    if cmap.renormalize:
        phi = phi / np.sqrt(prob)
    if state.kind == "ket" and len(kraus) == 1:
        return FockArray(n_out, d, "ket", phi[0], trace_tol=out_tol), prob
    return FockArray.from_branches(n_out, d, phi, trace_tol=out_tol), prob


def partial_trace(state, keep):
    """Reduced density matrix on the kept modes."""
    keep = tuple(int(k) for k in keep)
    n = state.n_modes
    if not keep or len(set(keep)) != len(keep) or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid mode subset {keep} for {n} modes")
    rho = state.to_density()
    t = rho.tensor()
    drop = [m for m in range(n) if m not in keep]
    for m in sorted(drop, reverse=True):
        t = np.trace(t, axis1=m, axis2=t.ndim // 2 + m)
    dim = state.cutoff ** len(keep)
    # surviving axes keep their relative order; reorder to the keep order
    order = np.argsort(np.argsort(keep))
    perm = list(order) + [len(keep) + o for o in order]
    t = t.transpose(perm) if list(perm) != list(range(t.ndim)) else t
    return FockArray(
        len(keep), state.cutoff, "density", t.reshape(dim, dim),
        trace_tol=state.trace_tol,
    )


def von_neumann_entropy(state):
    """S(ρ) = −Σ λ log₂ λ; exactly 0 for kets.

    A density carrying r < Dⁿ branches Φ takes its spectrum from the r × r
    Gram matrix Φ̄ Φᵀ, whose eigenvalues are the nonzero ones of ρ = Φᵀ Φ̄.
    """
    if state.kind == "ket":
        return 0.0
    phi = state.branches
    if phi is not None and phi.shape[0] < phi.shape[1]:
        w = np.linalg.eigvalsh(phi.conj() @ phi.T)
    else:
        w = np.linalg.eigvalsh(state.data)
    if w.min() < -1e-9:
        raise InvalidStateError(f"density eigenvalue {w.min():.3e} < 0")
    w = w[w > ENTROPY_CLAMP]
    return float(-(w @ np.log2(w)))


def relative_entropy(rho, sigma):
    """S(ρ‖σ) = Tr ρ(log₂ρ − log₂σ); +inf outside σ's support."""
    rho, sigma = rho.to_density(), sigma.to_density()
    if rho.data.shape != sigma.data.shape:
        raise ValueError("dimension mismatch")
    p, u = np.linalg.eigh(rho.data)
    q, v = np.linalg.eigh(sigma.data)
    if p.min() < -1e-9 or q.min() < -1e-9:
        raise InvalidStateError("negative density eigenvalues")
    p = np.clip(p, 0.0, None)
    overlap = np.abs(u.conj().T @ v) ** 2
    outside = q <= SUPPORT_TOL
    if float(p @ overlap[:, outside].sum(axis=1)) > 1e-9:
        return np.inf
    inside = ~outside
    plogp = float(p[p > ENTROPY_CLAMP] @ np.log2(p[p > ENTROPY_CLAMP]))
    cross = float(p @ (overlap[:, inside] @ np.log2(q[inside])))
    value = plogp - cross
    if value < -1e-9:
        raise InvalidStateError(f"relative entropy {value:.3e} < 0 beyond tolerance")
    return max(value, 0.0)


@dataclass(frozen=True)
class MomentRecord:
    """First and second ladder moments: first[j] = ⟨a_j⟩, aa[j,k] = ⟨a_j a_k⟩
    (diagonal ⟨a_j²⟩), adag_a[j,k] = ⟨a_j† a_k⟩."""

    n_modes: int
    first: np.ndarray
    aa: np.ndarray
    adag_a: np.ndarray

    def __post_init__(self):
        occ = np.diag(self.adag_a)
        if np.max(np.abs(occ.imag)) > 1e-9 or occ.real.min() < -1e-9:
            raise InvalidStateError("⟨a†a⟩ must be real and nonnegative")


def _ladder_ket(psi, axis):
    """a ψ along one axis of a ket tensor: out[…, n, …] = √(n+1) ψ[…, n+1, …]."""
    d = psi.shape[axis]
    root = np.sqrt(np.arange(1.0, d)).reshape((-1,) + (1,) * (psi.ndim - 1 - axis))
    lead = (slice(None),) * axis
    out = np.zeros_like(psi)
    out[lead + (slice(None, -1),)] = root * psi[lead + (slice(1, None),)]
    return out


def moments(state):
    """All first/second ladder moments, normalized by the state's weight.

    A ket, or a density carrying branches, is read from its rows φ_i as
    ⟨X⟩ = Σ_i ⟨φ_i|X|φ_i⟩ / Σ_i ‖φ_i‖²; any other density as Tr(Xρ) / Tr ρ,
    with the same lowering on the ket axes of its tensor, and on the bra
    axis n + j for the a_j† of a_k ρ a_j†.
    """
    n, d = state.n_modes, state.cutoff
    first = np.zeros(n, dtype=complex)
    aa = np.zeros((n, n), dtype=complex)
    adag_a = np.zeros((n, n), dtype=complex)
    rows = state.data if state.kind == "ket" else state.branches
    if rows is not None:
        psi = rows.reshape((-1,) + (d,) * n)
        norm_sq = float(np.vdot(psi, psi).real)
        # axis 0 runs over the rows, so mode j is axis j + 1
        lowered = [_ladder_ket(psi, j + 1) for j in range(n)]
        for j in range(n):
            first[j] = np.vdot(psi, lowered[j])
            for k in range(j, n):
                aa[j, k] = aa[k, j] = np.vdot(psi, _ladder_ket(lowered[j], k + 1))
            for k in range(n):
                adag_a[j, k] = np.vdot(lowered[j], lowered[k])
        first /= norm_sq
        aa /= norm_sq
        adag_a /= norm_sq
    else:
        t = state.tensor()
        trace = float(np.trace(state.data).real)
        lowered = [_ladder_ket(t, j) for j in range(n)]
        for j in range(n):
            first[j] = np.trace(lowered[j].reshape(d**n, -1))
            for k in range(j, n):
                aa[j, k] = aa[k, j] = np.trace(_ladder_ket(lowered[j], k).reshape(d**n, -1))
            for k in range(n):
                adag_a[j, k] = np.trace(_ladder_ket(lowered[k], n + j).reshape(d**n, -1))
        first /= trace
        aa /= trace
        adag_a /= trace
    return MomentRecord(n, first, aa, adag_a)


def covariance_from_moments(m):
    """Gaussian state with the covariance/mean implied by ladder moments.

    Uses the quadrature identities q = a + a†, p = i(a† − a); each block is
    assembled from ⟨a⟩, ⟨a²⟩, ⟨a†a⟩ and, across modes, ⟨a_j a_k⟩, ⟨a_j† a_k⟩.
    """
    n = m.n_modes
    mean = np.zeros(2 * n)
    cov = np.zeros((2 * n, 2 * n))
    for j in range(n):
        mean[2 * j] = 2.0 * m.first[j].real
        mean[2 * j + 1] = 2.0 * m.first[j].imag
    for j in range(n):
        sq = m.aa[j, j]
        occ = m.adag_a[j, j].real
        q, p = mean[2 * j], mean[2 * j + 1]
        cov[2 * j, 2 * j] = 2.0 * sq.real + 2.0 * occ + 1.0 - q * q
        cov[2 * j + 1, 2 * j + 1] = -2.0 * sq.real + 2.0 * occ + 1.0 - p * p
        cov[2 * j, 2 * j + 1] = cov[2 * j + 1, 2 * j] = 2.0 * sq.imag - q * p
    for j in range(n):
        for k in range(j + 1, n):
            ab = m.aa[j, k]
            adb = m.adag_a[j, k]
            qj, pj = mean[2 * j], mean[2 * j + 1]
            qk, pk = mean[2 * k], mean[2 * k + 1]
            block = np.array(
                [
                    [2.0 * (ab + adb).real - qj * qk, 2.0 * (adb + ab).imag - qj * pk],
                    [2.0 * (ab - adb).imag - pj * qk, 2.0 * (adb - ab).real - pj * pk],
                ]
            )
            cov[2 * j : 2 * j + 2, 2 * k : 2 * k + 2] = block
            cov[2 * k : 2 * k + 2, 2 * j : 2 * j + 2] = block.T
    return GaussianState(n, mean, cov)


def gaussify(state):
    """Resource-destroying map λ_G: the Gaussian state with ρ's mean and cov."""
    return covariance_from_moments(moments(state))


def _expm_passive(theta, cutoff, cols):
    """Columns U[:, cols] (distinct indices) of the two-mode U =
    exp(−i Σ θ_jk a_j†a_k).  U keeps the total photon number, so only the
    sectors holding a requested column are exponentiated, each through its
    eigenpairs, and only those columns are written."""
    d = cutoff
    out = np.zeros((d * d, cols.size), dtype=complex)
    first, second = np.divmod(cols, d)
    totals = first + second
    for total in np.unique(totals):
        lo = max(0, total - d + 1)
        hi = min(total, d - 1)
        ks = np.arange(lo, hi + 1)
        m = len(ks)
        h = np.zeros((m, m), dtype=complex)
        for i, k in enumerate(ks):
            h[i, i] = theta[0, 0] * k + theta[1, 1] * (total - k)
            if i + 1 < m:
                # a_0† a_1 maps |k, total−k⟩ → √(k+1)√(total−k) |k+1, total−k−1⟩
                val = np.sqrt((k + 1.0) * (total - k))
                h[i + 1, i] += theta[0, 1] * val
                h[i, i + 1] += theta[1, 0] * val
        held = np.flatnonzero(totals == total)
        out[np.ix_(ks * d + (total - ks), held)] = _eigen_exp(
            *np.linalg.eigh(h), 1.0, first[held] - lo
        )
    return out


def _quadratic_generator(K, n_modes, cutoff):
    """h = Σ_ij K_ij x_i x_j over the quadratures x = (q₁, p₁, …, qₙ, pₙ).

    Each term is a d×d product on one mode, or one d×d factor on each of two
    modes, placed with np.kron; no dim×dim product is formed.
    """
    a = ladder(cutoff)
    quad = (a + a.conj().T, 1j * (a.conj().T - a))
    eye = np.eye(cutoff)

    def placed(factors):
        return reduce(np.kron, [factors.get(m, eye) for m in range(n_modes)])

    dim = cutoff**n_modes
    h = np.zeros((dim, dim), dtype=complex)
    for k in range(n_modes):
        own = K[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
        h += placed({k: sum(own[s, t] * quad[s] @ quad[t] for s in (0, 1) for t in (0, 1))})
        for m in range(k + 1, n_modes):
            # x_i x_j = x_j x_i across modes, so each unordered pair counts twice
            cross = 2.0 * K[2 * k : 2 * k + 2, 2 * m : 2 * m + 2]
            for s in (0, 1):
                h += placed({k: quad[s], m: cross[s, 0] * quad[0] + cross[s, 1] * quad[1]})
    return h


def symplectic_to_unitary(op, cutoff=DEFAULT_CUTOFF, cols=None):
    """Fock unitary U of a one- or two-mode SymplecticOp, in the box;
    with cols (distinct indices) only the columns U[:, cols].

    S = O·P splits into a passive rotation O and a positive symplectic P;
    the displacement is applied last, to the requested columns alone, and
    every exponential goes through eigenpairs.  One mode: O = R(φ) and
    P = R(ψ)·diag(e^{−r}, e^{r})·R(ψ)ᵀ, and rotations are diagonal in the
    box, so U = R(φ+ψ)·S(r)·R(−ψ) with S(r) from the squeezer's cached
    eigenbasis, the same matrix as the exponential of P's truncated
    generator.  Two modes: the passive U is exponentiated per total-photon
    sector, and P's truncated generator, which changes n₁+n₂ by 0 or ±2, per
    photon-parity block, each only where it holds a requested column.

    :raises ValueError: three or more modes, or above _MAX_DENSE_DIM
        dimensions.
    """
    n = op.n_modes
    if n > 2:
        raise ValueError(f"the Fock lift covers 1 or 2 modes, got {n}")
    dim = cutoff**n
    if dim > _MAX_DENSE_DIM:
        raise ValueError(f"dimension {dim} too large for a dense unitary")
    cols = np.arange(dim) if cols is None else np.asarray(cols)
    orth, pos = polar(op.S)

    # the passive logarithm goes through an eigenbasis: u_pass is unitary,
    # hence normal, so its complex Schur factor is diagonal
    u_pass = orth[0::2, 0::2] + 1j * orth[1::2, 0::2]
    t, z = schur(u_pass, output="complex")
    theta = 1j * (z * np.log(np.diag(t))) @ z.conj().T
    theta = 0.5 * (theta + theta.conj().T)
    w, v = np.linalg.eigh(pos)

    if n == 1:
        # v[:, 0] = ±(cos ψ, −sin ψ) is the e^{−r} axis of P
        phi = theta[0, 0].real
        psi = np.arctan2(-v[1, 0], v[0, 0])
        levels = np.arange(cutoff)
        out = _from_eigenbasis("squeeze", 0.5 * np.log(w[1] / w[0]), cutoff, cols)
        out = np.exp(-1j * (phi + psi) * levels)[:, None] * out * np.exp(1j * psi * cols)
    elif np.max(np.abs(pos - np.eye(4))) <= 1e-12:
        out = _expm_passive(theta, cutoff, cols)
    else:
        u = _expm_passive(theta, cutoff, np.arange(dim))
        K = -symplectic_form(2) @ (v * np.log(w)) @ v.T
        K = 0.5 * (K + K.T).real
        h = _quadratic_generator(K, 2, cutoff)
        # the passive part preserves photon number, so U_pass·exp(−ih/4)
        # is block-diagonal in parity too
        out = np.zeros((dim, cols.size), dtype=complex)
        parity = np.add.outer(np.arange(cutoff), np.arange(cutoff)).reshape(-1) % 2
        for p in (0, 1):
            block = np.flatnonzero(parity == p)
            held = np.flatnonzero(parity[cols] == p)
            if held.size == 0:
                continue
            ix = np.ix_(block, block)
            active = _eigen_exp(*np.linalg.eigh(h[ix]), 0.25, np.searchsorted(block, cols[held]))
            out[np.ix_(block, held)] = u[ix] @ active

    if np.max(np.abs(op.delta_x)) > 0:
        cols_as_rows = out.T
        for k in range(n):
            disp = build_unitary(
                "displacement",
                0.5 * (op.delta_x[2 * k] + 1j * op.delta_x[2 * k + 1]),
                cutoff,
            )
            cols_as_rows = _branch_kets(disp[None], cols_as_rows, (k,), cutoff, n, n)
        out = cols_as_rows.T
    return out


def _williamson_frame(gstate, cutoff):
    """Thermal occupations of a Gaussian state, their product number
    distribution at the cutoff, and its Williamson symplectic with the
    state's mean: the state is U(S) diag(weights) U(S)†.  A symplectic
    eigenvalue within MU_CLAMP_TOL of 1 is read as 1, a pure mode."""
    mu, s_mat = williamson(gstate.cov)
    occ = np.where(mu <= 1.0 + MU_CLAMP_TOL, 0.0, (mu - 1.0) / 2.0)
    weights = reduce(np.kron, [_thermal_weights(N, cutoff) for N in occ])
    return occ, weights, SymplecticOp(gstate.n_modes, s_mat, gstate.mean)


def gaussian_to_fock(gstate, cutoff=DEFAULT_CUTOFF, trace_tol=APPLY_DEFICIT_TOL):
    """Fock density of a Gaussian state that carries its Williamson branches.

    The state is U diag(w) U†, with w the thermal product of its symplectic
    spectrum and U the Fock unitary of its Williamson symplectic, displaced
    to the state's mean.  Only the columns of U with w_k > 0 are built;
    they give the branch kets Φ = √w_k (U e_k)ᵀ of
    `FockArray.from_branches`.  A symplectic eigenvalue within MU_CLAMP_TOL
    of 1 counts as a pure mode, so a pure state carries one branch.
    """
    occ, weights, op = _williamson_frame(gstate, cutoff)
    deficit = 1.0 - float(weights.sum())
    if deficit > trace_tol:
        raise _truncation_refusal(
            "the Williamson thermal product", deficit, cutoff, trace_tol,
            lambda d: 1.0 - np.prod([_thermal_weights(N, d).sum() for N in occ]),
        )
    cols = np.flatnonzero(weights > 0)
    phi = np.sqrt(weights[cols])[:, None] * symplectic_to_unitary(op, cutoff, cols).T
    return FockArray.from_branches(gstate.n_modes, cutoff, phi, trace_tol=trace_tol)


def delta_g(state):
    """Non-Gaussianity δ_G(ρ) = S(λ_G(ρ)) − S(ρ) in bits (clamped at 0)."""
    value = gaussian_entropy(gaussify(state)) - von_neumann_entropy(state)
    if value < -1e-6:
        raise TruncationError(
            f"negative non-Gaussianity {value:.3e}: moments corrupted by cutoff",
            deficit=-value,
        )
    return max(value, 0.0)


def delta_g_relent(state):
    """Diagnostic route δ_G(ρ) = S(ρ ‖ λ_G(ρ)).

    Uses the factored form of λ_G(ρ) from the Williamson route, so log σ is
    evaluated on the exact geometric spectrum; an eigensolver on the assembled
    σ would drown its tiny eigenvalues in floating-point noise.
    """
    g = gaussify(state)
    _, q, op = _williamson_frame(g, state.cutoff)
    u = symplectic_to_unitary(op, state.cutoff)
    rho = state.to_density()
    proj = np.einsum("ji,jk,ki->i", u.conj(), rho.data, u).real
    live = q > 0
    if float(proj[~live].sum()) > 1e-9:
        return np.inf
    cross = float(proj[live] @ np.log2(q[live]))
    return max(-von_neumann_entropy(state) - cross, 0.0)


def edge_occupancy(state):
    """Largest weight any mode keeps in its top two number levels."""
    return max(
        float(number_distribution(state, mode)[-_EDGE_LEVELS:].sum())
        for mode in range(state.n_modes)
    )


def certify_edge(state, edge_tol, suggested_cutoff=None):
    """Return the state if its edge occupancy is at most edge_tol.

    A caller holding a moment tolerance t at cutoff d passes
    t / (EDGE_COST·d²); EDGE_COST is an empirical estimate (see above).

    :raises TruncationError: carrying the edge occupancy as the deficit
        estimate and the given suggested cutoff.
    """
    edge = edge_occupancy(state)
    if edge > edge_tol:
        raise TruncationError(
            f"{edge:.3e} of the weight sits in the top {_EDGE_LEVELS} number "
            f"levels at cutoff {state.cutoff}",
            deficit=edge,
            suggested_cutoff=suggested_cutoff,
        )
    return state


def gaussian_cutoff(gstate, moment_tol, above):
    """Smallest cutoff d above `above` at which the Fock image of a Gaussian
    state is expected to pass certify_edge at moment_tol/(EDGE_COST·d²).

    The edge occupancy at cutoff d is estimated by the bound on the exact
    state's weight at or above level d − 2 (gaussian.photon_tail_bound):
    on every input-family state measured, in-box construction parked less
    than that weight in the top levels.  Returns None above 65536.
    """
    lo = int(above) + 1
    while lo <= 65536:
        cut = np.arange(lo, 2 * lo + 1)
        cost = EDGE_COST * cut.astype(float) ** 2 * photon_tail_bound(
            gstate, cut - _EDGE_LEVELS
        )
        fits = np.flatnonzero(cost <= moment_tol)
        if fits.size:
            return int(cut[fits[0]])
        lo = 2 * lo + 1
    return None


def number_distribution(state, mode=0):
    """Photon-number probabilities of one mode (marginal for densities)."""
    if state.kind == "ket":
        psi = state.data
        axes = tuple(m for m in range(state.n_modes) if m != mode)
        p = np.abs(psi) ** 2
        return p.sum(axis=axes) if axes else p
    reduced = partial_trace(state, (mode,))
    return np.diag(reduced.data).real.copy()
