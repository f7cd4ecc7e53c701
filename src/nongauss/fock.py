"""Truncated Fock-space engine: states as finite complex arrays, conditional
maps as Kraus families of matrices, entropies, moment extraction, and the
Gaussian resource-destroying map.

Kets over n modes are stored as tensors of shape (D,)*n; a density as its
rows Φ (r × D**n, ρ = Φᵀ Φ̄), with C-ordered multi-indices (mode 0 most
significant) and ρ formed as a (D**n, D**n) matrix once read.
Quadrature conventions match the phase-space module: q = a + a†, p = i(a† − a),
so means and covariances can move freely between the two backends.
"""

import math
import threading
from dataclasses import InitVar, dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .errors import InvalidStateError, TruncationError, ZeroProbabilityError
from .gaussian import (
    GaussianState,
    SymplecticOp,
    gaussian_entropy,
    gaussian_unitary,
    photon_tail_bound,
    symplectic_form,
    thermal_occupation,
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


def _check_register(n_modes, cutoff):
    if n_modes < 1:
        raise ValueError(f"need at least one mode, got {n_modes}")
    _check_cutoff(cutoff)


def ladder(cutoff):
    """Annihilation operator a|n⟩ = √n|n−1⟩ on the basis 0..cutoff−1."""
    _check_cutoff(cutoff)
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), k=1).astype(complex)


@dataclass(frozen=True)
class FockArray:
    """Truncated Fock representation of a ket or a density matrix.

    trace_deficit records 1 − ⟨ψ|ψ⟩ (ket) or 1 − Tr ρ (density); it must not
    exceed trace_tol, which must be nonnegative (a NaN, which no deficit
    exceeds, is refused). States are kept unnormalized-by-truncation so the
    deficit stays observable.  A density is its rows Φ, the read-only
    `branches` field, with ρ = Φᵀ Φ̄, and its spectrum the read-only
    `eigenvalues`.  The constructor takes ρ as `data` and keeps its one
    `eigh`: the λ_i and the eigen-rows √λ_i v_iᵀ (λ_i > 0), refusing an
    eigenvalue below −1e-9; `from_branches` takes the rows and forms
    `data` and `eigenvalues` on first read, then caches them read-only.
    """

    n_modes: int
    cutoff: int
    kind: str
    data: np.ndarray
    trace_tol: float = APPLY_DEFICIT_TOL
    trace_deficit: float = field(init=False)
    branches: np.ndarray = field(default=None, init=False, compare=False, repr=False)
    eigenvalues: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n, d = self.n_modes, self.cutoff
        _check_register(n, d)
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
        self._settle(data, deficit)
        object.__setattr__(self, "data", data)
        if self.kind == "density":
            w, v = np.linalg.eigh(data)
            if w.min() < -1e-9:
                raise InvalidStateError(f"density eigenvalue {w.min():.3e} < 0")
            live = w > 0
            rows = np.sqrt(w[live])[:, None] * v[:, live].T
            rows.setflags(write=False)
            w.setflags(write=False)
            object.__setattr__(self, "branches", rows)
            object.__setattr__(self, "eigenvalues", w)

    def _settle(self, values, deficit):
        """Check the entries and the trace deficit, then record the deficit
        and make the entries read-only."""
        if not self.trace_tol >= 0.0:
            raise ValueError(f"trace_tol must be nonnegative, got {self.trace_tol}")
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite entries")
        if deficit < -1e-9:
            raise InvalidStateError(f"trace exceeds 1 by {-deficit:.3e}")
        if deficit > self.trace_tol:
            raise TruncationError(
                f"trace deficit {deficit:.3e} exceeds bound {self.trace_tol:.1e}",
                deficit=deficit,
            )
        values.setflags(write=False)
        object.__setattr__(self, "trace_deficit", deficit)

    @classmethod
    def from_branches(cls, n_modes, cutoff, phi, trace_tol=APPLY_DEFICIT_TOL):
        """Density ρ = Φᵀ Φ̄ of the branch kets Φ (r × Dⁿ, e.g. [K_j ψ] of a
        channel on a pure input), kept as `branches`.

        Φ is checked as the constructor checks ρ, with Tr ρ = ‖Φ‖²; ρ itself
        is formed only when `data` is first read.
        """
        _check_register(n_modes, cutoff)
        phi = np.array(phi, dtype=complex)
        dim = cutoff**n_modes
        if phi.ndim != 2 or phi.shape[1] != dim:
            raise ValueError(f"branches must be an r x {dim} array, got {phi.shape}")
        out = object.__new__(cls)
        for name, value in (
            ("n_modes", n_modes), ("cutoff", cutoff), ("kind", "density"),
            ("trace_tol", trace_tol), ("branches", phi),
        ):
            object.__setattr__(out, name, value)
        out._settle(phi, 1.0 - float(np.vdot(phi, phi).real))
        return out

    def __getattr__(self, name):
        # reached only when `name` is not set: for `data` or `eigenvalues`,
        # that is a density built by `from_branches` that has not read it yet
        phi = self.__dict__.get("branches")
        if name not in ("data", "eigenvalues") or phi is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if name == "data":
            value = phi.T @ phi.conj()
        elif phi.shape[0] < phi.shape[1]:
            # the r × r Gram matrix Φ̄ Φᵀ has the nonzero eigenvalues of ρ
            value = np.linalg.eigvalsh(phi.conj() @ phi.T)
        else:
            value = np.linalg.eigvalsh(self.data)
        value.setflags(write=False)
        object.__setattr__(self, name, value)
        return value

    def to_density(self):
        """A ket as the density of its one row; identity on densities."""
        if self.kind == "density":
            return self
        return FockArray.from_branches(
            self.n_modes, self.cutoff, self.data.reshape(1, -1), trace_tol=self.trace_tol
        )


@dataclass(frozen=True, eq=False)
class ConditionalMap:
    """A conditional quantum map ρ → T(ρ)/Tr T(ρ) (or the channel T itself),
    given by its Kraus family: T(ρ) = Σ_j K_j ρ K_j†.

    The constructor takes the family as a nonempty tuple of matrices of one
    shape, or as a builder, a function of no arguments that returns them,
    with the family's `shape` (k, out, in).  Either way `shape` is known at
    once, and the family is stacked on the first read of `kraus`, once even
    under concurrent reads, and kept as a read-only k × out × in array, so
    a route that never reads it never builds it.  A unitary is the family
    (U,), a mixture Σ_j p_j U_j ρ U_j† the family (√p_j U_j).
    renormalize=True gives the post-selected map.
    """

    n_in: int
    n_out: int
    family: InitVar[object]
    renormalize: bool
    shape: tuple = None

    def __post_init__(self, family):
        if isinstance(family, tuple):
            shapes = {np.shape(k) for k in family}
            if len(shapes) != 1 or len(next(iter(shapes))) != 2:
                raise ValueError("the Kraus family must be a nonempty tuple of matrices of one shape")
            object.__setattr__(self, "shape", (len(family), *shapes.pop()))
            object.__setattr__(self, "_build", lambda: family)
        elif callable(family) and self.shape is not None and len(self.shape) == 3:
            object.__setattr__(self, "shape", tuple(self.shape))
            object.__setattr__(self, "_build", family)
        else:
            raise ValueError("the Kraus family must be a tuple, or a builder with its shape")
        object.__setattr__(self, "_lock", threading.Lock())

    @property
    def kraus(self):
        """The family stacked as a read-only k × out × in complex array,
        built on the first read and kept."""
        with self._lock:
            if self._build is not None:
                stack = np.array(self._build(), dtype=complex)
                if stack.shape != self.shape:
                    raise ValueError(f"the Kraus builder gave shape {stack.shape}, not {self.shape}")
                stack.setflags(write=False)
                object.__setattr__(self, "_stack", stack)
                object.__setattr__(self, "_build", None)
            return self._stack

    @property
    def conditional_unitary(self):
        """One Kraus operator and the same mode count in and out."""
        return self.n_in == self.n_out and self.shape[0] == 1


def _coherent_amplitudes(alpha, cutoff):
    """⟨n|α⟩, n < cutoff, in log space: log|c_n| = −|α|²/2 + n log|α| −
    ½ log n!, times e^{inφ}, so no factor underflows where c_n does not.
    At α = 0, n log|α| is 0 for n = 0 and −∞ above, with no log of 0."""
    n = np.arange(cutoff)
    n_log_r = n * math.log(abs(alpha)) if alpha else np.where(n == 0, 0.0, -np.inf)
    log_fact = np.array(list(map(math.lgamma, range(1, cutoff + 1))))  # log n!
    log_c = -0.5 * abs(alpha) ** 2 + n_log_r - 0.5 * log_fact
    return np.exp(log_c + 1j * n * np.angle(alpha))


def _thermal_weights(n_mean, cutoff):
    """Number distribution (N/(N+1))ⁿ/(N+1), n < cutoff, of a thermal state."""
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


def _amplitudes(kind, params, cutoff, trace_tol=np.inf):
    """1-D amplitudes c of a state family at a cutoff: a ket's (vacuum,
    fock, coherent, cat), √p_n of a thermal number distribution, or the
    Schmidt coefficients λⁱ/√(N_S+1), λ = √(N_S/(N_S+1)), of the TMSV
    Σ_i c_i |i, i⟩.  The trace deficit is 1 − Σ|c|², so no family forms a
    d×d array before it is accepted.

    :raises ValueError: before any arithmetic, a Fock number that is not an
        integer >= 0, an amplitude that is not finite, or an occupation that
        is not finite and >= 0, naming the parameter.
    :raises TruncationError: the deficit exceeds trace_tol; the suggested
        cutoff reads the deficits of this route at larger cutoffs.
    """
    if kind in ("vacuum", "fock"):
        n = 0 if kind == "vacuum" else params
        if not (n >= 0 and float(n).is_integer()):
            raise ValueError(f"a Fock number must be an integer >= 0, got {n}")
        n = int(n)
        if n >= cutoff:
            raise TruncationError(
                f"fock({n}) needs cutoff > {n}", deficit=1.0, suggested_cutoff=n + 1
            )
        c = np.zeros(cutoff)
        c[n] = 1.0
    elif kind in ("coherent", "cat"):
        alpha = complex(params)
        if not np.isfinite(alpha):
            raise ValueError(f"a {kind} amplitude must be finite, got {params}")
        c = _coherent_amplitudes(alpha, cutoff)
        if kind == "cat":
            c = 2.0 * c
            c[1::2] = 0.0  # |α⟩ + |−α⟩: the even terms of 2|α⟩
            c = c / np.sqrt(2.0 * (1.0 + np.exp(-2.0 * abs(alpha) ** 2)))
    elif kind in ("thermal", "tmsv"):
        N = float(params)
        if not 0.0 <= N < np.inf:
            raise ValueError(f"a {kind} occupation must be finite and >= 0, got {params}")
        if kind == "thermal":
            c = np.sqrt(_thermal_weights(N, cutoff))
        else:
            c = np.sqrt(N / (N + 1.0)) ** np.arange(cutoff) / np.sqrt(N + 1.0)
    else:
        raise ValueError(f"unknown state kind: {kind!r}")
    deficit = _weight_lost(c)
    if deficit > trace_tol:
        raise _truncation_refusal(
            f"{kind} state", deficit, cutoff, trace_tol,
            lambda d: _weight_lost(_amplitudes(kind, params, d)),
        )
    return c


def _weight_lost(c):
    """Trace deficit 1 − Σ|c|² of a family's amplitudes."""
    return 1.0 - float(np.vdot(c, c).real)


def build_state(kind, params=None, cutoff=DEFAULT_CUTOFF, trace_tol=BUILD_DEFICIT_TOL):
    """Normalized Fock state of a named family, within the recorded deficit.

    Kinds: 'vacuum', 'fock' (n), 'coherent' (complex α), 'cat' (even coherent
    superposition, α), 'thermal' (N), 'tmsv' (N_S, Schmidt series with
    λ = √(N_S/(N_S+1))), each built from its amplitudes (_amplitudes).

    :raises ValueError: trace_tol is negative or NaN, or a parameter is out of
        its range (_amplitudes), before any cutoff search.
    :raises TruncationError: deficit above trace_tol, with a suggested cutoff.
    """
    if not trace_tol >= 0.0:
        raise ValueError(f"trace_tol must be nonnegative, got {trace_tol}")
    c = _amplitudes(kind, params, cutoff, trace_tol)
    if kind == "thermal":
        return FockArray.from_branches(1, cutoff, np.diag(c), trace_tol=trace_tol)
    if kind == "tmsv":
        return FockArray(2, cutoff, "ket", np.diag(c), trace_tol=trace_tol)
    return FockArray(1, cutoff, "ket", c, trace_tol=trace_tol)


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


def _from_eigenbasis(kind, x, cutoff, cols=slice(None)):
    """Columns `cols` of exp(x·G) = V e^{−ixw} V† for the generator G and
    the eigenpairs (w, V) of _generator_eigenbasis."""
    w, v = _generator_eigenbasis(kind, cutoff)
    return (v * np.exp(-1j * x * w)) @ v[cols].conj().T


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
    apply_map of the family (u,), keeping the input's trace_tol and a
    density's rows."""
    arity = _infer_arity(u, state.cutoff)
    out, _ = apply_map(state, ConditionalMap(arity, arity, (u,), False), targets)
    if out.kind == "ket":
        return FockArray(state.n_modes, state.cutoff, "ket", out.data, trace_tol=state.trace_tol)
    return FockArray.from_branches(
        state.n_modes, state.cutoff, out.branches, trace_tol=state.trace_tol
    )


def _rows(state):
    """The state as rows Φ with ρ = Φᵀ Φ̄: a ket is one row, a density its
    branches."""
    if state.kind == "ket":
        return state.data.reshape(1, -1)
    return state.branches


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

    A ket is one row ψ, and a density its r rows Φ.  The family, stacked
    once in the map, acts on all the rows in one product and gives the k·r
    branch kets [K_j φ_i] of `FockArray.from_branches`; one operator keeps
    a ket a ket.  When a density's k·r branch kets would exceed D^n_out,
    the output is instead ρ = Σ_c Φ_cᵀ Φ̄_c, summed over chunks of
    operators whose branch kets Φ_c number at most D^n_out (or one
    operator), and kept as its eigen-rows, so the rows never outgrow the
    density they stand for and each chunk holds about D^n_out² entries.

    :raises ValueError: a map built at another cutoff than the state's,
        targets that repeat or leave the register, or a mode-count-changing
        map on part of it.
    :raises ZeroProbabilityError: post-selected branch weight ≤ 1e-14.
    :raises TruncationError: a channel loses more than trace_tol of its trace.
    """
    d, n = state.cutoff, state.n_modes
    if cmap.shape[1:] != (d**cmap.n_out, d**cmap.n_in):
        map_cutoff = round(cmap.shape[2] ** (1.0 / cmap.n_in))
        raise ValueError(f"map cutoff {map_cutoff} does not match the state's cutoff {d}")
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
    rows = _rows(state)
    wide = state.kind == "density" and len(kraus) * rows.shape[0] > dim_out
    if wide:
        rho = np.zeros((dim_out, dim_out), dtype=complex)
        step = max(1, dim_out // rows.shape[0])
        for start in range(0, len(kraus), step):
            phi = _branch_kets(kraus[start : start + step], rows, targets, d, n, n_out)
            rho += phi.T @ phi.conj()
        prob = float(np.trace(rho).real)
    else:
        phi = _branch_kets(kraus, rows, targets, d, n, n_out)
        prob = float(np.vdot(phi, phi).real)
    if cmap.renormalize:
        if prob <= 1e-14:
            raise ZeroProbabilityError(f"post-selected branch has weight {prob:.3e}")
    elif 1.0 - prob > out_tol:
        raise TruncationError(
            f"channel output lost {1.0 - prob:.3e} of its trace",
            deficit=1.0 - prob,
            suggested_cutoff=2 * d,
        )
    if wide:
        if cmap.renormalize:
            rho /= prob
        return FockArray(n_out, d, "density", rho, trace_tol=out_tol), prob
    if cmap.renormalize:
        phi = phi / np.sqrt(prob)
    if state.kind == "ket" and len(kraus) == 1:
        return FockArray(n_out, d, "ket", phi[0], trace_tol=out_tol), prob
    return FockArray.from_branches(n_out, d, phi, trace_tol=out_tol), prob


def partial_trace(state, keep):
    """Reduced density on the kept modes, in the order given.

    The r rows Φ of a ket or a density become the r·d^m rows, over the
    kept modes, of each row and each basis state of the m dropped modes;
    when they outnumber the kept dimension, their ρ is formed and kept as
    its eigen-rows instead, so the rows never outgrow the density.
    """
    keep = tuple(int(k) for k in keep)
    n, d = state.n_modes, state.cutoff
    if not keep or len(set(keep)) != len(keep) or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid mode subset {keep} for {n} modes")
    drop = [m for m in range(n) if m not in keep]
    dim = d ** len(keep)
    # axis 0 runs over the rows, so mode m is axis m + 1
    t = _rows(state).reshape((-1,) + (d,) * n)
    t = t.transpose([0] + [1 + m for m in drop + list(keep)]).reshape(-1, dim)
    if t.shape[0] > dim:
        return FockArray(len(keep), d, "density", t.T @ t.conj(), trace_tol=state.trace_tol)
    return FockArray.from_branches(len(keep), d, t, trace_tol=state.trace_tol)


def von_neumann_entropy(state):
    """S(ρ) = −Σ λ log₂ λ over the density's stored eigenvalues; exactly 0
    for kets, and +0.0, never −0.0, for a pure density."""
    if state.kind == "ket":
        return 0.0
    w = state.eigenvalues
    if w.min() < -1e-9:
        raise InvalidStateError(f"density eigenvalue {w.min():.3e} < 0")
    w = w[w > ENTROPY_CLAMP]
    return float(0.0 - w @ np.log2(w))


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
    (diagonal ⟨a_j²⟩), adag_a[j,k] = ⟨a_j† a_k⟩.  Leading axes, if any, run
    over a stack of states, each checked."""

    n_modes: int
    first: np.ndarray
    aa: np.ndarray
    adag_a: np.ndarray

    def __post_init__(self):
        occ = np.diagonal(self.adag_a, axis1=-2, axis2=-1)
        if np.abs(occ.imag).max() > 1e-9 or occ.real.min() < -1e-9:
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

    Read from the rows φ_i of a ket or a density as
    ⟨X⟩ = Σ_i ⟨φ_i|X|φ_i⟩ / Σ_i ‖φ_i‖².
    """
    n, d = state.n_modes, state.cutoff
    first = np.zeros(n, dtype=complex)
    aa = np.zeros((n, n), dtype=complex)
    adag_a = np.zeros((n, n), dtype=complex)
    psi = _rows(state).reshape((-1,) + (d,) * n)
    norm_sq = float(np.vdot(psi, psi).real)
    # axis 0 runs over the rows, so mode j is axis j + 1
    lowered = [_ladder_ket(psi, j + 1) for j in range(n)]
    for j in range(n):
        first[j] = np.vdot(psi, lowered[j])
        for k in range(j, n):
            aa[j, k] = aa[k, j] = np.vdot(psi, _ladder_ket(lowered[j], k + 1))
        for k in range(n):
            adag_a[j, k] = np.vdot(lowered[j], lowered[k])
    return MomentRecord(n, first / norm_sq, aa / norm_sq, adag_a / norm_sq)


def covariance_from_moments(m):
    """Gaussian state with the covariance/mean implied by ladder moments."""
    return GaussianState(m.n_modes, *mean_and_covariance(m))


def mean_and_covariance(m):
    """Quadrature mean (..., 2n) and covariance (..., 2n, 2n) of a record.

    Uses the quadrature identities q = a + a†, p = i(a† − a); each block is
    assembled from ⟨a⟩, ⟨a²⟩, ⟨a†a⟩ and, across modes, ⟨a_j a_k⟩, ⟨a_j† a_k⟩,
    elementwise over the record's stack axes.
    """
    n = m.n_modes
    lead = np.shape(m.first)[:-1]
    mean = np.empty(lead + (2 * n,))
    cov = np.empty(lead + (2 * n, 2 * n))
    mean[..., 0::2] = q = 2.0 * m.first.real
    mean[..., 1::2] = p = 2.0 * m.first.imag
    for j in range(n):
        sq = m.aa[..., j, j]
        occ = m.adag_a[..., j, j].real
        qj, pj = q[..., j], p[..., j]
        cov[..., 2 * j, 2 * j] = 2.0 * sq.real + 2.0 * occ + 1.0 - qj * qj
        cov[..., 2 * j + 1, 2 * j + 1] = -2.0 * sq.real + 2.0 * occ + 1.0 - pj * pj
        cov[..., 2 * j, 2 * j + 1] = cov[..., 2 * j + 1, 2 * j] = 2.0 * sq.imag - qj * pj
        for k in range(j + 1, n):
            ab = m.aa[..., j, k]
            adb = m.adag_a[..., j, k]
            qk, pk = q[..., k], p[..., k]
            block = (
                (2 * j, 2 * k, 2.0 * (ab + adb).real - qj * qk),
                (2 * j, 2 * k + 1, 2.0 * (adb + ab).imag - qj * pk),
                (2 * j + 1, 2 * k, 2.0 * (ab - adb).imag - pj * qk),
                (2 * j + 1, 2 * k + 1, 2.0 * (adb - ab).real - pj * pk),
            )
            for row, col, value in block:
                cov[..., row, col] = cov[..., col, row] = value
    return mean, cov


def gaussify(state):
    """Resource-destroying map λ_G: the Gaussian state with ρ's mean and cov."""
    return covariance_from_moments(moments(state))


def _apply_passive(theta, cutoff, vecs):
    """Overwrite vectors vecs (d² × m) with U·vecs, for the two-mode passive
    U = exp(−i Σ θ_jk a_j†a_k), and return them.  U keeps the total photon
    number, so it acts one sector at a time, through the sector's
    eigenpairs, on the vectors with weight there; empty sectors are
    skipped, so unit columns exponentiate only the sectors that hold them."""
    d = cutoff
    for total in range(2 * d - 1):
        ks = np.arange(max(0, total - d + 1), min(total, d - 1) + 1)
        rows = ks * d + (total - ks)
        live = np.flatnonzero(np.any(vecs[rows] != 0, axis=0))
        if live.size == 0:
            continue
        # a_0† a_1 maps |k, total−k⟩ → √(k+1)√(total−k) |k+1, total−k−1⟩
        hop = np.sqrt((ks[:-1] + 1.0) * (total - ks[:-1]))
        h = np.diag(theta[0, 0] * ks + theta[1, 1] * (total - ks))
        h = h + np.diag(theta[0, 1] * hop, -1) + np.diag(theta[1, 0] * hop, 1)
        w, v = np.linalg.eigh(h)
        block = np.ix_(rows, live)
        vecs[block] = (v * np.exp(-1j * w)) @ (v.conj().T @ vecs[block])
    return vecs


def _quadratic_generator(K, cutoff):
    """Sparse h = Σ_ij K_ij x_i x_j over the two-mode quadratures
    x = (q₁, p₁, q₂, p₂): Kronecker products of banded d×d factors, at most
    9 nonzeros per row."""
    from scipy import sparse

    a = sparse.diags(np.sqrt(np.arange(1.0, cutoff)), 1)
    quad = (a + a.T, 1j * (a.T - a))
    eye = sparse.identity(cutoff)

    def one_mode(k):
        own = K[2 * k : 2 * k + 2, 2 * k : 2 * k + 2]
        return sum(own[s, t] * (quad[s] @ quad[t]) for s in (0, 1) for t in (0, 1))

    h = sparse.kron(one_mode(0), eye) + sparse.kron(eye, one_mode(1))
    # x_i x_j = x_j x_i across modes, so each unordered pair counts twice
    cross = 2.0 * K[0:2, 2:4]
    for s in (0, 1):
        h = h + sparse.kron(quad[s], cross[s, 0] * quad[0] + cross[s, 1] * quad[1])
    return sparse.csr_matrix(h)


def _expm_action(h, x, vecs):
    """exp(−ix·h)·vecs for a sparse Hermitian h, by the Chebyshev series of
    the exponential (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).

    Gershgorin's discs put h's spectrum in [c − r, c + r], where
    exp(−ixh) = e^{−ixc} Σ_k (2 − δ_k0) (−i)^k J_k(xr) T_k((h − c)/r).
    The series stops at the first k > xr where the bound (xr/2)^k/k! on
    |J_k(xr)| is below 2⁻⁶⁰, so its length depends on h alone, not on the
    vectors, and only sparse products touch them.
    """
    from scipy import sparse, special

    diag = h.diagonal().real
    radius = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
    lo, hi = (diag - radius).min(), (diag + radius).max()
    c, r = 0.5 * (hi + lo), 0.5 * (hi - lo)
    z = x * r
    n, bound = 0, 1.0
    while n <= z or bound >= 2.0**-60:
        n += 1
        bound *= z / (2 * n)
    k = np.arange(n + 1)
    coef = np.where(k == 0, 1.0, 2.0) * np.array([1, -1j, -1, 1j])[k % 4] * special.jv(k, z)
    # T_{k+1} = 2a·T_k − T_{k−1} for a = (h − c)/r, with 2a formed once;
    # blocks of 32 vectors keep the recurrence in cache on wide requests
    twice_a = (h - c * sparse.identity(h.shape[0], format="csr")) * (2.0 / r)
    phase = np.exp(-1j * x * c)
    out = np.empty_like(vecs)
    for start in range(0, vecs.shape[1], 32):
        block = slice(start, start + 32)
        prev = vecs[:, block]
        cur = 0.5 * (twice_a @ prev)
        acc = coef[0] * prev + coef[1] * cur
        for ck in coef[2:]:
            nxt = twice_a @ cur
            nxt -= prev
            prev, cur = cur, nxt
            acc += ck * cur
        out[:, block] = phase * acc
    return out


def _check_lift(n_modes, cutoff):
    """The dimension cutoff**n_modes of a Fock lift, checked without
    building it.

    :raises ValueError: three or more modes, or above _MAX_DENSE_DIM
        dimensions.
    """
    if n_modes > 2:
        raise ValueError(f"the Fock lift covers 1 or 2 modes, got {n_modes}")
    dim = cutoff**n_modes
    if dim > _MAX_DENSE_DIM:
        raise ValueError(f"dimension {dim} too large for a dense unitary")
    return dim


def symplectic_to_unitary(op, cutoff=DEFAULT_CUTOFF, cols=None):
    """Fock unitary U of a one- or two-mode SymplecticOp, in the box;
    with cols (distinct indices) only the columns U[:, cols].

    S = O·P splits into a passive rotation O and a positive symplectic P;
    the displacement is applied last, to the requested columns alone.  One
    mode: O = R(φ) and P = R(ψ)·diag(e^{−r}, e^{r})·R(ψ)ᵀ, and rotations
    are diagonal in the box, so U = R(φ+ψ)·S(r)·R(−ψ) with S(r) from the
    squeezer's cached eigenbasis, the same matrix as the exponential of P's
    truncated generator.  Two modes: the requested unit columns go through
    exp(−ih/4), for P's truncated generator h as a sparse matrix (skipped
    when P = I), and then through the passive U one total-photon sector at
    a time; no d²×d² matrix is formed unless every column is requested.

    :raises ValueError: three or more modes, or above _MAX_DENSE_DIM
        dimensions (_check_lift).
    """
    from scipy.linalg import polar, schur

    n = op.n_modes
    dim = _check_lift(n, cutoff)
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
    else:
        out = np.zeros((dim, cols.size), dtype=complex)
        out[cols, np.arange(cols.size)] = 1.0
        if np.max(np.abs(pos - np.eye(4))) > 1e-12:
            K = -symplectic_form(2) @ (v * np.log(w)) @ v.T
            out = _expm_action(_quadratic_generator(0.5 * (K + K.T).real, cutoff), 0.25, out)
        out = _apply_passive(theta, cutoff, out)

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
    state's mean: the state is U(S) diag(weights) U(S)†.  The occupations
    are gaussian.thermal_occupation's, so a pure mode has occupation 0."""
    mu, s_mat = williamson(gstate.cov)
    occ = thermal_occupation(mu)
    weights = reduce(np.kron, [_thermal_weights(N, cutoff) for N in occ])
    return occ, weights, SymplecticOp(gstate.n_modes, s_mat, gstate.mean)


def gaussian_to_fock(gstate, cutoff=DEFAULT_CUTOFF, trace_tol=APPLY_DEFICIT_TOL):
    """Fock density of a Gaussian state that carries its Williamson branches.

    The state is U diag(w) U†, with w the thermal product of its symplectic
    spectrum and U the Fock unitary of its Williamson symplectic, displaced
    to the state's mean.  Only the columns of U with w_k > 0 are built;
    they give the branch kets Φ = √w_k (U e_k)ᵀ of
    `FockArray.from_branches`.  A symplectic eigenvalue within MU_CLAMP_TOL
    of 1 counts as a pure mode (gaussian.thermal_occupation), so a pure
    state carries one branch.
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
    """Diagnostic route δ_G(ρ) = S(ρ ‖ λ_G(ρ)) for a single-mode state.

    Uses the factored form of λ_G(ρ) from the Williamson route, so log σ is
    evaluated on the exact geometric spectrum; an eigensolver on the assembled
    σ would drown its tiny eigenvalues in floating-point noise.

    :raises ValueError: two or more modes.  There the truncated lift of the
        Williamson symplectic depends on the arbitrary rotation of each of
        its modes, and so would the value.
    """
    if state.n_modes != 1:
        raise ValueError(f"delta_g_relent takes a single-mode state, got {state.n_modes} modes")
    g = gaussify(state)
    _, q, op = _williamson_frame(g, state.cutoff)
    u = symplectic_to_unitary(op, state.cutoff)
    # ⟨u_i|ρ|u_i⟩ = Σ_rows |(Φ ū)_i|² for ρ = Φᵀ Φ̄
    proj = (np.abs(_rows(state) @ u.conj()) ** 2).sum(axis=0)
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
    """Photon-number probabilities of one mode (marginal for densities),
    read as Σ |φ|² over the rows and every other mode, so no ρ is formed."""
    p = np.abs(_rows(state).reshape((-1,) + (state.cutoff,) * state.n_modes)) ** 2
    return p.sum(axis=tuple(ax for ax in range(p.ndim) if ax != 1 + mode))
