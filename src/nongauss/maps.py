"""Catalog of conditional photonic maps and channel constructors.

Each constructor returns a MapDescriptor whose body is a ConditionalMap on
Fock tensors truncated at the given cutoff, given by its Kraus family: a
unitary is (U,), a unitary mixture (√p_j U_j), and composition multiplies
Kraus operators pairwise.  Descriptors are immutable and safe to share
between threads.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedMapError, ZeroProbabilityError
from .fock import (
    DEFAULT_CUTOFF,
    ConditionalMap,
    FockArray,
    build_state,
    build_unitary,
    ladder,
    symplectic_to_unitary,
)
from .gaussian import SymplecticOp, gaussian_unitary

DEFAULT_KERR_GAMMA = 0.5


@dataclass(frozen=True)
class MapDescriptor:
    """A named conditional map with analytic metadata."""

    name: str
    body: ConditionalMap
    cutoff: int
    metadata: dict = field(default_factory=dict)


def pns(cutoff=DEFAULT_CUTOFF):
    """Photon-number subtraction: single Kraus operator a, renormalized."""
    if cutoff < 3:
        raise ValueError("cutoff must be at least 3")
    body = ConditionalMap(1, 1, (ladder(cutoff),), renormalize=True)
    return MapDescriptor("pns", body, cutoff)


def pna(cutoff=DEFAULT_CUTOFF):
    """Photon-number addition: single Kraus operator a†, renormalized."""
    if cutoff < 3:
        raise ValueError("cutoff must be at least 3")
    adag = ladder(cutoff).conj().T
    body = ConditionalMap(1, 1, (adag,), renormalize=True)
    return MapDescriptor("pna", body, cutoff)


def _arm_photon_number(alpha, r, n_s):
    # <a†a> of one arm of a TMSV after squeezing by r and displacing by α;
    # the rotation angle drops out.
    return abs(alpha) ** 2 + ((1.0 + 2.0 * n_s) * np.cosh(2.0 * r) - 1.0) / 2.0


def normalization_pns(alpha, r, n_s):
    """Normalization factor of a|ψ⟩ on a displaced squeezed TMSV arm."""
    w = _arm_photon_number(alpha, r, n_s)
    if w <= 0.0:
        raise ZeroProbabilityError("subtraction weight vanishes on the vacuum arm")
    return float(w) ** -0.5


def normalization_pna(alpha, r, n_s):
    """Normalization factor of a†|ψ⟩ on a displaced squeezed TMSV arm."""
    w = _arm_photon_number(alpha, r, n_s) + 1.0
    if w <= 0.0:
        raise ZeroProbabilityError("addition weight vanishes")
    return float(w) ** -0.5


def bps(cutoff=DEFAULT_CUTOFF):
    """Binary phase shift: a π rotation applied with probability 1/2."""
    eye = np.eye(cutoff, dtype=complex)
    parity = build_unitary("rotation", np.pi, cutoff)
    kraus = (np.sqrt(0.5) * eye, np.sqrt(0.5) * parity)
    return MapDescriptor("bps", ConditionalMap(1, 1, kraus, renormalize=False), cutoff)


def kerr(gamma=DEFAULT_KERR_GAMMA, cutoff=DEFAULT_CUTOFF):
    """Self-Kerr unitary exp(-iγ(a†a)²)."""
    u = build_unitary("kerr", float(gamma), cutoff)
    body = ConditionalMap(1, 1, (u,), renormalize=False)
    return MapDescriptor("kerr", body, cutoff, {"gamma": float(gamma)})


def identity_map(cutoff=DEFAULT_CUTOFF):
    """The single-mode identity channel."""
    body = ConditionalMap(1, 1, (np.eye(cutoff, dtype=complex),), renormalize=False)
    return MapDescriptor("id", body, cutoff)


def coherent_projector(alpha, cutoff=DEFAULT_CUTOFF):
    """Project the second mode onto |α⟩, keeping the first.

    The single Kraus operator is I ⊗ ⟨α|, the sandwich form of the
    conditional map: T(ρ) ∝ ⟨α|ρ|α⟩ on the surviving mode.
    """
    bra = build_state("coherent", alpha, cutoff).data.conj()
    k = np.kron(np.eye(cutoff), bra.reshape(1, -1))
    body = ConditionalMap(2, 1, (k,), renormalize=True)
    return MapDescriptor("talpha", body, cutoff, {"alpha": complex(alpha)})


def gaussian_dilatable(sym, env, cutoff=DEFAULT_CUTOFF):
    """Channel ρ → Tr_E[U(ρ ⊗ ψ_E)U†] with U the Fock lift of sym.

    sym acts on the system modes followed by the environment modes; env
    supplies ψ_E as a ket at the same cutoff.  The body is the Kraus family
    K_j = (I ⊗ ⟨j|) U (I ⊗ |ψ_E⟩) = Σ_e ψ_E[e] (I ⊗ ⟨j|) U |·, e⟩, so only
    the columns |n, e⟩ of U with ψ_E[e] ≠ 0 are built: d^n_sys of them for
    a Fock-state environment, every column for one of full support.
    """
    if env.kind != "ket":
        raise UnsupportedMapError("environment must be a pure state")
    if env.cutoff != cutoff:
        raise ValueError("environment cutoff disagrees with map cutoff")
    n_env = env.n_modes
    n_sys = sym.n_modes - n_env
    if n_sys < 1:
        raise ValueError("symplectic must cover at least one system mode")
    dim_s = cutoff**n_sys
    dim_e = cutoff**n_env
    amps = env.data.reshape(-1)
    support = np.flatnonzero(amps)
    # column (n, e) of U: input system n, input environment e
    cols = (np.arange(dim_s)[:, None] * dim_e + support).reshape(-1)
    u_cols = symplectic_to_unitary(sym, cutoff, cols)
    # axes: output system, output environment, input system
    k_tensor = u_cols.reshape(dim_s, dim_e, dim_s, support.size) @ amps[support]
    body = ConditionalMap(n_sys, n_sys, tuple(k_tensor.transpose(1, 0, 2)), renormalize=False)
    return MapDescriptor("gd", body, cutoff, {"environment": env})


def loss(tau, cutoff=DEFAULT_CUTOFF):
    """Pure-loss channel of transmissivity τ (beamsplitter + vacuum)."""
    if not 0.0 < tau <= 1.0:
        raise ValueError("transmissivity must lie in (0, 1]")
    sym = gaussian_unitary("beamsplitter", tau, n_modes=2)
    env = build_state("vacuum", None, cutoff)
    desc = gaussian_dilatable(sym, env, cutoff)
    meta = dict(desc.metadata, tau=float(tau))
    return dataclasses.replace(desc, name="loss", metadata=meta)


def compose(outer, inner):
    """The map ρ → outer(inner(ρ)) as a single ConditionalMap.

    Kraus families multiply pairwise; the result renormalizes when either
    factor does.
    """
    if inner.n_out != outer.n_in:
        raise UnsupportedMapError(
            f"cannot compose: inner yields {inner.n_out} modes, "
            f"outer expects {outer.n_in}"
        )
    return ConditionalMap(
        inner.n_in,
        outer.n_out,
        tuple(b @ a for b in outer.kraus for a in inner.kraus),
        renormalize=inner.renormalize or outer.renormalize,
    )


def parse_state_spec(spec, cutoff, trace_tol=1e-6):
    """Build a state from a command-line spec string.

    Grammar: vacuum | fock:n | coherent:re[,im] | thermal:N | tmsv:NS |
    cat:alpha.
    """
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    try:
        if name == "vacuum":
            return build_state("vacuum", None, cutoff, trace_tol=trace_tol)
        if name == "fock":
            return build_state("fock", int(arg), cutoff, trace_tol=trace_tol)
        if name == "coherent":
            parts = [float(x) for x in arg.split(",")]
            alpha = complex(parts[0], parts[1] if len(parts) > 1 else 0.0)
            return build_state("coherent", alpha, cutoff, trace_tol=trace_tol)
        if name == "thermal":
            return build_state("thermal", float(arg), cutoff, trace_tol=trace_tol)
        if name == "tmsv":
            return build_state("tmsv", float(arg), cutoff, trace_tol=trace_tol)
        if name == "cat":
            return build_state("cat", float(arg), cutoff, trace_tol=trace_tol)
    except ValueError as exc:
        raise ValueError(f"bad state spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown state spec {spec!r}")


def _parse_gd(arg, cutoff):
    # grammar: bs<tau>,env=<state spec>, e.g. gd:bs0.5,env=fock:1
    tau = None
    env_spec = None
    for piece in (p.strip() for p in arg.split(",") if p.strip()):
        if piece.startswith("env="):
            env_spec = piece[4:]
        elif piece.startswith("bs"):
            tau = float(piece[2:])
        else:
            raise ValueError(f"unknown gd field {piece!r}")
    if tau is None or env_spec is None:
        raise ValueError("gd spec needs both bs<tau> and env=<state>")
    env = parse_state_spec(env_spec, cutoff)
    if env.kind != "ket" or env.n_modes != 1:
        raise UnsupportedMapError(
            "beamsplitter dilation takes a single-mode pure environment"
        )
    sym = gaussian_unitary("beamsplitter", tau, n_modes=2)
    return gaussian_dilatable(sym, env, cutoff)


def parse_map_spec(spec, cutoff):
    """Build a map from a command-line spec string.

    Grammar: pns | pna | bps | kerr[:gamma] | talpha:alpha |
    gd:bs<tau>,env=<state> | loss:tau | id.
    """
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    if name == "pns":
        return pns(cutoff)
    if name == "pna":
        return pna(cutoff)
    if name == "bps":
        return bps(cutoff)
    if name == "id":
        return identity_map(cutoff)
    if name == "kerr":
        return kerr(float(arg) if arg else DEFAULT_KERR_GAMMA, cutoff)
    if name in ("talpha", "tα"):
        if not arg:
            raise ValueError("talpha needs an amplitude, e.g. talpha:1.0")
        parts = [float(x) for x in arg.split(",")]
        alpha = complex(parts[0], parts[1] if len(parts) > 1 else 0.0)
        return coherent_projector(alpha, cutoff)
    if name == "gd":
        return _parse_gd(arg, cutoff)
    if name == "loss":
        if not arg:
            raise ValueError("loss needs a transmissivity, e.g. loss:0.9")
        return loss(float(arg), cutoff)
    raise ValueError(f"unknown map spec {spec!r}")
