"""Catalog of conditional photonic maps and channel constructors.

Each constructor returns a MapDescriptor whose body is a ConditionalMap on
Fock tensors truncated at the given cutoff, given by its Kraus family: a
unitary is (U,), a unitary mixture (√p_j U_j), and composition multiplies
Kraus operators pairwise.  Each constructor checks its arguments and the
family's dimensions at once and hands the body a builder, so the family is
built on its first read (ConditionalMap.kraus), which a closed-form or
phase-space route never makes.  A Gaussian channel (id, loss, gd with a
Gaussian environment, and gd at τ = 1, the identity) carries a marker
instead: it sends Gaussian inputs to Gaussian outputs, so the monotones
read 0 on it without acting on anything.  Descriptors are immutable and
safe to share between threads.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedMapError
from .fock import (
    DEFAULT_CUTOFF,
    ConditionalMap,
    FockArray,
    _check_cutoff,
    _check_lift,
    build_state,
    build_unitary,
    ladder,
    symplectic_to_unitary,
)
from .gaussian import gaussian_unitary

DEFAULT_KERR_GAMMA = 0.5


@dataclass(frozen=True)
class MapDescriptor:
    """A named conditional map with analytic metadata.

    metadata["gaussian"] is True on Gaussian channels only (id, and a
    beamsplitter dilation whose environment is Gaussian or whose τ is 1):
    a Gaussian input leaves them Gaussian, so the monotones read 0 in
    phase space and never act on the input.  metadata["ladder"] ("pns" or
    "pna", on those two only) sends the monotones to the Isserlis closed
    form, metadata["gamma"] (kerr only) to the Kerr one.  They route on
    these keys, never the name: without them, on Fock.
    """

    name: str
    body: ConditionalMap
    cutoff: int
    metadata: dict = field(default_factory=dict)


def pns(cutoff=DEFAULT_CUTOFF):
    """Photon-number subtraction: single Kraus operator a, renormalized."""
    if cutoff < 3:
        raise ValueError("cutoff must be at least 3")
    body = _single_mode(lambda: (ladder(cutoff),), 1, cutoff, renormalize=True)
    return MapDescriptor("pns", body, cutoff, {"ladder": "pns"})


def pna(cutoff=DEFAULT_CUTOFF):
    """Photon-number addition: single Kraus operator a†, renormalized."""
    if cutoff < 3:
        raise ValueError("cutoff must be at least 3")
    body = _single_mode(lambda: (ladder(cutoff).conj().T,), 1, cutoff, renormalize=True)
    return MapDescriptor("pna", body, cutoff, {"ladder": "pna"})


def arm_photon_number(alpha, r, n_s):
    """⟨a†a⟩ of one arm of a TMSV after squeezing by r and displacing by α
    (the rotation angle drops out), elementwise over arrays: the weight
    ⟨K†K⟩ of subtraction K = a on that arm, and one less than that of
    addition K = a†."""
    return abs(alpha) ** 2 + ((1.0 + 2.0 * n_s) * np.cosh(2.0 * r) - 1.0) / 2.0


def bps(cutoff=60):
    """Binary phase shift: a π rotation applied with probability 1/2."""

    def family():
        eye = np.eye(cutoff, dtype=complex)
        return (np.sqrt(0.5) * eye, np.sqrt(0.5) * build_unitary("rotation", np.pi, cutoff))

    return MapDescriptor("bps", _single_mode(family, 2, cutoff), cutoff)


def kerr(gamma=DEFAULT_KERR_GAMMA, cutoff=32):
    """Self-Kerr unitary exp(-iγ(a†a)²), for a finite γ."""
    if not np.isfinite(gamma):
        raise ValueError(f"Kerr γ must be finite, got {gamma}")
    body = _single_mode(lambda: (build_unitary("kerr", float(gamma), cutoff),), 1, cutoff)
    return MapDescriptor("kerr", body, cutoff, {"gamma": float(gamma)})


def identity_map(cutoff=32):
    """The single-mode identity channel."""
    body = _single_mode(lambda: (np.eye(cutoff, dtype=complex),), 1, cutoff)
    return MapDescriptor("id", body, cutoff, {"gaussian": True})


def _single_mode(family, k, cutoff, renormalize=False):
    # the body of a single-mode map: k operators d × d from the builder
    _check_cutoff(cutoff)
    return ConditionalMap(1, 1, family, renormalize, shape=(k, cutoff, cutoff))


def coherent_projector(alpha, cutoff=DEFAULT_CUTOFF):
    """Project the second mode onto |α⟩, keeping the first.

    The single Kraus operator is I ⊗ ⟨α|, the sandwich form of the
    conditional map: T(ρ) ∝ ⟨α|ρ|α⟩ on the surviving mode.
    """
    bra = build_state("coherent", alpha, cutoff).data.conj()
    body = ConditionalMap(
        2, 1, lambda: (np.kron(np.eye(cutoff), bra.reshape(1, -1)),), renormalize=True,
        shape=(1, cutoff, cutoff**2),
    )
    return MapDescriptor("talpha", body, cutoff)


def gaussian_dilatable(sym, env, cutoff=DEFAULT_CUTOFF):
    """Channel ρ → Tr_E[U(ρ ⊗ ψ_E)U†] with U the Fock lift of sym.

    sym acts on the system modes followed by the environment modes; env
    supplies ψ_E as a ket at the same cutoff.  The body is the Kraus family
    K_j = (I ⊗ ⟨j|) U (I ⊗ |ψ_E⟩) = Σ_e ψ_E[e] (I ⊗ ⟨j|) U |·, e⟩, so only
    the columns |n, e⟩ of U with ψ_E[e] ≠ 0 are built, on the family's
    first read: d^n_sys of them for a Fock-state environment, every column
    for one of full support.  The lift's dimensions are checked at once.
    """
    if env.kind != "ket":
        raise UnsupportedMapError("environment must be a pure state")
    if env.cutoff != cutoff:
        raise ValueError("environment cutoff disagrees with map cutoff")
    n_env = env.n_modes
    n_sys = sym.n_modes - n_env
    if n_sys < 1:
        raise ValueError("symplectic must cover at least one system mode")
    _check_lift(sym.n_modes, cutoff)
    dim_s = cutoff**n_sys
    dim_e = cutoff**n_env

    def family():
        amps = env.data.reshape(-1)
        support = np.flatnonzero(amps)
        # column (n, e) of U: input system n, input environment e
        cols = (np.arange(dim_s)[:, None] * dim_e + support).reshape(-1)
        u_cols = symplectic_to_unitary(sym, cutoff, cols)
        # axes: output system, output environment, input system
        k_tensor = u_cols.reshape(dim_s, dim_e, dim_s, support.size) @ amps[support]
        return k_tensor.transpose(1, 0, 2)

    body = ConditionalMap(n_sys, n_sys, family, False, shape=(dim_e, dim_s, dim_s))
    return MapDescriptor("gd", body, cutoff, {"environment": env})


def loss(tau, cutoff=30):
    """Pure-loss channel of transmissivity τ (beamsplitter + vacuum)."""
    return _beamsplitter_channel("loss", tau, "vacuum", cutoff)


def _beamsplitter_channel(name, tau, env_spec, cutoff):
    # gaussian_dilatable of a beamsplitter of transmissivity τ in (0, 1] on
    # the environment env_spec, marked Gaussian when that state is Gaussian
    # or τ is 1, where the Kraus operators are ψ_E[j]·I; at τ = 0, a swap,
    # every input would leave as the environment
    if not 0.0 < tau <= 1.0:
        raise ValueError("transmissivity must lie in (0, 1]")
    env, gaussian = _gaussian_environment(env_spec, cutoff)
    desc = gaussian_dilatable(gaussian_unitary("beamsplitter", tau, n_modes=2), env, cutoff)
    meta = dict(desc.metadata, gaussian=True) if gaussian or tau == 1.0 else desc.metadata
    return dataclasses.replace(desc, name=name, metadata=meta)


def compose(outer, inner):
    """The map ρ → outer(inner(ρ)) as a single ConditionalMap.

    Kraus families multiply pairwise, on the first read of the result's;
    the result renormalizes when either factor does.
    """
    if inner.n_out != outer.n_in:
        raise UnsupportedMapError(
            f"cannot compose: inner yields {inner.n_out} modes, "
            f"outer expects {outer.n_in}"
        )
    if inner.shape[1] != outer.shape[2]:
        raise ValueError(
            f"cannot compose: inner yields dimension {inner.shape[1]}, "
            f"outer expects {outer.shape[2]}"
        )
    return ConditionalMap(
        inner.n_in,
        outer.n_out,
        lambda: tuple(b @ a for b in outer.kraus for a in inner.kraus),
        renormalize=inner.renormalize or outer.renormalize,
        shape=(outer.shape[0] * inner.shape[0], outer.shape[1], inner.shape[2]),
    )


def parse_state_spec(spec, cutoff=None, trace_tol=None):
    """Build a state from a command-line spec string with build_state, at its
    default cutoff and trace tolerance where either is None.

    Grammar: vacuum | fock:n | coherent:re[,im] | thermal:N | tmsv:NS |
    cat:alpha; vacuum takes no argument.
    """
    return _state_spec(spec, cutoff, trace_tol)[0]


def _state_spec(spec, cutoff=None, trace_tol=None, pure=False):
    # the one parse of a state spec: (its state, kind, params); pure=True
    # refuses a mixed or two-mode kind before anything is built
    name, _, arg = spec.partition(":")
    kind = name.strip().lower()
    read = {"vacuum": _no_argument, "fock": int, "coherent": _amplitude,
            "thermal": float, "tmsv": float, "cat": float}
    if kind not in read:
        raise ValueError(f"unknown state spec {spec!r}")
    if pure and kind in ("thermal", "tmsv"):
        raise UnsupportedMapError("beamsplitter dilation takes a single-mode pure environment")
    at = {k: v for k, v in (("cutoff", cutoff), ("trace_tol", trace_tol)) if v is not None}
    try:
        params = read[kind](arg)
        return build_state(kind, params, **at), kind, params
    except ValueError as exc:
        raise ValueError(f"bad state spec {spec!r}: {exc}") from exc


def _amplitude(arg):
    # re[,im] of a state or map spec
    parts = [float(x) for x in arg.split(",")]
    if len(parts) > 2:
        raise ValueError(f"an amplitude is re[,im], got {arg!r}")
    return complex(parts[0], parts[1] if len(parts) > 1 else 0.0)


def _no_argument(arg):
    # the argument of a spec name that takes none: refused unless empty
    if arg.strip():
        raise ValueError(f"takes no argument, got {arg!r}")


def _gaussian_environment(spec, cutoff):
    # a beamsplitter's environment spec, parsed once: its ket, and whether
    # that ket is Gaussian (vacuum, fock:0, coherent)
    env, kind, params = _state_spec(spec, cutoff, pure=True)
    return env, kind in ("vacuum", "coherent") or (kind == "fock" and params == 0)


def _parse_gd(arg, cutoff=25):
    # grammar: bs<tau>,env=<state spec>, each once, e.g. gd:bs0.5,env=fock:1
    # or gd:bs0.5,env=coherent:0.3,-0.2, whose field after coherent:re is im
    fields = {}
    pieces = [p.strip() for p in arg.split(",") if p.strip()]
    for i, piece in enumerate(pieces):
        key = "bs" if piece.startswith("bs") else "env=" if piece.startswith("env=") else None
        if key in fields:
            raise ValueError(f"gd takes its {key} field once")
        if key:
            fields[key] = piece[len(key):]
        elif i and pieces[i - 1].lower().startswith("env=coherent:"):
            fields["env="] += "," + piece
        else:
            raise ValueError(f"unknown gd field {piece!r}")
    if len(fields) < 2:
        raise ValueError("gd spec needs both bs<tau> and env=<state>")
    return _beamsplitter_channel("gd", float(fields["bs"]), fields["env="], cutoff)


def parse_map_spec(spec, cutoff=None):
    """Build a map from a command-line spec string, at cutoff or, when it is
    None, at the constructor's default cutoff (the gd spec's is 25).

    Grammar: pns | pna | bps | kerr[:gamma] | gd:bs<tau>,env=<state> |
    loss:tau | id, each a single-mode map.  pns, pna, bps and id take no
    argument, and gd each of its two fields once.

    :raises ValueError: a malformed spec, naming it.
    """
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    at = {} if cutoff is None else {"cutoff": cutoff}
    plain = {"pns": pns, "pna": pna, "bps": bps, "id": identity_map}
    try:
        if name in plain:
            _no_argument(arg)
            return plain[name](**at)
        if name == "kerr":
            return kerr(float(arg) if arg else DEFAULT_KERR_GAMMA, **at)
        if name == "gd":
            return _parse_gd(arg, **at)
        if name == "loss":
            if not arg:
                raise ValueError("loss needs a transmissivity, e.g. loss:0.9")
            return loss(float(arg), **at)
    except ValueError as exc:
        raise ValueError(f"bad map spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown map spec {spec!r}")
