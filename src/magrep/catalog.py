"""Built-in catalog of small magnetic groups with validated co-reps and
probe actions.

Groups are constructed from explicit spatial realizations (3x3 orthogonal
matrices plus a time-reversal flag) so the Cayley tables never have to be
typed in; factor systems are derived from the representation matrices and
validated on construction.  Entries cover both cocycle classes of the
time-reversal pair group, split and non-split anti-unitary extensions, and
planar point groups with unitary or anti-unitary mirrors, giving fixtures of
real, complex and quaternion type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .coreps import COREP_TOL, CoRep, corep_from_matrices, residuals_within
from .errors import UnknownName
from .groups import MagneticGroup, build_group, validate_cocycle
from .kp import ProbeRepAction, validate_action

_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_I_SIGMA_Y = 1j * _SIGMA_Y


@dataclass
class CatalogEntry:
    name: str
    group: MagneticGroup
    omega_classes: dict = field(default_factory=dict)
    reps: dict = field(default_factory=dict)
    rep_omega: dict = field(default_factory=dict)
    probe_actions: dict = field(default_factory=dict)


# -- spatial building blocks ----------------------------------------------------

def _rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _mirror2(alpha: float) -> np.ndarray:
    """Reflection about the in-plane line at angle alpha."""
    c, s = math.cos(2 * alpha), math.sin(2 * alpha)
    return np.array([[c, s], [s, -c]])


def _lift3(o2: np.ndarray) -> np.ndarray:
    out = np.eye(3)
    out[:2, :2] = o2
    return out


def _spin_rotation(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def _spin_mirror(alpha: float) -> np.ndarray:
    """Spin-1/2 matrix of the vertical mirror through the line at angle alpha
    (a pi rotation about the in-plane normal)."""
    nx, ny = -math.sin(alpha), math.cos(alpha)
    return -1j * (nx * np.array([[0, 1], [1, 0]]) + ny * np.array([[0, -1j], [1j, 0]]))


def _group_from_realization(o3_list, flags, labels) -> MagneticGroup:
    """Cayley table by matching spatial products; T commutes with all of them,
    so the spatial part of a product ignores the flags and the flag is the xor."""
    mats = np.asarray(o3_list)
    flags = np.asarray(flags, dtype=int)
    cayley = np.zeros((len(mats), len(mats)), dtype=int)
    for a in range(len(mats)):
        # hits[b, c]: element c matches the product a b in matrix and flag
        hits = np.isclose(mats[None, :], (mats[a] @ mats)[:, None],
                          atol=1e-10).all(axis=(-2, -1))
        hits &= flags[None, :] == (flags[a] ^ flags)[:, None]
        bad = hits.sum(axis=1) != 1
        if bad.any():
            raise ValueError(f"realization is not closed at "
                             f"({labels[a]}, {labels[int(np.argmax(bad))]})")
        cayley[a] = np.argmax(hits, axis=1)
    return build_group(cayley, flags, labels=labels)


def _cyclic_magnetic(order: int, labels) -> MagneticGroup:
    """Cyclic group generated by one anti-unitary element w, ids in power order."""
    cayley = np.array([[(a + b) % order for b in range(order)] for a in range(order)])
    flags = [k % 2 for k in range(order)]
    return build_group(cayley, flags, labels=labels)


def _make_corep(group: MagneticGroup, mats) -> CoRep:
    rep = corep_from_matrices(group, np.asarray(mats, dtype=complex))
    assert residuals_within(rep, COREP_TOL), \
        f"catalog rep failed validation: residuals {rep.residuals}"
    cocycle = validate_cocycle(group, rep.omega)
    assert cocycle.passed, f"catalog factor system failed validation: {cocycle}"
    return rep


def _make_action(group: MagneticGroup, mats, kind: str) -> ProbeRepAction:
    mats = np.stack([np.asarray(m, dtype=float) for m in mats])
    d_t0 = mats[group.t0] if group.is_magnetic else None
    action = ProbeRepAction(group=group, d_h=mats[group.h_elements], d_t0=d_t0, kind=kind)
    validate_action(action)
    # every lookup of the cached entry shares these arrays
    action.d_h.flags.writeable = False
    if d_t0 is not None:
        action.d_t0.flags.writeable = False
    return action


def _uniform_actions(group: MagneticGroup, o3_list=None) -> dict:
    """Vector actions with D(t0) = +-identity, valid when t0 conjugation fixes
    every unitary spatial matrix (central time reversal or abelian groups)."""
    n = group.order
    if o3_list is None:
        o3_list = [np.eye(3)] * n
    out = {}
    for name, sign in (("vector_t_even", 1.0), ("vector_t_odd", -1.0)):
        mats = [o3_list[g] * (sign if group.antiunitary[g] else 1.0) for g in range(n)]
        out[name] = _make_action(group, mats, kind="momentum" if sign < 0 else "electric")
    return out


# -- entry builders ---------------------------------------------------------------

def _entry_z2t() -> CatalogEntry:
    group = build_group([[0, 1], [1, 0]], [0, 1], labels=["E", "T"])
    trivial = _make_corep(group, [np.eye(1), np.eye(1)])
    entry = CatalogEntry(name="z2t", group=group)
    entry.reps["trivial"] = trivial
    entry.rep_omega["trivial"] = "trivial"
    entry.omega_classes["trivial"] = trivial.omega
    entry.probe_actions.update(_uniform_actions(group))
    entry.probe_actions["momentum"] = entry.probe_actions["vector_t_odd"]
    entry.probe_actions["electric"] = _make_action(group, [[[1.0]], [[1.0]]], "electric")
    entry.probe_actions["magnetic"] = _make_action(group, [[[1.0]], [[-1.0]]], "magnetic")
    return entry


def _entry_z2t_kramers() -> CatalogEntry:
    group = build_group([[0, 1], [1, 0]], [0, 1], labels=["E", "T"])
    kramers = _make_corep(group, [np.eye(2), _I_SIGMA_Y])
    entry = CatalogEntry(name="z2t_kramers", group=group)
    entry.reps["kramers"] = kramers
    entry.rep_omega["kramers"] = "kramers"
    entry.omega_classes["kramers"] = kramers.omega
    entry.probe_actions.update(_uniform_actions(group))
    entry.probe_actions["momentum"] = entry.probe_actions["vector_t_odd"]
    entry.probe_actions["electric"] = _make_action(group, [[[1.0]], [[1.0]]], "electric")
    entry.probe_actions["magnetic"] = _make_action(group, [[[1.0]], [[-1.0]]], "magnetic")
    return entry


def _entry_z4t() -> CatalogEntry:
    # {E, s, T0, T0 s} with T0^2 = s: a non-split extension (spin time reversal)
    cayley = np.array([
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 1, 0],
        [3, 2, 0, 1],
    ])
    group = build_group(cayley, [0, 0, 1, 1], labels=["E", "s", "T0", "T0s"])
    entry = CatalogEntry(name="z4t", group=group)
    scalar = _make_corep(group, [np.eye(1)] * 4)
    quaternion = _make_corep(
        group, [np.eye(2), -np.eye(2), _I_SIGMA_Y, -_I_SIGMA_Y])
    entry.reps["scalar"] = scalar
    entry.reps["quaternion"] = quaternion
    entry.rep_omega["scalar"] = "trivial"
    entry.rep_omega["quaternion"] = "trivial"
    entry.omega_classes["trivial"] = scalar.omega
    entry.probe_actions.update(_uniform_actions(group))
    entry.probe_actions["momentum"] = entry.probe_actions["vector_t_odd"]
    entry.probe_actions["electric"] = _make_action(group, [[[1.0]]] * 2 + [[[1.0]]] * 2, "electric")
    entry.probe_actions["magnetic"] = _make_action(group, [[[1.0]]] * 2 + [[[-1.0]]] * 2, "magnetic")
    return entry


def _entry_c8t() -> CatalogEntry:
    labels = ["E", "C8T", "C4", "C8^3T", "C2", "C8^5T", "C4^3", "C8^7T"]
    group = _cyclic_magnetic(8, labels)
    entry = CatalogEntry(name="c8t", group=group)
    trivial = _make_corep(group, [np.eye(1)] * 8)
    # pair of conjugate characters of the C4 subgroup glued by the coset
    glue = np.array([[0, 1j], [1, 0]])
    mats = []
    for k in range(8):
        half, odd = divmod(k, 2)
        m = np.diag([1j ** half, (-1j) ** half]).astype(complex)
        mats.append(m @ glue if odd else m)
    complex_pair = _make_corep(group, mats)
    entry.reps["trivial"] = trivial
    entry.reps["complex_pair"] = complex_pair
    entry.rep_omega["trivial"] = "trivial"
    entry.rep_omega["complex_pair"] = "trivial"
    entry.omega_classes["trivial"] = trivial.omega
    # physical momentum: odd powers rotate by 45 deg and flip sign under T
    o3 = [_lift3(_rot2(2 * math.pi * k / 8)) for k in range(8)]
    momentum = [o3[k] * (-1.0 if k % 2 else 1.0) for k in range(8)]
    entry.probe_actions["momentum"] = _make_action(group, momentum, "momentum")
    entry.probe_actions["kz_odd"] = _make_action(
        group, [[[-1.0]] if k % 2 else [[1.0]] for k in range(8)], "magnetic")
    entry.probe_actions.update(_uniform_actions(group))
    return entry


def _rotation_label(k: int, n: int) -> str:
    if k == 0:
        return "E"
    g = math.gcd(k, n)
    num, den = k // g, n // g
    return f"C{den}" + (f"^{num}" if num > 1 else "")


def _entry_q8t() -> CatalogEntry:
    # quaternion units as spinor matrices; the 2-dim irrep is pseudoreal, so
    # plain time reversal forces a 4-dim quaternion-type co-rep over it
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    units = [np.eye(2), -np.eye(2)]
    for s in (sx, _SIGMA_Y, sz):
        units += [-1j * s, 1j * s]
    labels = ["E", "Ebar", "i", "ibar", "j", "jbar", "k", "kbar"]
    mats = [np.asarray(u) for u in units] * 2
    flags = [0] * 8 + [1] * 8
    labels = labels + [lab + "T" for lab in labels]
    group = _group_from_realization(mats, flags, labels)
    entry = CatalogEntry(name="q8t", group=group)

    entry.reps["a1"] = _make_corep(group, [np.eye(1)] * 16)
    swap = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    quartet = []
    for g in range(16):
        m = np.block([[units[g % 8], np.zeros((2, 2))],
                      [np.zeros((2, 2)), np.conj(units[g % 8])]])
        quartet.append(m @ swap if flags[g] else m)
    entry.reps["quartet"] = _make_corep(group, quartet)
    for rep_name, rep in entry.reps.items():
        entry.rep_omega[rep_name] = "trivial"
        entry.omega_classes.setdefault("trivial", rep.omega)

    # spatially the units act through the three twofold rotations
    axes = {0: np.eye(3), 1: np.eye(3)}
    for idx, axis in ((2, 0), (4, 1), (6, 2)):
        d = -np.eye(3)
        d[axis, axis] = 1.0
        axes[idx] = axes[idx + 1] = d
    o3 = [axes[g % 8] for g in range(16)]
    momentum = [o3[g] * (-1.0 if flags[g] else 1.0) for g in range(16)]
    entry.probe_actions["momentum"] = _make_action(group, momentum, "momentum")
    entry.probe_actions["vector_t_even"] = _make_action(group, o3, "electric")
    entry.probe_actions["magnetic"] = _make_action(
        group, [[[-1.0]] if flags[g] else [[1.0]] for g in range(16)], "magnetic")
    return entry


def _cnv_realization(n: int):
    """Rotations and vertical mirrors of the planar n-fold group, then the
    full product with time reversal appended element-by-element."""
    o2, labels = [], []
    for k in range(n):
        o2.append(_rot2(2 * math.pi * k / n))
        labels.append(_rotation_label(k, n))
    for j in range(n):
        o2.append(_mirror2(math.pi * j / n))
        labels.append(f"m{int(round(math.degrees(math.pi * j / n)))}")
    spin = [_spin_rotation(2 * math.pi * k / n) for k in range(n)]
    spin += [_spin_mirror(math.pi * j / n) for j in range(n)]
    return o2, spin, labels


def _entry_cnv_t(n: int, name: str) -> CatalogEntry:
    o2, spin, labels = _cnv_realization(n)
    m = len(o2)
    o3 = [_lift3(x) for x in o2] * 2
    flags = [0] * m + [1] * m
    labels = labels + [lab + "T" for lab in labels]
    group = _group_from_realization(o3, flags, labels)
    entry = CatalogEntry(name=name, group=group)

    ones = [np.eye(1)] * (2 * m)
    entry.reps["a1"] = _make_corep(group, ones)
    vec = [np.asarray(x, dtype=complex) for x in o2] * 2
    entry.reps["e1" if n == 6 else "e"] = _make_corep(group, vec)
    if n == 6:
        # partner pair of quadratic harmonics: rotations act doubled, mirrors
        # reflect about the doubled angle
        e2 = [_rot2(2 * (2 * math.pi * k / n)) for k in range(n)]
        e2 += [_mirror2(2 * (math.pi * j / n)) for j in range(n)]
        e2 = [np.asarray(x, dtype=complex) for x in e2] * 2
        entry.reps["e2"] = _make_corep(group, e2)
    half = [np.asarray(u, dtype=complex) for u in spin]
    half = half + [u @ _I_SIGMA_Y for u in half]
    entry.reps["e_half"] = _make_corep(group, half)

    for rep_name, rep in entry.reps.items():
        key = "spinful" if rep_name == "e_half" else "trivial"
        entry.rep_omega[rep_name] = key
        entry.omega_classes.setdefault(key, rep.omega)

    o3_full = o3
    momentum = [o3_full[g] * (-1.0 if flags[g] else 1.0) for g in range(2 * m)]
    entry.probe_actions["momentum"] = _make_action(group, momentum, "momentum")
    even = [o3_full[g] for g in range(2 * m)]
    entry.probe_actions["vector_t_even"] = _make_action(group, even, "electric")
    entry.probe_actions["kz_odd"] = _make_action(
        group, [[[-1.0]] if flags[g] else [[1.0]] for g in range(2 * m)], "magnetic")
    return entry


def _entry_c4v_c4() -> CatalogEntry:
    # unitary C4 rotations plus anti-unitary mirrors (the 4m'm' pattern)
    o2 = [_rot2(math.pi * k / 2) for k in range(4)]
    o2 += [_mirror2(math.pi * j / 4) for j in range(4)]
    labels = ["E", "C4", "C2", "C4^3", "m0T", "m45T", "m90T", "m135T"]
    flags = [0, 0, 0, 0, 1, 1, 1, 1]
    o3 = [_lift3(x) for x in o2]
    group = _group_from_realization(o3, flags, labels)
    entry = CatalogEntry(name="c4v_c4", group=group)

    entry.reps["a1"] = _make_corep(group, [np.eye(1)] * 8)
    entry.reps["b"] = _make_corep(
        group, [np.eye(1) * (-1.0) ** k for k in range(4)]
               + [np.eye(1) * (-1.0) ** j for j in range(4)])
    entry.reps["c4_i"] = _make_corep(
        group, [np.eye(1) * (1j ** k) for k in range(4)] + [np.eye(1)] * 4)
    # exchange-split spinful band: anti-unitary mirrors do not force a doublet
    # here, so the half-integer characters extend one-dimensionally
    entry.reps["e_half_up"] = _make_corep(
        group, [np.eye(1) * np.exp(-0.25j * math.pi * k) for k in range(4)]
               + [np.eye(1)] * 4)

    for rep_name, rep in entry.reps.items():
        entry.rep_omega[rep_name] = f"class_{rep_name}"
        entry.omega_classes[f"class_{rep_name}"] = rep.omega

    momentum = [o3[g] * (-1.0 if flags[g] else 1.0) for g in range(8)]
    entry.probe_actions["momentum"] = _make_action(group, momentum, "momentum")
    entry.probe_actions["kz_odd"] = _make_action(
        group, [[[-1.0]] if flags[g] else [[1.0]] for g in range(8)], "magnetic")
    return entry


_BUILDERS = {
    "z2t": _entry_z2t,
    "z2t_kramers": _entry_z2t_kramers,
    "z4t": _entry_z4t,
    "c8t": _entry_c8t,
    "c4v_t": lambda: _entry_cnv_t(4, "c4v_t"),
    "c6v_t": lambda: _entry_cnv_t(6, "c6v_t"),
    "c4v_c4": _entry_c4v_c4,
    "q8t": _entry_q8t,
}


def catalog_list() -> list:
    return sorted(_BUILDERS)


@lru_cache(maxsize=None)
def catalog_get(name: str) -> CatalogEntry:
    if name not in _BUILDERS:
        raise UnknownName(f"unknown catalog entry {name!r}; have {catalog_list()}")
    return _BUILDERS[name]()
