"""Built-in catalog of small magnetic groups with co-reps and probe actions.

Every entry takes one path, ``_entry``: a faithful matrix realization plus
one time-reversal flag per element gives the Cayley table by matching
products, so no table is typed in.  The realization need only be faithful
together with the flags, not spatial: ``[1], [1]`` with flags ``[0, 1]`` is
the time-reversal pair group, and the scalars ``1, -1, i, -i`` its non-split
extension.  Factor systems are derived from the representation matrices,
whose fit refuses a realization that is not a projective co-rep; the full
co-rep, cocycle and action checks of every entry run in the tests, not on
each lookup.  Entries cover both cocycle classes of the time-reversal pair
group, split and non-split anti-unitary extensions, and planar point groups
with unitary or anti-unitary mirrors, giving fixtures of real, complex and
quaternion type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .coreps import corep_from_matrices
from .errors import UnknownName
from .groups import MagneticGroup, _row_blocks, build_group
from .kp import ProbeRepAction

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


def _group_from_realization(realization, flags, labels) -> MagneticGroup:
    """Cayley table by matching the products of a faithful matrix realization;
    the flags form a homomorphism onto Z2, so the flag of a product is the
    xor.  The (rows, n, n, k, k) comparison runs over the ``_row_blocks``
    of first elements, as the co-rep pair kernel does.  Entries match by
    ``np.isclose``'s rule at atol 1e-10 and its default rtol 1e-5,
    |x - y| <= atol + rtol |y|, written out: on the finite entries of a
    realization it is all that ``np.isclose`` computes."""
    mats = np.asarray(realization)
    flags = np.asarray(flags, dtype=int)
    n = len(mats)
    cayley = np.empty((n, n), dtype=int)
    for rows in _row_blocks(n, n * mats[0].size * n):
        # hits[i, b, c]: element c matches the product a b (a = rows[i]) in
        # matrix and flag
        prods = (mats[rows, None] @ mats)[:, :, None]
        hits = (np.abs(mats - prods) <= 1e-10 + 1e-5 * np.abs(prods)).all(axis=(-2, -1))
        hits &= flags == (flags[rows, None] ^ flags)[:, :, None]
        bad = hits.sum(axis=2) != 1
        if bad.any():
            i, b = np.argwhere(bad)[0]
            raise ValueError(f"realization is not closed at "
                             f"({labels[rows.start + i]}, {labels[b]})")
        cayley[rows] = np.argmax(hits, axis=2)
    return build_group(cayley, flags, labels=labels)


# -- probe actions: a vector on given spatial matrices, or a scalar --------------

def _vector(o3, flags, t_sign: float):
    """(kind, matrices) of the vector on the spatial matrices ``o3``, times
    ``t_sign`` on anti-unitary elements: electric if T-even, else momentum."""
    return ("electric" if t_sign > 0 else "momentum",
            [m * (t_sign if f else 1.0) for m, f in zip(o3, flags)])


def _scalar(flags, t_sign: float):
    """(kind, matrices) of the 1-dim channel that is ``t_sign`` on anti-unitary
    elements: electric if T-even, else magnetic."""
    return "electric" if t_sign > 0 else "magnetic", [[[t_sign if f else 1.0]] for f in flags]


def _entry(name: str, realization, flags, labels, reps: dict,
           actions: dict) -> CatalogEntry:
    """Entry on the group of ``realization``.  ``reps`` maps a co-rep name to
    (factor-system class, matrices); a class takes the factor system of its
    first co-rep.  ``actions`` maps an action name to (kind, matrices), or to
    the name of an earlier action to share."""
    group = _group_from_realization(realization, flags, labels)
    entry = CatalogEntry(name=name, group=group)
    for rep_name, (key, mats) in reps.items():
        rep = corep_from_matrices(group, np.asarray(mats, dtype=complex))
        entry.reps[rep_name] = rep
        entry.rep_omega[rep_name] = key
        entry.omega_classes.setdefault(key, rep.omega)
    for act_name, spec in actions.items():
        if isinstance(spec, str):   # a second name for an earlier action
            entry.probe_actions[act_name] = entry.probe_actions[spec]
            continue
        kind, mats = spec
        mats = np.stack([np.asarray(m, dtype=float) for m in mats])
        d_h = mats[group.h_elements]
        # every lookup of the cached entry shares these arrays (d_t0 is a view)
        d_h.flags.writeable = mats.flags.writeable = False
        d_t0 = mats[group.t0] if group.is_magnetic else None
        entry.probe_actions[act_name] = ProbeRepAction(group, d_h, d_t0, kind)
    return entry


# -- entry builders ---------------------------------------------------------------

def _entry_spatial_identity(name: str, realization, flags, labels, reps: dict) -> CatalogEntry:
    """Entry whose elements all act as the spatial identity, with the vector
    and the scalar of both T signs; ``momentum`` is the T-odd vector."""
    eye3 = [np.eye(3)] * len(flags)
    return _entry(name, realization, flags, labels, reps, {
        "vector_t_even": _vector(eye3, flags, 1.0), "vector_t_odd": _vector(eye3, flags, -1.0),
        "momentum": "vector_t_odd", "electric": _scalar(flags, 1.0),
        "magnetic": _scalar(flags, -1.0)})


def _entry_z2t(name: str, rep_name: str, m_t: np.ndarray) -> CatalogEntry:
    """{E, T} with the one co-rep M(T) = m_t, whose factor-system class has
    the co-rep's name: the flags alone tell E and T apart."""
    return _entry_spatial_identity(name, [[[1]]] * 2, [0, 1], ["E", "T"],
                                   {rep_name: (rep_name, [np.eye(len(m_t)), m_t])})


def _entry_z4t() -> CatalogEntry:
    # {E, s, T0, T0 s} with T0^2 = s: a non-split extension (spin time reversal)
    quaternion = [np.eye(2), -np.eye(2), _I_SIGMA_Y, -_I_SIGMA_Y]
    return _entry_spatial_identity("z4t", [[[1]], [[-1]], [[1j]], [[-1j]]], [0, 0, 1, 1],
                                   ["E", "s", "T0", "T0s"],
                                   {"scalar": ("trivial", [np.eye(1)] * 4),
                                    "quaternion": ("trivial", quaternion)})


def _entry_c8t() -> CatalogEntry:
    # the cycle of C8T, ids in power order: odd powers rotate by 45 deg and
    # flip sign under T
    labels = ["E", "C8T", "C4", "C8^3T", "C2", "C8^5T", "C4^3", "C8^7T"]
    flags = [k % 2 for k in range(8)]
    o3 = [_lift3(_rot2(2 * math.pi * k / 8)) for k in range(8)]
    # pair of conjugate characters of the C4 subgroup glued by the coset
    glue = np.array([[0, 1j], [1, 0]])
    diag = [np.diag([1j ** (k // 2), (-1j) ** (k // 2)]).astype(complex) for k in range(8)]
    pair = [m @ glue if k % 2 else m for k, m in enumerate(diag)]
    eye3 = [np.eye(3)] * 8
    return _entry("c8t", o3, flags, labels,
                  {"trivial": ("trivial", [np.eye(1)] * 8), "complex_pair": ("trivial", pair)},
                  {"momentum": _vector(o3, flags, -1.0), "kz_odd": _scalar(flags, -1.0),
                   "vector_t_even": _vector(eye3, flags, 1.0),
                   "vector_t_odd": _vector(eye3, flags, -1.0)})


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
    flags = [0] * 8 + [1] * 8
    zero = np.zeros((2, 2))
    swap = np.block([[zero, np.eye(2)], [np.eye(2), zero]])
    quartet = [np.block([[u, zero], [zero, np.conj(u)]]) for u in units]
    quartet += [m @ swap for m in quartet]
    # spatially the units act through the three twofold rotations
    axes = {0: np.eye(3), 1: np.eye(3)}
    for idx, axis in ((2, 0), (4, 1), (6, 2)):
        d = -np.eye(3)
        d[axis, axis] = 1.0
        axes[idx] = axes[idx + 1] = d
    o3 = [axes[g % 8] for g in range(16)]
    return _entry("q8t", [np.asarray(u) for u in units] * 2, flags,
                  labels + [lab + "T" for lab in labels],
                  {"a1": ("trivial", [np.eye(1)] * 16), "quartet": ("trivial", quartet)},
                  {"momentum": _vector(o3, flags, -1.0), "vector_t_even": _vector(o3, flags, 1.0),
                   "magnetic": _scalar(flags, -1.0)})


def _cnv_realization(n: int):
    """Rotations and vertical mirrors of the planar n-fold group, then the
    full product with time reversal appended element-by-element."""
    o2 = [_rot2(2 * math.pi * k / n) for k in range(n)]
    o2 += [_mirror2(math.pi * j / n) for j in range(n)]
    labels = [_rotation_label(k, n) for k in range(n)]
    labels += [f"m{int(round(math.degrees(math.pi * j / n)))}" for j in range(n)]
    spin = [_spin_rotation(2 * math.pi * k / n) for k in range(n)]
    spin += [_spin_mirror(math.pi * j / n) for j in range(n)]
    return o2, spin, labels


def _entry_cnv_t(n: int, name: str) -> CatalogEntry:
    o2, spin, labels = _cnv_realization(n)
    m = len(o2)
    o3 = [_lift3(x) for x in o2] * 2
    flags = [0] * m + [1] * m
    reps = {"a1": ("trivial", [np.eye(1)] * (2 * m)),
            "e1" if n == 6 else "e": ("trivial", [np.asarray(x, dtype=complex) for x in o2] * 2)}
    if n == 6:
        # partner pair of quadratic harmonics: rotations act doubled, mirrors
        # reflect about the doubled angle
        e2 = [_rot2(2 * (2 * math.pi * k / n)) for k in range(n)]
        e2 += [_mirror2(2 * (math.pi * j / n)) for j in range(n)]
        reps["e2"] = ("trivial", [np.asarray(x, dtype=complex) for x in e2] * 2)
    half = [np.asarray(u, dtype=complex) for u in spin]
    reps["e_half"] = ("spinful", half + [u @ _I_SIGMA_Y for u in half])
    return _entry(name, o3, flags, labels + [lab + "T" for lab in labels], reps,
                  {"momentum": _vector(o3, flags, -1.0), "vector_t_even": _vector(o3, flags, 1.0),
                   "kz_odd": _scalar(flags, -1.0)})


def _entry_c4v_c4() -> CatalogEntry:
    # unitary C4 rotations plus anti-unitary mirrors (the 4m'm' pattern)
    o2 = [_rot2(math.pi * k / 2) for k in range(4)]
    o2 += [_mirror2(math.pi * j / 4) for j in range(4)]
    labels = ["E", "C4", "C2", "C4^3", "m0T", "m45T", "m90T", "m135T"]
    flags = [0, 0, 0, 0, 1, 1, 1, 1]
    o3 = [_lift3(x) for x in o2]
    reps = {
        "a1": [np.eye(1)] * 8,
        "b": [np.eye(1) * (-1.0) ** k for k in range(4)] * 2,
        "c4_i": [np.eye(1) * (1j ** k) for k in range(4)] + [np.eye(1)] * 4,
        # exchange-split spinful band: anti-unitary mirrors do not force a
        # doublet here, so the half-integer characters extend one-dimensionally
        "e_half_up": [np.eye(1) * np.exp(-0.25j * math.pi * k) for k in range(4)]
                     + [np.eye(1)] * 4,
    }
    return _entry("c4v_c4", o3, flags, labels,
                  {r: (f"class_{r}", mats) for r, mats in reps.items()},
                  {"momentum": _vector(o3, flags, -1.0), "kz_odd": _scalar(flags, -1.0)})


_BUILDERS = {
    "z2t": lambda: _entry_z2t("z2t", "trivial", np.eye(1)),
    "z2t_kramers": lambda: _entry_z2t("z2t_kramers", "kramers", _I_SIGMA_Y),
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
