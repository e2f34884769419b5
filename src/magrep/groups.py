"""Finite magnetic (anti-unitary) groups given extensionally by a Cayley table.

A magnetic group of order n is stored as an n x n multiplication table of
element ids together with one anti-unitary flag bit per element.  When any
flag is set, the unitary elements must form a halving subgroup H and the
group splits as G = H + T0*H for a distinguished anti-unitary element T0.
Everything downstream (characters, the class operators of H, coset sums) is
a plain sum over element ids, so groups are kept small and fully tabulated.

What a group derives from its table (positions and products in H, the
lowest id of each class of H, generators) is computed once, on first use,
kept on it and read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    FlagInconsistent,
    NotAGroup,
    NotASubgroupEmbedding,
)

#: Default absolute tolerance for cocycle validation.  Factor systems are
#: exact-phase tables, so violations are either ~0 or O(1).
COCYCLE_TOL = 1e-10
#: entries per block of first elements in every per-row kernel
ROW_BLOCK_ENTRIES = 2 ** 14


def _row_blocks(n: int, entries_per_row: int):
    """Slices of the ids 0..n-1 in consecutive blocks, each of as many rows
    as fit ``ROW_BLOCK_ENTRIES`` entries at ``entries_per_row`` each (at
    least one row), so a block's rows of a table are a view.  The block
    policy of every per-row kernel: the group and cocycle checks here, the
    co-rep products, the probe-action check and the catalog's table match."""
    step = max(1, ROW_BLOCK_ENTRIES // max(1, entries_per_row))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


@dataclass
class MagneticGroup:
    """Validated finite group with anti-unitary structure.

    Attributes
    ----------
    cayley : ``(n, n)`` int ndarray
        ``cayley[a, b]`` is the id of the product ``a * b``.
    antiunitary : ``(n,)`` int ndarray
        Flag ``s(g)``: 1 for anti-unitary elements, 0 otherwise.
    labels : tuple of str
        Human-readable element names.
    t0 : int or None
        Id of the distinguished anti-unitary element (minimal order, then
        lowest id).  ``None`` for purely unitary groups.
    h_elements : ``(|H|,)`` int ndarray
        Ids of the unitary elements, ascending.
    """

    cayley: np.ndarray
    antiunitary: np.ndarray
    labels: tuple
    identity: int
    t0: Optional[int]
    inverse: np.ndarray
    element_order: np.ndarray
    h_elements: np.ndarray

    @property
    def order(self) -> int:
        return self.cayley.shape[0]

    @property
    def is_magnetic(self) -> bool:
        return self.t0 is not None

    @property
    def halving_order(self) -> int:
        return len(self.h_elements)

    def mul(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def s(self, g: int) -> int:
        return int(self.antiunitary[g])

    @property
    def sigma(self) -> Optional[int]:
        """t0 squared; lies in H.  None for purely unitary groups."""
        if self.t0 is None:
            return None
        return self.mul(self.t0, self.t0)

    @property
    def coset_elements(self) -> np.ndarray:
        """Ids of the anti-unitary elements, ascending."""
        return np.nonzero(self.antiunitary == 1)[0]

    def label(self, g: int) -> str:
        return self.labels[g]

    @cached_property
    def h_position(self) -> np.ndarray:
        """Read-only ``(n,)`` table: the position of each unitary element in
        ``h_elements``, -1 on the anti-unitary coset.  Built on first use."""
        pos = np.full(self.order, -1)
        pos[self.h_elements] = np.arange(len(self.h_elements))
        pos.flags.writeable = False
        return pos

    @cached_property
    def h_products(self) -> np.ndarray:
        """Read-only ``(|H|, |H|)`` table: the position in ``h_elements`` of
        each product h1 h2.  Built on first use."""
        out = self.h_position[self.cayley[np.ix_(self.h_elements, self.h_elements)]]
        out.flags.writeable = False
        return out

    @cached_property
    def h_class_firsts(self) -> np.ndarray:
        """Read-only ids of the lowest element of each conjugacy class of H,
        in ``conjugacy_classes`` order.  Built on first use."""
        h = self.h_elements
        # column j holds the class of h_j, which h_j opens iff it is lowest
        orbits = self.cayley[self.cayley[np.ix_(h, h)], self.inverse[h][:, None]]
        out = h[orbits.min(axis=0) == h]
        out.flags.writeable = False
        return out

    @cached_property
    def t0_positions(self) -> Optional[tuple]:
        """Positions in ``h_elements`` of sigma and, read-only, of t0 h t0^-1
        for each unitary h; None for unitary groups.  Built on first use."""
        if self.is_magnetic:
            t0_h = self.cayley[self.t0, self.h_elements]
            conj = self.h_position[self.cayley[t0_h, self.inverse[self.t0]]]
            conj.flags.writeable = False
            return int(self.h_position[self.sigma]), conj

    @cached_property
    def generators(self) -> np.ndarray:
        """Ids of a generating set of H, then t0 on magnetic groups.

        Greedy and deterministic: the unitary elements in descending element
        order, lowest id first, each kept when the words in those kept so
        far (a breadth-first search over the Cayley table) do not reach it.
        Computed on first use, so that building a group, as
        ``restricted_group`` does per call, does not pay for it.
        """
        gens = []
        reached = np.zeros(self.order, dtype=bool)
        reached[self.identity] = True
        for h in sorted(self.h_elements.tolist(), key=lambda h: (-self.element_order[h], h)):
            if reached[h]:
                continue
            gens.append(h)
            frontier = np.flatnonzero(reached)
            while frontier.size:
                new = np.zeros_like(reached)
                new[self.cayley[frontier][:, gens]] = True
                new &= ~reached
                reached |= new
                frontier = np.flatnonzero(new)
        out = np.array(gens + ([self.t0] if self.is_magnetic else []), dtype=int)
        out.flags.writeable = False
        return out


def _element_orders(cayley: np.ndarray, identity: int) -> np.ndarray:
    """Order of every element of a group, from one walk over the powers
    g, g^2, ... of all elements at once.  The walk stops at the group's
    exponent, the first power that is the identity for every g, which
    divides n, so it takes at most n steps."""
    ids = np.arange(cayley.shape[0])
    power = ids
    hits = [power == identity]
    while not hits[-1].all():
        power = cayley[power, ids]
        hits.append(power == identity)
    return np.argmax(hits, axis=0) + 1


def _pick_t0(flags: np.ndarray, orders: np.ndarray) -> Optional[int]:
    """The anti-unitary element of minimal order, lowest id as the
    tie-break; None when there is none."""
    anti = np.flatnonzero(flags == 1)
    if not len(anti):
        return None
    return int(anti[np.argmin(orders[anti])])   # argmin keeps the first, lowest id


def _checked_labels(labels, n: int) -> tuple:
    labels = tuple(str(x) for x in labels)
    if len(labels) != n:
        raise DimensionMismatch("label count does not match group order")
    if len(set(labels)) != n:
        raise DimensionMismatch("element labels must be unique")
    return labels


def build_group(cayley, flags, labels=None) -> MagneticGroup:
    """Validate a Cayley table plus anti-unitary flags into a MagneticGroup.

    Parameters
    ----------
    cayley : ``(n, n)`` array_like of int
        Multiplication table, ``cayley[a][b] = id(a * b)``.
    flags : length-n array_like of {0, 1}
        Anti-unitary flag per element.
    labels : sequence of str, optional
        Element names; defaults to ``g0 .. g{n-1}``.

    Raises
    ------
    NotAGroup, FlagInconsistent, DimensionMismatch
    """
    table = np.asarray(cayley, dtype=int)
    s = np.asarray(flags, dtype=int)
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] == 0:
        raise NotAGroup("Cayley table must be a nonempty square matrix")
    n = table.shape[0]
    if s.shape != (n,):
        raise DimensionMismatch("flag vector length does not match group order")
    if table.min() < 0 or table.max() >= n:
        raise NotAGroup("Cayley table entries out of range")
    if not np.isin(s, (0, 1)).all():
        raise FlagInconsistent("flags must be 0 or 1")

    # Each row and column must be a permutation (cancellativity).
    ids = np.arange(n)
    bad = ~((np.sort(table, axis=1) == ids).all(axis=1)
            & (np.sort(table, axis=0) == ids[:, None]).all(axis=0))
    if bad.any():
        raise NotAGroup(f"row/column {int(np.argmax(bad))} is not a permutation of the element ids")

    # Associativity over all triples, a block of first elements a at a time
    # (``_row_blocks`` of n^2 triples a row); for a = rows[i],
    # table[ab][i, b, c] = (a b) c and ab.take(table, axis=1)[i, b, c] = a (b c).
    # The first failing triple in id order is the first in the first bad block.
    for rows in _row_blocks(n, n * n):
        ab = table[rows]
        bad = table[ab] != ab.take(table, axis=1)
        if bad.any():
            i, b, c = np.argwhere(bad)[0]
            raise NotAGroup(f"associativity fails at triple {(rows.start + int(i), int(b), int(c))}")

    # Rows and columns are permutations and the table is associative, so it
    # is a group: the identity e is unique (0 e = 0 finds it), a right inverse
    # is two-sided, and when s is a homomorphism onto Z2 its kernel H has
    # index 2.  None of these needs a check of its own.
    identity = int(np.argmax(table[0] == 0))
    inverse = np.argmax(table == identity, axis=1)

    # Flags must be a homomorphism onto Z2.
    if not np.array_equal(s[table], s[:, None] ^ s[None, :]):
        raise FlagInconsistent("s(g1 g2) != s(g1) xor s(g2) for some pair")
    h_elements = np.nonzero(s == 0)[0]

    orders = _element_orders(table, identity)
    t0 = _pick_t0(s, orders)
    labels = tuple(f"g{k}" for k in range(n)) if labels is None else _checked_labels(labels, n)

    return MagneticGroup(
        cayley=table,
        antiunitary=s,
        labels=labels,
        identity=identity,
        t0=t0,
        inverse=inverse,
        element_order=orders,
        h_elements=h_elements,
    )


def _sorted_ids(group: MagneticGroup, element_ids) -> np.ndarray:
    """The distinct ids of an array or any iterable of ids (a list, a set, a
    generator), ascending; raises NotASubgroupEmbedding for an id that is not
    an integer (1.9 would otherwise be read as 1) or not an element of
    ``group``, and for no ids at all."""
    ids = np.asarray(element_ids if isinstance(element_ids, np.ndarray) else list(element_ids))
    if ids.ndim != 1 or ids.size == 0:
        raise NotASubgroupEmbedding("element ids must be a nonempty flat list")
    if ids.dtype.kind not in "iu":
        raise NotASubgroupEmbedding(f"element ids must be integers, got {ids.dtype}")
    if ids.min() < 0 or ids.max() >= group.order:
        raise NotASubgroupEmbedding("element ids out of range")
    return np.array(sorted(set(ids.tolist())), dtype=int)


def conjugacy_classes(group: MagneticGroup, members) -> tuple:
    """Conjugacy classes of the subgroup ``members``, ordered by lowest id.
    Ids are checked as ``restricted_group`` checks them; a subset that is
    not closed raises NotAGroup."""
    m = _sorted_ids(group, members)
    prods = group.cayley[np.ix_(m, m)]
    if not np.isin(prods, m).all():
        raise NotAGroup("conjugacy classes requested for a non-closed subset")
    # orbits[i, j] = m_i m_j m_i^-1: column j is the class of m_j
    orbits = group.cayley[prods, group.inverse[m][:, None]]
    classes = []
    seen = set()
    for j, h in enumerate(m.tolist()):
        if h in seen:
            continue
        cls = tuple(sorted(set(orbits[:, j].tolist())))
        classes.append(cls)
        seen.update(cls)
    return tuple(classes)


@dataclass
class FactorSystem:
    """U(1)-valued 2-cocycle ``omega(g1, g2)`` on G x G.

    The table must obey the twisted cocycle equation
    ``omega^[s(g1)](g2, g3) omega^-1(g1 g2, g3) omega(g1, g2 g3) omega^-1(g1, g2) = 1``
    where the exponent ``[s]`` means complex conjugation when s = 1.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise DimensionMismatch("factor system must be a square table")

    @classmethod
    def trivial(cls, n: int) -> "FactorSystem":
        return cls(np.ones((n, n), dtype=complex))

    @property
    def order(self) -> int:
        return self.values.shape[0]

    def __call__(self, a: int, b: int) -> complex:
        return complex(self.values[a, b])


@dataclass
class CocycleReport:
    max_modulus_error: float
    max_violation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_modulus_error <= self.tol and self.max_violation <= self.tol


def validate_cocycle(group: MagneticGroup, omega: FactorSystem,
                     tol: float = COCYCLE_TOL) -> CocycleReport:
    """Check unit modulus and the twisted cocycle equation over all triples.

    Returns the maximum absolute violation; the check is gauge-covariant, so
    rephasing a valid factor system keeps the violation at zero.
    """
    n = group.order
    w = omega.values
    if w.shape != (n, n):
        raise DimensionMismatch("factor system size does not match group order")
    modulus_err = float(np.abs(np.abs(w) - 1.0).max())

    table = group.cayley
    w_conj = np.conj(w)
    # The twisted factor w^[s(a)] is one table for every a of a coset, so the
    # first elements a come coset by coset, H then T0 H, with their rows of
    # w, conj(w) and the Cayley table gathered once.  Each coset goes in
    # ``_row_blocks`` of n^2 triples a row, one set of array operations per
    # block; for the block's i-th first element a,
    # lhs[i, b, c] = w^[s(a)](b,c) * conj(w(ab,c)) * w(a,bc) * conj(w(a,b)),
    # multiplied left to right, so each entry is bit for bit the row loop's.
    violations = []
    for ids, twisted in ((group.h_elements, w), (group.coset_elements, w_conj)):
        w_a, w_conj_a, ab = w[ids], w_conj[ids], table[ids]
        for rows in _row_blocks(len(ids), n * n):
            lhs = twisted * w_conj[ab[rows]]
            lhs *= w_a[rows].take(table, axis=1)
            lhs *= w_conj_a[rows, :, None]
            lhs -= 1.0
            violations.append(np.abs(lhs).max())
    # np.max, unlike the builtin max, lets a NaN violation through
    return CocycleReport(max_modulus_error=modulus_err,
                         max_violation=float(np.max(violations)), tol=tol)


def _same_group(a: MagneticGroup, b: MagneticGroup) -> bool:
    """True when ``b`` is ``a`` or has the same Cayley table and flags."""
    return a is b or (np.array_equal(a.cayley, b.cayley) and
                      np.array_equal(a.antiunitary, b.antiunitary))


def restricted_group(group: MagneticGroup, element_ids) -> tuple[MagneticGroup, np.ndarray]:
    """Build the subgroup spanned by ``element_ids`` as its own MagneticGroup.

    Returns the new group plus the embedding array mapping new ids to ids in
    the parent.  Raises NotASubgroupEmbedding when the subset is not closed.

    A nonempty subset of a finite group that is closed under multiplication
    is a subgroup, so the subgroup inherits what ``build_group`` checks on
    the parent: associativity, the permutation rows, identity, inverses,
    element orders and the flag homomorphism (whose kernel on the subgroup
    is a halving subgroup or all of it), and the parent's labels.  Only the
    closure is checked here; t0 is picked by ``build_group``'s rule.  Ids
    must be integers; their order and repeats do not matter.
    """
    emb = _sorted_ids(group, element_ids)
    pos = np.full(group.order, -1)
    pos[emb] = np.arange(len(emb))
    table = pos[group.cayley[np.ix_(emb, emb)]]
    if (table < 0).any():
        a, b = np.argwhere(table < 0)[0]
        raise NotASubgroupEmbedding(
            f"subset not closed: {group.label(int(emb[a]))} * "
            f"{group.label(int(emb[b]))} falls outside")
    flags = group.antiunitary[emb]
    orders = group.element_order[emb]
    sub = MagneticGroup(
        cayley=table,
        antiunitary=flags,
        labels=tuple(group.labels[g] for g in emb),
        identity=int(pos[group.identity]),
        t0=_pick_t0(flags, orders),
        inverse=pos[group.inverse[emb]],
        element_order=orders,
        h_elements=np.flatnonzero(flags == 0),
    )
    return sub, emb
