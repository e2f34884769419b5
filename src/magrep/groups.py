"""Finite magnetic (anti-unitary) groups given extensionally by a Cayley table.

A magnetic group of order n is stored as an n x n multiplication table of
element ids together with one anti-unitary flag bit per element.  When any
flag is set, the unitary elements must form a halving subgroup H and the
group splits as G = H + T0*H for a distinguished anti-unitary element T0.
Everything downstream (characters, class operators, coset sums) is a plain
sum over element ids, so groups are kept small and fully tabulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatch,
    ElementNotInSubgroup,
    FlagInconsistent,
    NoHalvingSubgroup,
    NoT0,
    NotAGroup,
    NotASubgroupEmbedding,
)

#: Default absolute tolerance for cocycle validation.  Factor systems are
#: exact-phase tables, so violations are either ~0 or O(1).
COCYCLE_TOL = 1e-10


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
    subgroup_chain : tuple of tuple of int
        Ascending chain of subgroups of H used to resolve degenerate labels
        during reduction.  Defaults to ``({identity}, H)``.
    """

    cayley: np.ndarray
    antiunitary: np.ndarray
    labels: tuple
    identity: int
    t0: Optional[int]
    inverse: np.ndarray
    element_order: np.ndarray
    h_elements: np.ndarray
    subgroup_chain: tuple

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

    def conjugate_by_t0(self, h: int) -> int:
        """Return the id of ``t0^-1 * h * t0`` for a unitary element h."""
        if self.t0 is None:
            raise NoT0("group has no anti-unitary elements")
        if self.s(h) != 0:
            raise ElementNotInSubgroup(f"element {h} is not in the unitary subgroup")
        t0i = self.inv(self.t0)
        return self.mul(self.mul(t0i, h), self.t0)

    def label(self, g: int) -> str:
        return self.labels[g]


def _element_orders(cayley: np.ndarray, identity: int) -> np.ndarray:
    n = cayley.shape[0]
    orders = np.zeros(n, dtype=int)
    for g in range(n):
        k, acc = 1, g
        while acc != identity:
            acc = cayley[acc, g]
            k += 1
            if k > n:
                raise NotAGroup(f"element {g} generates no identity within |G| steps")
        orders[g] = k
    return orders


def build_group(cayley, flags, labels=None, subgroup_chain=None) -> MagneticGroup:
    """Validate a Cayley table plus anti-unitary flags into a MagneticGroup.

    Parameters
    ----------
    cayley : ``(n, n)`` array_like of int
        Multiplication table, ``cayley[a][b] = id(a * b)``.
    flags : length-n array_like of {0, 1}
        Anti-unitary flag per element.
    labels : sequence of str, optional
        Element names; defaults to ``g0 .. g{n-1}``.
    subgroup_chain : sequence of sequences of int, optional
        Ascending chain of subgroups of H.  Defaults to ``[{identity}, H]``.

    Raises
    ------
    NotAGroup, FlagInconsistent, NoHalvingSubgroup
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

    # Associativity over all triples, one row a at a time (n^2 temporaries).
    for a in range(n):
        left = table[table[a]]        # left[b, c]  = (a b) c
        right = table[a][table]       # right[b, c] = a (b c)
        if not np.array_equal(left, right):
            b, c = np.argwhere(left != right)[0]
            raise NotAGroup(f"associativity fails at triple {(a, int(b), int(c))}")

    # Unique two-sided identity.
    id_candidates = np.nonzero((table == ids).all(axis=1) & (table == ids[:, None]).all(axis=0))[0]
    if len(id_candidates) != 1:
        raise NotAGroup(f"expected exactly one identity, found {len(id_candidates)}")
    identity = int(id_candidates[0])

    # Unique inverses; each row is a permutation, so it holds the identity once.
    inverse = np.argmax(table == identity, axis=1)
    bad = table[inverse, ids] != identity
    if bad.any():
        raise NotAGroup(f"element {int(np.argmax(bad))} lacks a unique two-sided inverse")

    # Flags must be a homomorphism onto Z2.
    if not np.array_equal(s[table], s[:, None] ^ s[None, :]):
        raise FlagInconsistent("s(g1 g2) != s(g1) xor s(g2) for some pair")

    h_elements = np.nonzero(s == 0)[0]
    anti = np.nonzero(s == 1)[0]
    if len(anti) > 0 and 2 * len(h_elements) != n:
        raise NoHalvingSubgroup(
            f"unitary part has {len(h_elements)} of {n} elements, expected {n // 2}")

    orders = _element_orders(table, identity)

    t0 = None
    if len(anti) > 0:
        # Minimal element order first, lowest id as the tie-break.
        t0 = int(min(anti, key=lambda g: (orders[g], g)))

    if labels is None:
        labels = tuple(f"g{k}" for k in range(n))
    else:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise DimensionMismatch("label count does not match group order")
        if len(set(labels)) != n:
            raise DimensionMismatch("element labels must be unique")

    if subgroup_chain is None:
        chain = ((identity,), tuple(int(h) for h in h_elements))
    else:
        chain = tuple(tuple(sorted(int(x) for x in sub)) for sub in subgroup_chain)

    h_set = set(int(h) for h in h_elements)
    prev = None
    for sub in chain:
        sub_set = set(sub)
        if not sub_set <= h_set:
            raise ElementNotInSubgroup("subgroup chain member leaves the unitary part")
        members = np.asarray(sub, dtype=int)
        if not np.isin(table[np.ix_(members, members)], members).all():
            raise NotAGroup(f"chain member {sub} is not closed under multiplication")
        if prev is not None and not prev <= sub_set:
            raise NotAGroup("subgroup chain is not ascending")
        prev = sub_set

    return MagneticGroup(
        cayley=table,
        antiunitary=s,
        labels=labels,
        identity=identity,
        t0=t0,
        inverse=inverse,
        element_order=orders,
        h_elements=h_elements,
        subgroup_chain=chain,
    )


def conjugacy_classes(group: MagneticGroup, members) -> tuple:
    """Conjugacy classes of the subgroup ``members``, ordered by lowest id."""
    m = np.asarray(sorted(set(int(x) for x in members)), dtype=int)
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
    # one row a at a time keeps the temporaries at n^2:
    # lhs[b,c] = w^[s(a)](b,c) * conj(w(ab,c)) * w(a,bc) * conj(w(a,b))
    violation = 0.0
    for a in range(n):
        lhs = ((w_conj if group.s(a) else w) * w_conj[table[a]] * w[a][table]
               * w_conj[a][:, None])
        violation = max(violation, float(np.abs(lhs - 1.0).max()))
    return CocycleReport(max_modulus_error=modulus_err, max_violation=violation, tol=tol)


def restricted_group(group: MagneticGroup, element_ids,
                     labels=None) -> tuple[MagneticGroup, np.ndarray]:
    """Build the subgroup spanned by ``element_ids`` as its own MagneticGroup.

    Returns the new group plus the embedding array mapping new ids to ids in
    the parent.  Raises NotASubgroupEmbedding when the subset is not closed.
    """
    emb = np.asarray(sorted(set(int(x) for x in element_ids)), dtype=int)
    if emb.size == 0 or emb.min() < 0 or emb.max() >= group.order:
        raise NotASubgroupEmbedding("element ids out of range")
    pos = np.full(group.order, -1)
    pos[emb] = np.arange(len(emb))
    table = pos[group.cayley[np.ix_(emb, emb)]]
    if (table < 0).any():
        a, b = np.argwhere(table < 0)[0]
        raise NotASubgroupEmbedding(
            f"subset not closed: {group.label(int(emb[a]))} * "
            f"{group.label(int(emb[b]))} falls outside")
    flags = group.antiunitary[emb]
    if labels is None:
        labels = [group.label(int(g)) for g in emb]
    sub = build_group(table, flags, labels=labels)
    return sub, emb


def verify_embedding(group: MagneticGroup, sub: MagneticGroup, embedding) -> np.ndarray:
    """Check that ``embedding`` maps ``sub`` into ``group`` as a magnetic subgroup."""
    emb = np.asarray(embedding, dtype=int)
    if emb.shape != (sub.order,):
        raise NotASubgroupEmbedding("embedding length must equal subgroup order")
    if emb.min() < 0 or emb.max() >= group.order or len(set(emb.tolist())) != sub.order:
        raise NotASubgroupEmbedding("embedding must be injective into the parent ids")
    flag_bad = group.antiunitary[emb] != sub.antiunitary
    prod_bad = group.cayley[np.ix_(emb, emb)] != emb[sub.cayley]
    bad_rows = flag_bad | prod_bad.any(axis=1)
    if bad_rows.any():
        a = int(np.argmax(bad_rows))
        if flag_bad[a]:
            raise NotASubgroupEmbedding(f"flag mismatch at subgroup element {a}")
        raise NotASubgroupEmbedding(
            f"product mismatch at pair ({a}, {int(np.argmax(prod_bad[a]))})")
    return emb
