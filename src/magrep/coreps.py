"""Unitary projective co-representations of magnetic groups.

An element g is represented by a unitary matrix M(g) composed with complex
conjugation K when s(g) = 1.  The matrices satisfy the twisted rule

    M(g1) conj^[s(g1)](M(g2)) = omega(g1, g2) M(g1 g2),

so a co-rep is the triple (group, factor system, matrices).  ``CoRep.apply``
is the adjoint action X -> M(g) conj^[s(g)](X) M(g)^dag of a whole array of
elements at once; the reduction and k.p engines average and check with it.
The module also holds the constructors (from matrices, direct sums, basis
changes onto a subspace, gauges, restrictions) and the validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidCoRep, NoT0
from .groups import FactorSystem, MagneticGroup, restricted_group

#: Default tolerance for unitarity / multiplication-rule residuals.
COREP_TOL = 1e-9
#: residual above which a product is not a scalar multiple of its table entry
OMEGA_FIT_TOL = 1e-8


@dataclass
class CoRep:
    """Per-element unitary matrices of a projective co-representation."""

    group: MagneticGroup
    omega: FactorSystem
    matrices: np.ndarray  # (n, d, d) complex

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices, dtype=complex)
        if self.matrices.ndim != 3 or self.matrices.shape[0] != self.group.order:
            raise DimensionMismatch("need one d x d matrix per group element")
        if self.matrices.shape[1] != self.matrices.shape[2]:
            raise DimensionMismatch("representation matrices must be square")
        if self.omega.order != self.group.order:
            raise DimensionMismatch("factor system size does not match the group")

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def m(self, g: int) -> np.ndarray:
        return self.matrices[g]

    def apply(self, ids, mat: np.ndarray) -> np.ndarray:
        """Adjoint action M(g) conj^[s(g)](X) M(g)^dag of every listed element.

        ``ids`` is an element id or an array of them and ``mat`` a stack
        ``(..., d, d)``; the result has shape ``ids.shape + mat.shape``.
        """
        ids = np.asarray(ids)
        lead = ids.shape + (1,) * (np.ndim(mat) - 2)
        mg = self.matrices[ids].reshape(lead + (self.dim, self.dim))
        flip = self.group.antiunitary[ids].reshape(lead + (1, 1)) == 1
        return mg @ np.where(flip, np.conj(mat), mat) @ np.conj(np.swapaxes(mg, -1, -2))

    @property
    def eta0(self) -> complex:
        """omega(t0, t0); the +-1 invariant for groups with t0^2 = identity."""
        t0 = self.group.t0
        if t0 is None:
            raise NoT0("purely unitary group has no eta0")
        return self.omega(t0, t0)


@dataclass
class Character:
    """Traces chi(h) = Tr M(h) over the unitary subgroup."""

    h_elements: np.ndarray
    values: np.ndarray

    def __getitem__(self, h: int) -> complex:
        idx = np.nonzero(self.h_elements == h)[0]
        if len(idx) != 1:
            raise KeyError(f"element {h} is not unitary")
        return complex(self.values[idx[0]])


@dataclass
class CoRepReport:
    unitarity_residual: float
    relation_residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.unitarity_residual <= self.tol and self.relation_residual <= self.tol


def validate_corep(rep: CoRep, tol: float = COREP_TOL) -> CoRepReport:
    """Residuals of unitarity and of the twisted multiplication rule.

    The relation residual is the max spectral norm over all element pairs of
    ``M(a) conj^[s(a)](M(b)) - omega(a, b) M(ab)``.
    """
    g = rep.group
    mats = rep.matrices
    conj_mats = np.conj(mats)
    uni = np.linalg.norm(np.swapaxes(conj_mats, -1, -2) @ mats - np.eye(rep.dim),
                         ord=2, axis=(-2, -1)).max()
    rel = 0.0
    for a in range(g.order):
        lhs = mats[a] @ (conj_mats if g.s(a) else mats)
        rhs = rep.omega.values[a, :, None, None] * mats[g.cayley[a]]
        rel = max(rel, np.linalg.norm(lhs - rhs, ord=2, axis=(-2, -1)).max())
    return CoRepReport(unitarity_residual=float(uni), relation_residual=float(rel), tol=tol)


def character(rep: CoRep) -> Character:
    h = rep.group.h_elements
    return Character(h_elements=h, values=np.einsum("gii->g", rep.matrices[h]))


# -- constructors and fixtures ------------------------------------------------

def corep_from_matrices(group: MagneticGroup, matrices) -> CoRep:
    """Build a CoRep from per-element matrices, deriving the factor system.

    The scalar omega(a, b) is read off the multiplication rule; a residual
    above ``OMEGA_FIT_TOL`` in the scalar fit means the matrices do not
    define a projective co-rep at all.
    """
    mats = np.asarray(matrices, dtype=complex)
    n = group.order
    if mats.shape[0] != n:
        raise DimensionMismatch("need one matrix per element")
    d = mats.shape[1]
    conj_mats = np.conj(mats)
    omega = np.ones((n, n), dtype=complex)
    for a in range(n):
        prod = mats[a] @ (conj_mats if group.s(a) else mats)
        target = mats[group.cayley[a]]
        # omega = <target, prod> / d for unitary target
        w = np.einsum("bij,bij->b", np.conj(target), prod) / d
        bad = (np.abs(np.abs(w) - 1.0) > OMEGA_FIT_TOL) | (
            np.linalg.norm(prod - w[:, None, None] * target, ord=2, axis=(-2, -1))
            > OMEGA_FIT_TOL)
        if bad.any():
            raise InvalidCoRep(
                f"products are not scalar multiples of the table entry at "
                f"({group.label(a)}, {group.label(int(np.argmax(bad)))})")
        omega[a] = w
    return CoRep(group=group, omega=FactorSystem(omega), matrices=mats)


def direct_sum(reps: Sequence[CoRep]) -> CoRep:
    """Block-diagonal sum; all summands must share group and factor system."""
    if not reps:
        raise ValueError("empty direct sum")
    g = reps[0].group
    w = reps[0].omega
    for r in reps[1:]:
        if r.group is not g and not (np.array_equal(r.group.cayley, g.cayley) and
                                     np.array_equal(r.group.antiunitary, g.antiunitary)):
            raise DimensionMismatch("direct sum needs a common group")
        if not np.allclose(r.omega.values, w.values, atol=1e-12):
            raise InvalidCoRep("direct sum needs a common factor system")
    d = sum(r.dim for r in reps)
    out = np.zeros((g.order, d, d), dtype=complex)
    off = 0
    for r in reps:
        out[:, off:off + r.dim, off:off + r.dim] = r.matrices
        off += r.dim
    return CoRep(group=g, omega=w, matrices=out)


def conjugate_corep(rep: CoRep, u: np.ndarray) -> CoRep:
    """Change of basis M(g) -> U^dag M(g) conj^[s(g)](U); same factor system.

    ``u`` may be a ``(d, k)`` isometry onto an invariant subspace, which gives
    the co-rep carried by that subspace.
    """
    u = np.asarray(u, dtype=complex)
    flip = rep.group.antiunitary[:, None, None] == 1
    out = u.conj().T @ rep.matrices @ np.where(flip, np.conj(u), u)
    return CoRep(group=rep.group, omega=rep.omega, matrices=out)


def gauge_transform(rep: CoRep, phases) -> CoRep:
    """Rephase M'(g) = Omega(g) M(g) and carry the factor system along.

    omega'(a, b) = omega(a, b) Omega(a) Omega^[s(a)](b) / Omega(ab).
    """
    ph = np.asarray(phases, dtype=complex)
    g = rep.group
    if ph.shape != (g.order,):
        raise DimensionMismatch("need one phase per group element")
    if np.abs(np.abs(ph) - 1.0).max() > 1e-12:
        raise InvalidCoRep("gauge phases must have unit modulus")
    mats = ph[:, None, None] * rep.matrices
    s = g.antiunitary
    ph_b = np.where(s[:, None] == 1, np.conj(ph)[None, :], ph[None, :])
    omega = rep.omega.values * ph[:, None] * ph_b / ph[g.cayley]
    return CoRep(group=g, omega=FactorSystem(omega), matrices=mats)


def random_gauge(rep: CoRep, seed: int) -> CoRep:
    rng = np.random.default_rng(seed)
    ph = np.exp(2j * np.pi * rng.random(rep.group.order))
    return gauge_transform(rep, ph)


def restrict_corep(rep: CoRep, element_ids) -> tuple[CoRep, np.ndarray]:
    """Co-rep of the subgroup spanned by ``element_ids`` (ids of the parent)."""
    sub, emb = restricted_group(rep.group, element_ids)
    omega = FactorSystem(rep.omega.values[np.ix_(emb, emb)])
    return CoRep(group=sub, omega=omega, matrices=rep.matrices[emb]), emb


def unitary_restriction(rep: CoRep) -> tuple[CoRep, np.ndarray]:
    """Restriction to the halving subgroup H as a standalone unitary group."""
    return restrict_corep(rep, rep.group.h_elements)


def regular_corep(group: MagneticGroup, omega: Optional[FactorSystem] = None) -> CoRep:
    """Regular projective representation of a purely unitary group.

    M(g)_{ab} = omega(g, h_b) delta(a, g h_b); its reduction contains every
    irreducible with multiplicity equal to its dimension.
    """
    if group.is_magnetic:
        raise InvalidCoRep("regular co-rep fixture is built for unitary groups")
    n = group.order
    if omega is None:
        omega = FactorSystem.trivial(n)
    mats = np.zeros((n, n, n), dtype=complex)
    ids = np.arange(n)
    mats[ids[:, None], group.cayley, ids[None, :]] = omega.values
    return CoRep(group=group, omega=omega, matrices=mats)
