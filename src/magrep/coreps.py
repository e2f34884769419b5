"""Unitary projective co-representations of magnetic groups.

An element g is represented by a unitary matrix M(g) composed with complex
conjugation K when s(g) = 1.  The matrices satisfy the twisted rule

    M(g1) conj^[s(g1)](M(g2)) = omega(g1, g2) M(g1 g2),

so a co-rep is the triple (group, factor system, matrices).  ``CoRep.apply``
is the adjoint action X -> M(g) conj^[s(g)](X) M(g)^dag of a whole array of
elements at once; the reduction and k.p engines average and check with it.
The module also holds the constructors (from matrices, direct sums, basis
changes onto a subspace, gauges, restrictions) and the validation.

Validation and the factor-system fit share one pair kernel.  The n^2
products M(a) conj^[s(a)](M(b)) come in blocks of consecutive first
elements a, each of up to ``ROW_BLOCK_ENTRIES`` entries, as one matrix
product per flag class against all n matrices laid side by side.  Every
residual is the largest Frobenius norm over its stack of matrices
(``_max_frobenius_norm``), one pass of squares and no SVD.  It bounds the
largest spectral norm from above, so a check against a tolerance is at
least as strict, and the bounds that derived co-reps carry are Frobenius
bounds too.

Validation happens once, at the boundary.  ``validate_corep`` always checks
from scratch.  ``corep_from_matrices`` measures the same two residuals while
it fits the factor system and stores them on the co-rep as ``residuals``;
the constructors that derive a co-rep from one that carries residuals
(a basis change by a square matrix, a gauge, a direct sum, a restriction)
pass on an upper bound, and ``reduce_corep`` validates only a co-rep whose
bounds it cannot accept.  A co-rep built as ``CoRep(...)``, read from a file,
made by ``dataclasses.replace``, or projected onto a subspace by an isometry
carries none.  A co-rep that carries residuals has read-only matrices and
factor system, and assigning any of its fields drops the bounds, so they
cannot go stale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidCoRep
from .groups import FactorSystem, MagneticGroup, _row_blocks, _same_group, restricted_group

#: Default tolerance for unitarity / multiplication-rule residuals.
COREP_TOL = 1e-9
#: residual above which a product is not a scalar multiple of its table entry
OMEGA_FIT_TOL = 1e-8
#: tiny/eps: a sum of squares below it may have lost underflowed squares
_SQUARES_FLOOR = np.finfo(float).tiny / np.finfo(float).eps


@dataclass
class CoRep:
    """Per-element unitary matrices of a projective co-representation."""

    group: MagneticGroup
    omega: FactorSystem
    matrices: np.ndarray  # (n, d, d) complex
    #: upper bounds on the (unitarity, relation) residuals of ``validate_corep``;
    #: set only by this module's constructors, None when nothing is known
    residuals: Optional[tuple] = field(default=None, init=False, repr=False,
                                       compare=False)

    def __setattr__(self, name, value):
        # bounds measured on the old matrices say nothing about new ones
        if name != "residuals":
            object.__setattr__(self, "residuals", None)
        object.__setattr__(self, name, value)

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

    The relation residual is the largest Frobenius norm over all element
    pairs of ``M(a) conj^[s(a)](M(b)) - omega(a, b) M(ab)``, and the
    unitarity residual the largest of ``M(a)^dag M(a) - 1``; each lies
    between the largest spectral norm r and sqrt(d) r.  The products come a
    block of first elements at a time from ``_row_products``, a block
    holding up to ``ROW_BLOCK_ENTRIES`` product entries.  Non-finite
    matrices or factor systems fail with infinite residuals.
    """
    g = rep.group
    mats = rep.matrices
    if not (np.isfinite(mats).all() and np.isfinite(rep.omega.values).all()):
        return CoRepReport(unitarity_residual=np.inf, relation_residual=np.inf, tol=tol)
    rel = 0.0
    for rows, prod, target in _row_products(g, mats):
        rel = _max_frobenius_norm(prod - rep.omega.values[rows, :, None, None] * target, rel)
    return CoRepReport(unitarity_residual=_unitarity_residual(mats),
                       relation_residual=rel, tol=tol)


def residuals_within(rep: CoRep, tol: float) -> bool:
    """True when the co-rep carries residual bounds and both are <= tol."""
    return rep.residuals is not None and all(r <= tol for r in rep.residuals)


def _unitarity_residual(mats: np.ndarray) -> float:
    eye = np.eye(mats.shape[-1])
    return _max_frobenius_norm(np.swapaxes(np.conj(mats), -1, -2) @ mats - eye)


def _row_products(group: MagneticGroup, mats: np.ndarray):
    """Yield ``(rows, prod, target)`` over blocks of first elements a:
    prod[i, b] = M(a) conj^[s(a)](M(b)) and target[i, b] = M(ab) for
    a = rows[i], over the ``_row_blocks`` of n d^2 product entries a row,
    so temporaries stay O(max(ROW_BLOCK_ENTRIES, n d^2)).

    Every M(b) sits side by side in one ``(d, n d)`` matrix W, so a block's
    unitary rows take all their products in one matrix product
    ``M(rows) W`` with the rows' matrices stacked, and its anti-unitary
    rows in one with conj(W)."""
    n, d = mats.shape[:2]
    wide = mats.transpose(1, 0, 2).reshape(d, n * d)
    wides = (wide, np.conj(wide))
    ids = np.arange(n)
    for block in _row_blocks(n, n * d * d):
        rows = ids[block]
        prod = np.empty((len(rows), n, d, d), dtype=complex)
        for flag, w in enumerate(wides):
            sel = group.antiunitary[rows] == flag
            if sel.any():
                out = mats[rows[sel]].reshape(-1, d) @ w
                prod[sel] = out.reshape(-1, d, n, d).transpose(0, 2, 1, 3)
        yield rows, prod, mats[group.cayley[rows]]


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """||E||_F of every matrix of a complex stack ``(..., d, d)``, shaped
    ``stack.shape[:-2]``: one pass of squares per matrix.

    A sum of squares that is non-finite, or below tiny/eps while its matrix
    has a nonzero entry, may have over- or underflowed.  Only those matrices
    are summed again, scaled by the power of two of their largest real or
    imaginary part, which is exact; elsewhere the two sums are equal.  A NaN
    entry gives NaN and an infinite one inf.
    """
    lead, d2 = stack.shape[:-2], stack.shape[-2] * stack.shape[-1]
    flat = np.ascontiguousarray(stack).reshape(-1, d2).view(float)
    squares = np.einsum("ki,ki->k", flat, flat)
    norms = np.sqrt(squares)
    redo = np.flatnonzero(~np.isfinite(squares) | (squares < _SQUARES_FLOOR))
    redo = redo[flat[redo].any(axis=1)]
    if redo.size:
        _, exp = np.frexp(np.abs(flat[redo]).max(axis=1))
        scaled = np.ldexp(flat[redo], -exp[:, None])
        norms[redo] = np.ldexp(np.sqrt(np.einsum("ki,ki->k", scaled, scaled)), exp)
    return norms.reshape(lead)


def _max_frobenius_norm(stack: np.ndarray, floor: float = 0.0) -> float:
    """max(floor, max_k ||stack[k]||_F), an upper bound on the largest
    spectral norm (||E||_2 <= ||E||_F, Golub & Van Loan, Matrix
    Computations, 2.3).  A NaN norm or floor gives NaN."""
    return float(np.max(_frobenius_norms(stack), initial=floor))


def _carrying(rep: CoRep, residuals) -> CoRep:
    """``rep`` with the residual bounds ``(unitarity, relation)``, or as it
    is when they are None.  Its matrices and factor system, which the caller
    must not share, become read-only: writing to them would leave the
    bounds stale."""
    if residuals is not None:
        rep.matrices.flags.writeable = False
        rep.omega.values.flags.writeable = False
        rep.residuals = (float(residuals[0]), float(residuals[1]))
    return rep


def _float_slack(d: int) -> float:
    """Rounding allowance added to every inherited bound: a derived co-rep's
    residual, computed from scratch, exceeds the exact-arithmetic bound by a
    few float eps, from the d-term sums in its matrices and its products."""
    return 8 * d * np.finfo(float).eps


# -- constructors and fixtures ------------------------------------------------

def corep_from_matrices(group: MagneticGroup, matrices) -> CoRep:
    """Build a CoRep from per-element matrices, deriving the factor system.

    The scalar omega(a, b) is read off the multiplication rule; a residual
    above ``OMEGA_FIT_TOL`` in the scalar fit means the matrices do not
    define a projective co-rep at all; the error names the first such pair
    in element-id order.  The fit runs over the same blocks of products as
    ``validate_corep`` (up to ``ROW_BLOCK_ENTRIES`` entries each) and its
    residuals are exactly that function's relation residual, so the result
    carries it, with the unitarity residual, as ``residuals``.
    """
    mats = np.asarray(matrices, dtype=complex)
    if isinstance(matrices, np.ndarray) and np.may_share_memory(mats, matrices):
        mats = mats.copy()   # the caller keeps a writable handle on its array
    n = group.order
    if mats.shape[0] != n:
        raise DimensionMismatch("need one matrix per element")
    if not np.isfinite(mats).all():
        raise InvalidCoRep("matrices have non-finite entries")
    d = mats.shape[1]
    omega = np.ones((n, n), dtype=complex)
    rel = 0.0
    for rows, prod, target in _row_products(group, mats):
        # omega = <target, prod> / d for unitary target
        w = np.einsum("abij,abij->ab", np.conj(target), prod) / d
        misfit = _frobenius_norms(prod - w[..., None, None] * target)
        bad = ~((np.abs(np.abs(w) - 1.0) <= OMEGA_FIT_TOL) & (misfit <= OMEGA_FIT_TOL))
        if bad.any():   # NaN is bad too
            a, b = np.unravel_index(np.argmax(bad), w.shape)
            raise InvalidCoRep(
                f"products are not scalar multiples of the table entry at "
                f"({group.label(int(rows[a]))}, {group.label(int(b))})")
        omega[rows] = w
        rel = np.max(misfit, initial=rel)
    rep = CoRep(group=group, omega=FactorSystem(omega), matrices=mats)
    return _carrying(rep, (_unitarity_residual(mats), rel))


def direct_sum(reps: Sequence[CoRep]) -> CoRep:
    """Block-diagonal sum; all summands must share group and factor system.

    The factor systems must agree entry by entry within 1e-12, and the sum
    takes the first one.  When every summand carries residuals, the sum's
    Frobenius residuals are at most the root-sum-square of theirs, each
    relation bound widened by the summand's factor-system gap times the
    bound sqrt(d_i) (1 + u) on the Frobenius norm of its matrices.
    """
    if not reps:
        raise ValueError("empty direct sum")
    g = reps[0].group
    w = reps[0].omega
    gaps = []
    for r in reps:
        if not _same_group(g, r.group):
            raise DimensionMismatch("direct sum needs a common group")
        gap = float(np.abs(r.omega.values - w.values).max())
        if not gap <= 1e-12:   # NaN fails too
            raise InvalidCoRep("direct sum needs a common factor system")
        gaps.append(gap)
    d = sum(r.dim for r in reps)
    out = np.zeros((g.order, d, d), dtype=complex)
    off = 0
    for r in reps:
        out[:, off:off + r.dim, off:off + r.dim] = r.matrices
        off += r.dim
    rep = CoRep(group=g, omega=w, matrices=out)
    if any(r.residuals is None for r in reps):
        return rep
    slack = _float_slack(d)
    uni = math.hypot(*(r.residuals[0] for r in reps)) + slack
    rel = math.hypot(*(r.residuals[1] + gap * math.sqrt(r.dim) * (1 + r.residuals[0])
                       for r, gap in zip(reps, gaps)))
    return _carrying(rep, (uni, rel + slack))


def conjugate_corep(rep: CoRep, u: np.ndarray) -> CoRep:
    """Change of basis M(g) -> U^dag M(g) conj^[s(g)](U); same factor system.

    ``u`` may be a ``(d, k)`` isometry onto an invariant subspace, which gives
    the co-rep carried by that subspace; nothing checks that the subspace is
    invariant, so that result carries no residuals.  A square ``u`` with
    eps = ||u^dag u - 1||_F passes on the bounds u' = (1+eps) u + eps + s and
    r' = (1+eps) r + s, with the spill s = (1+eps)(1+u) eps plus the
    rounding allowance.
    """
    u = np.asarray(u, dtype=complex)
    flip = rep.group.antiunitary[:, None, None] == 1
    out = u.conj().T @ rep.matrices @ np.where(flip, np.conj(u), u)
    rotated = CoRep(group=rep.group, omega=rep.omega, matrices=out)
    if rep.residuals is None or u.shape[0] != u.shape[1]:
        return rotated
    eps = float(np.linalg.norm(u.conj().T @ u - np.eye(len(u))))
    uni, rel = rep.residuals
    spill = (1 + eps) * (1 + uni) * eps + _float_slack(rep.dim)
    return _carrying(rotated, ((1 + eps) * uni + eps + spill, (1 + eps) * rel + spill))


def gauge_transform(rep: CoRep, phases) -> CoRep:
    """Rephase M'(g) = Omega(g) M(g) and carry the factor system along.

    omega'(a, b) = omega(a, b) Omega(a) Omega^[s(a)](b) / Omega(ab).

    With delta = max ||Omega(g)| - 1|, residual bounds (u, r) become
    ((1+delta)^2 u + sqrt(d) (2 delta + delta^2), (1+delta)^2 r).
    """
    ph = np.asarray(phases, dtype=complex)
    g = rep.group
    if ph.shape != (g.order,):
        raise DimensionMismatch("need one phase per group element")
    delta = float(np.abs(np.abs(ph) - 1.0).max())
    if not delta <= 1e-12:   # a NaN phase fails too
        raise InvalidCoRep("gauge phases must have unit modulus")
    mats = ph[:, None, None] * rep.matrices
    s = g.antiunitary
    ph_b = np.where(s[:, None] == 1, np.conj(ph)[None, :], ph[None, :])
    omega = rep.omega.values * ph[:, None] * ph_b / ph[g.cayley]
    gauged = CoRep(group=g, omega=FactorSystem(omega), matrices=mats)
    if rep.residuals is None:
        return gauged
    uni, rel = rep.residuals
    grow, slack = (1 + delta) ** 2, _float_slack(rep.dim)
    stretch = math.sqrt(rep.dim) * (2 * delta + delta ** 2)   # || (|Omega|^2 - 1) I ||_F
    return _carrying(gauged, (grow * uni + stretch + slack, grow * rel + slack))


def random_gauge(rep: CoRep, seed: int) -> CoRep:
    rng = np.random.default_rng(seed)
    ph = np.exp(2j * np.pi * rng.random(rep.group.order))
    return gauge_transform(rep, ph)


def restrict_corep(rep: CoRep, element_ids) -> tuple[CoRep, np.ndarray]:
    """Co-rep of the subgroup spanned by ``element_ids`` (ids of the parent),
    and the ``restricted_group`` embedding.  The subgroup's pairs are a
    subset of the parent's, so it keeps the parent's residual bounds."""
    sub, emb = restricted_group(rep.group, element_ids)
    omega = FactorSystem(rep.omega.values[np.ix_(emb, emb)])
    return _carrying(CoRep(group=sub, omega=omega, matrices=rep.matrices[emb]),
                     rep.residuals), emb


def regular_corep(group: MagneticGroup, omega: Optional[FactorSystem] = None) -> CoRep:
    """Regular co-rep: M(g)_{ab} = omega(g, b) delta(a, g b), which obeys the
    twisted multiplication rule for anti-unitary g too.
    """
    n = group.order
    if omega is None:
        omega = FactorSystem.trivial(n)
    mats = np.zeros((n, n, n), dtype=complex)
    ids = np.arange(n)
    mats[ids[:, None], group.cayley, ids[None, :]] = omega.values
    return CoRep(group=group, omega=omega, matrices=mats)
