"""Irreducibility criterion, torsion numbers, and complete reduction of
co-representations into irreducible blocks.

The reduction device is a random Hermitian matrix gamma commuting with the
whole co-rep: its eigenspaces are exactly the irreducible subspaces.  One
refinement inside each orders and labels its basis by class operators of the
unitary subgroup H, then by a random matrix commuting with H only.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coreps import (
    COREP_TOL,
    CoRep,
    _max_frobenius_norm,
    conjugate_corep,
    residuals_within,
    validate_corep,
)
from .errors import (
    IndicatorNotQuantized,
    InvalidCoRep,
    NoT0,
    NotCommuting,
    NotHermitian,
    NotIrreducible,
    ReductionFailed,
)
from .groups import conjugacy_classes
from .linalg import _cluster_slices, refine_eigenbasis

DEFAULT_SEED = 0
#: reseeded attempts after the first before ``reduce_corep`` gives up
MAX_RETRIES = 5
#: relative gap between commutant eigenvalues that separates two blocks
BLOCK_TOL = 1e-7
#: torsion_number's default tolerance on the index and the indicator
TORSION_TOL = 1e-6

#: indicator value of the coset sum (1/|H|) sum_u Tr[M(u) conj(M(u))] for each
#: torsion class, calibrated on fixtures whose torsion is known independently
#: through the restriction to H (real / complex / quaternion types).
TORSION_INDICATOR = {1: 1.0, 2: 0.0, 4: -2.0}


# -- irreducibility criterion --------------------------------------------------

def criterion_sums(rep: CoRep, weights: np.ndarray):
    """The two character sums every criterion here is made of.

    With per-element weights w (the probe characters Tr D(g); all ones for
    the irreducibility index) returns

        (1/|H|) sum_h |chi(h)|^2 w(h)   and   (1/|H|) sum_u w(u) omega(u, u) chi(u^2),

    h over the unitary subgroup and u over the anti-unitary coset (the second
    sum is 0 for purely unitary groups).  ``weights`` may stack several
    weight rows, shape ``(..., |G|)``; the sums then have shape ``(...)``.
    """
    g = rep.group
    chi = np.einsum("gii->g", rep.matrices)
    h = g.h_elements
    unitary = (np.abs(chi[h]) ** 2 * weights[..., h]).sum(axis=-1) / g.halving_order
    u = g.coset_elements
    coset = (weights[..., u] * rep.omega.values[u, u] * chi[g.cayley[u, u]]).sum(axis=-1)
    # each part divided on its own: numpy divides a complex by a real through
    # its reciprocal, which can move the last bit
    return unitary, coset.real / g.halving_order + 1j * (coset.imag / g.halving_order)


def irreducibility_index(rep: CoRep) -> float:
    """Multiplicity-style index that equals 1 exactly when the co-rep is
    irreducible.

    For anti-unitary groups this is
    ``(1/2|H|) sum_h [ chi(h) chi*(h) + omega(t0 h, t0 h) chi((t0 h)^2) ]``;
    purely unitary groups use the plain character norm
    ``(1/|H|) sum_h |chi(h)|^2``.  Both are gauge invariant.
    """
    return _index_and_coset(rep)[0]


def _index_and_coset(rep: CoRep):
    """The index and the complex coset sum (None on unitary groups)."""
    unitary, coset = criterion_sums(rep, np.ones(rep.group.order))
    if not rep.group.is_magnetic:
        return float(unitary), None
    return float(_real(0.5 * (unitary + coset), "criterion")), coset


def _real(value, what: str, error=InvalidCoRep):
    """The real part of a complex scalar or array; raises ``error`` when an
    entry's imaginary part exceeds 1e-8 of max(1, its modulus)."""
    # im > 1e-8 max(1, |value|) as two comparisons: np.maximum, .any() are slow on scalars
    im = abs(value.imag)
    if np.count_nonzero((im > 1e-8) & (im > 1e-8 * abs(value))):
        raise error(f"{what} came out non-real: {value}")
    return value.real


def torsion_number(rep: CoRep, tol: float = TORSION_TOL) -> int:
    """Torsion class R in {1, 2, 4} of an irreducible co-rep.

    R = 1, 2, 4 marks the real, complex and quaternion types; the coset
    indicator evaluates to 1, 0, -2 respectively (the value is 2 - R, since
    the criterion ties the coset sum to the restricted character norm).
    """
    return _torsion(*_index_and_coset(rep), tol)


def _torsion(index: float, coset, tol: float) -> int:
    if not abs(index - 1.0) <= tol:   # a NaN criterion fails too
        raise NotIrreducible(f"criterion is {index}, not 1")
    if coset is None:
        raise NoT0("coset sum needs anti-unitary elements")
    value = _real(coset, "indicator")
    for r, target in TORSION_INDICATOR.items():
        if abs(value - target) <= tol:
            return r
    raise IndicatorNotQuantized(f"indicator {value} is not near any of {{1, 0, -2}}")


# -- commutant construction ----------------------------------------------------

@dataclass
class CommutantHamiltonian:
    """Random Hermitian matrices commuting with the co-rep.

    ``lam`` commutes with the unitary subgroup only; ``gamma`` additionally
    commutes with the anti-unitary action (gamma = lam for unitary groups).
    """

    gamma: np.ndarray
    lam: np.ndarray


def build_H_commutant(rep: CoRep, seed: int) -> np.ndarray:
    """Hermitian matrix commuting with every M(h), h in the unitary subgroup.

    Averages a seeded complex-Gaussian matrix A (numpy default_rng) over the
    subgroup, M(h) A M(h)^dag, then hermitianizes the result.
    """
    rng = np.random.default_rng(seed)
    d = rep.dim
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    acc = rep.apply(rep.group.h_elements, a).sum(axis=0)
    return (acc + acc.conj().T) + 1j * (acc - acc.conj().T)


def build_G_commutant(rep: CoRep, seed: int) -> CommutantHamiltonian:
    """Hermitian matrix commuting with the whole co-rep.

    gamma = lam + M(t0) conj(lam) M(t0)^dag, which commutes with every M(h)
    and intertwines the conjugation of the anti-unitary coset; gamma = lam
    on a unitary group, which has no t0.
    """
    t0, lam = rep.group.t0, build_H_commutant(rep, seed)
    return CommutantHamiltonian(gamma=lam if t0 is None else lam + rep.apply(t0, lam), lam=lam)


def combined_class_operator(rep: CoRep, rng: np.random.Generator) -> np.ndarray:
    """Random real combination sum_i r_i C_i over the classes of H, where
    C_i = sum_h M(h) M(h_i) M(h)^dag, as one average of sum_i r_i M(h_i) over
    H: C_i is linear in M(h_i).  Commutes with every M(h) exactly, also for
    projective reps, since the factor-system phases cancel between M(h) and
    its adjoint."""
    h = rep.group.h_elements
    classes = conjugacy_classes(rep.group, h)
    coeff = rng.standard_normal(len(classes))
    mix = np.tensordot(coeff, rep.matrices[[cls[0] for cls in classes]], axes=1)
    return rep.apply(h, mix).sum(axis=0)


# -- full reduction -------------------------------------------------------------

@dataclass
class Block:
    start: int
    stop: int
    energy: float
    torsion: Optional[int]
    labels: np.ndarray  # (dim, n_ops) complex eigenvalue labels per column
    index: float

    @property
    def dim(self) -> int:
        return self.stop - self.start


@dataclass
class IrrepDecomposition:
    basis: np.ndarray
    blocks: list
    residuals: dict
    seeds_used: list
    label_names: list

    @property
    def block_dims(self) -> list:
        return [b.dim for b in self.blocks]


def _check_input(rep: CoRep, tol: float) -> Optional[tuple]:
    """Check ``rep`` at max(``COREP_TOL``, ``tol``) unless it carries residuals
    within that: InvalidCoRep when it fails, else the (unitarity, relation)
    residuals measured, or None when the carried ones sufficed."""
    check_tol = max(tol, COREP_TOL)
    if residuals_within(rep, check_tol):
        return None
    report = validate_corep(rep, tol=check_tol)
    if not report.passed:
        raise InvalidCoRep(
            f"input fails validation: unitarity {report.unitarity_residual:.3e}, "
            f"relation {report.relation_residual:.3e}")
    return report.unitarity_residual, report.relation_residual


def reduce_corep(rep: CoRep, seed: int = DEFAULT_SEED, tol: float = 1e-9) -> IrrepDecomposition:
    """Reduce a co-rep into irreducible blocks.

    The blocks are the eigenspaces of the commutant Hamiltonian gamma.  One
    refinement inside each (``linalg.refine_eigenbasis``) orders and labels
    its columns by a combination of H's class operators when |H| > 1, then
    on magnetic groups by the H-only lam, which commutes with gamma on each
    of its eigenspaces.  Every block must pass the irreducibility criterion;
    an accidental eigenvalue collision of the random gamma triggers a
    reseeded retry.  ``seed`` must be an integer, so the result is reproducible.

    The input is validated only when it carries no residual bounds
    (``CoRep.residuals``) at or below the validation tolerance.
    """
    seed = operator.index(seed)
    _check_input(rep, tol)

    seeds_used = []
    rng_master = np.random.default_rng(seed)
    last_error = None
    attempt_seed = seed
    for attempt in range(MAX_RETRIES + 1):
        seeds_used.append(attempt_seed)
        try:
            return _reduce_once(rep, attempt_seed, tol, seeds_used)
        except NotIrreducible as err:
            last_error = err
            attempt_seed = int(rng_master.integers(1, 2**63 - 1))
    raise ReductionFailed(
        f"no irreducible split after {MAX_RETRIES + 1} seeds {seeds_used}: {last_error}")


def _reduce_once(rep: CoRep, seed: int, tol: float,
                 seeds_used: list) -> IrrepDecomposition:
    g = rep.group
    rng = np.random.default_rng(seed)
    com = build_G_commutant(rep, seed)
    gamma, lam = com.gamma, com.lam

    label_tol = max(tol, 1e-10)
    energies, u = np.linalg.eigh(gamma)
    scale = max(1.0, np.abs(energies).max())
    hermiticity = float(np.linalg.norm(gamma - gamma.conj().T, ord=2))
    if hermiticity > label_tol * scale:
        raise NotHermitian("gamma is not Hermitian at tolerance")
    block_slices = _cluster_slices(energies, BLOCK_TOL * scale)

    n_class = int(g.halving_order > 1)   # a one-element H labels nothing
    names = [f"class_ops_subgroup_{g.halving_order}"] * n_class + ["energy", "multiplet_split"]
    c = combined_class_operator(rep, rng) if n_class else None
    parts = [c + c.conj().T, 1j * (c - c.conj().T)] if n_class else []
    # lam commutes with gamma only inside a block, so it refines only there
    ops = (parts + [lam]) if g.is_magnetic else parts
    scales = [max(1.0, np.linalg.norm(a, ord=2)) for a in ops]
    refined = [refine_eigenbasis(u[:, sl], ops, [label_tol * s for s in scales])
               for sl in block_slices]
    u = np.hstack([cols for cols, _ in refined])

    diags = []
    for a, s in zip(parts, scales):
        rot = u.conj().T @ a @ u
        diags.append(rot.diagonal().real)
        resid = np.abs(rot - np.diag(diags[-1])).max()
        if resid > 10 * label_tol * s:
            raise NotCommuting(f"off-diagonal residual {resid:.3e} after refinement")
    labels = np.full((rep.dim, n_class + 2), np.nan, dtype=complex)
    if n_class:   # the (re, im) parts folded back together
        labels[:, 0] = (diags[0] + 1j * diags[1]) / 2
    if g.is_magnetic:
        labels[:, -1] = np.hstack([values[-1] for _, values in refined])

    # one rotation: each block's co-rep is its diagonal block, and the rest
    # is what block_diagonality measures
    rotated = conjugate_corep(rep, u).matrices
    blocks = []
    for sl in block_slices:
        index, coset = _index_and_coset(
            CoRep(group=g, omega=rep.omega, matrices=rotated[:, sl, sl]))
        if not abs(index - 1.0) <= max(10 * tol, 1e-7):   # NaN fails too
            raise NotIrreducible(
                f"block {sl} has criterion {index}; accidental degeneracy suspected")
        energy = float(energies[sl].mean())
        labels[sl, n_class] = energy
        blocks.append(Block(
            start=sl.start, stop=sl.stop, energy=energy,
            torsion=_torsion(index, coset, TORSION_TOL) if g.is_magnetic else None,
            labels=labels[sl], index=index,
        ))

    residuals = _decomposition_residuals(rep, u, rotated, block_slices, gamma, lam,
                                         hermiticity)
    return IrrepDecomposition(basis=u, blocks=blocks, residuals=residuals,
                              seeds_used=list(seeds_used), label_names=names)


def _decomposition_residuals(rep: CoRep, u: np.ndarray, rotated: np.ndarray,
                             block_slices, gamma: np.ndarray, lam: np.ndarray,
                             hermiticity: float) -> dict:
    g = rep.group
    d = rep.dim
    mask = np.ones((d, d), dtype=bool)
    for sl in block_slices:
        mask[sl, sl] = False
    off = float(np.abs(rotated[:, mask]).max()) if mask.any() else 0.0

    def commutation(ids, x):
        return _max_frobenius_norm(rep.apply(ids, x) - x)

    res = {
        "block_diagonality": off,
        "unitarity_of_basis": float(np.linalg.norm(u.conj().T @ u - np.eye(d), ord=2)),
        "gamma_subgroup_commutation": commutation(g.h_elements, gamma),
    }
    if g.is_magnetic:
        res["gamma_t0_commutation"] = commutation(g.t0, gamma)
        res["lambda_subgroup_commutation"] = commutation(g.h_elements, lam)
    res["gamma_hermiticity"] = hermiticity
    return res
