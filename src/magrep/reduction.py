"""Irreducibility criterion, torsion numbers, and complete reduction of
co-representations into irreducible blocks.

The reduction device is a random Hermitian matrix commuting with the whole
co-rep: its eigenspaces are exactly the irreducible subspaces, so one
eigendecomposition performs the entire block split.  Class operators of the
unitary subgroup (and of a user-supplied subgroup chain) provide the labels
that identify equivalent blocks and order the basis inside each block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .coreps import CoRep, conjugate_corep, validate_corep
from .errors import (
    ElementNotInSubgroup,
    IndicatorNotQuantized,
    InvalidCoRep,
    NoT0,
    NotIrreducible,
    ReductionFailed,
)
from .groups import conjugacy_classes
from .linalg import simultaneous_diag, _cluster_slices

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

def criterion_sums(rep: CoRep, weights: np.ndarray) -> tuple[float, complex]:
    """The two character sums every criterion here is made of.

    With per-element weights w (the probe characters Tr D(g); all ones for
    the irreducibility index) returns

        (1/|H|) sum_h |chi(h)|^2 w(h)   and   (1/|H|) sum_u w(u) omega(u, u) chi(u^2),

    h over the unitary subgroup and u over the anti-unitary coset (the second
    sum is 0 for purely unitary groups).
    """
    g = rep.group
    chi = np.einsum("gii->g", rep.matrices)
    h = g.h_elements
    unitary = float(np.sum(np.abs(chi[h]) ** 2 * weights[h])) / g.halving_order
    u = g.coset_elements
    coset = np.sum(weights[u] * rep.omega.values[u, u] * chi[g.cayley[u, u]])
    return unitary, complex(coset) / g.halving_order


def irreducibility_index(rep: CoRep) -> float:
    """Multiplicity-style index that equals 1 exactly when the co-rep is
    irreducible.

    For anti-unitary groups this is
    ``(1/2|H|) sum_h [ chi(h) chi*(h) + omega(t0 h, t0 h) chi((t0 h)^2) ]``;
    purely unitary groups use the plain character norm
    ``(1/|H|) sum_h |chi(h)|^2``.  Both are gauge invariant.
    """
    unitary, coset = criterion_sums(rep, np.ones(rep.group.order))
    if not rep.group.is_magnetic:
        return unitary
    value = 0.5 * (unitary + coset)
    if abs(value.imag) > 1e-8 * max(1.0, abs(value)):
        raise InvalidCoRep(f"criterion came out non-real: {value}")
    return float(value.real)


def torsion_indicator(rep: CoRep) -> float:
    """Real value of the coset sum (1/|H|) sum_u omega(u, u) chi(u^2), which
    equals (1/|H|) sum_u Tr[M(u) conj(M(u))]; quantized to {1, 0, -2} on
    irreducibles."""
    if not rep.group.is_magnetic:
        raise NoT0("coset sum needs anti-unitary elements")
    _, value = criterion_sums(rep, np.ones(rep.group.order))
    if abs(value.imag) > 1e-8 * max(1.0, abs(value)):
        raise InvalidCoRep(f"indicator came out non-real: {value}")
    return float(value.real)


def torsion_number(rep: CoRep, tol: float = TORSION_TOL) -> int:
    """Torsion class R in {1, 2, 4} of an irreducible co-rep.

    R = 1, 2, 4 marks the real, complex and quaternion types; the coset
    indicator evaluates to 1, 0, -2 respectively (the value is 2 - R, since
    the criterion ties the coset sum to the restricted character norm).
    """
    index = irreducibility_index(rep)
    if abs(index - 1.0) > tol:
        raise NotIrreducible(f"criterion is {index}, not 1")
    value = torsion_indicator(rep)
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
    seed: int


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
    """Hermitian matrix commuting with the whole anti-unitary co-rep.

    gamma = lam + M(t0) conj(lam) M(t0)^dag, which commutes with every M(h)
    and intertwines the conjugation of the anti-unitary coset.
    """
    g = rep.group
    if g.t0 is None:
        raise NoT0("use build_H_commutant for purely unitary groups")
    lam = build_H_commutant(rep, seed)
    return CommutantHamiltonian(gamma=lam + rep.apply(g.t0, lam), lam=lam, seed=seed)


def class_operator(rep: CoRep, class_rep: int, subgroup: Sequence[int]) -> np.ndarray:
    """C_i = sum over the subgroup of M(h_a) M(h_i) M(h_a)^dag.

    Commutes with every M(h_a) exactly, including for projective reps, since
    the factor-system phases cancel between M(h_a) and its adjoint.
    """
    members = sorted(set(int(x) for x in subgroup))
    g = rep.group
    h_set = set(int(h) for h in g.h_elements)
    if not set(members) <= h_set:
        raise ElementNotInSubgroup("class operators live in the unitary subgroup")
    if int(class_rep) not in members:
        raise ElementNotInSubgroup(f"element {class_rep} is outside the subgroup")
    return rep.apply(members, rep.m(int(class_rep))).sum(axis=0)


def combined_class_operator(rep: CoRep, subgroup: Sequence[int],
                            rng: np.random.Generator) -> np.ndarray:
    """Random real combination sum_i r_i C_i over the subgroup's classes."""
    classes = conjugacy_classes(rep.group, subgroup)
    coeff = rng.standard_normal(len(classes))
    acc = np.zeros((rep.dim, rep.dim), dtype=complex)
    for r, cls in zip(coeff, classes):
        acc += r * class_operator(rep, cls[0], subgroup)
    return acc


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


def _herm_parts(x: np.ndarray) -> list[np.ndarray]:
    return [x + x.conj().T, 1j * (x - x.conj().T)]


def reduce_corep(rep: CoRep, seed: int = DEFAULT_SEED, tol: float = 1e-9) -> IrrepDecomposition:
    """Reduce a co-rep into irreducible blocks.

    Builds the commutant Hamiltonian gamma (plus the subgroup-only lam),
    simultaneously diagonalizes the class-operator combinations of the
    subgroup chain together with gamma, groups columns into blocks by the
    gamma eigenvalue, and refines residual degeneracies inside each block
    with lam compressed onto the degenerate cluster (lam need not commute
    with gamma globally, but it does on each gamma eigenspace).  Every block
    must pass the irreducibility criterion; an accidental eigenvalue
    collision of the random gamma triggers a reseeded retry.
    """
    report = validate_corep(rep, tol=max(tol, 1e-9))
    if not report.passed:
        raise InvalidCoRep(
            f"input fails validation: unitarity {report.unitarity_residual:.3e}, "
            f"relation {report.relation_residual:.3e}")

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
    d = rep.dim
    rng = np.random.default_rng(seed)

    if g.is_magnetic:
        com = build_G_commutant(rep, seed)
        gamma, lam = com.gamma, com.lam
    else:
        lam = build_H_commutant(rep, seed)
        gamma = lam

    family = []
    names = []
    chain = list(g.subgroup_chain)
    h_tuple = tuple(int(h) for h in g.h_elements)
    if not chain or tuple(chain[-1]) != h_tuple:
        chain.append(h_tuple)
    for sub in chain:
        if len(sub) == 1:
            continue  # singleton class operators are scalar, no labels to gain
        c = combined_class_operator(rep, sub, rng)
        family.extend(_herm_parts(c))
        names.append(f"class_ops_subgroup_{len(sub)}")
    family.append(gamma)
    names.append("energy")

    u, values = simultaneous_diag(family, seed=seed, tol=max(tol, 1e-10))

    # columns sorted by the gamma eigenvalue, stably, so blocks are contiguous
    energies = values[-1]
    order = np.argsort(energies, kind="stable")
    u = u[:, order]
    values = values[:, order]
    energies = values[-1]

    gap = BLOCK_TOL * max(1.0, np.linalg.norm(gamma, ord=2))
    block_slices = _cluster_slices(energies, gap)

    # complex class labels: fold the (re, im) Hermitian parts back together
    n_class = (len(family) - 1) // 2
    col_labels = np.full((d, n_class + 2), np.nan, dtype=complex)
    for k in range(n_class):
        col_labels[:, k] = (values[2 * k] + 1j * values[2 * k + 1]) / 2
    col_labels[:, n_class] = energies

    # refine leftover degeneracy inside each block with the compressed lam;
    # lam commutes with gamma only blockwise, so it never enters the global
    # simultaneous diagonalization
    if g.is_magnetic:
        for sl in block_slices:
            cols = np.arange(sl.start, sl.stop)
            seen: dict = {}
            for c in cols:
                seen.setdefault(col_labels[c, :n_class + 1].tobytes(), []).append(c)
            for idx in seen.values():
                if len(idx) < 2:
                    continue
                sub = u[:, idx].conj().T @ lam @ u[:, idx]
                sub = (sub + sub.conj().T) / 2
                vals, vecs = np.linalg.eigh(sub)
                u[:, idx] = u[:, idx] @ vecs
                col_labels[idx, n_class + 1] = vals

    blocks = []
    for sl in block_slices:
        ub = u[:, sl]
        sub_rep = conjugate_corep(rep, ub)
        index = irreducibility_index(sub_rep)
        if abs(index - 1.0) > max(10 * tol, 1e-7):
            raise NotIrreducible(
                f"block {sl} has criterion {index}; accidental degeneracy suspected")
        torsion = torsion_number(sub_rep) if g.is_magnetic else None
        blocks.append(Block(
            start=sl.start, stop=sl.stop,
            energy=float(energies[sl].mean()),
            torsion=torsion,
            labels=col_labels[sl.start:sl.stop],
            index=index,
        ))

    residuals = _decomposition_residuals(rep, u, block_slices, gamma, lam)
    names.append("multiplet_split")
    return IrrepDecomposition(basis=u, blocks=blocks, residuals=residuals,
                              seeds_used=list(seeds_used), label_names=names)


def _decomposition_residuals(rep: CoRep, u: np.ndarray, block_slices,
                             gamma: np.ndarray, lam: np.ndarray) -> dict:
    g = rep.group
    d = rep.dim
    mask = np.ones((d, d), dtype=bool)
    for sl in block_slices:
        mask[sl, sl] = False
    rotated = conjugate_corep(rep, u).matrices
    off = float(np.abs(rotated[:, mask]).max()) if mask.any() else 0.0

    res = {
        "block_diagonality": off,
        "unitarity_of_basis": float(np.linalg.norm(u.conj().T @ u - np.eye(d), ord=2)),
    }

    def commutation(ids, x):
        return float(np.linalg.norm(rep.apply(ids, x) - x, ord=2, axis=(-2, -1)).max())

    res["gamma_subgroup_commutation"] = commutation(g.h_elements, gamma)
    if g.is_magnetic:
        res["gamma_t0_commutation"] = commutation(g.t0, gamma)
        res["lambda_subgroup_commutation"] = commutation(g.h_elements, lam)
    res["gamma_hermiticity"] = float(np.linalg.norm(gamma - gamma.conj().T, ord=2))
    return res
