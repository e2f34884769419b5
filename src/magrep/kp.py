"""Symmetry-constrained effective Hamiltonians around high-symmetry points.

Given an irreducible co-rep M and a real probe action D on q components
(momentum, a field, a strain, or a channel of homogeneous polynomials in the
components of any of them), this module counts and constructs the Hermitian
coupling tuples (gamma^1..gamma^q) obeying

    M(h)  gamma^m M(h)^dag  = sum_n dual(D)(h)_{nm}  gamma^n        (h unitary)
    M(t0) conj(gamma^m) M(t0)^dag = sum_n gamma^n dual(D)(t0)_{nm}  (anti-unitary)

Every count comes from characters: the coupling multiplicity is the
criterion of ``reduction.criterion_sums`` weighted by the probe characters,
and the number of identity couplings is the mean probe character, the trace
of the group-average projector onto the fixed vectors.  Both are linear in
the probe character, so ``_coupling_counts`` takes both for a stack of
characters in one call: the full induced action and every channel of every
order in ``dispersion_order``, every probe in ``probe_stability``.  Those
two report the identity couplings; ``linear_multiplicity`` counts the
couplings of one probe alone.
Characters cannot tell a rep from a non-rep, so each entry point that counts
validates its input action once per call.  The split of one polynomial
order into channels is judged by its leakage, the largest off-block entry
of the rotated rep; the channels' matrices come from the validated input by
exact homomorphisms, so their group law is left to the tests.
The matrices come from one real null space: a Hermitian q-tuple has
q d^2 real coordinates over the orthonormal, shared ``hermitian_basis(d)``,
and ``_covariant_tuples`` writes the covariance equations on them over
``group.generators`` only, one real Kronecker system of q d^2 rows each,
whose null space the ``eigh`` of its Gram matrix gives.  The covariance
map is a group action, so a tuple fixed by a generating set of H and by t0
is fixed by every element.
``build_gamma_matrices`` and the public ``covariant_tuple_basis`` both read
that one solve.  Its independent checks are the character criterion, whose
count the null space must match, and the covariance residuals over every
element, which ``build_gamma_matrices`` judges at its ``tol``: input that is
a rep only on the generators fails there.  ``_covariance_defects`` writes
the covariance equation once, for any array of elements; the two model
residuals are the largest entries of its one stack of every element over H
and over the coset.

``ProbeRepAction.d`` takes an element id or an array of ids and returns the
matching stack of probe matrices, the coset through D(h t0) = D(h) D(t0).  It
is the one element-indexed kernel of this module, as ``CoRep.apply`` is for
co-reps: the probe characters read every element at once, and the channel
sets of every order of one call read D(g) and its dual once.  They count
from traces, the full row from the substitution rep's, and build a channel's
ProbeRepAction on first use.
``validate_action`` checks all |H|^2 subgroup products in broadcast matmuls,
one per block of rows from ``groups._row_blocks``, the block rule of the
co-rep pair kernel, on the product tables ``MagneticGroup`` caches.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cache, cached_property
from math import comb
from typing import Optional

import numpy as np

from .coreps import CoRep, restrict_corep
from .errors import (
    DimensionMismatch,
    EmptyChannel,
    InvalidAction,
    NonIntegerMultiplicity,
    NotCommuting,
    SingularAction,
)
from .groups import MagneticGroup, _row_blocks, _same_group
from .linalg import _cluster_slices, _spectral_norm
from .reduction import _real, criterion_sums, irreducibility_index

ACTION_TOL = 1e-9
#: relative cut on the Gram eigenvalues of ``_covariant_tuples``, at or below
#: it times max(1, lambda_max) null: on that scale 3640 catalog and order-96
#: systems measure <= 9e-16 and >= 0.039, and 1e-8 is the gap's log-middle
NULL_SPACE_ATOL = 1e-8
#: largest off-block entry a polynomial channel split may leave in the
#: orthogonal rotated rep (``_channel_sets``)
SPLIT_TOL = 1e-7


# -- probe actions --------------------------------------------------------------

@dataclass
class ProbeRepAction:
    """Real linear action of the group on a probe channel (no cocycle).

    ``d_h[k]`` is the matrix of the k-th unitary element (ordered as
    ``group.h_elements``); ``d_t0`` is the matrix of the distinguished
    anti-unitary element when the group is magnetic.
    """

    group: MagneticGroup
    d_h: np.ndarray          # (|H|, q, q) real
    d_t0: Optional[np.ndarray]
    kind: str = "momentum"

    def __post_init__(self):
        self.d_h = np.asarray(self.d_h, dtype=float)
        if self.d_h.ndim != 3 or self.d_h.shape[0] != len(self.group.h_elements):
            raise DimensionMismatch("need one real matrix per unitary element")
        if self.d_h.shape[1] != self.d_h.shape[2]:
            raise DimensionMismatch("probe matrices must be square")
        if self.d_h.shape[1] == 0:
            raise DimensionMismatch("a probe needs at least one component")
        if self.d_t0 is not None:
            self.d_t0 = np.asarray(self.d_t0, dtype=float)
            if self.d_t0.shape != self.d_h.shape[1:]:
                raise DimensionMismatch("t0 matrix shape mismatch")
        elif self.group.is_magnetic:
            raise InvalidAction("magnetic group needs the t0 probe matrix")
        if not (np.isfinite(self.d_h).all() and
                (self.d_t0 is None or np.isfinite(self.d_t0).all())):
            raise InvalidAction("probe matrices have non-finite entries")

    @property
    def dim_q(self) -> int:
        return self.d_h.shape[1]

    def d(self, ids) -> np.ndarray:
        """Matrices D(g) of every listed element.

        ``ids`` is an element id or an array of them; the result has shape
        ``ids.shape + (q, q)``.  The coset uses D(h t0) = D(h) D(t0).
        """
        ids = np.asarray(ids)
        grp = self.group
        if not grp.is_magnetic:
            return self.d_h[grp.h_position[ids]]
        flip = grp.antiunitary[ids] == 1
        h = np.where(flip, grp.cayley[ids, grp.inverse[grp.t0]], ids)
        mats = self.d_h[grp.h_position[h]]
        return np.where(flip[..., None, None], mats @ self.d_t0, mats)


def validate_action(action: ProbeRepAction, tol: float = ACTION_TOL) -> float:
    """Max residual of the representation property over the full group.

    Checks D(h1) D(h2) = D(h1 h2), D(t0)^2 = D(t0^2), and
    D(t0) D(h) D(t0)^-1 = D(t0 h t0^-1); the probe channel carries a linear
    rep, so no factor system appears.
    """
    d_h = action.d_h
    table = action.group.h_products
    # every product D(h1) D(h2) against the table's D(h1 h2), one broadcast
    # matmul per block of rows h1 of up to ROW_BLOCK_ENTRIES entries: at
    # order 96 one block of all |H|^2 products would be megabytes of
    # temporaries, each slower to fill than the products are to take.
    # np.max, unlike the builtin max, lets a NaN residual through to the test
    resids = [np.abs(d_h[rows, None] @ d_h[None, :] - d_h[table[rows]]).max()
              for rows in _row_blocks(len(table), d_h[:1].size * len(table))]
    if action.group.is_magnetic:
        sigma, conj = action.group.t0_positions
        resids.append(np.abs(action.d_t0 @ action.d_t0 - d_h[sigma]).max())
        lhs = action.d_t0 @ d_h @ _dual_matrices(action.d_t0).T
        resids.append(np.abs(lhs - d_h[conj]).max())
    resid = float(np.max(resids))
    if not resid <= tol:   # a NaN residual fails too
        raise InvalidAction(f"probe matrices violate the group law by {resid:.3e}")
    return resid


def _dual_matrices(mats: np.ndarray) -> np.ndarray:
    """Inverse-transpose of a stack ``(..., q, q)`` in one batched call."""
    try:
        return np.swapaxes(np.linalg.inv(mats), -1, -2)
    except np.linalg.LinAlgError as err:
        raise SingularAction(str(err)) from None


def dual_rep(action: ProbeRepAction) -> ProbeRepAction:
    """Elementwise inverse-transpose; equals the input for orthogonal actions."""
    d_t0 = None if action.d_t0 is None else _dual_matrices(action.d_t0)
    return ProbeRepAction(group=action.group, d_h=_dual_matrices(action.d_h),
                          d_t0=d_t0, kind=action.kind)


# -- multiplicity criterion ------------------------------------------------------

def multiplicity_value(rep: CoRep, action: ProbeRepAction) -> float:
    """Raw (unrounded) count of independent Hermitian coupling tuples.

    Anti-unitary groups:
        (1/2|H|) sum_h [ |chi(h)|^2 chi_v(h)
                         + chi_v(h t0) omega(h t0, h t0) chi((h t0)^2) ]
    with chi_v(h t0) = Tr[D(h) D(t0)].  Purely unitary groups drop the coset
    term and the 1/2.
    """
    _check_same_group(rep, action)
    return float(_criterion_values(rep, _characters(action)))


def _characters(action: ProbeRepAction) -> np.ndarray:
    """Probe characters Tr D(g) of every element, ordered by id."""
    return np.einsum("gii->g", action.d(np.arange(action.group.order)))


def _criterion_values(rep: CoRep, chi_v: np.ndarray) -> np.ndarray:
    """``multiplicity_value`` for probe characters of shape ``(..., |G|)``."""
    unitary, coset = criterion_sums(rep, chi_v)
    if not rep.group.is_magnetic:
        return unitary
    return _real((unitary + coset) / 2, "criterion", NonIntegerMultiplicity)


def _integer_counts(values, what: str) -> np.ndarray:
    """``values`` rounded to integers; raises unless each is within 1e-6."""
    nearest = np.rint(values)
    if not (np.abs(values - nearest) <= 1e-6).all():   # NaN fails too
        raise NonIntegerMultiplicity(f"{what} {values} is not an integer")
    return nearest.astype(int)


def _coupling_counts(rep: CoRep, chars: np.ndarray) -> list:
    """Counts of each row of a ``(k, |G|)`` stack of probe characters, in one
    criterion call: ``multiplicity``, the criterion weighted by the row;
    ``trivial_multiplicity``, the mean character, the trace of the
    group-average projector onto the fixed vectors; and their difference,
    ``splitting_multiplicity``, the couplings that can split a level."""
    mults = _integer_counts(_criterion_values(rep, chars), "criterion value").tolist()
    trivs = _integer_counts(chars.mean(axis=-1), "mean character").tolist()
    return [{"multiplicity": m, "trivial_multiplicity": t, "splitting_multiplicity": m - t}
            for m, t in zip(mults, trivs)]


def _check_same_group(rep: CoRep, action: ProbeRepAction) -> None:
    if not _same_group(rep.group, action.group):
        raise DimensionMismatch("the probe action belongs to another group")


def linear_multiplicity(rep: CoRep, action: ProbeRepAction) -> int:
    """Integer multiplicity of the probe channel; > 0 means a coupling exists.

    The count comes from characters, which mean nothing for matrices that
    are not a rep, so the action is validated before the count is returned:
    a non-rep raises InvalidAction, or NonIntegerMultiplicity first when its
    count is not even an integer.
    """
    count = int(_integer_counts(multiplicity_value(rep, action), "criterion value"))
    validate_action(action)
    return count


# -- explicit construction -------------------------------------------------------

@dataclass
class KpModel:
    """Hermitian basis tuples gamma[i, m] for one probe channel.

    The physical coupling is sum_i r_i sum_m field_m gamma[i, m] with free
    real coefficients r_i left to the user.
    """

    rep: CoRep
    action: ProbeRepAction
    multiplicity: int
    gammas: np.ndarray          # (p, q, d, d) complex, each slice Hermitian
    residuals: dict = field(default_factory=dict)

    def evaluate(self, coefficients, fields) -> np.ndarray:
        r = np.asarray(coefficients, dtype=float)
        k = np.asarray(fields, dtype=float)
        if r.shape != (self.multiplicity,) or k.shape != (self.action.dim_q,):
            raise DimensionMismatch("coefficient/field lengths do not match the model")
        return np.einsum("i,m,imab->ab", r, k, self.gammas)


def _covariance_defects(rep: CoRep, dual: ProbeRepAction, ids,
                        tuples: np.ndarray) -> np.ndarray:
    """Covariance defect of tuples ``(P, q, d, d)`` under every listed element:

        M(g) conj^[s(g)](gamma^m) M(g)^dag - sum_n gamma^n dual(D)(g)_{nm},

    shaped ``ids.shape + (P, q, d, d)``, with ``dual = dual_rep(action)``.
    It vanishes for every g exactly on the coupling tuples.
    """
    rhs = np.einsum("...nm,pnab->...pmab", dual.d(ids), tuples)
    defects = rep.apply(ids, tuples)
    defects -= rhs
    return defects


def _covariance_residuals(rep: CoRep, dual: ProbeRepAction,
                          gammas: np.ndarray) -> dict:
    """Largest covariance defect of the tuples over the unitary elements and,
    for magnetic groups, over the anti-unitary coset, both read from one
    defect stack of every element, and their largest departure from
    Hermiticity; ``dual = dual_rep(action)``."""
    g = rep.group
    defects = np.abs(_covariance_defects(rep, dual, np.arange(g.order), gammas))
    worst = defects.reshape(g.order, -1).max(axis=1)
    out = {"subgroup_covariance": float(worst[g.h_elements].max())}
    if g.is_magnetic:
        out["coset_covariance"] = float(worst[g.coset_elements].max())
    out["hermiticity"] = float(np.abs(gammas - np.conj(np.swapaxes(gammas, -1, -2))).max())
    return out


@cache
def hermitian_basis(d: int) -> np.ndarray:
    """d^2 Hermitian matrices, orthonormal under Re Tr(A^dag B), spanning the
    space over the reals: the diagonal units, then per pair i < j (row-major)
    the real and imaginary off-diagonals, each scaled by 1/sqrt(2).

    Built once per d and shared by every caller, so the array is read-only;
    copy it before writing."""
    i, j = np.triu_indices(d, 1)
    re, im = d + 2 * np.arange(len(i)), d + 2 * np.arange(len(i)) + 1
    off = 1.0 / np.sqrt(2.0)
    out = np.zeros((d * d, d, d), dtype=complex)
    out[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    out[re, i, j] = out[re, j, i] = off
    out[im, i, j], out[im, j, i] = -1j * off, 1j * off
    out.flags.writeable = False
    return out


def build_gamma_matrices(rep: CoRep, action: ProbeRepAction,
                         tol: float = 1e-9) -> KpModel:
    """Construct the Hermitian coupling tuples for one probe channel.

    The tuples are those of ``covariant_tuple_basis``: the real null space
    of the covariance equations on ``group.generators``, in coordinates over
    ``hermitian_basis(d)``, so they are Hermitian by construction and
    orthonormal under sum_m Re Tr(gamma^m_i^dag gamma^m_j).  Two checks
    stand apart from that solve, which counts its null space by a cut on
    Gram eigenvalues alone.  The criterion is rounded first (a non-integer
    count raises NonIntegerMultiplicity) and the null space must have its
    dimension, the guard should the Gram gap ever close; only then does a
    zero count raise EmptyChannel.  The covariance residuals over every
    element and the Hermiticity residual are judged at ``tol``, with no
    floor: one above it raises NotCommuting.  Neither input is validated,
    so a co-rep or an action that is a rep on the generators only fails
    there, loudly.
    """
    expected = _integer_counts(multiplicity_value(rep, action), "criterion value")
    dual = dual_rep(action)
    gammas = _covariant_tuples(rep, dual.d(rep.group.generators))
    p = len(gammas)
    if p != expected:
        raise NonIntegerMultiplicity(
            f"null space dimension {p} disagrees with the criterion {expected}")
    if p == 0:
        raise EmptyChannel("channel multiplicity is zero at this order")
    residuals = _covariance_residuals(rep, dual, gammas)
    for name, value in residuals.items():
        if not value <= tol:   # a NaN residual fails too
            raise NotCommuting(f"{name} residual {value:.3e} exceeds tol {tol:.3e}")
    return KpModel(rep=rep, action=action, multiplicity=p, gammas=gammas,
                   residuals=residuals)


def _covariant_tuples(rep: CoRep, duals: np.ndarray) -> np.ndarray:
    """Orthonormal basis ``(p, q, d, d)`` of the Hermitian tuples that every
    element s of ``group.generators`` fixes; ``duals`` stacks dual(D)(s).

    Row k of ``flat`` is the row-major vec of the k-th ``hermitian_basis(d)``
    matrix, so B = flat^T.  On the coordinates of one slot, s acts by the
    real Ad(s) = Re B^dag (M(s) (x) conj M(s)) B, with conj B = B diag(+-1)
    in place of B when s is anti-unitary; a tuple's coordinates c, indexed
    (slot, k), obey (I_q (x) Ad(s) - dual(D)(s)^T (x) I_{d^2}) c = 0 for
    every s.  The null space of that stack is the eigenspace of its Gram
    matrix with eigenvalues at most ``NULL_SPACE_ATOL`` max(1, lambda_max).
    """
    d = rep.dim
    q = duals.shape[-1]
    gens = rep.group.generators
    hb = hermitian_basis(d)
    flat = hb.reshape(d * d, d * d)
    mats = rep.matrices[gens]
    kron = np.einsum("sac,sbd->sabcd", mats, np.conj(mats)).reshape(-1, d * d, d * d)
    flip = rep.group.antiunitary[gens][:, None, None] == 1
    ad = (flat.conj() @ kron @ np.where(flip, flat.conj(), flat).swapaxes(1, 2)).real
    # rows (s, slot, j), columns (slot, k)
    system = (np.eye(q)[:, None, :, None] * ad[:, None, :, None, :]
              - np.swapaxes(duals, 1, 2)[:, :, None, :, None] * np.eye(d * d)[:, None, :])
    system = system.reshape(-1, q * d * d)
    values, vectors = np.linalg.eigh(system.T @ system)
    p = int((values <= NULL_SPACE_ATOL * values.max(initial=1.0)).sum())
    return np.einsum("mks,kab->smab", vectors[:, :p].reshape(q, d * d, p), hb)


def covariant_tuple_basis(rep: CoRep, action: ProbeRepAction) -> np.ndarray:
    """All Hermitian tuples satisfying both covariances, as an orthonormal
    basis of shape (n_solutions, q, d, d).

    The solve ``build_gamma_matrices`` takes its tuples from, without its
    checks; its count comes from the Gram spectrum, never from the criterion
    it is compared with.  For a co-rep and a rep the covariance map is a
    group action, so a tuple that ``group.generators`` (a generating set of
    H, plus t0) fix is fixed by every element; the equations, and the
    matrices and dual(D) read, cover the generators only.  Neither input is
    validated, so a non-rep goes undetected here.
    """
    return _covariant_tuples(rep, _dual_matrices(action.d(rep.group.generators)))


def tuple_span_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between the real spans of two sets of Hermitian tuples.

    Embeds each tuple as a real vector (re, im stacked), orthonormalizes both
    sets to Q_a and Q_b, and returns the norm of the difference of the two
    orthogonal projectors; for spans of equal dimension that is
    ||Q_b - Q_a (Q_a^T Q_b)||_2, a thin norm that needs neither projector.
    """
    def embed(tuples):
        if len(tuples) == 0:
            return np.zeros((0, 0))
        flat = tuples.reshape(tuples.shape[0], -1)
        return np.concatenate([flat.real, flat.imag], axis=1).T  # (2qd^2, n)

    va, vb = embed(a), embed(b)
    if va.shape[1] != vb.shape[1]:
        return float("inf")
    if va.shape[1] == 0:
        return 0.0
    qa, _ = np.linalg.qr(va)
    qb, _ = np.linalg.qr(vb)
    return float(_spectral_norm(qb - qa @ (qa.T @ qb)))


# -- polynomial channels -----------------------------------------------------------

def monomial_exponents(n: int, q: int) -> list:
    """Degree-n exponent tuples in q variables, descending lex order."""
    if q == 1:
        return [(n,)]
    return [(a,) + rest for a in range(n, -1, -1) for rest in monomial_exponents(n - a, q - 1)]


def evaluate_monomials(exponents, dk: np.ndarray) -> np.ndarray:
    return np.array([np.prod(dk ** np.asarray(e)) for e in exponents])


@cache
def _degree_tables(j: int, q: int) -> tuple:
    """Read-only tables that raise ``_substitution_matrices`` in q variables
    from degree j - 1 to j, in ``monomial_exponents`` order: ``first[c]``, the
    first variable of monomial c; ``parent[c]``, monomial c divided by it;
    and ``times[(b, w), c]`` = 1 when monomial b times k_w is monomial c."""
    prev = {e: k for k, e in enumerate(monomial_exponents(j - 1, q))}
    expos = monomial_exponents(j, q)
    index = {e: k for k, e in enumerate(expos)}
    first = np.array([next(v for v in range(q) if e[v]) for e in expos])
    parent = np.array([prev[tuple(x - (w == v) for w, x in enumerate(e))]
                       for e, v in zip(expos, first)])
    times = np.zeros((len(prev), q, len(expos)))
    for e, b in prev.items():
        for w in range(q):
            times[b, w, index[tuple(x + (u == w) for u, x in enumerate(e))]] = 1.0
    times = times.reshape(-1, len(expos))
    for table in (first, parent, times):
        table.flags.writeable = False
    return first, parent, times


def _substitution_matrices(lin: np.ndarray, n: int) -> np.ndarray:
    """Matrices R with mono_a(lin @ k) = sum_b R[a, b] mono_b(k), degree n.

    ``lin`` is a stack ``(..., q, q)`` and the result ``(..., m, m)`` in the
    order of ``monomial_exponents(n, q)``.  Built degree by degree: a
    monomial is its first variable times a monomial one degree lower, so its
    row is that parent row multiplied by the variable's linear form
    (``_degree_tables``).
    """
    r = np.ones(lin.shape[:-2] + (1, 1))
    for j in range(1, n + 1):
        first, parent, times = _degree_tables(j, lin.shape[-1])
        terms = r[..., parent, :, None] * lin[..., first, None, :]
        r = terms.reshape(terms.shape[:-2] + (-1,)) @ times
    return r


@dataclass
class PolynomialChannel:
    """One G-closed real channel of order-N polynomials; ``action`` is built
    on first access from ``block``, its matrices of every element by id."""

    group: MagneticGroup
    block: np.ndarray            # (|G|, q_c, q_c) real
    coefficients: np.ndarray     # (q_c, n_monomials) rows are the polynomials
    exponents: list
    order: int

    @cached_property
    def action(self) -> ProbeRepAction:
        return _stack_action(self.group, self.block, self.order)

    def evaluate(self, dk: np.ndarray) -> np.ndarray:
        return self.coefficients @ evaluate_monomials(self.exponents, np.asarray(dk))


@dataclass
class PolynomialChannelSet:
    """The channels of one order and their characters, by id: row 0 is the
    full induced action's, the traces of D(g) at order 1 and of the
    substitution rep (its dual; chi(g^-1) = chi(g) for real reps) above."""

    order: int
    exponents: list
    channels: list
    #: ``(1 + len(channels), |G|)``: the full action's row, then the channels'
    characters: np.ndarray


def _stack_action(g: MagneticGroup, stack: np.ndarray, n: int) -> ProbeRepAction:
    """The order-n polynomial action with the matrices ``stack``, by id."""
    return ProbeRepAction(group=g, d_h=stack[g.h_elements], kind=f"polynomial({n})",
                          d_t0=stack[g.t0] if g.is_magnetic else None)


def polynomial_channel(action: ProbeRepAction, n: int,
                       seed: int = 0) -> PolynomialChannelSet:
    """Induced action on degree-n polynomials, split into minimal real channels.

    The q components of the probe (momentum, a field, a strain) transform
    with the dual matrices; substituting them into the monomials induces a
    real linear rep of the full group on the C(n + q - 1, q - 1) monomial
    coefficients.  A random symmetric matrix averaged over the whole group
    (the same commutant trick the reduction engine uses, run in real
    arithmetic) splits that rep into minimal invariant channels; each
    eigenspace is returned with explicit polynomial bases, its ProbeRepAction
    built on first access.  At n = 1 the channels split the input action.
    ``seed`` must be an integer.

    The input is validated once per call.  The split is judged by its
    leakage, the largest off-block entry, over every element, of the
    orthogonalized rep in the channel basis: above ``SPLIT_TOL`` it raises
    InvalidAction.  That rep is orthogonal, so channels mixed by an angle
    theta leak ~2 theta but break the group law of their truncated blocks
    only by ~4 theta^2; the channels' matrices are not checked again.
    """
    if n < 1:
        raise ValueError("polynomial order must be >= 1")
    seed = operator.index(seed)
    validate_action(action)
    return _channel_sets(action, [n], seed)[0]


def _channel_sets(action: ProbeRepAction, orders, seed: int) -> list:
    """``polynomial_channel`` of each order, for an action the caller has
    validated, with D(g) and its dual read once and one draw of normals:
    the C-order prefix of the draw is each order's ``standard_normal((m, m))``."""
    g = action.group
    q = action.dim_q
    mats = action.d(np.arange(g.order))
    lin = _dual_matrices(mats)
    draw = np.random.default_rng(seed).standard_normal(comb(max(orders) + q - 1, q - 1) ** 2)
    sets = []
    for n in orders:
        exponents = monomial_exponents(n, q)
        n_mono = len(exponents)
        # substitution rep of every element: the monomials of the dual matrices
        subs = _substitution_matrices(lin, n)
        # orthogonalize the substitution rep, then average a random symmetric seed
        flat = subs.reshape(-1, n_mono)
        vals, vecs = np.linalg.eigh(flat.T @ flat / g.order)
        if vals.min() <= 1e-12:
            raise SingularAction("substitution metric is singular")
        root = np.sqrt(vals)
        s_half = (vecs * root) @ vecs.T
        s_half_inv = (vecs * (1.0 / root)) @ vecs.T
        ortho = s_half @ subs @ s_half_inv
        a = draw[:n_mono * n_mono].reshape(n_mono, n_mono)
        lam = (ortho @ ((a + a.T) / 2) @ np.swapaxes(ortho, 1, 2)).sum(axis=0) / g.order
        lam = (lam + lam.T) / 2
        evals, evecs = np.linalg.eigh(lam)
        # lam is symmetric, so its spectral norm is its largest |eigenvalue|
        slices = _cluster_slices(evals, 1e-7 * max(1.0, np.abs(evals).max()))
        # the rep in the eigenbasis: each channel is one diagonal block.  The
        # split is judged by its leakage, the largest entry off the blocks over
        # every element, as block_diagonality judges reduce_corep's; then
        # those entries are zeroed.
        owner = np.repeat(np.arange(len(slices)), [sl.stop - sl.start for sl in slices])
        in_block = owner[:, None] == owner
        rotated = evecs.T @ ortho @ evecs
        leakage = np.abs(rotated[:, ~in_block]).max(initial=0.0)
        if not leakage <= SPLIT_TOL:   # a NaN leakage fails too
            raise InvalidAction(f"polynomial channels are not invariant: "
                                f"off-block entries up to {leakage:.3e}")
        rotated = np.where(in_block, rotated, 0.0)
        diagonal = np.einsum("gii->gi", rotated)
        characters = [np.einsum("gii->g", mats if n == 1 else subs)]
        characters += [diagonal[:, sl].sum(axis=1) for sl in slices]
        channels = [PolynomialChannel(group=g, block=rotated[:, sl, sl], exponents=exponents,
                                      coefficients=evecs[:, sl].T @ s_half, order=n)
                    for sl in slices]
        sets.append(PolynomialChannelSet(order=n, exponents=exponents, channels=channels,
                                         characters=np.stack(characters)))
    return sets


# -- dispersion order and probe stability -----------------------------------------

def dispersion_order(rep: CoRep, action: ProbeRepAction, n_max: int,
                     seed: int = 0) -> dict:
    """Channel-by-channel multiplicity table for orders 1..n_max of the
    polynomials in the action's q components, whatever q is.

    The leading dispersion order is the smallest order whose full induced
    action has positive multiplicity; per-channel entries expose which
    direction couples (splitting counts exclude identity-tuple couplings).
    Every order is counted in one criterion call on the stacked characters
    of all the ``PolynomialChannelSet`` rows, and builds no action; the
    action is validated and read once per call.
    """
    return _dispersion_table(rep, action, n_max, seed)[0]


def _dispersion_table(rep: CoRep, action: ProbeRepAction, n_max: int,
                      seed: int) -> tuple[dict, list]:
    """``dispersion_order``'s table and the channel set of each order it
    built, so that callers who also need the channels build them once."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    seed = operator.index(seed)
    _check_same_group(rep, action)
    validate_action(action)
    sets = _channel_sets(action, range(1, n_max + 1), seed)
    # every order's rows in one call: per order, the full induced action's
    # row, then one row per channel
    counts = iter(_coupling_counts(rep, np.concatenate([c.characters for c in sets])))
    orders = []
    for chans in sets:
        orders.append({"order": chans.order, "full": next(counts), "channels": [
            {"dim": len(ch.coefficients), **next(counts), "polynomials": ch.coefficients,
             "exponents": ch.exponents} for ch in chans.channels]})
    leading = next((o["order"] for o in orders if o["full"]["multiplicity"] > 0), None)
    return {"orders": orders, "leading_order": leading, "seed": seed}, sets


def probe_stability(rep: CoRep, embedding, probes: Optional[dict] = None,
                    seed: int = 0, tol: float = 1e-8) -> dict:
    """Robustness of a degeneracy against a symmetry-lowering perturbation.

    ``embedding`` lists the parent-group element ids that remain symmetries.
    The restricted co-rep's irreducibility index decides protection; = 1
    keeps the degeneracy, > 1 allows splitting at some order.  Each probe
    channel (a ProbeRepAction of the *full* group) gets its linear-coupling
    ``_coupling_counts``, its kind and, where it couples, the
    ``build_gamma_matrices`` tuples and residuals.  All probes are counted
    in one criterion call on their stacked characters, whatever their
    dimensions, then each is validated once.  Splitting counts exclude
    identity couplings, which shift but never split.  Nothing here is
    random: ``seed`` is only echoed in the report.
    """
    sub_rep = restrict_corep(rep, embedding)[0]
    index = irreducibility_index(sub_rep)
    probes = probes or {}
    for act in probes.values():
        _check_same_group(rep, act)
    chars = [_characters(act) for act in probes.values()]
    counts = _coupling_counts(rep, np.stack(chars)) if chars else []
    entries = {}
    for (name, act), count in zip(probes.items(), counts):
        validate_action(act)
        entry = entries[name] = {**count, "kind": act.kind}
        if count["multiplicity"] > 0:
            model = build_gamma_matrices(rep, act, tol)
            entry["gammas"] = model.gammas
            entry["residuals"] = model.residuals
    return {
        "subgroup_order": sub_rep.group.order,
        "subgroup_is_magnetic": sub_rep.group.is_magnetic,
        "restricted_index": index,
        "protected": abs(index - 1.0) <= tol,
        "tol": tol,
        "seed": seed,
        "probes": entries,
    }
