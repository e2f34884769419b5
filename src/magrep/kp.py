"""Symmetry-constrained effective Hamiltonians around high-symmetry points.

Given an irreducible co-rep M and a real probe action D (momentum components,
an electric or magnetic field, or a channel of homogeneous polynomials), this
module counts and constructs the Hermitian coupling tuples (gamma^1..gamma^q)
obeying

    M(h)  gamma^m M(h)^dag  = sum_n dual(D)(h)_{nm}  gamma^n        (h unitary)
    M(t0) conj(gamma^m) M(t0)^dag = sum_n gamma^n dual(D)(t0)_{nm}  (anti-unitary)

The count is the character criterion of ``reduction.criterion_sums`` weighted
by the probe characters.  The matrices come from one fixed space in plain
gamma coordinates: the average of D(h) x M(h) x conj M(h) over the unitary
subgroup, times (1 + L)/2 for magnetic groups, where L is the anti-unitary
covariance followed by the Hermitian conjugate.  The Hermitian conjugate maps
that space to itself; the vectors it fixes, one real null space of the
compressed conjugate minus one, are the Hermitian tuples.  A brute-force null
space solver over the real parametrization of Hermitian tuples ships
alongside as the independent ground truth for both the count and the span.
``_covariance_defects`` writes the covariance equation once, for any array
of elements; the model residuals and the oracle's constraint rows read it.

``ProbeRepAction.d`` takes an element id or an array of ids and returns the
matching stack of probe matrices, the coset through D(h t0) = D(h) D(t0).  It
is the one element-indexed kernel of this module, as ``CoRep.apply`` is for
co-reps: the probe characters, the identity-coupling count and the
substitution rep of the polynomial channels all read every element at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .coreps import CoRep, restrict_corep
from .errors import (
    DimensionMismatch,
    EmptyChannel,
    GaugeFixFailed,
    InvalidAction,
    NonIntegerMultiplicity,
    SingularAction,
)
from .groups import FactorSystem, MagneticGroup, verify_embedding
from .linalg import _cluster_slices, eigenspace_of_one, twist_matrix
from .reduction import criterion_sums, irreducibility_index

ACTION_TOL = 1e-9
#: singular values at or below this count as zero in ``_null_space``
NULL_SPACE_ATOL = 1e-8


def _null_space(a: np.ndarray) -> np.ndarray:
    """Null space with an absolute singular-value cutoff.

    The constraint systems here have nonzero singular values of order one,
    while float noise sits at 1e-15; a relative cutoff would misread an
    almost-zero system as full rank.
    """
    if a.size == 0:
        return np.eye(a.shape[1])
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = int((s > NULL_SPACE_ATOL).sum())
    return vh[rank:].conj().T


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
        if self.d_t0 is not None:
            self.d_t0 = np.asarray(self.d_t0, dtype=float)
            if self.d_t0.shape != self.d_h.shape[1:]:
                raise DimensionMismatch("t0 matrix shape mismatch")
        elif self.group.is_magnetic:
            raise InvalidAction("magnetic group needs the t0 probe matrix")
        # id -> position in h_elements; -1 marks the anti-unitary coset
        self._h_pos = np.full(self.group.order, -1)
        self._h_pos[self.group.h_elements] = np.arange(len(self.group.h_elements))

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
            return self.d_h[self._h_pos[ids]]
        flip = grp.antiunitary[ids] == 1
        h = np.where(flip, grp.cayley[ids, grp.inverse[grp.t0]], ids)
        mats = self.d_h[self._h_pos[h]]
        return np.where(flip[..., None, None], mats @ self.d_t0, mats)


def validate_action(action: ProbeRepAction, tol: float = ACTION_TOL) -> float:
    """Max residual of the representation property over the full group.

    Checks D(h1) D(h2) = D(h1 h2), D(t0)^2 = D(t0^2), and
    D(t0) D(h) D(t0)^-1 = D(t0 h t0^-1); the probe channel carries a linear
    rep, so no factor system appears.
    """
    g = action.group
    d_h = action.d_h
    pos = action._h_pos
    resid = 0.0
    for k, a in enumerate(g.h_elements):
        prods = d_h[k] @ d_h
        resid = max(resid, float(np.abs(prods - d_h[pos[g.cayley[a, g.h_elements]]]).max()))
    if g.is_magnetic:
        t0 = g.t0
        resid = max(resid, float(np.abs(
            action.d_t0 @ action.d_t0 - d_h[pos[g.sigma]]).max()))
        conj_h = g.cayley[g.cayley[t0, g.h_elements], g.inv(t0)]
        lhs = action.d_t0 @ d_h @ _dual_matrices(action.d_t0).T
        resid = max(resid, float(np.abs(lhs - d_h[pos[conj_h]]).max()))
    if resid > tol:
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
    g = rep.group
    chi_v = np.einsum("gii->g", action.d(np.arange(g.order)))
    unitary, coset = criterion_sums(rep, chi_v)
    if not g.is_magnetic:
        return unitary
    value = (unitary + coset) / 2
    if abs(value.imag) > 1e-8 * max(1.0, abs(value)):
        raise NonIntegerMultiplicity(f"criterion came out non-real: {value}")
    return float(value.real)


def linear_multiplicity(rep: CoRep, action: ProbeRepAction,
                        tol: float = 1e-6) -> int:
    """Integer multiplicity of the probe channel; > 0 means a coupling exists."""
    value = multiplicity_value(rep, action)
    nearest = round(value)
    if abs(value - nearest) > tol:
        raise NonIntegerMultiplicity(f"criterion value {value} is not an integer")
    return int(nearest)


def trivial_multiplicity(action: ProbeRepAction) -> int:
    """Number of identity-matrix coupling tuples: the dimension of the real
    vectors fixed by D(g) for every group element.  These shift all levels
    together and never split a degeneracy."""
    q = action.dim_q
    rows = action.d(np.arange(action.group.order)) - np.eye(q)
    return _null_space(rows.reshape(-1, q)).shape[1]


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

    @property
    def dim(self) -> int:
        return self.gammas.shape[2]

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
    return rep.apply(ids, tuples) - rhs


def _covariance_residuals(rep: CoRep, action: ProbeRepAction,
                          gammas: np.ndarray) -> dict:
    g = rep.group
    dual = dual_rep(action)
    out = {"subgroup_covariance": float(np.abs(
        _covariance_defects(rep, dual, g.h_elements, gammas)).max())}
    if g.is_magnetic:
        out["t0_covariance"] = float(np.abs(
            _covariance_defects(rep, dual, g.t0, gammas)).max())
    out["hermiticity"] = float(np.abs(gammas - np.conj(np.swapaxes(gammas, -1, -2))).max())
    return out


def build_gamma_matrices(rep: CoRep, action: ProbeRepAction,
                         tol: float = 1e-9) -> KpModel:
    """Construct the Hermitian coupling tuples for one probe channel.

    Two steps: (1) take the eigenvalue-1 space of the group-average
    projector in plain gamma coordinates (``_fixed_space``); (2) keep the
    vectors of that space the Hermitian conjugate fixes.  With the conjugate
    compressed to ``zeta c -> zeta m conj(c)``, the fixed coefficients
    c = x + i y are the real null space of
    ``[[Re m - 1, Im m], [Im m, -Re m - 1]]``; since m conj(m) = 1 it has
    exactly p orthonormal columns, and they make an orthonormal basis whose
    vectors, cut into their q slices, are Hermitian tuples.  Raises
    EmptyChannel when the multiplicity is zero.
    """
    d = rep.dim
    q = action.dim_q
    zeta, proj_resid = _fixed_space(rep, action, tol)
    p = zeta.shape[1]
    if p == 0:
        raise EmptyChannel("channel multiplicity is zero at this order")

    # the Hermitian conjugate, an antilinear involution, compressed onto the
    # fixed space
    image = np.kron(np.eye(q), twist_matrix(d)) @ np.conj(zeta)
    m_dag = zeta.conj().T @ image
    closure = float(np.linalg.norm(image - zeta @ m_dag, ord=2))
    gauge = float(np.linalg.norm(m_dag @ np.conj(m_dag) - np.eye(p), ord=2))
    if closure > max(100 * tol, 1e-7) or gauge > max(100 * tol, 1e-7):
        raise GaugeFixFailed(
            f"Hermitian conjugate leaves the fixed space (closure {closure:.3e}, "
            f"square {gauge:.3e})")
    a, b, one = m_dag.real, m_dag.imag, np.eye(p)
    real_form = _null_space(np.block([[a - one, b], [b, -a - one]]))
    if real_form.shape[1] != p:
        raise GaugeFixFailed(
            f"Hermitian conjugate fixes {real_form.shape[1]} real directions, expected {p}")
    delta = zeta @ (real_form[:p] + 1j * real_form[p:])
    gammas = delta.T.reshape(p, q, d, d)

    residuals = _covariance_residuals(rep, action, gammas)
    residuals["projector_idempotency"] = proj_resid
    residuals["gauge_closure"] = closure
    expected = linear_multiplicity(rep, action)
    if p != expected:
        raise NonIntegerMultiplicity(
            f"fixed space dimension {p} disagrees with the criterion {expected}")
    return KpModel(rep=rep, action=action, multiplicity=p, gammas=gammas,
                   residuals=residuals)


def _fixed_space(rep: CoRep, action: ProbeRepAction, tol: float):
    """Complex tuples whose Hermitian parts are the coupling tuples.

    Averages D(h) x M(h) x conj M(h) over H in one batched contraction; a
    magnetic group then multiplies the average by (1 + L)/2 with the linear
    L = dagger o theta_t0 = D(t0) x T (conj M(t0) x M(t0)).  L commutes with
    the average and squares to an element of H, so the product is idempotent.
    """
    g = rep.group
    d = rep.dim
    size = action.dim_q * d * d
    m_h = rep.matrices[g.h_elements]
    proj = np.einsum("hab,hij,hkl->aikbjl", action.d_h, m_h, np.conj(m_h),
                     optimize=True).reshape(size, size) / g.halving_order
    if g.is_magnetic:
        mt = rep.m(g.t0)
        ell = np.kron(action.d_t0, twist_matrix(d) @ np.kron(np.conj(mt), mt))
        proj = 0.5 * (proj + ell @ proj)
    resid = float(np.linalg.norm(proj @ proj - proj, ord=2))
    return eigenspace_of_one(proj, tol=max(tol, 1e-9)), resid


# -- brute-force oracle ----------------------------------------------------------

def hermitian_basis(d: int) -> np.ndarray:
    """d^2 Hermitian matrices spanning the space over the reals: the diagonal
    units, then per pair i < j (row-major) the real and imaginary off-diagonals."""
    i, j = np.triu_indices(d, 1)
    re, im = d + 2 * np.arange(len(i)), d + 2 * np.arange(len(i)) + 1
    out = np.zeros((d * d, d, d), dtype=complex)
    out[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    out[re, i, j] = out[re, j, i] = 1.0
    out[im, i, j], out[im, j, i] = -1j, 1j
    return out


def covariant_tuple_basis(rep: CoRep, action: ProbeRepAction) -> np.ndarray:
    """Null-space oracle: all Hermitian tuples satisfying both covariances.

    Stacks the real-linear constraint system over the q * d^2 real parameters
    of a Hermitian q-tuple and returns an orthonormal basis of solutions with
    shape (n_solutions, q, d, d).  Each unitary element and t0 adds the
    covariance defects of all parameter tuples at once.  Independent of the
    projector construction; the ground truth for multiplicities and spans.
    """
    g = rep.group
    d = rep.dim
    q = action.dim_q
    dual = dual_rep(action)
    n_par = q * d * d
    # parameter (m, k) is the tuple with the k-th Hermitian basis matrix in slot m
    tuples = np.zeros((q, d * d, q, d, d), dtype=complex)
    tuples[np.arange(q), :, np.arange(q)] = hermitian_basis(d)
    tuples = tuples.reshape(n_par, q, d, d)
    ids = np.append(g.h_elements, g.t0) if g.is_magnetic else g.h_elements
    # rows: (real part, imaginary part) x element x defect entry
    system = np.empty((2, len(ids), n_par, n_par))
    for k, e in enumerate(ids):
        defect = _covariance_defects(rep, dual, e, tuples).reshape(n_par, n_par).T
        system[0, k] = defect.real
        system[1, k] = defect.imag
    sols = _null_space(system.reshape(-1, n_par))
    return np.einsum("ps,pmab->smab", sols, tuples)


def tuple_span_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between the real spans of two sets of Hermitian tuples.

    Embeds each tuple as a real vector (re, im stacked), orthonormalizes both
    sets, and returns the norm of the difference of the two orthogonal
    projectors.
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
    return float(np.linalg.norm(qa @ qa.T - qb @ qb.T, ord=2))


# -- polynomial channels -----------------------------------------------------------

def monomial_exponents(n: int) -> list:
    """Degree-n exponent tuples in three variables, descending lex order."""
    return [(a, b, n - a - b) for a in range(n, -1, -1) for b in range(n - a, -1, -1)]


def evaluate_monomials(exponents, dk: np.ndarray) -> np.ndarray:
    return np.array([np.prod(dk ** np.asarray(e)) for e in exponents])


def _substitution_matrices(lin: np.ndarray, n: int) -> np.ndarray:
    """Matrices R with mono_a(lin @ k) = sum_b R[a, b] mono_b(k), degree n.

    ``lin`` is a stack ``(..., 3, 3)`` and the result ``(..., m, m)`` in the
    order of ``monomial_exponents(n)``.  Built degree by degree: a monomial is
    its first variable times a monomial one degree lower, so its row is that
    parent row multiplied by the variable's linear form.
    """
    r = np.ones(lin.shape[:-2] + (1, 1))
    prev = {(0, 0, 0): 0}                  # exponents -> row, one degree lower
    for j in range(1, n + 1):
        expos = monomial_exponents(j)
        index = {e: k for k, e in enumerate(expos)}
        first = [next(v for v in range(3) if e[v]) for e in expos]
        parent = [prev[tuple(x - (w == v) for w, x in enumerate(e))]
                  for e, v in zip(expos, first)]
        # times[(b, w), c] = 1 when monomial b times k_w is monomial c
        times = np.zeros((len(prev), 3, len(expos)))
        for e, b in prev.items():
            for w in range(3):
                times[b, w, index[tuple(x + (u == w) for u, x in enumerate(e))]] = 1.0
        terms = r[..., parent, :, None] * lin[..., first, None, :]
        r = terms.reshape(terms.shape[:-2] + (-1,)) @ times.reshape(-1, len(expos))
        prev = index
    return r


@dataclass
class PolynomialChannel:
    """One G-closed real channel of order-N polynomials."""

    action: ProbeRepAction
    coefficients: np.ndarray     # (q_c, n_monomials) rows are the polynomials
    exponents: list
    order: int

    def evaluate(self, dk: np.ndarray) -> np.ndarray:
        return self.coefficients @ evaluate_monomials(self.exponents, np.asarray(dk))


@dataclass
class PolynomialChannelSet:
    order: int
    exponents: list
    full_action: ProbeRepAction
    channels: list


def polynomial_channel(action: ProbeRepAction, n: int,
                       seed: int = 0) -> PolynomialChannelSet:
    """Induced action on degree-n polynomials, split into minimal real channels.

    The momentum components transform with the dual matrices; substituting
    them into the monomials induces a real linear rep of the full group on
    the (n+1)(n+2)/2 monomial coefficients.  A random symmetric matrix
    averaged over the whole group (the same commutant trick the reduction
    engine uses, run in real arithmetic) splits that rep into minimal
    invariant channels; each eigenspace is returned as a ProbeRepAction with
    explicit polynomial bases.  n = 1 reproduces the input action.
    """
    if n < 1:
        raise ValueError("polynomial order must be >= 1")
    g = action.group
    if action.dim_q != 3:
        raise InvalidAction("polynomial channels are induced from a 3-dim momentum action")
    validate_action(action)
    exponents = monomial_exponents(n)
    n_mono = len(exponents)
    # substitution rep of every element: the monomials of the dual matrices
    subs = _substitution_matrices(_dual_matrices(action.d(np.arange(g.order))), n)

    # orthogonalize the substitution rep, then average a random symmetric seed
    flat = subs.reshape(-1, n_mono)
    s_metric = flat.T @ flat / g.order
    vals, vecs = np.linalg.eigh(s_metric)
    if vals.min() <= 1e-12:
        raise SingularAction("substitution metric is singular")
    s_half = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    s_half_inv = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    ortho = s_half @ subs @ s_half_inv

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n_mono, n_mono))
    a = (a + a.T) / 2
    lam = (ortho @ a @ np.swapaxes(ortho, 1, 2)).sum(axis=0) / g.order
    lam = (lam + lam.T) / 2
    evals, evecs = np.linalg.eigh(lam)
    gap = 1e-7 * max(1.0, np.linalg.norm(lam, ord=2))

    channels = []
    for sl in _cluster_slices(evals, gap):
        basis = evecs[:, sl]                       # (n_mono, q_c) real orthonormal
        chan = basis.T @ ortho @ basis
        chan_action = ProbeRepAction(group=g, d_h=chan[g.h_elements],
                                     d_t0=chan[g.t0] if g.is_magnetic else None,
                                     kind=f"polynomial({n})")
        validate_action(chan_action, tol=1e-7)
        channels.append(PolynomialChannel(
            action=chan_action,
            coefficients=basis.T @ s_half,
            exponents=exponents,
            order=n,
        ))

    if n == 1:
        full = action
    else:
        full_d = _dual_matrices(subs)
        full = ProbeRepAction(group=g, d_h=full_d[g.h_elements],
                              d_t0=full_d[g.t0] if g.is_magnetic else None,
                              kind=f"polynomial({n})")
    return PolynomialChannelSet(order=n, exponents=exponents,
                                full_action=full, channels=channels)


# -- dispersion order and probe stability -----------------------------------------

def dispersion_order(rep: CoRep, action: ProbeRepAction, n_max: int,
                     seed: int = 0) -> dict:
    """Channel-by-channel multiplicity table for orders 1..n_max.

    The leading dispersion order is the smallest order whose full induced
    action has positive multiplicity; per-channel entries expose which
    direction couples (splitting counts exclude identity-tuple couplings).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    orders = []
    leading = None
    for n in range(1, n_max + 1):
        chans = polynomial_channel(action, n, seed=seed)
        full_mult = linear_multiplicity(rep, chans.full_action)
        entry = {
            "order": n,
            "full": {
                "multiplicity": full_mult,
                "trivial_multiplicity": trivial_multiplicity(chans.full_action),
            },
            "channels": [],
        }
        entry["full"]["splitting_multiplicity"] = (
            entry["full"]["multiplicity"] - entry["full"]["trivial_multiplicity"])
        for ch in chans.channels:
            mult = linear_multiplicity(rep, ch.action)
            triv = trivial_multiplicity(ch.action)
            entry["channels"].append({
                "dim": ch.action.dim_q,
                "multiplicity": mult,
                "trivial_multiplicity": triv,
                "splitting_multiplicity": mult - triv,
                "polynomials": ch.coefficients,
                "exponents": ch.exponents,
            })
        if leading is None and full_mult > 0:
            leading = n
        orders.append(entry)
    return {"orders": orders, "leading_order": leading, "seed": seed}


def probe_stability(rep: CoRep, embedding, g_sub: Optional[MagneticGroup] = None,
                    probes: Optional[dict] = None, seed: int = 0,
                    tol: float = 1e-8) -> dict:
    """Robustness of a degeneracy against a symmetry-lowering perturbation.

    ``embedding`` lists the parent-group element ids that remain symmetries.
    The restricted co-rep's irreducibility index decides protection; = 1
    keeps the degeneracy, > 1 allows splitting at some order.  Each probe
    channel (a ProbeRepAction of the *full* group) is additionally checked
    for a linear coupling; its splitting multiplicity excludes pure
    identity couplings, which shift but never split.
    """
    ids = [int(x) for x in embedding]
    if g_sub is not None:
        emb = verify_embedding(rep.group, g_sub, ids)
        omega = FactorSystem(rep.omega.values[np.ix_(emb, emb)])
        sub_rep = CoRep(group=g_sub, omega=omega, matrices=rep.matrices[emb])
    else:
        sub_rep, emb = restrict_corep(rep, ids)

    index = irreducibility_index(sub_rep)
    protected = abs(index - 1.0) <= tol
    report = {
        "subgroup_order": sub_rep.group.order,
        "subgroup_is_magnetic": sub_rep.group.is_magnetic,
        "restricted_index": index,
        "protected": protected,
        "tol": tol,
        "seed": seed,
        "probes": {},
    }
    for name, act in (probes or {}).items():
        mult = linear_multiplicity(rep, act)
        triv = trivial_multiplicity(act)
        entry = {
            "multiplicity": mult,
            "trivial_multiplicity": triv,
            "splitting_multiplicity": mult - triv,
            "kind": act.kind,
        }
        if mult > 0:
            model = build_gamma_matrices(rep, act, tol=max(tol, 1e-9))
            entry["gammas"] = model.gammas
            entry["residuals"] = model.residuals
        report["probes"][name] = entry
    return report
