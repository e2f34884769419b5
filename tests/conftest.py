"""Shared fixtures: catalog sweeps are expensive enough to build once."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import pytest

import magrep as mr
from magrep.coreps import conjugate_corep
from magrep.errors import (
    InvalidAction,
    InvalidCoRep,
    NotAGroup,
    NotASubgroupEmbedding,
    NotCommuting,
    NotHermitian,
    NoT0,
    NotIrreducible,
    SingularAction,
)
from magrep.groups import build_group, conjugacy_classes
from magrep.io import _jsonable
from magrep.kp import (
    ACTION_TOL,
    ProbeRepAction,
    _coupling_counts,
    _dual_matrices,
    _substitution_matrices,
    dual_rep,
    hermitian_basis,
    linear_multiplicity,
    monomial_exponents,
    polynomial_channel,
    validate_action,
)
from magrep.linalg import LINALG_TOL, _cluster_slices, refine_eigenbasis
from magrep.reduction import (
    BLOCK_TOL,
    Block,
    IrrepDecomposition,
    build_G_commutant,
    irreducibility_index,
    torsion_number,
)


def _load_ohtgen():
    """``bench/ohtgen``: O_h x T (order 96) inputs built without the library."""
    path = Path(__file__).resolve().parents[1] / "bench" / "ohtgen.py"
    spec = importlib.util.spec_from_file_location("ohtgen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ohtgen = _load_ohtgen()


@pytest.fixture(scope="session")
def oht():
    """The order-96 group, its co-rep matrices, its probe actions and its
    lowering subgroups."""
    gen = ohtgen.generate()
    group = mr.build_group(gen["cayley"], gen["flags"], labels=gen["labels"])
    h, t0 = group.h_elements, group.t0
    return {"group": group,
            "coreps": {r: mats for r, (mats, _) in gen["coreps"].items()},
            "actions": {a: mr.ProbeRepAction(group=group, d_h=mats[h], d_t0=mats[t0],
                                             kind=kind)
                        for a, (mats, kind) in gen["actions"].items()},
            "lowerings": {low: ids for low, (ids, _) in gen["subgroups"].items()}}


def relabelled(group, mats, perm):
    """The group and matrices with new id i standing for old id perm[i]."""
    inv = np.argsort(perm)
    table = inv[group.cayley[np.ix_(perm, perm)]]
    labels = [group.labels[p] for p in perm]
    return build_group(table, group.antiunitary[perm], labels=labels), mats[perm]


def catalog_irreps():
    """(entry_name, rep_name, rep) for every catalog co-rep."""
    out = []
    for name in mr.catalog_list():
        entry = mr.catalog_get(name)
        for rep_name, rep in entry.reps.items():
            out.append((name, rep_name, rep))
    return out


def compatible_rep_groups(entry):
    """Reps of one entry grouped by exactly-equal factor system."""
    groups = []
    for name, rep in entry.reps.items():
        for bucket in groups:
            if np.allclose(bucket[0][1].omega.values, rep.omega.values, atol=1e-12):
                bucket.append((name, rep))
                break
        else:
            groups.append([(name, rep)])
    return groups


def indented_report(report) -> str:
    """The report in ``json``'s own indented layout, every number on its own
    line, with ``io.write_report``'s conversions: the oracle its one-line
    leaves must parse equal to."""
    return json.dumps(report, default=_jsonable, allow_nan=False, indent=2, sort_keys=True)


def assert_renders_as_indented(report, text):
    """``text`` parses as the indented rendering of ``report`` does, and
    differs from it in whitespace alone, so key order, ``-0.0`` and the
    spelling of every float are the oracle's."""
    want = indented_report(report)
    assert json.loads(text) == json.loads(want)
    assert "".join(text.split()) == "".join(want.split())


#: the one encoder ``io.write_report`` once sent every leaf and key through
_PER_LEAF = json.JSONEncoder(default=_jsonable, allow_nan=False, sort_keys=True)


def render_per_leaf(value, pad: str = "") -> str:
    """``io.write_report``'s text with every leaf and every key encoded by
    ``json`` one at a time: the oracle of its direct scalar writes."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        body = ",\n".join(f"{inner}{_key_per_leaf(k)}: {render_per_leaf(v, inner)}"
                          for k, v in sorted(value.items()))
        return f"{{\n{body}\n{pad}}}"
    if isinstance(value, (list, tuple)) and any(isinstance(v, dict) for v in value):
        body = ",\n".join(inner + render_per_leaf(v, inner) for v in value)
        return f"[\n{body}\n{pad}]"
    return _PER_LEAF.encode(value)


def _key_per_leaf(key) -> str:
    """``key`` quoted as ``json`` writes a dict key."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = _PER_LEAF.encode(key)
    return _PER_LEAF.encode(key)


def random_symmetric_unitary(d: int, seed) -> np.ndarray:
    """Q^T D Q with unit-modulus diagonal D and real orthogonal Q: the inputs
    of ``linalg.symmetric_unitary_sqrt`` in acceptance criterion 06."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    phases = np.exp(2j * np.pi * rng.random(d))
    return q.T @ np.diag(phases) @ q


# -- alternate criterion forms, kept as oracles for reduction.criterion_sums --

def coset_trace_sum(rep):
    """(1/|H|) sum over anti-unitary u of Tr[M(u) conj(M(u))]."""
    g = rep.group
    total = 0.0 + 0.0j
    for u in g.coset_elements:
        total += np.trace(rep.m(int(u)) @ np.conj(rep.m(int(u))))
    return total / g.halving_order


def irreducibility_index_trace_form(rep):
    """Irreducibility index with the coset term written as coset_trace_sum."""
    g = rep.group
    chi = np.einsum("gii->g", rep.matrices[g.h_elements])
    unitary_part = float(np.sum(np.abs(chi) ** 2)) / g.halving_order
    if not g.is_magnetic:
        return unitary_part
    return float((0.5 * (unitary_part + coset_trace_sum(rep))).real)


def multiplicity_value_trace_form(rep, action):
    """Coset term written as Tr[M(u) conj(M(u))]; must agree with the
    factor-system form."""
    g = rep.group
    chi = np.einsum("gii->g", rep.matrices[g.h_elements])
    chi_v = np.einsum("gii->g", action.d_h)
    unitary_part = sum(abs(chi[k]) ** 2 * chi_v[k] for k in range(len(chi_v)))
    if not g.is_magnetic:
        return float(unitary_part / g.halving_order)
    coset_part = 0.0 + 0.0j
    for h in g.h_elements:
        u = g.mul(int(h), g.t0)
        coset_part += float(np.trace(action.d(u))) * np.trace(
            rep.m(u) @ np.conj(rep.m(u)))
    return float(((unitary_part + coset_part) / (2 * g.halving_order)).real)


def multiplicity_value_diagonal_t0(rep, action, sign):
    """Specialized criterion valid only when D(t0) = sign * identity:
    the probe character factors out of the coset term."""
    g = rep.group
    if not g.is_magnetic:
        raise NoT0("specialized path needs an anti-unitary group")
    if not np.allclose(action.d_t0, sign * np.eye(action.dim_q), atol=1e-12):
        raise InvalidAction(f"D(t0) is not {sign:+d} * identity")
    chi = np.einsum("gii->g", rep.matrices[g.h_elements])
    chi_v = np.einsum("gii->g", action.d_h)
    total = 0.0 + 0.0j
    for k, h in enumerate(g.h_elements):
        u = g.mul(int(h), g.t0)
        total += (abs(chi[k]) ** 2
                  + sign * rep.omega(u, u) * np.trace(rep.m(g.mul(u, u)))) * chi_v[k]
    return float((total / (2 * g.halving_order)).real)


# -- the seeded simultaneous diagonalization and the two-pass labelling built
# on it, kept as oracles for linalg.symmetric_unitary_sqrt and
# reduction._reduce_once ------------------------------------------------------

def simultaneous_diag(family: Sequence[np.ndarray], seed: int = 0,
                      tol: float = LINALG_TOL):
    """Common eigenbasis of a family of commuting Hermitian matrices.

    A seeded random real combination of the family is diagonalized first;
    clusters that remain degenerate are refined by each family member in
    turn, restricted to the cluster subspace (``refine_eigenbasis``).
    Columns are ordered lexicographically by their per-matrix eigenvalue
    tuples (clustered at tolerance) so the output is deterministic given
    (inputs, seed).

    Returns
    -------
    u : ``(d, d)`` ndarray
        Unitary matrix of common eigenvectors (real when the family is real).
    values : ``(k, d)`` ndarray
        ``values[i, j]`` is the eigenvalue of ``family[i]`` on column j.
    """
    mats = [np.asarray(a) for a in family]
    if not mats:
        raise ValueError("empty family")
    d = mats[0].shape[0]
    real_input = all(np.isrealobj(a) for a in mats)
    scales = []
    for a in mats:
        if a.shape != (d, d):
            raise NotHermitian("family members must share one square shape")
        scale = max(1.0, np.linalg.norm(a, ord=2))
        if np.linalg.norm(a - a.conj().T, ord=2) > tol * scale:
            raise NotHermitian("family member is not Hermitian at tolerance")
        scales.append(scale)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i], ord=2)
            if comm > tol * max(1.0, scales[i] * scales[j]):
                raise NotCommuting(f"members {i} and {j} do not commute: {comm:.3e}")

    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(len(mats))
    combo = sum(c * a for c, a in zip(coeff, mats))
    if real_input:
        combo = combo.real

    vals0, vecs0 = np.linalg.eigh((combo + combo.conj().T) / 2)
    gap0 = tol * max(1.0, np.linalg.norm(combo, ord=2))
    gaps = [tol * scale for scale in scales]
    u = np.hstack([refine_eigenbasis(vecs0[:, sl], mats, gaps)[0]
                   for sl in _cluster_slices(vals0, gap0)])

    # Per-matrix eigenvalues, clustered so equal labels compare equal.
    values = np.empty((len(mats), d))
    for i, a in enumerate(mats):
        diag = np.einsum("ij,ik,kj->j", u.conj(), a, u).real
        order = np.argsort(diag)
        gap = tol * max(1.0, scales[i]) * 10
        lab = diag.copy()
        for sl in _cluster_slices(diag[order], gap):
            idx = order[sl]
            lab[idx] = diag[idx].mean()
        values[i] = lab
        resid = np.abs(u.conj().T @ a @ u - np.diag(diag)).max()
        if resid > 10 * tol * max(1.0, scales[i]):
            raise NotCommuting(f"off-diagonal residual {resid:.3e} after refinement")

    order = np.lexsort(values[::-1])
    return u[:, order], values[:, order]



def class_operator(rep, class_rep, subgroup):
    """C_i = sum over the unitary ``subgroup`` of M(h) M(h_i) M(h)^dag, one
    element at a time."""
    m = rep.m(int(class_rep))
    return sum(rep.m(int(h)) @ m @ rep.m(int(h)).conj().T for h in subgroup)


def reduce_once_two_pass(rep, seed, tol, seeds_used):
    """One reduction attempt through a global simultaneous diagonalization of
    the class-operator parts together with gamma, a stable re-sort by energy
    and a separate lam pass over columns whose labels agree byte for byte.
    The class-operator combinations are summed class by class.  Drop-in for
    ``reduction._reduce_once``, so ``reduce_corep``'s retries run it too."""
    g = rep.group
    d = rep.dim
    rng = np.random.default_rng(seed)
    com = build_G_commutant(rep, seed)
    gamma, lam = com.gamma, com.lam

    family, names = [], []
    h = g.h_elements
    if len(h) > 1:
        classes = conjugacy_classes(g, h)
        coeff = rng.standard_normal(len(classes))
        c = sum(r * class_operator(rep, cls[0], h) for r, cls in zip(coeff, classes))
        family += [c + c.conj().T, 1j * (c - c.conj().T)]
        names.append(f"class_ops_subgroup_{len(h)}")
    family.append(gamma)
    names.append("energy")

    u, values = simultaneous_diag(family, seed=seed, tol=max(tol, 1e-10))
    order = np.argsort(values[-1], kind="stable")
    u, values = u[:, order], values[:, order]
    energies = values[-1]
    block_slices = _cluster_slices(
        energies, BLOCK_TOL * max(1.0, np.linalg.norm(gamma, ord=2)))

    n_class = (len(family) - 1) // 2
    col_labels = np.full((d, n_class + 2), np.nan, dtype=complex)
    for k in range(n_class):
        col_labels[:, k] = (values[2 * k] + 1j * values[2 * k + 1]) / 2
    col_labels[:, n_class] = energies
    if g.is_magnetic:
        for sl in block_slices:
            seen = {}
            for c in range(sl.start, sl.stop):
                seen.setdefault(col_labels[c, :n_class + 1].tobytes(), []).append(c)
            for idx in seen.values():
                if len(idx) < 2:
                    continue
                sub = u[:, idx].conj().T @ lam @ u[:, idx]
                vals, vecs = np.linalg.eigh((sub + sub.conj().T) / 2)
                u[:, idx] = u[:, idx] @ vecs
                col_labels[idx, n_class + 1] = vals

    blocks = []
    for sl in block_slices:
        sub_rep = conjugate_corep(rep, u[:, sl])
        index = irreducibility_index(sub_rep)
        if abs(index - 1.0) > max(10 * tol, 1e-7):
            raise NotIrreducible(f"block {sl} has criterion {index}")
        blocks.append(Block(start=sl.start, stop=sl.stop,
                            energy=float(energies[sl].mean()),
                            torsion=torsion_number(sub_rep) if g.is_magnetic else None,
                            labels=col_labels[sl], index=index))
    names.append("multiplet_split")
    return IrrepDecomposition(basis=u, blocks=blocks, residuals={},
                              seeds_used=list(seeds_used), label_names=names)


# -- pair-by-pair loops, kept as oracles for the batched kernels ---------------

def validate_corep_pairwise(rep, ord=None):
    """(unitarity, relation) residuals with one matrix norm per element pair:
    Frobenius, as ``validate_corep`` reports them, or ``ord=2`` spectral."""
    g = rep.group
    eye = np.eye(rep.dim)
    uni = max(np.linalg.norm(rep.m(a).conj().T @ rep.m(a) - eye, ord=ord)
              for a in range(g.order))
    rel = 0.0
    for a in range(g.order):
        for b in range(g.order):
            mb = np.conj(rep.m(b)) if g.s(a) else rep.m(b)
            rhs = rep.omega(a, b) * rep.m(g.mul(a, b))
            rel = max(rel, np.linalg.norm(rep.m(a) @ mb - rhs, ord=ord))
    return float(uni), float(rel)


def omega_pairwise(group, matrices, tol=1e-8, ord=None):
    """Factor system read off pair by pair; raises like corep_from_matrices,
    which measures each pair's misfit in the Frobenius norm (``ord=None``)."""
    mats = np.asarray(matrices, dtype=complex)
    n, d = group.order, mats.shape[1]
    omega = np.ones((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            prod = mats[a] @ (np.conj(mats[b]) if group.s(a) else mats[b])
            target = mats[group.mul(a, b)]
            w = np.trace(target.conj().T @ prod) / d
            if abs(abs(w) - 1.0) > tol or np.linalg.norm(prod - w * target, ord=ord) > tol:
                raise InvalidCoRep(
                    f"products are not scalar multiples of the table entry at "
                    f"({group.label(a)}, {group.label(b)})")
            omega[a, b] = w
    return omega


def action_residual_pairwise(action):
    """Group-law residual of a probe action, one element pair at a time."""
    g = action.group
    resid = 0.0
    for a in g.h_elements:
        for b in g.h_elements:
            prod = action.d(int(a)) @ action.d(int(b))
            resid = max(resid, float(np.abs(prod - action.d(g.mul(int(a), int(b)))).max()))
    if g.is_magnetic:
        t0 = g.t0
        resid = max(resid, float(np.abs(
            action.d_t0 @ action.d_t0 - action.d(g.sigma)).max()))
        d_t0_inv = np.linalg.inv(action.d_t0)
        for h in g.h_elements:
            conj_h = g.mul(g.mul(t0, int(h)), g.inv(t0))
            lhs = action.d_t0 @ action.d(int(h)) @ d_t0_inv
            resid = max(resid, float(np.abs(lhs - action.d(conj_h)).max()))
    return resid


def cayley_from_realization_pairwise(o3_list, flags, labels):
    """Cayley table by matching every product against every element."""
    n = len(o3_list)
    cayley = np.zeros((n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            prod = o3_list[a] @ o3_list[b]
            want = flags[a] ^ flags[b]
            hits = [c for c in range(n)
                    if flags[c] == want and np.allclose(o3_list[c], prod, atol=1e-10)]
            if len(hits) != 1:
                raise ValueError(f"realization is not closed at ({labels[a]}, {labels[b]})")
            cayley[a, b] = hits[0]
    return cayley


def restricted_table_pairwise(group, element_ids):
    """Cayley table of a subset in its own ids; raises like restricted_group."""
    emb = sorted(set(int(x) for x in element_ids))
    pos = {g: k for k, g in enumerate(emb)}
    table = np.zeros((len(emb), len(emb)), dtype=int)
    for a, ga in enumerate(emb):
        for b, gb in enumerate(emb):
            prod = group.mul(ga, gb)
            if prod not in pos:
                raise NotASubgroupEmbedding(
                    f"subset not closed: {group.label(ga)} * {group.label(gb)} falls outside")
            table[a, b] = pos[prod]
    return table


def restricted_group_rebuilt(group, element_ids):
    """``restricted_group`` that revalidates the subgroup from scratch: its
    table, flags and labels go through ``build_group``."""
    emb = np.asarray(sorted(set(int(x) for x in element_ids)), dtype=int)
    table = restricted_table_pairwise(group, emb)
    labels = [group.label(int(g)) for g in emb]
    return build_group(table, group.antiunitary[emb], labels=labels), emb


def verify_embedding_pairwise(group, sub, emb):
    """Embedding oracle: checks, element by element, that ``emb[k]`` maps
    each element k of ``sub`` into ``group`` with its flag and products;
    raises NotASubgroupEmbedding at the first mismatch, else returns ``emb``."""
    for a in range(sub.order):
        if group.s(int(emb[a])) != sub.s(a):
            raise NotASubgroupEmbedding(f"flag mismatch at subgroup element {a}")
        for b in range(sub.order):
            if group.mul(int(emb[a]), int(emb[b])) != int(emb[sub.mul(a, b)]):
                raise NotASubgroupEmbedding(f"product mismatch at pair ({a}, {b})")
    return emb


def conjugacy_classes_pairwise(group, members):
    """Classes as sets of a h a^-1, ordered by lowest id; raises like the kernel."""
    member_set = set(int(x) for x in members)
    if not all(group.mul(a, b) in member_set for a in member_set for b in member_set):
        raise NotAGroup("conjugacy classes requested for a non-closed subset")
    classes, seen = [], set()
    for h in sorted(member_set):
        if h not in seen:
            cls = sorted({group.mul(group.mul(a, h), group.inv(a)) for a in member_set})
            classes.append(tuple(cls))
            seen.update(cls)
    return tuple(classes)


def cocycle_violation_full(group, omega):
    """Twisted cocycle violation from n^3 tables built in one piece."""
    n, w, s, table = group.order, omega.values, group.antiunitary, group.cayley
    w_bc = np.broadcast_to(w[None, :, :], (n, n, n))
    w_bc = np.where(s[:, None, None] == 1, np.conj(w_bc), w_bc)
    w_ab = np.broadcast_to(w[:, :, None], (n, n, n))
    lhs = w_bc * np.conj(w[table, :]) * w[:, table] * np.conj(w_ab)
    return float(np.abs(lhs - 1.0).max())


def cocycle_violation_rowwise(group, omega):
    """Twisted cocycle violation one first element a at a time, each row's
    products in ``validate_cocycle``'s operand order, so that the two agree
    bit for bit: lhs[b, c] = w^[s(a)](b,c) conj(w(ab,c)) w(a,bc) conj(w(a,b))."""
    n, w, table = group.order, omega.values, group.cayley
    w_conj = np.conj(w)
    violations = []
    for a in range(n):
        lhs = ((w_conj if group.s(a) else w) * w_conj[table[a]] * w[a][table]
               * w_conj[a][:, None])
        violations.append(np.abs(lhs - 1.0).max())
    return float(np.max(violations))


def element_order_bruteforce(cayley, identity, g):
    acc, k = g, 1
    while acc != identity:
        acc = cayley[acc][g]
        k += 1
    return k


def associativity_failure_full(table):
    """First triple (a, b, c) with (a b) c != a (b c), from two n^3 tables;
    None when the table is associative."""
    bad = np.argwhere(table[table, :] != table[:, table])
    return None if len(bad) == 0 else tuple(int(x) for x in bad[0])


# -- element-by-element probe kernels, kept as oracles for the batched ones -----

def substitution_matrix_dict(exponents, lin):
    """Matrix R with mono_a(lin @ k) = sum_b R[a, b] mono_b(k), expanded by
    multiplying out the linear forms monomial by monomial."""
    q = len(lin)
    index = {e: k for k, e in enumerate(exponents)}
    r = np.zeros((len(exponents), len(exponents)))
    for row, expo in enumerate(exponents):
        poly = {(0,) * q: 1.0}       # exponent -> coefficient, factor by factor
        for var in range(q):
            for _ in range(expo[var]):
                new = {}
                for mono, c in poly.items():
                    for var2 in range(q):
                        if lin[var, var2] == 0.0:
                            continue
                        key = list(mono)
                        key[var2] += 1
                        key = tuple(key)
                        new[key] = new.get(key, 0.0) + c * lin[var, var2]
                poly = new
        for mono, c in poly.items():
            r[row, index[mono]] = c
    return r


def substitution_matrices_per_call(lin, n):
    """``_substitution_matrices`` with its degree tables built on every call
    from dicts of exponents."""
    q = lin.shape[-1]
    r = np.ones(lin.shape[:-2] + (1, 1))
    prev = {(0,) * q: 0}                   # exponents -> row, one degree lower
    for j in range(1, n + 1):
        expos = monomial_exponents(j, q)
        index = {e: k for k, e in enumerate(expos)}
        first = [next(v for v in range(q) if e[v]) for e in expos]
        parent = [prev[tuple(x - (w == v) for w, x in enumerate(e))]
                  for e, v in zip(expos, first)]
        # times[(b, w), c] = 1 when monomial b times k_w is monomial c
        times = np.zeros((len(prev), q, len(expos)))
        for e, b in prev.items():
            for w in range(q):
                times[b, w, index[tuple(x + (u == w) for u, x in enumerate(e))]] = 1.0
        terms = r[..., parent, :, None] * lin[..., first, None, :]
        r = terms.reshape(terms.shape[:-2] + (-1,)) @ times.reshape(-1, len(expos))
        prev = index
    return r


def validate_action_rowwise(action, tol=ACTION_TOL):
    """Group-law residual with the subgroup products taken one row of H at a
    time; raises like validate_action."""
    g = action.group
    d_h = action.d_h
    pos = g.h_position
    resids = [np.abs(d_h[k] @ d_h - d_h[pos[g.cayley[a, g.h_elements]]]).max()
              for k, a in enumerate(g.h_elements)]
    if g.is_magnetic:
        t0 = g.t0
        resids.append(np.abs(action.d_t0 @ action.d_t0 - d_h[pos[g.sigma]]).max())
        conj_h = g.cayley[g.cayley[t0, g.h_elements], g.inv(t0)]
        lhs = action.d_t0 @ d_h @ _dual_matrices(action.d_t0).T
        resids.append(np.abs(lhs - d_h[pos[conj_h]]).max())
    resid = float(np.max(resids))
    if not resid <= tol:
        raise InvalidAction(f"probe matrices violate the group law by {resid:.3e}")
    return resid


def null_space(a: np.ndarray, atol: float = 1e-8) -> np.ndarray:
    """Null space of ``a`` from its SVD, with an absolute singular-value
    cutoff: the oracle systems have nonzero singular values of order one and
    float noise at 1e-15, so a relative cutoff would misread an almost-zero
    system as full rank."""
    if a.size == 0:
        return np.eye(a.shape[1])
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    return vh[int((s > atol).sum()):].conj().T


def trivial_multiplicity_h_t0(action):
    """Dimension of the vectors fixed by every D(h) and by D(t0)."""
    g = action.group
    q = action.dim_q
    rows = [action.d(int(h)) - np.eye(q) for h in g.h_elements]
    if g.is_magnetic:
        rows.append(action.d_t0 - np.eye(q))
    return null_space(np.vstack(rows)).shape[1]


def covariant_tuple_basis_columnwise(rep, action):
    """Null-space oracle built one parameter column, one element at a time."""
    g = rep.group
    d = rep.dim
    q = action.dim_q
    dual = dual_rep(action)
    basis = hermitian_basis(d)

    def constraint_images(gamma_tuple):
        rows = []
        for k, h in enumerate(g.h_elements):
            mh = rep.m(int(h))
            lhs = np.einsum("ab,mbc,dc->mad", mh, gamma_tuple, np.conj(mh))
            rhs = np.einsum("nm,nab->mab", dual.d_h[k], gamma_tuple)
            rows.append((lhs - rhs).ravel())
        if g.is_magnetic:
            mt = rep.m(g.t0)
            lhs = np.einsum("ab,mbc,dc->mad", mt, np.conj(gamma_tuple), np.conj(mt))
            rhs = np.einsum("nab,nm->mab", gamma_tuple, dual.d_t0)
            rows.append((lhs - rhs).ravel())
        stacked = np.concatenate(rows)
        return np.concatenate([stacked.real, stacked.imag])

    columns = []
    for m in range(q):
        for b in basis:
            tup = np.zeros((q, d, d), dtype=complex)
            tup[m] = b
            columns.append(constraint_images(tup))
    sols = null_space(np.stack(columns, axis=1))
    tuples = np.zeros((sols.shape[1], q, d, d), dtype=complex)
    for s in range(sols.shape[1]):
        coeff = sols[:, s].reshape(q, d * d)
        tuples[s] = np.einsum("mk,kab->mab", coeff, basis)
    return tuples


def tuple_span_residual_projectors(a, b):
    """Span distance as the spectral norm of the difference of the two
    orthogonal projectors, each built in full; inf for unequal dimensions."""
    def basis(tuples):
        flat = tuples.reshape(len(tuples), -1)
        return np.linalg.qr(np.concatenate([flat.real, flat.imag], axis=1).T)[0]

    if len(a) != len(b):
        return float("inf")
    if len(a) == 0:
        return 0.0
    qa, qb = basis(a), basis(b)
    return float(np.linalg.norm(qa @ qa.T - qb @ qb.T, ord=2))


def full_induced_action(action, n):
    """The order-n polynomial action of every monomial at once: ``action``
    itself at n = 1, else the dual of the substitution rep, by id, whose
    traces are row 0 of ``polynomial_channel(action, n).characters``."""
    if n == 1:
        return action
    g = action.group
    full = _dual_matrices(_substitution_matrices(
        _dual_matrices(action.d(np.arange(g.order))), n))
    return ProbeRepAction(group=g, d_h=full[g.h_elements], kind=f"polynomial({n})",
                          d_t0=full[g.t0] if g.is_magnetic else None)


def dispersion_table_per_channel(rep, action, n_max, seed=0):
    """dispersion_order's table with one criterion call and one null space
    per full action and per channel."""
    orders, leading = [], None

    def counts(act):
        mult = linear_multiplicity(rep, act)
        triv = trivial_multiplicity_h_t0(act)
        return {"multiplicity": mult, "trivial_multiplicity": triv,
                "splitting_multiplicity": mult - triv}

    for n in range(1, n_max + 1):
        chans = polynomial_channel(action, n, seed=seed)
        full = counts(full_induced_action(action, n))
        orders.append({"order": n, "full": full, "channels": [
            {"dim": ch.action.dim_q, **counts(ch.action),
             "polynomials": ch.coefficients, "exponents": ch.exponents}
            for ch in chans.channels]})
        if leading is None and full["multiplicity"] > 0:
            leading = n
    return {"orders": orders, "leading_order": leading, "seed": seed}


def channel_set_eager(action, n, seed=0):
    """``polynomial_channel`` of an action the caller has validated, built
    eagerly, one order at a time: D(g) and its dual read per order, the seed
    drawn as ``standard_normal((m, m))``, every channel's ProbeRepAction and
    the full induced action built at once, and the full character row taken
    from the traces of the inverted substitution stack."""
    g = action.group
    exponents = monomial_exponents(n, action.dim_q)
    n_mono = len(exponents)
    mats = action.d(np.arange(g.order))
    subs = _substitution_matrices(_dual_matrices(mats), n)
    full_d = mats if n == 1 else _dual_matrices(subs)

    flat = subs.reshape(-1, n_mono)
    vals, vecs = np.linalg.eigh(flat.T @ flat / g.order)
    if vals.min() <= 1e-12:
        raise SingularAction("substitution metric is singular")
    s_half = vecs @ np.diag(np.sqrt(vals)) @ vecs.T
    s_half_inv = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.T
    ortho = s_half @ subs @ s_half_inv

    a = np.random.default_rng(seed).standard_normal((n_mono, n_mono))
    a = (a + a.T) / 2
    lam = (ortho @ a @ np.swapaxes(ortho, 1, 2)).sum(axis=0) / g.order
    lam = (lam + lam.T) / 2
    evals, evecs = np.linalg.eigh(lam)
    slices = _cluster_slices(evals, 1e-7 * max(1.0, np.abs(evals).max()))

    def stack_action(stack):
        return ProbeRepAction(group=g, d_h=stack[g.h_elements],
                              d_t0=stack[g.t0] if g.is_magnetic else None,
                              kind=f"polynomial({n})")

    in_block = np.zeros((n_mono, n_mono), dtype=bool)
    for sl in slices:
        in_block[sl, sl] = True
    rotated = np.where(in_block, evecs.T @ ortho @ evecs, 0.0)
    validate_action(stack_action(rotated), tol=1e-7)
    diagonal = np.einsum("gii->gi", rotated)
    characters = [np.einsum("gii->g", full_d)]
    channels = []
    for sl in slices:
        channels.append(SimpleNamespace(action=stack_action(rotated[:, sl, sl]),
                                        coefficients=evecs[:, sl].T @ s_half,
                                        exponents=exponents, order=n))
        characters.append(diagonal[:, sl].sum(axis=1))
    return SimpleNamespace(order=n, exponents=exponents, channels=channels,
                           full_action=action if n == 1 else stack_action(full_d),
                           characters=np.stack(characters))


def dispersion_table_eager(rep, action, n_max, seed=0):
    """dispersion_order's table from ``channel_set_eager``, order by order,
    each order counted in one criterion call."""
    validate_action(action)
    orders, leading = [], None
    for n in range(1, n_max + 1):
        chans = channel_set_eager(action, n, seed)
        counts = _coupling_counts(rep, chans.characters)
        orders.append({"order": n, "full": counts[0], "channels": [
            {"dim": ch.action.dim_q, **count, "polynomials": ch.coefficients,
             "exponents": ch.exponents} for ch, count in zip(chans.channels, counts[1:])]})
        if leading is None and counts[0]["multiplicity"] > 0:
            leading = n
    return {"orders": orders, "leading_order": leading, "seed": seed}


def channel_actions(action, orders):
    """(order, tag, action) for each order: the full induced action ("full")
    and every channel."""
    out = []
    for n in orders:
        sets = polynomial_channel(action, n, seed=0)
        out.append((n, "full", full_induced_action(action, n)))
        out += [(n, f"chan{k}", c.action) for k, c in enumerate(sets.channels)]
    return out


@pytest.fixture(scope="session")
def kp_sweep():
    """Every catalog rep x probe action at orders 1-3, each order as its full
    induced action and as each of its channels.

    Each record carries the criterion value, the all-element oracle basis
    (``covariant_tuple_basis_columnwise``, independent of the solver) and
    the constructed model (None when the channel is empty).  Built once; the
    acceptance tests and the kp unit tests both consume it.
    """
    records = []
    for name in mr.catalog_list():
        entry = mr.catalog_get(name)
        for rep_name, rep in entry.reps.items():
            for act_name, act in entry.probe_actions.items():
                for order, tag, a in channel_actions(act, (1, 2, 3)):
                    crit = linear_multiplicity(rep, a)
                    model = mr.build_gamma_matrices(rep, a) if crit > 0 else None
                    records.append({
                        "where": (name, rep_name, act_name, order, tag),
                        "rep": rep,
                        "action": a,
                        "criterion": crit,
                        "oracle": covariant_tuple_basis_columnwise(rep, a),
                        "model": model,
                    })
    return records
