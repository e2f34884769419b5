"""Shared fixtures: catalog sweeps are expensive enough to build once."""

import numpy as np
import pytest

import magrep as mr
from magrep.errors import (
    InvalidAction,
    InvalidCoRep,
    NotAGroup,
    NotASubgroupEmbedding,
    NoT0,
)
from magrep.kp import (
    _null_space,
    covariant_tuple_basis,
    dual_rep,
    hermitian_basis,
    linear_multiplicity,
    polynomial_channel,
)


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


# -- pair-by-pair loops, kept as oracles for the batched kernels ---------------

def validate_corep_pairwise(rep):
    """(unitarity, relation) residuals with one spectral norm per element pair."""
    g = rep.group
    eye = np.eye(rep.dim)
    uni = max(np.linalg.norm(rep.m(a).conj().T @ rep.m(a) - eye, ord=2)
              for a in range(g.order))
    rel = 0.0
    for a in range(g.order):
        for b in range(g.order):
            mb = np.conj(rep.m(b)) if g.s(a) else rep.m(b)
            rhs = rep.omega(a, b) * rep.m(g.mul(a, b))
            rel = max(rel, np.linalg.norm(rep.m(a) @ mb - rhs, ord=2))
    return float(uni), float(rel)


def omega_pairwise(group, matrices, tol=1e-8):
    """Factor system read off pair by pair; raises like corep_from_matrices."""
    mats = np.asarray(matrices, dtype=complex)
    n, d = group.order, mats.shape[1]
    omega = np.ones((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            prod = mats[a] @ (np.conj(mats[b]) if group.s(a) else mats[b])
            target = mats[group.mul(a, b)]
            w = np.trace(target.conj().T @ prod) / d
            if abs(abs(w) - 1.0) > tol or np.linalg.norm(prod - w * target, ord=2) > tol:
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


def verify_embedding_pairwise(group, sub, emb):
    """Flag and product checks element by element; raises like verify_embedding."""
    for a in range(sub.order):
        if group.s(int(emb[a])) != sub.s(a):
            raise NotASubgroupEmbedding(f"flag mismatch at subgroup element {a}")
        for b in range(sub.order):
            if group.mul(int(emb[a]), int(emb[b])) != int(emb[sub.mul(a, b)]):
                raise NotASubgroupEmbedding(f"product mismatch at pair ({a}, {b})")
    return emb


def chain_member_closed_pairwise(table, sub):
    sub_set = set(sub)
    return all(int(table[a, b]) in sub_set for a in sub for b in sub)


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


def associativity_failure_full(table):
    """First triple (a, b, c) with (a b) c != a (b c), from two n^3 tables;
    None when the table is associative."""
    bad = np.argwhere(table[table, :] != table[:, table])
    return None if len(bad) == 0 else tuple(int(x) for x in bad[0])


# -- element-by-element probe kernels, kept as oracles for the batched ones -----

def substitution_matrix_dict(exponents, lin):
    """Matrix R with mono_a(lin @ k) = sum_b R[a, b] mono_b(k), expanded by
    multiplying out the linear forms monomial by monomial."""
    index = {e: k for k, e in enumerate(exponents)}
    r = np.zeros((len(exponents), len(exponents)))
    for row, expo in enumerate(exponents):
        poly = {(0, 0, 0): 1.0}      # exponent -> coefficient, factor by factor
        for var in range(3):
            for _ in range(expo[var]):
                new = {}
                for mono, c in poly.items():
                    for var2 in range(3):
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


def trivial_multiplicity_h_t0(action):
    """Dimension of the vectors fixed by every D(h) and by D(t0)."""
    g = action.group
    q = action.dim_q
    rows = [action.d(int(h)) - np.eye(q) for h in g.h_elements]
    if g.is_magnetic:
        rows.append(action.d_t0 - np.eye(q))
    return _null_space(np.vstack(rows)).shape[1]


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
    sols = _null_space(np.stack(columns, axis=1))
    tuples = np.zeros((sols.shape[1], q, d, d), dtype=complex)
    for s in range(sols.shape[1]):
        coeff = sols[:, s].reshape(q, d * d)
        tuples[s] = np.einsum("mk,kab->mab", coeff, basis)
    return tuples


def channel_actions(action, orders):
    """(order, tag, action) for a field action itself, or for each order of a
    3-dim action its full induced action ("full") and every channel."""
    if action.dim_q != 3:
        return [(1, "full", action)]
    out = []
    for n in orders:
        sets = polynomial_channel(action, n, seed=0)
        out.append((n, "full", sets.full_action))
        out += [(n, f"chan{k}", c.action) for k, c in enumerate(sets.channels)]
    return out


@pytest.fixture(scope="session")
def kp_sweep():
    """Every catalog rep x probe action; a 3-dim action enters at orders 1-3,
    each as its full induced action and as each of its channels.

    Each record carries the criterion value, the brute-force oracle basis and
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
                        "oracle": covariant_tuple_basis(rep, a),
                        "model": model,
                    })
    return records
