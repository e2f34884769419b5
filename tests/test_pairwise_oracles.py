"""Batched co-rep, action and group kernels against their pair-by-pair oracles.

Every catalog entry is checked as given, under a random basis change, under a
random gauge and as 2- and 3-fold direct sums; corrupted inputs must fail with
the oracle's exception and the oracle's element labels, or report the
oracle's residual.  The probe kernels (``ProbeRepAction.d`` over an id array,
the degree-by-degree substitution matrices, the identity-coupling count) are
checked against their element-by-element forms on every catalog action, and
the null-space oracle built from the batched covariance defects against the
one built a parameter column and an element at a time.
"""

import dataclasses

import numpy as np
import pytest

import magrep as mr
from magrep.catalog import _cnv_realization, _group_from_realization, _lift3
from magrep.coreps import (
    CoRep,
    conjugate_corep,
    corep_from_matrices,
    direct_sum,
    random_gauge,
    validate_corep,
)
from magrep.errors import InvalidAction, NotAGroup
from magrep.groups import build_group, conjugacy_classes, restricted_group, validate_cocycle
from magrep.kp import (
    ProbeRepAction,
    _covariance_defects,
    _dual_matrices,
    _substitution_matrices,
    dual_rep,
    monomial_exponents,
    polynomial_channel,
    covariant_tuple_basis,
    trivial_multiplicity,
    tuple_span_residual,
    validate_action,
)
from magrep.linalg import random_unitary

from conftest import (
    action_residual_pairwise,
    associativity_failure_full,
    cayley_from_realization_pairwise,
    catalog_irreps,
    chain_member_closed_pairwise,
    cocycle_violation_full,
    channel_actions,
    conjugacy_classes_pairwise,
    covariant_tuple_basis_columnwise,
    omega_pairwise,
    restricted_table_pairwise,
    substitution_matrix_dict,
    trivial_multiplicity_h_t0,
    validate_corep_pairwise,
    verify_embedding_pairwise,
)

ENTRIES = mr.catalog_list()
IRREPS = catalog_irreps()
IRREP_IDS = [f"{name}-{rep_name}" for name, rep_name, _ in IRREPS]


def rep_variants(rep, seed):
    """The rep, rotated, gauged, and 2- and 3-fold direct sums."""
    rotated = conjugate_corep(rep, random_unitary(rep.dim, seed))
    return {
        "plain": rep,
        "rotated": rotated,
        "gauged": random_gauge(rep, seed + 1),
        "sum2": direct_sum([rep, rotated]),
        "sum3": random_gauge(direct_sum([rotated, rep, rotated]), seed + 2),
    }


def entry_actions(entry):
    """Every probe action of an entry, its quadratic channels and a rotated copy."""
    out = dict(entry.probe_actions)
    for name, act in entry.probe_actions.items():
        if act.dim_q == 3:
            for k, ch in enumerate(polynomial_channel(act, 2).channels):
                out[f"{name}-quad{k}"] = ch.action
    rng = np.random.default_rng(7)
    for name, act in list(out.items()):
        o, _ = np.linalg.qr(rng.standard_normal((act.dim_q, act.dim_q)))
        d_t0 = None if act.d_t0 is None else o.T @ act.d_t0 @ o
        out[f"{name}-rotated"] = ProbeRepAction(group=act.group, d_h=o.T @ act.d_h @ o,
                                                d_t0=d_t0, kind=act.kind)
    return out


def regular_realization(group):
    """Left-regular permutation matrices; faithful, so products match uniquely."""
    n = group.order
    perm = np.zeros((n, n, n))
    ids = np.arange(n)
    perm[ids[:, None], group.cayley, ids[None, :]] = 1.0
    return perm


def raised(fn, *args):
    """(exception type, message) raised by ``fn(*args)``, or None."""
    try:
        fn(*args)
    except Exception as err:  # the comparison is the point
        return type(err), str(err)
    return None


# -- co-reps ---------------------------------------------------------------------

@pytest.mark.parametrize("name,rep_name,rep", IRREPS, ids=IRREP_IDS)
def test_corep_kernels_match_pairwise(name, rep_name, rep):
    for tag, var in rep_variants(rep, seed=len(IRREP_IDS)).items():
        uni, rel = validate_corep_pairwise(var)
        report = validate_corep(var)
        assert abs(report.unitarity_residual - uni) <= 1e-12, tag
        assert abs(report.relation_residual - rel) <= 1e-12, tag
        rebuilt = corep_from_matrices(var.group, var.matrices)
        assert np.abs(rebuilt.omega.values - omega_pairwise(var.group, var.matrices)).max() <= 1e-12
        assert np.abs(rebuilt.omega.values - var.omega.values).max() <= 1e-12, tag
        assert abs(validate_cocycle(var.group, var.omega).max_violation
                   - cocycle_violation_full(var.group, var.omega)) <= 1e-15, tag


@pytest.mark.parametrize("name,rep_name,rep", IRREPS, ids=IRREP_IDS)
def test_corrupted_corep_matches_pairwise(name, rep_name, rep):
    g = rep.group
    bad_id = g.order - 1
    mats = rep.matrices.copy()
    mats[bad_id] = 1.5 * mats[bad_id] @ random_unitary(rep.dim, 3)   # also off unitarity
    broken = CoRep(group=g, omega=rep.omega, matrices=mats)
    uni, rel = validate_corep_pairwise(broken)
    report = validate_corep(broken)
    assert not report.passed
    assert abs(report.unitarity_residual - uni) <= 1e-12
    assert abs(report.relation_residual - rel) <= 1e-12
    want = raised(omega_pairwise, g, mats)
    assert want is not None
    assert raised(corep_from_matrices, g, mats) == want

    if g.order > 2:
        # one wrong table entry; the group is replaced without revalidation
        table = g.cayley.copy()
        table[1, 2] = table[1, 1]
        skewed = dataclasses.replace(g, cayley=table)
        want = raised(omega_pairwise, skewed, rep.matrices)
        assert raised(corep_from_matrices, skewed, rep.matrices) == want
        skewed_rep = CoRep(group=skewed, omega=rep.omega, matrices=rep.matrices)
        uni, rel = validate_corep_pairwise(skewed_rep)
        report = validate_corep(skewed_rep)
        assert abs(report.relation_residual - rel) <= 1e-12


# -- probe actions -----------------------------------------------------------------

@pytest.mark.parametrize("name", ENTRIES)
def test_action_residuals_match_pairwise(name):
    for act_name, act in entry_actions(mr.catalog_get(name)).items():
        assert abs(validate_action(act) - action_residual_pairwise(act)) <= 1e-12, act_name


@pytest.mark.parametrize("name", ENTRIES)
def test_corrupted_action_matches_pairwise(name):
    for act_name, act in mr.catalog_get(name).probe_actions.items():
        for k in (0, len(act.d_h) - 1):
            d_h = act.d_h.copy()
            d_h[k] = d_h[k] + 0.25
            broken = ProbeRepAction(group=act.group, d_h=d_h, d_t0=act.d_t0, kind=act.kind)
            want = action_residual_pairwise(broken)
            assert abs(validate_action(broken, tol=np.inf) - want) <= 1e-12, act_name
            with pytest.raises(InvalidAction) as err:
                validate_action(broken)
            assert str(err.value) == f"probe matrices violate the group law by {want:.3e}"


@pytest.mark.parametrize("name", ENTRIES)
def test_action_d_batches_over_element_ids(name):
    for act_name, act in entry_actions(mr.catalog_get(name)).items():
        n, q = act.group.order, act.dim_q
        stacked = np.stack([act.d(g) for g in range(n)])
        assert np.array_equal(act.d(np.arange(n)), stacked), act_name
        ids = np.arange(n)[::-1].reshape(-1, 1)
        assert np.array_equal(act.d(ids), stacked[::-1].reshape(n, 1, q, q)), act_name
        # a linear rep of the whole group, coset included: D(a) D(b) = D(ab)
        law = stacked[:, None] @ stacked[None, :] - act.d(act.group.cayley)
        assert np.abs(law).max() <= 1e-12, act_name


@pytest.mark.parametrize("name", ENTRIES)
def test_substitution_matrices_match_dict_expansion(name):
    momenta = [a for a in mr.catalog_get(name).probe_actions.values() if a.dim_q == 3]
    assert momenta
    for act in momenta:
        lin = _dual_matrices(act.d(np.arange(act.group.order)))
        for n in (1, 2, 3, 4):
            want = np.stack([substitution_matrix_dict(monomial_exponents(n), m) for m in lin])
            assert np.abs(_substitution_matrices(lin, n) - want).max() <= 1e-12, (act.kind, n)
            # the induced action is the dual of the substitution rep
            full = polynomial_channel(act, n).full_action
            assert np.abs(dual_rep(full).d(np.arange(len(lin))) - want).max() <= 1e-12


@pytest.mark.parametrize("name", ENTRIES)
def test_trivial_multiplicity_matches_h_plus_t0_oracle(name):
    acts = entry_actions(mr.catalog_get(name))
    for act_name, act in list(acts.items()):
        if act.dim_q == 3:
            for n in (2, 3):
                sets = polynomial_channel(act, n)
                acts[f"{act_name}-full{n}"] = sets.full_action
                acts.update({f"{act_name}-ord{n}-{k}": c.action
                             for k, c in enumerate(sets.channels)})
    for act_name, act in acts.items():
        assert trivial_multiplicity(act) == trivial_multiplicity_h_t0(act), act_name


# -- groups ------------------------------------------------------------------------

def entry_realizations(name):
    """(matrices, flags, labels) realizations of an entry's group."""
    g = mr.catalog_get(name).group
    flags = g.antiunitary.tolist()
    out = [(regular_realization(g), flags, list(g.labels))]
    if name in ("c4v_t", "c6v_t"):
        o2, _, labels = _cnv_realization(int(name[1]))
        o3 = [_lift3(x) for x in o2] * 2
        out.append((o3, [0] * len(o2) + [1] * len(o2), labels + [f"{x}T" for x in labels]))
    rng = np.random.default_rng(5)
    rotated = []
    for mats, fl, labels in out:
        mats = np.asarray(mats)
        o, _ = np.linalg.qr(rng.standard_normal(mats.shape[1:]))
        rotated.append((o.T @ mats @ o, fl, labels))
    return out + rotated


@pytest.mark.parametrize("name", ENTRIES)
def test_covariant_tuple_basis_matches_columnwise_oracle(name):
    # every rep, rotated and gauged, against every action and its channels of
    # orders 1-3: the same null-space dimension and span
    entry = mr.catalog_get(name)
    for k, rep in enumerate(entry.reps.values()):
        variant = random_gauge(conjugate_corep(rep, random_unitary(rep.dim, 40 + k)), 50 + k)
        for act in entry.probe_actions.values():
            for order, tag, a in channel_actions(act, (1, 2, 3)):
                got = covariant_tuple_basis(variant, a)
                want = covariant_tuple_basis_columnwise(variant, a)
                assert got.shape == want.shape, (order, tag)
                assert tuple_span_residual(got, want) < 1e-12, (order, tag)


@pytest.mark.parametrize("name", ENTRIES)
def test_covariance_defects_match_elementwise(name):
    # the batched defect of random tuples, element by element and as one stack
    entry = mr.catalog_get(name)
    rng = np.random.default_rng(9)
    for rep in entry.reps.values():
        g, d = rep.group, rep.dim
        for act in entry.probe_actions.values():
            dual = dual_rep(act)
            q = act.dim_q
            tuples = rng.standard_normal((2, q, d, d)) + 1j * rng.standard_normal((2, q, d, d))
            stack = _covariance_defects(rep, dual, np.arange(g.order), tuples)
            for e in range(g.order):
                m = rep.m(e)
                inner = np.conj(tuples) if g.s(e) else tuples
                want = (m @ inner @ m.conj().T
                        - np.einsum("nm,pnab->pmab", dual.d(e), tuples))
                assert np.abs(_covariance_defects(rep, dual, e, tuples) - want).max() < 1e-12
                assert np.abs(stack[e] - want).max() < 1e-12


@pytest.mark.parametrize("name", ENTRIES)
def test_group_kernels_match_pairwise(name):
    g = mr.catalog_get(name).group
    for mats, flags, labels in entry_realizations(name):
        built = _group_from_realization(mats, flags, labels)
        want = cayley_from_realization_pairwise(list(mats), flags, labels)
        assert np.array_equal(built.cayley, want)
    assert conjugacy_classes(g, g.h_elements) == conjugacy_classes_pairwise(g, g.h_elements)
    for sub in g.subgroup_chain:
        assert chain_member_closed_pairwise(g.cayley, sub)
    for ids in (g.h_elements, [g.identity], range(g.order)):
        sub, emb = restricted_group(g, ids)
        assert np.array_equal(sub.cayley, restricted_table_pairwise(g, ids))
        assert (conjugacy_classes(sub, sub.h_elements)
                == conjugacy_classes_pairwise(sub, sub.h_elements))
        assert np.array_equal(mr.groups.verify_embedding(g, sub, emb), emb)


@pytest.mark.parametrize("name", ENTRIES)
def test_group_errors_match_pairwise(name):
    g = mr.catalog_get(name).group
    # realization with one element moved: some product loses its match
    for mats, flags, labels in entry_realizations(name)[:1]:
        mats = np.array(mats)
        mats[-1] = 2.0 * mats[-1]
        want = raised(cayley_from_realization_pairwise, list(mats), flags, labels)
        assert want is not None and want[0] is ValueError
        assert raised(_group_from_realization, mats, flags, labels) == want
    if g.order < 4:
        return
    # not closed: H without its last element (more than half of H cannot be
    # a proper subgroup), or for |H| = 2 the identity plus an order-4 element
    h = g.h_elements.tolist()
    ids = h[:-1] if len(h) > 2 else [g.identity, g.order - 1]
    want = raised(restricted_table_pairwise, g, ids)
    assert want is not None
    assert raised(restricted_group, g, ids) == want
    assert raised(conjugacy_classes, g, ids) == raised(conjugacy_classes_pairwise, g, ids)
    if len(h) > 2:   # the same subset as a subgroup-chain member
        assert not chain_member_closed_pairwise(g.cayley, ids)
        with pytest.raises(NotAGroup, match="is not closed under multiplication"):
            build_group(g.cayley, g.antiunitary, subgroup_chain=[ids])


@pytest.mark.parametrize("name", ENTRIES)
def test_embedding_errors_match_pairwise(name):
    g = mr.catalog_get(name).group
    sub, emb = restricted_group(g, range(g.order))
    for a, b in ((0, 1), (1, g.order - 1), (g.order - 2, g.order - 1)):
        swapped = emb.copy()
        swapped[[a, b]] = swapped[[b, a]]
        want = raised(verify_embedding_pairwise, g, sub, swapped)
        assert raised(mr.groups.verify_embedding, g, sub, swapped) == want


@pytest.mark.parametrize("name", ENTRIES)
def test_associativity_matches_full_scan(name):
    table = mr.catalog_get(name).group.cayley
    n = len(table)
    swap = np.arange(n)
    swap[[1, n - 1]] = swap[[n - 1, 1]]
    # Latin squares all: the permutation checks pass and associativity decides
    variants = [table, table[swap], table[:, swap], swap[table], table[swap][:, swap],
                (table + 1) % n]
    failures = 0
    for t in variants:
        want = associativity_failure_full(t)
        got = raised(build_group, t, np.zeros(n, dtype=int))
        if want is None:
            assert got is None or not got[1].startswith("associativity"), got
        else:
            failures += 1
            assert got == (NotAGroup, f"associativity fails at triple {want}")
    assert failures > 0 or n <= 2
