import numpy as np
import pytest

import magrep as mr
from magrep.coreps import (
    conjugate_corep,
    direct_sum,
    random_gauge,
    regular_corep,
    unitary_restriction,
)
from magrep.errors import ElementNotInSubgroup, NotIrreducible
from magrep.groups import conjugacy_classes
from magrep.kp import ProbeRepAction, linear_multiplicity, multiplicity_value
from magrep.linalg import random_unitary
from magrep.reduction import (
    build_G_commutant,
    build_H_commutant,
    class_operator,
    irreducibility_index,
    reduce_corep,
    torsion_indicator,
    torsion_number,
)
from conftest import (
    catalog_irreps,
    compatible_rep_groups,
    coset_trace_sum,
    irreducibility_index_trace_form,
)


def kramers():
    return mr.catalog_get("z2t_kramers").reps["kramers"]


# -- criterion -----------------------------------------------------------------

def test_kramers_criterion_exact():
    # |H| = 1: (1/2)[ |chi(E)|^2 + omega(T,T) chi(E) ] = (4 - 2) / 2 = 1
    assert irreducibility_index(kramers()) == pytest.approx(1.0, abs=1e-12)


def test_double_kramers_criterion_is_six():
    rep = direct_sum([kramers(), kramers()])
    assert irreducibility_index(rep) == pytest.approx(6.0, abs=1e-12)


def test_identity_rep_of_unitary_group():
    h_rep, _ = unitary_restriction(mr.catalog_get("c4v_t").reps["a1"])
    assert irreducibility_index(h_rep) == pytest.approx(1.0, abs=1e-12)


def test_character_and_trace_forms_agree():
    for name, rep_name, rep in catalog_irreps():
        if not rep.group.is_magnetic:
            continue
        a = irreducibility_index(rep)
        b = irreducibility_index_trace_form(rep)
        assert a == pytest.approx(b, abs=1e-9), (name, rep_name)
        assert torsion_indicator(rep) == pytest.approx(
            coset_trace_sum(rep).real, abs=1e-9), (name, rep_name)


def test_criterion_at_least_one_on_random_sums():
    rng = np.random.default_rng(0)
    for name in ("z4t", "c8t", "c4v_t"):
        entry = mr.catalog_get(name)
        for bucket in compatible_rep_groups(entry):
            reps = [rep for _, rep in bucket]
            k = int(rng.integers(1, 4))
            summands = [reps[int(rng.integers(len(reps)))] for _ in range(k)]
            rep = direct_sum(summands)
            assert irreducibility_index(rep) >= 1.0 - 1e-9


def test_criterion_gauge_and_basis_invariance():
    rep = mr.catalog_get("c4v_t").reps["e_half"]
    base = irreducibility_index(rep)
    for seed in range(5):
        gauged = random_gauge(rep, seed)
        assert irreducibility_index(gauged) == pytest.approx(base, abs=1e-9)
        rotated = conjugate_corep(rep, random_unitary(rep.dim, seed))
        assert irreducibility_index(rotated) == pytest.approx(base, abs=1e-9)


def test_index_is_the_trivial_channel_multiplicity():
    # the index is the shared character sum with unit probe weights, so it
    # counts the Hermitian matrices commuting with the co-rep
    rng = np.random.default_rng(7)
    cases = []
    for name in mr.catalog_list():
        entry = mr.catalog_get(name)
        cases += list(entry.reps.values())
        cases += [unitary_restriction(rep)[0] for rep in entry.reps.values()]
        for bucket in compatible_rep_groups(entry):
            reps = [rep for _, rep in bucket]
            for k in (2, 3):
                cases.append(direct_sum([reps[int(rng.integers(len(reps)))]
                                         for _ in range(k)]))
    for rep in cases:
        rep = random_gauge(conjugate_corep(rep, random_unitary(rep.dim, rng)),
                           int(rng.integers(1 << 30)))
        g = rep.group
        trivial = ProbeRepAction(group=g, d_h=np.ones((len(g.h_elements), 1, 1)),
                                 d_t0=np.eye(1) if g.is_magnetic else None)
        index = irreducibility_index(rep)
        assert multiplicity_value(rep, trivial) == pytest.approx(index, abs=1e-9)
        assert linear_multiplicity(rep, trivial) == round(index)


# -- torsion ---------------------------------------------------------------------

def test_torsion_examples():
    assert torsion_number(mr.catalog_get("z2t").reps["trivial"]) == 1
    assert torsion_number(kramers()) == 4
    assert torsion_number(mr.catalog_get("c8t").reps["complex_pair"]) == 2


def test_torsion_indicator_values():
    # indicator = 2 - R: real 1, complex 0, quaternion -2
    assert torsion_indicator(mr.catalog_get("z2t").reps["trivial"]) == pytest.approx(1.0)
    assert torsion_indicator(kramers()) == pytest.approx(-2.0)
    assert torsion_indicator(
        mr.catalog_get("c8t").reps["complex_pair"]) == pytest.approx(0.0, abs=1e-12)


def test_torsion_judges_at_the_tolerance_it_is_given():
    # scaling by 1 + 1e-8 moves the index to 1 + 1.5e-8: inside the default
    # 1e-6, outside a caller's 1e-9
    rep = mr.catalog_get("c4v_t").reps["e_half"]
    scaled = mr.CoRep(group=rep.group, omega=rep.omega,
                      matrices=(1 + 1e-8) * rep.matrices)
    assert torsion_number(scaled) == torsion_number(rep)
    with pytest.raises(NotIrreducible):
        torsion_number(scaled, tol=1e-9)


def test_torsion_rejects_reducible():
    with pytest.raises(NotIrreducible):
        torsion_number(direct_sum([kramers(), kramers()]))


def test_torsion_matches_restricted_character_norm():
    # R also equals the character norm of the restriction to H
    for name, rep_name, rep in catalog_irreps():
        if not rep.group.is_magnetic:
            continue
        r = torsion_number(rep)
        h_rep, _ = unitary_restriction(rep)
        norm = irreducibility_index(h_rep)
        assert norm == pytest.approx(float(r), abs=1e-9), (name, rep_name)


def test_torsion_gauge_invariance():
    for name, rep_name, rep in catalog_irreps():
        if not rep.group.is_magnetic:
            continue
        r = torsion_number(rep)
        for seed in (1, 2):
            assert torsion_number(random_gauge(rep, seed)) == r


# -- commutants -------------------------------------------------------------------

def test_h_commutant_commutes_and_is_hermitian():
    for name, rep_name, rep in catalog_irreps():
        lam = build_H_commutant(rep, seed=3)
        assert np.abs(lam - lam.conj().T).max() < 1e-12
        for h in rep.group.h_elements:
            assert np.abs(rep.apply(int(h), lam) - lam).max() < 1e-10, (name, rep_name)


def test_h_commutant_schur_on_unitary_irreps():
    h_rep, _ = unitary_restriction(mr.catalog_get("c4v_t").reps["e_half"])
    lam = build_H_commutant(h_rep, seed=1)
    scale = np.trace(lam) / h_rep.dim
    assert np.abs(lam - scale * np.eye(h_rep.dim)).max() < 1e-10


def test_h_commutant_splits_reducible():
    h_rep, _ = unitary_restriction(mr.catalog_get("c4v_t").reps["a1"])
    two = direct_sum([h_rep, conjugate_corep(h_rep, np.eye(1) * 1.0)])
    lam = build_H_commutant(two, seed=2)
    vals = np.linalg.eigvalsh(lam)
    assert abs(vals[0] - vals[1]) > 1e-6


def test_g_commutant_contracts():
    for name, rep_name, rep in catalog_irreps():
        if not rep.group.is_magnetic:
            continue
        com = build_G_commutant(rep, seed=5)
        gamma = com.gamma
        g = rep.group
        assert np.abs(gamma - gamma.conj().T).max() < 1e-12
        for h in g.h_elements:
            assert np.abs(rep.apply(int(h), gamma) - gamma).max() < 1e-10
        assert np.abs(rep.apply(g.t0, gamma) - gamma).max() < 1e-10
        # irreducible input: anti-unitary Schur forces gamma ~ identity
        scale = np.trace(gamma) / rep.dim
        assert np.abs(gamma - scale * np.eye(rep.dim)).max() < 1e-9, (name, rep_name)


def test_g_commutant_with_identity_lambda():
    rep = kramers()
    mt = rep.m(rep.group.t0)
    gamma = np.eye(2) + mt @ np.conj(np.eye(2)) @ mt.conj().T
    assert np.allclose(gamma, 2 * np.eye(2))


def test_g_commutant_splits_inequivalent_sum():
    entry = mr.catalog_get("z4t")
    rep = direct_sum([entry.reps["scalar"], entry.reps["scalar"],
                      entry.reps["quaternion"]])
    com = build_G_commutant(rep, seed=8)
    vals = np.linalg.eigvalsh(com.gamma)
    assert len(np.unique(np.round(vals, 6))) >= 2


# -- class operators ----------------------------------------------------------------

def test_class_operator_identity_class():
    rep = mr.catalog_get("c4v_t").reps["e_half"]
    sub = [int(h) for h in rep.group.h_elements]
    c = class_operator(rep, rep.group.identity, sub)
    assert np.allclose(c, len(sub) * rep.m(rep.group.identity))


def test_class_operator_abelian_linear():
    rep = mr.catalog_get("c8t").reps["complex_pair"]
    sub = [int(h) for h in rep.group.h_elements]
    for h in sub:
        c = class_operator(rep, h, sub)
        assert np.allclose(c, len(sub) * rep.m(h), atol=1e-12)


def test_class_operator_commutes_with_subgroup():
    rep = mr.catalog_get("c4v_t").reps["e_half"]   # projective: phases must cancel
    sub = [int(h) for h in rep.group.h_elements]
    for cls in conjugacy_classes(rep.group, rep.group.h_elements):
        c = class_operator(rep, cls[0], sub)
        for h in sub:
            mh = rep.m(h)
            assert np.abs(mh @ c @ mh.conj().T - c).max() < 1e-10


def test_class_operator_membership_errors():
    rep = kramers()
    with pytest.raises(ElementNotInSubgroup):
        class_operator(rep, 1, [0])            # anti-unitary element
    with pytest.raises(ElementNotInSubgroup):
        class_operator(rep, 0, [0, 1])


# -- reduction ------------------------------------------------------------------------

def test_reduce_already_irreducible():
    dec = reduce_corep(kramers(), seed=0)
    assert dec.block_dims == [2]
    assert dec.blocks[0].torsion == 4


def test_reduce_two_kramers_roundtrip():
    rep = conjugate_corep(direct_sum([kramers(), kramers()]), random_unitary(4, 9))
    dec = reduce_corep(rep, seed=1)
    assert sorted(dec.block_dims) == [2, 2]
    assert dec.residuals["block_diagonality"] < 1e-8
    for b in dec.blocks:
        assert b.index == pytest.approx(1.0, abs=1e-8)
        assert b.torsion == 4


def test_reduce_regular_rep_unitary_pipeline():
    # multiplicities in the regular rep equal the irrep dimensions, and the
    # square dims of the planar 4-fold group are 1,1,1,1,2
    entry = mr.catalog_get("c4v_t")
    h_rep, _ = unitary_restriction(entry.reps["a1"])
    reg = regular_corep(h_rep.group)
    dec = reduce_corep(reg, seed=4)
    assert sorted(dec.block_dims) == [1, 1, 1, 1, 2, 2]
    assert all(b.torsion is None for b in dec.blocks)


def test_reduce_mixed_torsions():
    entry = mr.catalog_get("z4t")
    rep = direct_sum([entry.reps["scalar"], entry.reps["quaternion"]])
    dec = reduce_corep(conjugate_corep(rep, random_unitary(3, 4)), seed=6)
    assert sorted(dec.block_dims) == [1, 2]
    assert sorted(str(b.torsion) for b in dec.blocks) == ["1", "4"]


def test_reduce_seed_independent_multiset():
    entry = mr.catalog_get("c8t")
    rep = direct_sum([entry.reps["complex_pair"], entry.reps["trivial"],
                      entry.reps["complex_pair"]])
    rep = conjugate_corep(rep, random_unitary(5, 13))
    dims = [sorted(reduce_corep(rep, seed=s).block_dims) for s in (0, 1, 7)]
    assert dims[0] == dims[1] == dims[2] == [1, 2, 2]


def test_reduce_quaternion_block_has_doubled_restriction():
    rep = mr.catalog_get("z4t").reps["quaternion"]
    h_rep, _ = unitary_restriction(rep)
    dec = reduce_corep(h_rep, seed=2)
    assert sorted(dec.block_dims) == [1, 1]
    b0, b1 = dec.blocks
    # identical copies: equal characters blockwise after the change of basis
    rot = dec.basis.conj().T @ h_rep.matrices @ dec.basis
    chi_a = [np.trace(rot[h, b0.start:b0.stop, b0.start:b0.stop]) for h in range(2)]
    chi_b = [np.trace(rot[h, b1.start:b1.stop, b1.start:b1.stop]) for h in range(2)]
    assert np.allclose(chi_a, chi_b, atol=1e-9)


def test_reduce_with_custom_subgroup_chain():
    entry = mr.catalog_get("c4v_t")
    g = entry.group
    labels = {lab: k for k, lab in enumerate(g.labels)}
    chain = [[labels["E"], labels["C2"]],
             [labels["E"], labels["C4"], labels["C2"], labels["C4^3"]],
             [int(h) for h in g.h_elements]]
    refined = mr.build_group(g.cayley, g.antiunitary, labels=g.labels,
                             subgroup_chain=chain)
    rep = entry.reps["e_half"]
    rep = mr.CoRep(group=refined, omega=rep.omega, matrices=rep.matrices)
    mixed = conjugate_corep(direct_sum([rep, rep]), random_unitary(4, 17))
    dec = reduce_corep(mixed, seed=5)
    assert sorted(dec.block_dims) == [2, 2]
    assert sum(n.startswith("class_ops") for n in dec.label_names) == 3


def test_reduce_projective_regular_rep():
    # with the spinful cocycle the fourfold planar group has two 2-dim
    # projective irreps (sum of squared dims = |H| = 8), each appearing with
    # multiplicity equal to its dimension in the regular rep
    h_rep, _ = unitary_restriction(mr.catalog_get("c4v_t").reps["e_half"])
    reg = regular_corep(h_rep.group, h_rep.omega)
    dec = reduce_corep(reg, seed=0)
    assert sorted(dec.block_dims) == [2, 2, 2, 2]
    assert sum(dec.block_dims) == reg.dim
