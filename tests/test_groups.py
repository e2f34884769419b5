import numpy as np
import pytest

import magrep as mr
from magrep.errors import (
    ElementNotInSubgroup,
    FlagInconsistent,
    NoHalvingSubgroup,
    NoT0,
    NotAGroup,
    NotASubgroupEmbedding,
)
from magrep.groups import (
    FactorSystem,
    build_group,
    conjugacy_classes,
    restricted_group,
    validate_cocycle,
)

Z2T_CAYLEY = [[0, 1], [1, 0]]


def element_order_bruteforce(cayley, identity, g):
    acc, k = g, 1
    while acc != identity:
        acc = cayley[acc][g]
        k += 1
    return k


def test_trivial_group():
    g = build_group([[0]], [0])
    assert g.order == 1
    assert g.t0 is None
    assert not g.is_magnetic
    assert conjugacy_classes(g, g.h_elements) == ((0,),)


def test_z2t_structure():
    g = build_group(Z2T_CAYLEY, [0, 1], labels=["E", "T"])
    assert g.t0 == 1
    assert list(g.h_elements) == [0]
    assert g.sigma == 0
    assert g.element_order[1] == 2


def test_z4t_t0_selected_by_order():
    # brute-force the element orders through the table, then check the pick
    cayley = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
    flags = [0, 0, 1, 1]
    g = build_group(cayley, flags)
    for e in range(4):
        assert g.element_order[e] == element_order_bruteforce(cayley, 0, e)
    anti_orders = {e: element_order_bruteforce(cayley, 0, e) for e in (2, 3)}
    assert anti_orders == {2: 4, 3: 4}
    assert g.t0 == 2          # tie on order, lowest id wins
    assert g.sigma == 1       # type-II: t0^2 is not the identity
    assert g.s(g.sigma) == 0


def test_not_a_group_detected():
    with pytest.raises(NotAGroup):
        build_group([[0, 0], [1, 1]], [0, 0])        # rows not permutations
    with pytest.raises(NotAGroup):
        # subtraction mod 3: a latin square with no two-sided identity
        build_group([[0, 1, 2], [2, 0, 1], [1, 2, 0]], [0, 0, 0])
    bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]          # latin square, not associative
    with pytest.raises(NotAGroup):
        build_group(bad, [0, 0, 0])


def test_identity_need_not_be_id_zero():
    g = build_group([[1, 0], [0, 1]], [0, 0])        # Z2 with identity at index 1
    assert g.identity == 1


def test_flag_errors():
    with pytest.raises(FlagInconsistent):
        build_group(Z2T_CAYLEY, [1, 0])              # s(E) = 1 breaks the xor rule
    cayley4 = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    with pytest.raises(FlagInconsistent):
        build_group(cayley4, [0, 1, 1, 1])


def test_no_halving_subgroup():
    # C3 with a bogus anti-unitary flag pattern cannot split in half
    c3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    with pytest.raises((NoHalvingSubgroup, FlagInconsistent)):
        build_group(c3, [0, 1, 1])


def test_subgroup_chain_validation():
    g = build_group(Z2T_CAYLEY, [0, 1])
    assert g.subgroup_chain == ((0,), (0,))
    entry = mr.catalog_get("c4v_t")
    with pytest.raises(ElementNotInSubgroup):
        build_group(entry.group.cayley, entry.group.antiunitary,
                    subgroup_chain=[[0, entry.group.t0]])


def test_conjugate_by_t0_trivial_cases():
    g = build_group(Z2T_CAYLEY, [0, 1])
    assert g.conjugate_by_t0(0) == 0
    z4 = mr.catalog_get("z4t").group
    for h in z4.h_elements:                          # abelian: conjugation fixes H
        assert z4.conjugate_by_t0(int(h)) == int(h)


def test_conjugate_by_t0_inverts_rotation():
    # anti-unitary mirror times rotation: t0^-1 C4 t0 = C4^-1
    g = mr.catalog_get("c4v_c4").group
    labels = {lab: k for k, lab in enumerate(g.labels)}
    assert g.label(g.t0) == "m0T"
    assert g.conjugate_by_t0(labels["C4"]) == labels["C4^3"]


def test_conjugate_by_t0_is_class_permutation():
    g = mr.catalog_get("c4v_t").group
    images = [g.conjugate_by_t0(int(h)) for h in g.h_elements]
    assert sorted(images) == sorted(int(h) for h in g.h_elements)
    class_of = {}
    for k, cls in enumerate(conjugacy_classes(g, g.h_elements)):
        for h in cls:
            class_of[h] = k
    mapped = {}
    for h in g.h_elements:
        src, dst = class_of[int(h)], class_of[g.conjugate_by_t0(int(h))]
        assert mapped.setdefault(src, dst) == dst    # classes map to whole classes


def test_conjugate_by_t0_requires_t0_and_unitary_argument():
    g = build_group([[0]], [0])
    with pytest.raises(NoT0):
        g.conjugate_by_t0(0)
    z2t = build_group(Z2T_CAYLEY, [0, 1])
    with pytest.raises(ElementNotInSubgroup):
        z2t.conjugate_by_t0(1)


def test_cocycle_trivial_passes_everywhere():
    for name in mr.catalog_list():
        g = mr.catalog_get(name).group
        report = validate_cocycle(g, FactorSystem.trivial(g.order))
        assert report.passed
        assert report.max_violation == 0.0


def test_cocycle_kramers_class_passes():
    g = build_group(Z2T_CAYLEY, [0, 1])
    omega = np.ones((2, 2), dtype=complex)
    omega[1, 1] = -1.0
    report = validate_cocycle(g, FactorSystem(omega))
    assert report.passed


def test_cocycle_quarter_phase_fails_with_violation_two():
    # (T, T, T) gives conj(i) * 1 * 1 * conj(i) = -1, hence |(-1) - 1| = 2
    g = build_group(Z2T_CAYLEY, [0, 1])
    omega = np.ones((2, 2), dtype=complex)
    omega[1, 1] = 1j
    report = validate_cocycle(g, FactorSystem(omega))
    assert not report.passed
    assert report.max_violation == pytest.approx(2.0, abs=1e-12)


def test_cocycle_gauge_covariance():
    rng = np.random.default_rng(4)
    for name in ("z2t_kramers", "c4v_t", "z4t"):
        entry = mr.catalog_get(name)
        g = entry.group
        for omega in entry.omega_classes.values():
            phases = np.exp(2j * np.pi * rng.random(g.order))
            s = g.antiunitary
            ph_b = np.where(s[:, None] == 1, np.conj(phases)[None, :], phases[None, :])
            new = omega.values * phases[:, None] * ph_b / phases[g.cayley]
            report = validate_cocycle(g, FactorSystem(new))
            assert report.passed
            assert report.max_violation < 1e-12


def test_restricted_group_and_embedding():
    g = mr.catalog_get("c4v_t").group
    sub, emb = restricted_group(g, g.h_elements)
    assert sub.order == 8 and not sub.is_magnetic
    mr.groups.verify_embedding(g, sub, emb)
    with pytest.raises(NotASubgroupEmbedding):
        restricted_group(g, [0, 1])  # C4 alone without its powers is not closed
