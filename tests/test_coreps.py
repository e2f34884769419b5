import numpy as np
import pytest

import magrep as mr
from magrep.coreps import (
    CoRep,
    character,
    conjugate_corep,
    corep_from_matrices,
    direct_sum,
    random_gauge,
    regular_corep,
    unitary_restriction,
    validate_corep,
)
from magrep.errors import DimensionMismatch, InvalidCoRep
from magrep.groups import FactorSystem, build_group
from magrep.linalg import random_unitary

SY = np.array([[0, -1j], [1j, 0]])
ISY = 1j * SY


def kramers():
    return mr.catalog_get("z2t_kramers").reps["kramers"]


def test_trivial_rep_validates():
    g = build_group([[0]], [0])
    rep = CoRep(group=g, omega=FactorSystem.trivial(1), matrices=[np.eye(1)])
    report = validate_corep(rep)
    assert report.passed
    assert report.unitarity_residual == 0.0


def test_kramers_relation_exact():
    # (i sy) conj(i sy) = -I matches omega(T,T) = -1 times the identity
    rep = kramers()
    assert rep.omega(1, 1) == pytest.approx(-1.0)
    report = validate_corep(rep)
    assert report.relation_residual < 1e-15


def test_kramers_with_wrong_sign_fails_with_residual_two():
    g = build_group([[0, 1], [1, 0]], [0, 1])
    rep = CoRep(group=g, omega=FactorSystem.trivial(2),
                matrices=[np.eye(2), ISY])
    report = validate_corep(rep)
    assert not report.passed
    # the (T, T) relation misses by || -I - I || = 2
    assert report.relation_residual == pytest.approx(2.0, abs=1e-12)


def test_characters_add_under_direct_sum():
    rep = kramers()
    chi1 = character(rep).values
    chi2 = character(direct_sum([rep, rep])).values
    assert np.allclose(chi2, 2 * chi1)
    assert chi1[0] == pytest.approx(2.0)


def test_eta0_relation():
    # M(t0) conj(M(t0)) = eta0 M(sigma), with eta0 = +-1 when t0^2 = E
    for name, rep_name in [("z2t_kramers", "kramers"), ("z4t", "quaternion"),
                           ("c8t", "complex_pair"), ("c4v_t", "e_half")]:
        rep = mr.catalog_get(name).reps[rep_name]
        g = rep.group
        lhs = rep.m(g.t0) @ np.conj(rep.m(g.t0))
        rhs = rep.eta0 * rep.m(g.sigma)
        assert np.abs(lhs - rhs).max() < 1e-12
        if g.sigma == g.identity:
            assert rep.eta0 in (1.0, -1.0)


def test_gauge_transform_keeps_validation():
    for seed in range(5):
        rep = random_gauge(mr.catalog_get("c4v_t").reps["e_half"], seed=seed)
        report = validate_corep(rep)
        assert report.passed
        cocycle = mr.validate_cocycle(rep.group, rep.omega)
        assert cocycle.passed


def test_conjugate_corep_preserves_relation():
    rep = kramers()
    u = random_unitary(2, 3)
    rotated = conjugate_corep(rep, u)
    assert validate_corep(rotated).passed
    # characters of the unitary part are basis independent
    assert np.allclose(character(rotated).values, character(rep).values)


def test_corep_from_matrices_rejects_non_scalar_products():
    g = build_group([[0, 1], [1, 0]], [0, 0])
    # M(1)^2 = diag(1, exp(2 pi i / 3)) is unitary but not proportional to M(0)
    bad = [np.eye(2), np.diag([1.0, np.exp(1j * np.pi / 3)])]
    with pytest.raises(InvalidCoRep):
        corep_from_matrices(g, bad)


def test_direct_sum_needs_matching_omega():
    z2t = mr.catalog_get("z2t").reps["trivial"]
    kram = kramers()
    with pytest.raises(InvalidCoRep):
        direct_sum([kram, CoRep(group=kram.group,
                                omega=FactorSystem.trivial(2),
                                matrices=[np.eye(1), np.eye(1)])])
    both = direct_sum([z2t, z2t])
    assert both.dim == 2


def test_direct_sum_needs_matching_flags():
    # same Cayley table, but element 1 is unitary in one group and
    # anti-unitary in the other
    z2 = build_group([[0, 1], [1, 0]], [0, 0])
    sign = CoRep(group=z2, omega=FactorSystem.trivial(2),
                 matrices=[np.eye(1), -np.eye(1)])
    with pytest.raises(DimensionMismatch):
        direct_sum([mr.catalog_get("z2t").reps["trivial"], sign])


def test_apply_batches_over_element_ids():
    rep = mr.catalog_get("c4v_t").reps["e_half"]
    x = random_unitary(2, 1)
    stack = np.stack([x, x.T])
    ids = np.arange(rep.group.order)
    batched = rep.apply(ids, stack)
    assert batched.shape == (rep.group.order, 2, 2, 2)
    for g in ids:
        for k in range(2):
            assert np.allclose(batched[g, k], rep.apply(int(g), stack[k]))


def test_conjugate_corep_onto_invariant_subspace():
    kram = kramers()
    u = random_unitary(4, 5)
    mixed = conjugate_corep(direct_sum([kram, kram]), u)
    block = conjugate_corep(mixed, u.conj().T[:, 2:])
    assert block.dim == 2
    assert np.allclose(block.matrices, kram.matrices)


def test_regular_corep_of_unitary_group():
    entry = mr.catalog_get("c4v_t")
    h_rep, _ = unitary_restriction(entry.reps["a1"])
    reg = regular_corep(h_rep.group)
    assert validate_corep(reg).passed
    chi = character(reg).values
    assert chi[0] == pytest.approx(8.0)
    assert np.abs(chi[1:]).max() < 1e-12
