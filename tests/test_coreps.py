import dataclasses

import numpy as np
import pytest

import magrep as mr
import magrep.reduction
from magrep import io
from magrep.coreps import (
    CoRep,
    conjugate_corep,
    corep_from_matrices,
    direct_sum,
    gauge_transform,
    random_gauge,
    regular_corep,
    restrict_corep,
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
    # the (T, T) relation misses by -I - I, spectral norm 2, and the residual
    # is its Frobenius norm ||-2 I||_F = 2 sqrt(2)
    assert report.relation_residual == pytest.approx(2 * np.sqrt(2), abs=1e-12)


def test_characters_add_under_direct_sum():
    rep = kramers()
    h = rep.group.h_elements
    chi1 = np.einsum("gii->g", rep.matrices[h])
    chi2 = np.einsum("gii->g", direct_sum([rep, rep]).matrices[h])
    assert np.allclose(chi2, 2 * chi1)
    assert chi1[0] == pytest.approx(2.0)


def test_eta0_relation():
    # M(t0) conj(M(t0)) = eta0 M(sigma) with eta0 = omega(t0, t0), which is
    # +-1 when t0^2 = E
    for name, rep_name in [("z2t_kramers", "kramers"), ("z4t", "quaternion"),
                           ("c8t", "complex_pair"), ("c4v_t", "e_half")]:
        rep = mr.catalog_get(name).reps[rep_name]
        g = rep.group
        eta0 = rep.omega(g.t0, g.t0)
        lhs = rep.m(g.t0) @ np.conj(rep.m(g.t0))
        rhs = eta0 * rep.m(g.sigma)
        assert np.abs(lhs - rhs).max() < 1e-12
        if g.sigma == g.identity:
            assert eta0 in (1.0, -1.0)



def test_non_finite_matrices_fail_cleanly():
    # no spectral norm of a NaN matrix converges: the validator reports the
    # co-rep as failing and the factor-system fit refuses it, neither raising
    # LinAlgError
    rep = kramers()
    mats = rep.matrices.copy()
    mats[0, 0, 0] = np.nan
    report = validate_corep(CoRep(group=rep.group, omega=rep.omega, matrices=mats))
    assert not report.passed
    with pytest.raises(InvalidCoRep):
        corep_from_matrices(rep.group, mats)
    omega = rep.omega.values.copy()
    omega[0, 0] = np.inf
    assert not validate_corep(CoRep(group=rep.group, omega=FactorSystem(omega),
                                    matrices=rep.matrices)).passed

def test_overflowing_products_fail_cleanly():
    # finite matrices whose products overflow: inf - inf makes the fitted
    # omega and the residuals NaN, which must fail, not pass unnoticed
    rep = kramers()
    mats = 1e200 * np.array([[[1.0, 1.0], [1.0, -1.0]]] * 2, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        report = validate_corep(CoRep(group=rep.group, omega=rep.omega, matrices=mats))
        assert np.isnan(report.relation_residual) and not report.passed
        with pytest.raises(InvalidCoRep, match=r"at \(E, E\)"):
            corep_from_matrices(rep.group, mats)


def test_gauge_transform_keeps_validation():
    for seed in range(5):
        rep = random_gauge(mr.catalog_get("c4v_t").reps["e_half"], seed=seed)
        report = validate_corep(rep)
        assert report.passed
        cocycle = mr.validate_cocycle(rep.group, rep.omega)
        assert cocycle.passed


@pytest.mark.parametrize("bad", [np.nan, 1.5], ids=["nan", "modulus"])
def test_gauge_transform_refuses_a_phase_off_the_unit_circle(bad):
    # a NaN phase would give NaN matrices and NaN residual bounds
    rep = mr.catalog_get("c4v_t").reps["e_half"]
    phases = np.ones(rep.group.order, dtype=complex)
    phases[3] = bad
    with pytest.raises(InvalidCoRep, match="unit modulus"):
        gauge_transform(rep, phases)


def test_conjugate_corep_preserves_relation():
    rep = kramers()
    u = random_unitary(2, 3)
    rotated = conjugate_corep(rep, u)
    assert validate_corep(rotated).passed
    # characters of the unitary part are basis independent
    h = rep.group.h_elements
    assert np.allclose(np.einsum("gii->g", rotated.matrices[h]),
                       np.einsum("gii->g", rep.matrices[h]))


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
    # factor systems 2e-6 apart: within numpy's default relative tolerance,
    # but the sum would silently keep only the first one
    e_half = mr.catalog_get("c4v_t").reps["e_half"]
    phases = np.ones(e_half.group.order, dtype=complex)
    phases[3] = np.exp(1e-6j)
    nudged = gauge_transform(e_half, phases)
    gap = np.abs(nudged.omega.values - e_half.omega.values).max()
    assert 1e-6 < gap < 3e-6
    with pytest.raises(InvalidCoRep, match="common factor system"):
        direct_sum([e_half, nudged])


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


@pytest.mark.parametrize("name", [*mr.catalog_list(), "oht"])
def test_regular_corep_of_a_magnetic_group_obeys_the_twisted_rule(name, oht):
    # M(g)_{ab} = omega(g, b) delta(a, g b) for anti-unitary g as well: the
    # fit reads back every factor system it was built with, the trivial one
    # included, and the products hold to within d ulps
    if name == "oht":   # the order-96 fit dominates the test: the spinor class only
        group = oht["group"]
        omegas = [corep_from_matrices(group, oht["coreps"]["spinor"]).omega]
    else:
        entry = mr.catalog_get(name)
        group = entry.group
        omegas = [FactorSystem.trivial(group.order), *entry.omega_classes.values()]
    assert group.is_magnetic
    eps = np.finfo(float).eps
    for omega in omegas:
        reg = regular_corep(group, omega)
        fit = corep_from_matrices(group, reg.matrices)
        assert np.abs(fit.omega.values - omega.values).max() <= 4 * eps
        # the fit carries validate_corep's residuals; below order 96 they are
        # also measured from scratch
        assert max(fit.residuals) <= reg.dim * eps
        if name != "oht":
            report = validate_corep(reg)
            assert max(report.unitarity_residual, report.relation_residual) <= reg.dim * eps


def test_regular_corep_of_unitary_group():
    entry = mr.catalog_get("c4v_t")
    h_rep, _ = restrict_corep(entry.reps["a1"], entry.group.h_elements)
    reg = regular_corep(h_rep.group)
    assert validate_corep(reg).passed
    chi = np.einsum("gii->g", reg.matrices)
    assert chi[0] == pytest.approx(8.0)
    assert np.abs(chi[1:]).max() < 1e-12


KRAMERS = mr.catalog_get("z2t_kramers").reps["kramers"]
C4V_T = mr.catalog_get("c4v_t").reps["e"]
DIM_ZERO = np.zeros((C4V_T.group.order, 0, 0))   # one 0 x 0 matrix per element


@pytest.mark.parametrize("call, error", [
    (lambda: CoRep(group=KRAMERS.group, omega=KRAMERS.omega, matrices=KRAMERS.matrices[0]),
     DimensionMismatch),
    (lambda: CoRep(group=KRAMERS.group, omega=KRAMERS.omega, matrices=KRAMERS.matrices[:1]),
     DimensionMismatch),
    (lambda: CoRep(group=KRAMERS.group, omega=KRAMERS.omega,
                   matrices=KRAMERS.matrices[:, :, :1]), DimensionMismatch),
    (lambda: CoRep(group=KRAMERS.group, omega=FactorSystem.trivial(3),
                   matrices=KRAMERS.matrices), DimensionMismatch),
    (lambda: CoRep(group=C4V_T.group, omega=C4V_T.omega, matrices=DIM_ZERO), DimensionMismatch),
    (lambda: corep_from_matrices(KRAMERS.group, KRAMERS.matrices[:1]), DimensionMismatch),
    (lambda: corep_from_matrices(C4V_T.group, DIM_ZERO), DimensionMismatch),
    (lambda: direct_sum([]), ValueError),
    (lambda: gauge_transform(KRAMERS, [1.0]), DimensionMismatch),
], ids=["matrices-not-3d", "matrix-count", "matrices-not-square", "omega-size",
        "dimension-zero", "fit-matrix-count", "fit-dimension-zero", "empty-direct-sum",
        "gauge-phase-count"])
def test_every_corep_boundary_refusal(call, error):
    with pytest.raises(error):
        call()


def test_gauge_transform_of_a_co_rep_without_residuals_carries_none():
    rep = CoRep(group=KRAMERS.group, omega=KRAMERS.omega, matrices=KRAMERS.matrices.copy())
    gauged = gauge_transform(rep, [1.0, 1j])
    assert gauged.residuals is None
    assert np.array_equal(gauged.matrices, [rep.matrices[0], 1j * rep.matrices[1]])
    assert validate_corep(gauged).passed


# -- residuals carried from the boundary -------------------------------------------

def count_validations(monkeypatch):
    """Calls of validate_corep made by reduce_corep, recorded per co-rep."""
    calls = []
    real = magrep.reduction.validate_corep

    def counting(rep, tol=1e-9):
        calls.append(rep)
        return real(rep, tol)

    monkeypatch.setattr(magrep.reduction, "validate_corep", counting)
    return calls


def bare(rep):
    return CoRep(group=rep.group, omega=rep.omega, matrices=rep.matrices.copy())


def test_reduce_validates_only_inputs_without_bounds(monkeypatch):
    calls = count_validations(monkeypatch)
    entry = mr.catalog_get("c4v_t")
    pair = direct_sum([entry.reps["e_half"], entry.reps["e_half"]])
    mixed = random_gauge(conjugate_corep(pair, random_unitary(4, 3)), 4)
    halving, _ = restrict_corep(mixed, mixed.group.h_elements)
    derived = [entry.reps["e"], mixed, halving]
    decs = [mr.reduce_corep(rep, seed=2) for rep in derived]
    assert calls == []
    for rep, dec in zip(derived, decs):
        again = mr.reduce_corep(bare(rep), seed=2)
        assert calls[-1].residuals is None
        assert again.block_dims == dec.block_dims
        assert [b.torsion for b in again.blocks] == [b.torsion for b in dec.blocks]
        assert np.array_equal(again.basis, dec.basis)
    assert len(calls) == len(derived)


def test_loose_bound_falls_back_to_full_validation(monkeypatch):
    calls = count_validations(monkeypatch)
    kram = direct_sum([kramers(), kramers()])
    # a basis change 0.1% off unitarity: the bound admits it is not a co-rep
    skewed = conjugate_corep(kram, 1.001 * random_unitary(4, 6))
    assert min(skewed.residuals) > 1e-3
    report = validate_corep(bare(skewed))
    want = (f"input fails validation: unitarity {report.unitarity_residual:.3e}, "
            f"relation {report.relation_residual:.3e}")
    for rep in (skewed, bare(skewed)):
        with pytest.raises(InvalidCoRep) as err:
            mr.reduce_corep(rep)
        assert str(err.value) == want
    assert len(calls) == 2
    # a valid co-rep whose bound is loose is validated, then reduced
    loose = conjugate_corep(kram, random_unitary(4, 6))
    loose.residuals = (1e-3, 1e-3)
    assert mr.reduce_corep(loose).block_dims == [2, 2]
    assert calls[-1] is loose


def test_only_magrep_constructors_set_residuals():
    kram = kramers()
    assert kram.residuals is not None
    u = random_unitary(4, 5)
    doubled = direct_sum([kram, kram])
    assert conjugate_corep(doubled, u).residuals is not None
    # projecting onto a subspace does not check that it is invariant
    assert conjugate_corep(conjugate_corep(doubled, u), u.conj().T[:, 2:]).residuals is None
    assert dataclasses.replace(kram).residuals is None
    assert dataclasses.replace(kram, matrices=kram.matrices * 2).residuals is None
    assert bare(kram).residuals is None
    assert direct_sum([kram, bare(kram)]).residuals is None
    assert io.load_corep(io.corep_to_dict(kram), kram.group, kram.omega).residuals is None
    c4v_t = mr.catalog_get("c4v_t")
    h_rep, _ = restrict_corep(c4v_t.reps["a1"], c4v_t.group.h_elements)
    assert regular_corep(h_rep.group).residuals is None
    assert "residuals" not in repr(kram)


def test_in_place_write_to_a_carrying_corep_raises():
    e_half = mr.catalog_get("c4v_t").reps["e_half"]
    for rep in (e_half, random_gauge(conjugate_corep(e_half, random_unitary(2, 1)), 2),
                direct_sum([e_half, e_half]), restrict_corep(e_half, [0, 1, 2, 3])[0]):
        with pytest.raises(ValueError, match="read-only"):
            rep.matrices[0, 0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            rep.omega.values[0, 0] = 2.0
    # assigning a field drops the bounds, so the input is validated again
    rep = conjugate_corep(e_half, random_unitary(2, 1))
    rep.matrices = 1.5 * rep.matrices
    assert rep.residuals is None
    with pytest.raises(InvalidCoRep, match="input fails validation"):
        mr.reduce_corep(rep)
    # the caller's own array is copied, not frozen
    mats = e_half.matrices.copy()
    rep = corep_from_matrices(e_half.group, mats)
    mats[0] = 0.0
    assert np.array_equal(rep.matrices, e_half.matrices)
