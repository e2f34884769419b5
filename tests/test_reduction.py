import numpy as np
import pytest

import magrep as mr
from magrep import reduction
from magrep.coreps import (
    conjugate_corep,
    corep_from_matrices,
    direct_sum,
    random_gauge,
    regular_corep,
    restrict_corep,
)
from magrep.errors import InvalidCoRep, NonIntegerMultiplicity, NoT0, NotIrreducible
from magrep.groups import conjugacy_classes
from magrep.kp import ProbeRepAction, linear_multiplicity, multiplicity_value
from magrep.linalg import random_unitary
from magrep.reduction import (
    build_G_commutant,
    build_H_commutant,
    combined_class_operator,
    criterion_sums,
    irreducibility_index,
    reduce_corep,
    torsion_number,
)
from conftest import (
    catalog_irreps,
    class_operator,
    compatible_rep_groups,
    coset_trace_sum,
    irreducibility_index_trace_form,
    reduce_once_two_pass,
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
    entry = mr.catalog_get("c4v_t")
    h_rep, _ = restrict_corep(entry.reps["a1"], entry.group.h_elements)
    assert irreducibility_index(h_rep) == pytest.approx(1.0, abs=1e-12)


def test_character_and_trace_forms_agree():
    for name, rep_name, rep in catalog_irreps():
        if not rep.group.is_magnetic:
            continue
        a = irreducibility_index(rep)
        b = irreducibility_index_trace_form(rep)
        assert a == pytest.approx(b, abs=1e-9), (name, rep_name)
        coset = criterion_sums(rep, np.ones(rep.group.order))[1]
        assert coset == pytest.approx(coset_trace_sum(rep), abs=1e-9), (name, rep_name)


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
        cases += [restrict_corep(rep, rep.group.h_elements)[0] for rep in entry.reps.values()]
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


def test_criterion_sums_take_a_stack_of_weight_rows():
    rng = np.random.default_rng(3)
    for _, _, rep in catalog_irreps():
        weights = rng.standard_normal((2, 3, rep.group.order))
        unitary, coset = criterion_sums(rep, weights)
        assert unitary.shape == coset.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            u, c = criterion_sums(rep, weights[idx])
            assert abs(unitary[idx] - u) <= 1e-12 and abs(coset[idx] - c) <= 1e-12
        # one row: the coset sum over |H| as Python divides a complex, bit for bit
        g, w = rep.group, weights[0, 0]
        chi = np.einsum("gii->g", rep.matrices)
        cos = g.coset_elements
        total = np.sum(w[cos] * rep.omega.values[cos, cos] * chi[g.cayley[cos, cos]])
        assert criterion_sums(rep, w)[1] == complex(total) / g.halving_order


# -- torsion ---------------------------------------------------------------------

def test_torsion_examples():
    assert torsion_number(mr.catalog_get("z2t").reps["trivial"]) == 1
    assert torsion_number(kramers()) == 4
    assert torsion_number(mr.catalog_get("c8t").reps["complex_pair"]) == 2


def test_torsion_indicator_values():
    # indicator = 2 - R: real 1, complex 0, quaternion -2; it is the coset
    # sum of the criterion
    def indicator(rep):
        return criterion_sums(rep, np.ones(rep.group.order))[1]

    assert indicator(mr.catalog_get("z2t").reps["trivial"]) == pytest.approx(1.0)
    assert indicator(kramers()) == pytest.approx(-2.0)
    assert indicator(mr.catalog_get("c8t").reps["complex_pair"]) == pytest.approx(0.0, abs=1e-12)


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


def test_torsion_of_a_unitary_group_has_no_t0():
    rep = mr.catalog_get("z2t").reps["trivial"]
    h_rep, _ = restrict_corep(rep, rep.group.h_elements)
    assert irreducibility_index(h_rep) == pytest.approx(1.0)
    with pytest.raises(NoT0):
        torsion_number(h_rep)


def test_torsion_rejects_a_nan_criterion():
    # a NaN entry makes the criterion NaN, which must not pass as 1
    rep = kramers()
    matrices = rep.matrices.copy()
    matrices[rep.group.identity, 0, 0] = np.nan
    bad = mr.CoRep(group=rep.group, omega=rep.omega, matrices=matrices)
    assert np.isnan(irreducibility_index(bad))
    with pytest.raises(NotIrreducible, match="criterion is nan"):
        torsion_number(bad)


def test_torsion_matches_restricted_character_norm():
    # R also equals the character norm of the restriction to H
    for name, rep_name, rep in catalog_irreps():
        if not rep.group.is_magnetic:
            continue
        r = torsion_number(rep)
        h_rep, _ = restrict_corep(rep, rep.group.h_elements)
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
    entry = mr.catalog_get("c4v_t")
    h_rep, _ = restrict_corep(entry.reps["e_half"], entry.group.h_elements)
    lam = build_H_commutant(h_rep, seed=1)
    scale = np.trace(lam) / h_rep.dim
    assert np.abs(lam - scale * np.eye(h_rep.dim)).max() < 1e-10


def test_h_commutant_splits_reducible():
    entry = mr.catalog_get("c4v_t")
    h_rep, _ = restrict_corep(entry.reps["a1"], entry.group.h_elements)
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


def test_g_commutant_of_a_unitary_group_is_its_h_commutant():
    entry = mr.catalog_get("c4v_t")
    h_rep, _ = restrict_corep(entry.reps["e"], entry.group.h_elements)
    com = build_G_commutant(h_rep, seed=4)
    assert com.gamma is com.lam
    assert np.array_equal(com.lam, build_H_commutant(h_rep, seed=4))


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


# -- reduction ------------------------------------------------------------------------

@pytest.mark.parametrize("name, want", [
    ("c4v_t", ["class_ops_subgroup_8", "energy", "multiplet_split"]),
    ("z2t", ["energy", "multiplet_split"]),   # |H| = 1: no class operator labels
])
def test_blocks_are_labelled_by_the_class_operators_of_h(name, want):
    for rep in mr.catalog_get(name).reps.values():
        dec = reduce_corep(direct_sum([rep, rep]), seed=0)
        assert dec.label_names == want
        assert all(b.labels.shape == (b.dim, len(want)) for b in dec.blocks)


def test_a_non_real_criterion_is_refused_on_both_paths():
    # T^2 = -1 with omega(T, T) off by a phase: the coset sum leaves the real axis
    entry = mr.catalog_get("z2t_kramers")
    rep = entry.reps["kramers"]
    t = rep.group.t0
    values = rep.omega.values.copy()
    values[t, t] *= np.exp(0.3j)
    bad = mr.CoRep(group=rep.group, omega=mr.FactorSystem(values), matrices=rep.matrices)
    with pytest.raises(InvalidCoRep, match="criterion came out non-real"):
        irreducibility_index(bad)
    with pytest.raises(NonIntegerMultiplicity, match="criterion came out non-real"):
        multiplicity_value(bad, entry.probe_actions["momentum"])


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
    h_rep, _ = restrict_corep(entry.reps["a1"], entry.group.h_elements)
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
    h_rep, _ = restrict_corep(rep, rep.group.h_elements)
    dec = reduce_corep(h_rep, seed=2)
    assert sorted(dec.block_dims) == [1, 1]
    b0, b1 = dec.blocks
    # identical copies: equal characters blockwise after the change of basis
    rot = dec.basis.conj().T @ h_rep.matrices @ dec.basis
    chi_a = [np.trace(rot[h, b0.start:b0.stop, b0.start:b0.stop]) for h in range(2)]
    chi_b = [np.trace(rot[h, b1.start:b1.stop, b1.start:b1.stop]) for h in range(2)]
    assert np.allclose(chi_a, chi_b, atol=1e-9)


def test_reduce_projective_regular_rep():
    # with the spinful cocycle the fourfold planar group has two 2-dim
    # projective irreps (sum of squared dims = |H| = 8), each appearing with
    # multiplicity equal to its dimension in the regular rep
    entry = mr.catalog_get("c4v_t")
    h_rep, _ = restrict_corep(entry.reps["e_half"], entry.group.h_elements)
    reg = regular_corep(h_rep.group, h_rep.omega)
    dec = reduce_corep(reg, seed=0)
    assert sorted(dec.block_dims) == [2, 2, 2, 2]
    assert sum(dec.block_dims) == reg.dim


# -- parity with the two-pass labelling -------------------------------------------

OHT_SUMS = (("vector", "vector"), ("spinor", "gamma8"), ("quaternion", "quaternion"),
            ("spinor", "spinor", "gamma8", "gamma8"))


def _rotated(rep, rng):
    rep = conjugate_corep(rep, random_unitary(rep.dim, rng))
    return random_gauge(rep, int(rng.integers(1 << 30)))


def reduction_inputs(source, oht):
    """Direct sums, plain and rotated + gauged, and halvings or lowerings of
    rotated co-reps: of one catalog entry, or of the order-96 group."""
    rng = np.random.default_rng(11)
    if source == "oht":
        g = oht["group"]
        reps = {r: corep_from_matrices(g, m) for r, m in oht["coreps"].items()}
        sums = [direct_sum([reps[p] for p in parts]) for parts in OHT_SUMS]
        lowerings = list(oht["lowerings"].values())
    else:
        entry = mr.catalog_get(source)
        g, reps = entry.group, entry.reps
        sums = [direct_sum([rep for _, rep in bucket + bucket[:1]])
                for bucket in compatible_rep_groups(entry)]
        lowerings = [g.h_elements] if g.is_magnetic else []
    cases = [rep for s in sums for rep in (s, _rotated(s, rng))]
    for rep in reps.values():
        rotated = _rotated(rep, rng)
        cases += [restrict_corep(rotated, ids)[0] for ids in lowerings]
    return cases


def _same_label_multiset(a, b, tol):
    """Rows of a and b pair up with equal NaN patterns and the other entries
    within tol."""
    rest = list(b)
    for row in a:
        for k, other in enumerate(rest):
            nan = np.isnan(row)
            if (nan == np.isnan(other)).all() and (np.abs(row - other)[~nan] <= tol).all():
                del rest[k]
                break
        else:
            return False
    return not rest


@pytest.mark.parametrize("source", [*mr.catalog_list(), "oht"])
def test_reduction_matches_the_two_pass_labelling(source, oht, monkeypatch):
    for rep in reduction_inputs(source, oht):
        for seed in (0, 7):
            new = reduce_corep(rep, seed=seed)
            with monkeypatch.context() as m:
                m.setattr(reduction, "_reduce_once", reduce_once_two_pass)
                old = reduce_corep(rep, seed=seed)
            assert new.block_dims == old.block_dims
            assert new.seeds_used == old.seeds_used
            assert new.label_names == old.label_names
            assert max(new.residuals.values()) <= 1e-8
            for b, ob in zip(new.blocks, old.blocks):
                assert b.torsion == ob.torsion
                assert b.index == pytest.approx(ob.index, abs=1e-12)
                assert b.energy == pytest.approx(ob.energy, abs=1e-9)
                assert _same_label_multiset(b.labels, ob.labels, 1e-9)


def test_a_collided_first_seed_retries_like_the_two_pass_labelling(monkeypatch):
    # a scalar lam on the first seed puts both copies in one gamma eigenspace
    build = reduction.build_H_commutant
    monkeypatch.setattr(reduction, "build_H_commutant", lambda rep, seed: (
        3.0 * np.eye(rep.dim) if seed == 0 else build(rep, seed)))
    rep = mr.catalog_get("c4v_t").reps["e_half"]
    rep = conjugate_corep(direct_sum([rep, rep]), random_unitary(4, 2))
    new = reduce_corep(rep, seed=0)
    monkeypatch.setattr(reduction, "_reduce_once", reduce_once_two_pass)
    old = reduce_corep(rep, seed=0)
    assert len(new.seeds_used) == 2 and new.seeds_used == old.seeds_used
    assert new.block_dims == old.block_dims == [2, 2]


@pytest.mark.parametrize("source", [*mr.catalog_list(), "oht"])
def test_combined_class_operator_is_the_sum_of_class_operators(source, oht):
    if source == "oht":
        g = oht["group"]
        reps = [corep_from_matrices(g, m) for m in oht["coreps"].values()]
        reps += [restrict_corep(rep, ids)[0]   # the H of each lowering
                 for rep in reps for ids in oht["lowerings"].values()]
    else:
        reps = list(mr.catalog_get(source).reps.values())
    for rep in reps:
        h = rep.group.h_elements
        classes = conjugacy_classes(rep.group, h)
        coeff = np.random.default_rng(5).standard_normal(len(classes))
        want = sum(r * class_operator(rep, cls[0], h) for r, cls in zip(coeff, classes))
        got = combined_class_operator(rep, np.random.default_rng(5))
        assert np.abs(got - want).max() <= 1e-12 * len(h) * np.abs(coeff).sum()


@pytest.mark.parametrize("source", ["c4v_t", "c6v_t", "oht"])
def test_commutation_residuals_are_the_per_element_norms(source, oht):
    for rep in reduction_inputs(source, oht):
        dec = reduce_corep(rep, seed=3)
        g, seed = rep.group, dec.seeds_used[-1]
        com = build_G_commutant(rep, seed)
        gamma, lam = com.gamma, com.lam

        def per_element(ids, x):
            stack = (rep.apply(ids, x) - x).reshape(-1, rep.dim, rep.dim)
            return max(float(np.linalg.norm(m)) for m in stack)

        res = dec.residuals
        keys = ["gamma_subgroup_commutation"]
        want = [per_element(g.h_elements, gamma)]
        if g.is_magnetic:
            keys += ["gamma_t0_commutation", "lambda_subgroup_commutation"]
            want += [per_element(g.t0, gamma), per_element(g.h_elements, lam)]
        for key, w in zip(keys, want):
            # the largest Frobenius norm, up to the rounding of its sum of squares
            assert res[key] == pytest.approx(w, rel=1e-14, abs=1e-300), key


def test_reduction_evaluates_the_criterion_once_per_block(monkeypatch):
    calls = []

    def counted(rep, weights):
        calls.append(rep.dim)
        return criterion_sums(rep, weights)

    monkeypatch.setattr(reduction, "criterion_sums", counted)
    entry = mr.catalog_get("z4t")
    rep = direct_sum([entry.reps["scalar"], entry.reps["quaternion"], entry.reps["scalar"]])
    dec = reduce_corep(conjugate_corep(rep, random_unitary(4, 2)), seed=1)
    assert calls == dec.block_dims
    calls.clear()
    assert torsion_number(kramers()) == 4
    assert calls == [2]


def test_reduction_rotates_the_co_rep_once_per_attempt(monkeypatch):
    # the per-block criteria and block_diagonality read one rotated stack; the
    # scalar lam on seed 0 makes the first attempt fail, so two attempts run
    attempts, rotations = [], []
    reduce_once, rotate = reduction._reduce_once, reduction.conjugate_corep

    def counted_attempt(*args):
        attempts.append(args[1])
        return reduce_once(*args)

    def counted_rotation(rep, u):
        rotations.append(np.shape(u))
        return rotate(rep, u)

    build = reduction.build_H_commutant
    monkeypatch.setattr(reduction, "build_H_commutant", lambda rep, seed: (
        3.0 * np.eye(rep.dim) if seed == 0 else build(rep, seed)))
    monkeypatch.setattr(reduction, "_reduce_once", counted_attempt)
    monkeypatch.setattr(reduction, "conjugate_corep", counted_rotation)
    entry = mr.catalog_get("z4t")
    rep = direct_sum([entry.reps["scalar"], entry.reps["quaternion"], entry.reps["scalar"]])
    dec = reduce_corep(conjugate_corep(rep, random_unitary(4, 2)), seed=0)
    assert len(dec.blocks) == 3 and len(attempts) == 2
    assert rotations == [(4, 4)] * 2
