import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import magrep as mr
from magrep.coreps import CoRep
from magrep.errors import (
    DimensionMismatch,
    FlagInconsistent,
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
from magrep.kp import ProbeRepAction, covariant_tuple_basis, linear_multiplicity

from conftest import (
    element_order_bruteforce,
    relabelled,
    restricted_group_rebuilt,
    verify_embedding_pairwise,
)

Z2T_CAYLEY = [[0, 1], [1, 0]]
ENTRIES = mr.catalog_list()


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
    with pytest.raises(FlagInconsistent):
        build_group(c3, [0, 1, 1])


C4V_T = mr.catalog_get("c4v_t").group


@pytest.mark.parametrize("call, error", [
    (lambda: build_group([[0, 1]], [0]), NotAGroup),
    (lambda: build_group(Z2T_CAYLEY, [0]), DimensionMismatch),
    (lambda: build_group([[0, 2], [2, 0]], [0, 0]), NotAGroup),
    (lambda: build_group(Z2T_CAYLEY, [0, 2]), FlagInconsistent),
    (lambda: build_group(Z2T_CAYLEY, [0, 1], labels=["E"]), DimensionMismatch),
    (lambda: build_group(Z2T_CAYLEY, [0, 1], labels=["E", "E"]), DimensionMismatch),
    (lambda: FactorSystem(np.ones((2, 3))), DimensionMismatch),
    (lambda: validate_cocycle(C4V_T, FactorSystem.trivial(8)), DimensionMismatch),
    (lambda: restricted_group(C4V_T, [0, 16]), NotASubgroupEmbedding),
], ids=["cayley-not-square", "flag-count", "cayley-out-of-range", "flag-not-0-or-1",
        "label-count", "duplicate-labels", "factor-system-not-square", "cocycle-size",
        "restricted-ids-out-of-range"])
def test_every_group_boundary_refusal(call, error):
    with pytest.raises(error):
        call()


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


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(np.nan, 1.0)])
def test_cocycle_non_finite_entry_reports_a_non_finite_violation(entry):
    # the builtin max would drop a NaN row maximum and report 0.0
    g = build_group(Z2T_CAYLEY, [0, 1])
    omega = np.ones((2, 2), dtype=complex)
    omega[1, 1] = entry
    with np.errstate(invalid="ignore"):   # inf times inf's conjugate
        report = validate_cocycle(g, FactorSystem(omega))
    assert not np.isfinite(report.max_violation)
    assert not np.isfinite(report.max_modulus_error)
    assert not report.passed


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
    verify_embedding_pairwise(g, sub, emb)
    with pytest.raises(NotASubgroupEmbedding):
        restricted_group(g, [0, 1])  # C4 alone without its powers is not closed


def assert_same_group(a, b):
    for f in dataclasses.fields(mr.MagneticGroup):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert type(x) is type(y) and x == y, f.name


def test_restricted_group_matches_a_rebuilt_subgroup(oht):
    # the subgroup inherits the parent's validation field for field,
    # t0 included, where build_group would re-check it from scratch
    cases = []
    for name in ENTRIES:
        g = mr.catalog_get(name).group
        cases += [(g, g.h_elements), (g, range(g.order)), (g, [g.identity])]
    cases += [(oht["group"], ids) for ids in oht["lowerings"].values()]
    assert any(restricted_group(g, ids)[0].is_magnetic for g, ids in cases)
    for g, ids in cases:
        sub, emb = restricted_group(g, ids)
        want, want_emb = restricted_group_rebuilt(g, ids)
        assert np.array_equal(emb, want_emb)
        assert_same_group(sub, want)


# -- generators ------------------------------------------------------------------

def words_reach(cayley, identity, gens):
    """Ids of every product of the listed elements, grown a set at a time."""
    reached, frontier = {identity}, [identity]
    while frontier:
        frontier = [int(cayley[a][b]) for a in frontier for b in gens
                     if int(cayley[a][b]) not in reached]
        reached.update(frontier)
    return reached


def assert_generates(g):
    gens = [int(x) for x in g.generators]
    assert words_reach(g.cayley, g.identity, gens) == set(range(g.order))
    h_gens = gens[:-1] if g.is_magnetic else gens
    assert words_reach(g.cayley, g.identity, h_gens) == set(g.h_elements.tolist())
    assert not g.antiunitary[h_gens].any()
    assert (g.t0 in gens) == g.is_magnetic and (not g.is_magnetic or gens[-1] == g.t0)
    assert len(set(gens)) == len(gens)


def generator_groups(oht):
    """Every catalog group, O_h x T, and their unitary halvings and the
    O_h x T lowerings as standalone groups."""
    groups = [mr.catalog_get(name).group for name in ENTRIES] + [oht["group"]]
    subs = [restricted_group(g, g.h_elements)[0] for g in groups]
    subs += [restricted_group(oht["group"], ids)[0] for ids in oht["lowerings"].values()]
    return groups + subs


def test_generators_generate_every_group(oht):
    groups = generator_groups(oht)
    assert any(g.is_magnetic for g in groups) and any(not g.is_magnetic for g in groups)
    for g in groups:
        assert_generates(g)
    # O_h x T: three unitary generators and T
    assert len(oht["group"].generators) == 4


def test_generators_follow_the_greedy_rule(oht):
    # descending element order, lowest id first, kept when not yet reached
    for g in generator_groups(oht):
        gens = []
        for h in sorted(g.h_elements.tolist(), key=lambda h: (-g.element_order[h], h)):
            if h not in words_reach(g.cayley, g.identity, gens):
                gens.append(h)
        assert g.generators.tolist() == gens + ([g.t0] if g.is_magnetic else [])


def test_generators_are_deterministic_and_lazy(oht):
    for g in generator_groups(oht):
        again = build_group(g.cayley, g.antiunitary, labels=g.labels)
        assert "generators" not in vars(again)     # computed on first use only
        assert np.array_equal(g.generators, again.generators)
        assert g.generators is g.generators
        assert not g.generators.flags.writeable


def test_h_position_is_a_cached_read_only_table(oht):
    for g in generator_groups(oht):
        again = build_group(g.cayley, g.antiunitary, labels=g.labels)
        assert "h_position" not in vars(again)     # computed on first use only
        pos = g.h_position
        assert pos is g.h_position and not pos.flags.writeable
        assert np.array_equal(pos[g.h_elements], np.arange(g.halving_order))
        assert (pos[g.coset_elements] == -1).all()


def test_generators_of_the_trivial_group_are_empty():
    g = build_group([[0]], [0])
    assert g.generators.shape == (0,)
    assert list(build_group(Z2T_CAYLEY, [0, 1]).generators) == [1]


def relabelled_entry(name, perm):
    """The entry's group, co-reps and probe actions with new id i standing for
    old id perm[i]."""
    entry = mr.catalog_get(name)
    perm = np.asarray(perm)
    new, _ = relabelled(entry.group, perm, perm)   # the group alone: no matrices
    reps = [CoRep(group=new, omega=FactorSystem(rep.omega.values[np.ix_(perm, perm)]),
                  matrices=rep.matrices[perm]) for rep in entry.reps.values()]
    actions = []
    for act in entry.probe_actions.values():
        mats = act.d(perm)
        actions.append(ProbeRepAction(group=new, d_h=mats[new.h_elements],
                                      d_t0=mats[new.t0] if new.is_magnetic else None,
                                      kind=act.kind))
    return new, reps, actions


@st.composite
def relabellings(draw):
    name = draw(st.sampled_from(ENTRIES))
    n = mr.catalog_get(name).group.order
    return name, draw(st.permutations(range(n)))


@settings(max_examples=30, deadline=None)
@given(relabellings())
def test_generators_and_oracle_survive_relabelling(case):
    # relabelling moves the identity, t0 and the greedy generator choice; the
    # generators must still generate, and the oracle built on them must count
    # what the criterion counts
    name, perm = case
    g, reps, actions = relabelled_entry(name, perm)
    assert_generates(g)
    for rep in reps:
        for act in actions:
            assert covariant_tuple_basis(rep, act).shape[0] == linear_multiplicity(rep, act)
