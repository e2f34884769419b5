import itertools
import os
from math import comb

import numpy as np
import pytest

import magrep as mr
import magrep.io
import magrep.kp
from magrep.cli import main
from magrep.errors import (
    DimensionMismatch,
    EmptyChannel,
    InvalidAction,
    MagrepError,
    NonIntegerMultiplicity,
    NotCommuting,
    SingularAction,
)
from magrep.kp import (
    NULL_SPACE_ATOL,
    ProbeRepAction,
    _covariance_residuals,
    build_gamma_matrices,
    covariant_tuple_basis,
    dispersion_order,
    dual_rep,
    linear_multiplicity,
    monomial_exponents,
    multiplicity_value,
    polynomial_channel,
    probe_stability,
    tuple_span_residual,
    validate_action,
)
from conftest import (
    catalog_irreps,
    channel_actions,
    covariant_tuple_basis_columnwise,
    full_induced_action,
    tuple_span_residual_projectors,
    multiplicity_value_diagonal_t0,
    multiplicity_value_trace_form,
    trivial_multiplicity_h_t0,
)

PAULI = [np.array(m, dtype=complex) for m in (
    [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]


def kramers_setup():
    entry = mr.catalog_get("z2t_kramers")
    return entry.reps["kramers"], entry.probe_actions


# -- probe actions -----------------------------------------------------------------

C4V_T = mr.catalog_get("c4v_t")
C4V_T_MOMENTUM = C4V_T.probe_actions["momentum"]


def kramers_model():
    rep, actions = kramers_setup()
    return build_gamma_matrices(rep, actions["momentum"])


@pytest.mark.parametrize("call, error", [
    (lambda: ProbeRepAction(group=C4V_T.group, d_h=C4V_T_MOMENTUM.d_h[:7],
                            d_t0=C4V_T_MOMENTUM.d_t0), DimensionMismatch),
    (lambda: ProbeRepAction(group=C4V_T.group, d_h=C4V_T_MOMENTUM.d_h[:, :, :2],
                            d_t0=C4V_T_MOMENTUM.d_t0), DimensionMismatch),
    (lambda: ProbeRepAction(group=C4V_T.group, d_h=C4V_T_MOMENTUM.d_h,
                            d_t0=C4V_T_MOMENTUM.d_t0[:2]), DimensionMismatch),
    (lambda: ProbeRepAction(group=C4V_T.group, d_h=C4V_T_MOMENTUM.d_h, d_t0=None),
     InvalidAction),
    (lambda: kramers_model().evaluate(np.ones(9), np.ones(2)), DimensionMismatch),
    (lambda: kramers_model().evaluate(np.ones(8), np.ones(3)), DimensionMismatch),
    (lambda: polynomial_channel(C4V_T_MOMENTUM, 0), ValueError),
    (lambda: dispersion_order(C4V_T.reps["e_half"], C4V_T_MOMENTUM, 0), ValueError),
], ids=["matrix-count", "matrices-not-square", "t0-shape", "magnetic-without-t0",
        "evaluate-field-length", "evaluate-coefficient-length", "polynomial-order-0",
        "dispersion-order-0"])
def test_every_kp_boundary_refusal(call, error):
    with pytest.raises(error):
        call()


def test_dual_rep_orthogonal_is_identity_map():
    act = mr.catalog_get("c4v_t").probe_actions["momentum"]
    dual = dual_rep(act)
    assert np.allclose(dual.d_h, act.d_h)
    assert np.allclose(dual.d_t0, act.d_t0)


def test_dual_rep_non_orthogonal():
    g = mr.catalog_get("z2t").group
    shear = np.array([[1.0, 0.7], [0.0, 1.0]])
    act = ProbeRepAction(group=g, d_h=[np.eye(2)], d_t0=shear, kind="momentum")
    # D(t0)^2 = shear^2 != identity, so this is not a valid rep of z2t
    with pytest.raises(InvalidAction):
        validate_action(act)
    dual = dual_rep(act)
    assert np.allclose(dual.d_t0.T @ act.d_t0, np.eye(2))


def test_dual_rep_singular():
    g = mr.catalog_get("z2t").group
    act = ProbeRepAction(group=g, d_h=[np.zeros((1, 1))], d_t0=np.eye(1))
    with pytest.raises(SingularAction):
        dual_rep(act)


def test_action_group_law_violation_detected():
    g = mr.catalog_get("c4v_c4").group
    bad = ProbeRepAction(group=g, d_h=np.stack([np.eye(3)] * 4),
                         d_t0=2 * np.eye(3))
    with pytest.raises(InvalidAction):
        validate_action(bad)


def test_non_finite_action_fails_validation():
    # H = {E}, so each NaN residual comes after a finite one, which the
    # builtin max would keep
    mag = kramers_setup()[1]["magnetic"]
    nan = np.full((1, 1, 1), np.nan)
    for d_h, d_t0 in ((mag.d_h, nan[0]), (nan, mag.d_t0)):
        with pytest.raises(InvalidAction):
            validate_action(ProbeRepAction(group=mag.group, d_h=d_h, d_t0=d_t0))


def test_non_finite_probe_matrices_fail_at_construction():
    # neither the criterion nor the gamma construction may meet a NaN
    mag = kramers_setup()[1]["magnetic"]
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidAction, match="non-finite"):
            ProbeRepAction(group=mag.group, d_h=mag.d_h, d_t0=[[bad]])
        with pytest.raises(InvalidAction, match="non-finite"):
            ProbeRepAction(group=mag.group, d_h=np.full((1, 1, 1), bad), d_t0=mag.d_t0)


def test_action_of_another_group_is_a_dimension_mismatch():
    rep = kramers_setup()[0]
    foreign = mr.catalog_get("c4v_t").probe_actions["momentum"]
    with pytest.raises(DimensionMismatch):
        linear_multiplicity(rep, foreign)
    with pytest.raises(DimensionMismatch):
        build_gamma_matrices(rep, foreign)
    # the same table and flags built again is the same group
    mom = kramers_setup()[1]["momentum"]
    twin = mr.build_group(mom.group.cayley, mom.group.antiunitary)
    action = ProbeRepAction(group=twin, d_h=mom.d_h, d_t0=mom.d_t0)
    assert linear_multiplicity(rep, action) == linear_multiplicity(rep, mom)
    assert build_gamma_matrices(rep, action).multiplicity == 9


def test_dispersion_order_rejects_an_action_of_another_group():
    rep = kramers_setup()[0]
    foreign = mr.catalog_get("c4v_t").probe_actions["momentum"]
    with pytest.raises(DimensionMismatch):
        dispersion_order(rep, foreign, 2)


def test_trivial_multiplicity_of_a_non_rep_fails_loudly():
    rep, actions = kramers_setup()
    electric = actions["electric"]
    scaled = ProbeRepAction(group=electric.group, d_h=1.5 * electric.d_h,
                            d_t0=4 / 3 * electric.d_t0, kind=electric.kind)
    # characters 1.5 on E and 2 on T: the criterion 2 * 1.5 - 2 = 1 is an
    # integer, the mean character 1.75 is not; a null space of D(g) - 1
    # quietly finds none
    with pytest.raises(NonIntegerMultiplicity, match="mean character"):
        probe_stability(rep, [0], probes={"e": scaled})
    assert trivial_multiplicity_h_t0(scaled) == 0


def scaled_quadratic_action():
    """The c4v_t momentum action's order-2 full action with D(h) x 1.5: not
    a rep, yet every count from its characters is an integer (3 identity
    couplings, where the null space of D(g) - 1 finds none)."""
    mom = mr.catalog_get("c4v_t").probe_actions["momentum"]
    full = full_induced_action(mom, 2)
    return ProbeRepAction(group=full.group, d_h=1.5 * full.d_h, d_t0=full.d_t0,
                          kind=full.kind)


def count_action_validations(monkeypatch):
    seen = []
    real = magrep.kp.validate_action

    def counting(action, tol=magrep.kp.ACTION_TOL):
        seen.append(action)
        return real(action, tol)

    monkeypatch.setattr(magrep.kp, "validate_action", counting)
    return seen


def test_counts_of_a_non_rep_raise_invalid_action():
    rep = mr.catalog_get("c4v_t").reps["e_half"]
    bad = scaled_quadratic_action()
    counts = magrep.kp._coupling_counts(rep, magrep.kp._characters(bad)[None])
    assert counts[0]["trivial_multiplicity"] == 3
    assert trivial_multiplicity_h_t0(bad) == 0
    with pytest.raises(InvalidAction, match="group law"):
        linear_multiplicity(rep, bad)
    with pytest.raises(InvalidAction, match="group law"):
        probe_stability(rep, range(8), probes={"quadratic": bad})


def test_counts_validate_catalog_and_bare_actions_alike(monkeypatch):
    seen = count_action_validations(monkeypatch)
    entry = mr.catalog_get("c4v_t")
    rep, act = entry.reps["e_half"], entry.probe_actions["momentum"]
    bare = ProbeRepAction(group=act.group, d_h=act.d_h, d_t0=act.d_t0, kind=act.kind)
    for probe in (act, bare):
        linear_multiplicity(rep, probe)
    assert seen == [act, bare]
    # once per probe, though the probe is counted twice and its gammas built
    seen.clear()
    report = probe_stability(rep, range(8), probes={"k": bare, "k2": act})
    assert report["probes"]["k"]["multiplicity"] > 0
    assert seen == [bare, act]


#: every counting entry point, called on the c4v_t e_half co-rep and a
#: momentum action of its group
COUNTS = {
    "linear_multiplicity": linear_multiplicity,
    "polynomial_channel": lambda rep, act: polynomial_channel(act, 2),
    "dispersion_order": lambda rep, act: dispersion_order(rep, act, 3),
    "probe_stability": lambda rep, act: probe_stability(rep, range(8), probes={"k": act}),
}


@pytest.mark.parametrize("count", sorted(COUNTS))
def test_each_count_validates_its_input_once_per_call(monkeypatch, count):
    seen = count_action_validations(monkeypatch)
    entry = mr.catalog_get("c4v_t")
    rep, act = entry.reps["e_half"], entry.probe_actions["momentum"]
    bare = ProbeRepAction(group=act.group, d_h=act.d_h.copy(), d_t0=act.d_t0.copy(),
                          kind=act.kind)
    for probe in (act, bare, act):
        seen.clear()
        COUNTS[count](rep, probe)
        assert sum(a is probe for a in seen) == 1, (count, probe is act)


def test_catalog_actions_are_read_only():
    # catalog_get is cached: a write would reach every later lookup
    for name in mr.catalog_list():
        for act in mr.catalog_get(name).probe_actions.values():
            for arr in (act.d_h, act.d_t0):
                if arr is not None:
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0, 0] += 0.5
    act = mr.catalog_get("c4v_t").probe_actions["momentum"]
    with pytest.raises(ValueError, match="read-only"):
        act.d_h[1, 0, 1] += 0.5
    assert validate_action(mr.catalog_get("c4v_t").probe_actions["momentum"]) <= 1e-12
    # a copy is writable; the next test counts and corrupts one
    assert act.d_h.copy().flags.writeable and act.d_t0.copy().flags.writeable


@pytest.mark.parametrize("count", sorted(COUNTS))
def test_a_count_sees_a_corruption_made_after_the_last_call(count):
    entry = mr.catalog_get("c4v_t")
    rep, act = entry.reps["e_half"], entry.probe_actions["momentum"]
    copy = ProbeRepAction(group=act.group, d_h=act.d_h.copy(), d_t0=act.d_t0.copy(),
                          kind=act.kind)
    COUNTS[count](rep, copy)
    # an off-diagonal entry: every character, and so every count, stays put
    copy.d_h[1, 0, 1] += 0.5
    with pytest.raises(InvalidAction, match="group law"):
        COUNTS[count](rep, copy)


# -- multiplicity criterion -----------------------------------------------------------

def test_spinless_trim_has_no_linear_dispersion():
    z2t = mr.catalog_get("z2t")
    # (1/2)[1*3 + (-3)*1*1] = 0
    assert linear_multiplicity(z2t.reps["trivial"], z2t.probe_actions["momentum"]) == 0


def test_magnetic_weyl_multiplicity_nine():
    rep, actions = kramers_setup()
    # (1/2)[4*3 + (-3)(-1)(2)] = 9
    assert linear_multiplicity(rep, actions["momentum"]) == 9


def test_zeeman_multiplicity_three():
    rep, actions = kramers_setup()
    # (1/2)[4*1 + (-1)(-1)(2)] = 3
    assert linear_multiplicity(rep, actions["magnetic"]) == 3
    report = probe_stability(rep, [0], probes={"m": actions["magnetic"]})
    assert report["probes"]["m"]["trivial_multiplicity"] == 0


def test_electric_channel_only_trivial_coupling():
    rep, actions = kramers_setup()
    assert linear_multiplicity(rep, actions["electric"]) == 1
    report = probe_stability(rep, [0], probes={"e": actions["electric"]})
    assert report["probes"]["e"]["trivial_multiplicity"] == 1


def test_criterion_forms_agree_and_specialize():
    for name in mr.catalog_list():
        entry = mr.catalog_get(name)
        for rep in entry.reps.values():
            for act in entry.probe_actions.values():
                a = multiplicity_value(rep, act)
                b = multiplicity_value_trace_form(rep, act)
                assert a == pytest.approx(b, abs=1e-9)
                if not rep.group.is_magnetic:
                    continue
                for sign in (1, -1):
                    if np.allclose(act.d_t0, sign * np.eye(act.dim_q), atol=1e-12):
                        c = multiplicity_value_diagonal_t0(rep, act, sign)
                        assert a == pytest.approx(c, abs=1e-9), (name, sign)


def test_unitary_group_multiplicity():
    kram = mr.catalog_get("z2t_kramers").reps["kramers"]
    rep, _ = mr.restrict_corep(kram, kram.group.h_elements)
    act = ProbeRepAction(group=rep.group, d_h=[np.eye(1)], d_t0=None)
    # trivial group: 4 independent Hermitian 2x2 couplings
    assert linear_multiplicity(rep, act) == 4
    assert covariant_tuple_basis(rep, act).shape[0] == 4


# -- the explicit construction ---------------------------------------------------------

def test_weyl_gammas_span_pauli_triple():
    rep, actions = kramers_setup()
    model = build_gamma_matrices(rep, actions["momentum"])
    assert model.multiplicity == 9
    # per momentum component the nine tuples span exactly the Pauli triple
    for m in range(3):
        comp = model.gammas[:, m].reshape(9, -1)
        pauli = np.stack([p.reshape(-1) for p in PAULI])
        aug = np.concatenate([comp, pauli])
        assert np.linalg.matrix_rank(np.concatenate([comp.real, comp.imag], axis=1),
                                     tol=1e-8) == 3
        assert np.linalg.matrix_rank(np.concatenate([aug.real, aug.imag], axis=1),
                                     tol=1e-8) == 3
    oracle = covariant_tuple_basis_columnwise(rep, actions["momentum"])
    assert tuple_span_residual(model.gammas, oracle) < 1e-10


def test_covariance_residuals_see_each_equation():
    # the identity tuple is H-covariant (H is trivial) but odd momentum needs
    # M(T) conj(gamma) M(T)^dag = -gamma, which the identity misses by 2
    rep, actions = kramers_setup()
    gammas = np.broadcast_to(np.eye(2), (1, 3, 2, 2)).astype(complex)
    res = _covariance_residuals(rep, dual_rep(actions["momentum"]), gammas)
    assert res["subgroup_covariance"] == 0.0
    assert res["coset_covariance"] == pytest.approx(2.0)
    assert res["hermiticity"] == 0.0


def all_element_defect(rep, action, gammas):
    """Largest covariance defect of the tuples over every element of the
    group, one element at a time, from the matrices as given."""
    worst = 0.0
    for e in range(rep.group.order):
        m = rep.matrices[e]
        dual = np.linalg.inv(action.d(e)).T
        img = np.conj(gammas) if rep.group.antiunitary[e] else gammas
        rhs = np.einsum("nm,pnab->pmab", dual, gammas)
        worst = max(worst, np.abs(m @ img @ np.conj(m.T) - rhs).max())
    return worst


@pytest.mark.parametrize("name", mr.catalog_list())
def test_gamma_construction_fails_loudly_off_the_generators(name):
    # inputs that are reps on the generators only: the solve reads the
    # generators, the criterion the characters, and the residual judgement
    # every element.  An action corrupted on a non-generator unitary element
    # (negated, or rotated by a random orthogonal matrix) must raise unless
    # validate_action still accepts it.  A co-rep with one non-generator matrix
    # multiplied by a random unitary must raise, or return tuples that every
    # element of it, as given, fixes: a 1-dim co-rep's phase, or a coset
    # matrix under identity couplings, does not reach the answer.
    entry = mr.catalog_get(name)
    g = entry.group
    rng = np.random.default_rng(11)
    others = [e for e in range(g.order) if e not in set(g.generators.tolist())]
    raised = quiet = 0
    for rep in entry.reps.values():
        for act in entry.probe_actions.values():
            for h in [e for e in others if not g.antiunitary[e]]:
                k = g.h_position[h]
                for turn in (-np.eye(act.dim_q),
                             np.linalg.qr(rng.standard_normal((act.dim_q,) * 2))[0]):
                    d_h = act.d_h.copy()
                    d_h[k] = turn @ d_h[k]
                    bad = ProbeRepAction(group=g, d_h=d_h, d_t0=act.d_t0, kind=act.kind)
                    try:
                        validate_action(bad)   # a 1-dim turn of +1 leaves a rep
                    except InvalidAction:
                        with pytest.raises(MagrepError):
                            build_gamma_matrices(rep, bad)
                        raised += 1
            for e in others:
                mats = rep.matrices.copy()
                mats[e] = mr.random_unitary(rep.dim, rng) @ mats[e]
                bad = mr.CoRep(group=g, omega=rep.omega, matrices=mats)
                assert not mr.validate_corep(bad).passed
                try:
                    model = build_gamma_matrices(bad, act)
                except MagrepError:
                    raised += 1
                    continue
                assert all_element_defect(bad, act, model.gammas) <= 1e-9, (e, act.kind)
                quiet += 1
    assert raised > quiet


def test_empty_channel_raises():
    z2t = mr.catalog_get("z2t")
    with pytest.raises(EmptyChannel):
        build_gamma_matrices(z2t.reps["trivial"], z2t.probe_actions["momentum"])


def test_gamma_covariance_roundtrip_random_draws():
    entry = mr.catalog_get("c8t")
    rep = entry.reps["complex_pair"]
    act = entry.probe_actions["momentum"]
    assert linear_multiplicity(rep, act) >= 1
    model = build_gamma_matrices(rep, act)
    dual = dual_rep(act)
    g = rep.group
    rng = np.random.default_rng(5)
    for _ in range(25):
        r = rng.standard_normal(model.multiplicity)
        dk = rng.standard_normal(3)
        gam = model.evaluate(r, dk)
        for e in range(g.order):
            target = model.evaluate(r, dual.d(e) @ dk)
            m = rep.m(e)
            inner = np.conj(gam) if g.s(e) else gam
            assert np.abs(m @ inner @ m.conj().T - target).max() < 1e-10


# -- polynomial channels -----------------------------------------------------------------

def test_polynomial_channel_order_one_recovers_input():
    act = mr.catalog_get("c6v_t").probe_actions["momentum"]
    sets = polynomial_channel(act, 1)
    assert np.array_equal(sets.characters[0], magrep.kp._characters(act))
    assert sum(c.action.dim_q for c in sets.channels) == 3


def test_dispersion_order_validates_a_bare_action_once(monkeypatch):
    entry = mr.catalog_get("c6v_t")
    rep, act = entry.reps["e_half"], entry.probe_actions["momentum"]
    seen = count_action_validations(monkeypatch)
    bare = ProbeRepAction(group=act.group, d_h=act.d_h.copy(), d_t0=act.d_t0.copy(),
                          kind=act.kind)
    for n_max in (1, 2, 3, 4):
        seen.clear()
        want = magrep.io.write_report(dispersion_order(rep, act, n_max))
        assert sum(a is act for a in seen) == 1
        seen.clear()
        assert magrep.io.write_report(dispersion_order(rep, bare, n_max)) == want
        # the input once, whatever n_max; the channels of each order are
        # checked when they are built, as one action of a polynomial kind
        assert sum(a is bare for a in seen) == 1
        assert [a.kind for a in seen if a is not bare] == \
            [f"polynomial({n})" for n in range(1, n_max + 1)]
    # the caller's arrays stay writable
    assert bare.d_h.flags.writeable and bare.d_t0.flags.writeable


def test_polynomial_channel_checks_its_input_and_each_order_once(monkeypatch):
    real = magrep.kp.validate_action
    seen = count_action_validations(monkeypatch)
    # catalog actions x orders 1-4 x two seeds: the input, then one
    # check per order, of the block-diagonal rep the channels form, whose
    # residual is the largest of the channels' own.  Products of the blocks
    # are bit-equal to the channels' own, but LAPACK may round the inverse of
    # the larger D(t0) differently in the last place (c4v_c4 momentum at
    # order 1, seed 7: 2.73e-16 against 2.27e-16)
    for name in mr.catalog_list():
        for act in mr.catalog_get(name).probe_actions.values():
            for n in (1, 2, 3, 4):
                for seed in (0, 7):
                    seen.clear()
                    sets = polynomial_channel(act, n, seed=seed)
                    assert seen[0] is act, (name, n)
                    assert [a.kind for a in seen[1:]] == [f"polynomial({n})"], (name, n)
                    assert seen[1].dim_q == len(sets.exponents)
                    own = max(real(c.action, 1e-7) for c in sets.channels)
                    assert abs(real(seen[1], 1e-7) - own) <= 1e-15, (name, n, seed)
                    assert 0 <= own <= 1e-7
    act = mr.catalog_get("c6v_t").probe_actions["momentum"]
    bare = ProbeRepAction(group=act.group, d_h=act.d_h, d_t0=act.d_t0, kind=act.kind)
    seen.clear()
    polynomial_channel(bare, 2)
    assert seen[0] is bare and len(seen) == 2
    # the CLI checks the catalog action once, then each order's channels
    seen.clear()
    assert main(["kp", "@c6v_t", "@c6v_t/e_half", "@c6v_t/momentum",
                 "--max-order", "3", "--out", os.devnull]) == 0
    assert sum(a is act for a in seen) == 1 and len(seen) == 4


def _unitary_halving(name):
    """The momentum action of a catalog entry restricted to its unitary
    subgroup, built as a group of its own."""
    act = mr.catalog_get(name).probe_actions["momentum"]
    sub, emb = mr.groups.restricted_group(act.group, act.group.h_elements)
    assert not sub.is_magnetic
    return ProbeRepAction(group=sub, d_h=act.d(emb[sub.h_elements]), d_t0=None)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_polynomial_channel_block_check_catches_a_bad_split(monkeypatch, n):
    # every eigenvalue its own cluster cuts the 2-dim channels in half; the
    # halves are no reps, and the one block-diagonal check must see it
    for act in (mr.catalog_get("c6v_t").probe_actions["momentum"],
                _unitary_halving("c6v_t")):
        sets = polynomial_channel(act, n)
        assert max(c.action.dim_q for c in sets.channels) > 1
        with monkeypatch.context() as m:
            m.setattr(magrep.kp, "_cluster_slices",
                      lambda values, gap: [slice(k, k + 1) for k in range(len(values))])
            with pytest.raises(InvalidAction, match="group law"):
                polynomial_channel(act, n)


def test_polynomial_channel_characters_are_the_action_traces():
    for name in ("c4v_t", "c6v_t", "q8t", "z2t"):
        act = mr.catalog_get(name).probe_actions["momentum"]
        ids = np.arange(act.group.order)
        for n in (1, 2, 3):
            sets = polynomial_channel(act, n)
            actions = [full_induced_action(act, n)] + [c.action for c in sets.channels]
            assert sets.characters.shape == (len(actions), len(ids))
            want = np.stack([np.einsum("gii->g", a.d(ids)) for a in actions])
            assert np.abs(sets.characters - want).max() <= 1e-12, (name, n)


def test_cli_kp_builds_each_order_once(monkeypatch):
    # polynomial_channel takes one substitution rep per call
    orders = []
    real = magrep.kp._substitution_matrices

    def counting(lin, n):
        orders.append(n)
        return real(lin, n)

    monkeypatch.setattr(magrep.kp, "_substitution_matrices", counting)
    assert main(["kp", "@c6v_t", "@c6v_t/e_half", "@c6v_t/momentum",
                 "--max-order", "3", "--out", os.devnull]) == 0
    assert orders == [1, 2, 3]


def test_dispersion_order_builds_only_its_split_checks(monkeypatch):
    # one table reads D(g) and its dual once and inverts no substitution
    # stack: the full row comes from traces, and no channel action nor full
    # induced action is built until it is read
    built, inverted = [], []
    post_init, dual = ProbeRepAction.__post_init__, magrep.kp._dual_matrices

    def spy_post_init(self):
        built.append(self.kind)
        post_init(self)

    def spy_dual(mats):
        inverted.append(np.shape(mats))
        return dual(mats)

    monkeypatch.setattr(ProbeRepAction, "__post_init__", spy_post_init)
    monkeypatch.setattr(magrep.kp, "_dual_matrices", spy_dual)
    for name in ("c6v_t", "c4v_c4", "z4t"):
        entry = mr.catalog_get(name)
        rep, act = next(iter(entry.reps.values())), entry.probe_actions["momentum"]
        for n_max in (1, 3, 4):
            built.clear()
            inverted.clear()
            table = dispersion_order(rep, act, n_max)
            assert built == [f"polynomial({n})" for n in range(1, n_max + 1)], (name, n_max)
            assert [s for s in inverted if len(s) == 3] == [(act.group.order, 3, 3)], name
            sets = magrep.kp._dispersion_table(rep, act, n_max, 0)[1]
            built.clear()
            for chans, entry_n in zip(sets, table["orders"]):
                assert [ch.action.dim_q for ch in chans.channels] == \
                    [c["dim"] for c in entry_n["channels"]]
            # each action once, on first access
            assert len(built) == sum(len(c.channels) for c in sets)
            assert all(full_induced_action(act, c.order).dim_q == len(c.exponents) for c in sets)
            assert all(ch.action is ch.action for c in sets for ch in c.channels)


@pytest.mark.parametrize("seed", [0, 13, 17, 2**40])
def test_normals_draw_fills_in_c_order(seed):
    # every order's seed matrix is the C-order prefix of one draw sized for
    # the largest order: a change of numpy's fill order must fail here
    for big in (10, 15):
        draw = np.random.default_rng(seed).standard_normal(big * big)
        for m in (1, 2, 3, 4, 6, 10):
            own = np.random.default_rng(seed).standard_normal((m, m))
            assert np.array_equal(draw[:m * m].reshape(m, m), own), (seed, big, m)


def test_randomized_entry_points_need_an_integer_seed():
    entry = mr.catalog_get("c6v_t")
    rep, act = entry.reps["e_half"], entry.probe_actions["momentum"]
    calls = {"dispersion_order": lambda seed: dispersion_order(rep, act, 2, seed=seed),
             "polynomial_channel": lambda seed: polynomial_channel(act, 2, seed=seed),
             "reduce_corep": lambda seed: mr.reduce_corep(rep, seed=seed)}
    for call in calls.values():
        # None would draw OS entropy: two calls could disagree
        for bad in (None, 1.0, "3"):
            with pytest.raises(TypeError):
                call(bad)
        call(np.int64(3))
    table = dispersion_order(rep, act, 2, seed=np.int64(3))
    assert type(table["seed"]) is int and magrep.io.write_report(table) == \
        magrep.io.write_report(dispersion_order(rep, act, 2, seed=3))
    assert mr.reduce_corep(rep, seed=np.uint8(4)).seeds_used == [4]


def test_constant_tables_are_built_once_and_read_only():
    for d in (1, 2, 4):
        basis = magrep.kp.hermitian_basis(d)
        assert magrep.kp.hermitian_basis(d) is basis
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0, 0] = 2.0
    for j, q in itertools.product((1, 2, 5), (1, 2, 3)):
        tables = magrep.kp._degree_tables(j, q)
        assert magrep.kp._degree_tables(j, q) is tables
        for table in tables:
            with pytest.raises(ValueError, match="read-only"):
                table.flat[0] = 1


def test_monomial_count():
    act = mr.catalog_get("z2t").probe_actions["momentum"]
    sets = polynomial_channel(act, 2)
    assert len(sets.exponents) == 6
    assert full_induced_action(act, 2).dim_q == 6


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_monomial_exponents_in_q_variables(q):
    for n in range(6):
        expos = monomial_exponents(n, q)
        assert len(expos) == len(set(expos)) == comb(n + q - 1, q - 1)
        assert all(len(e) == q and sum(e) == n and min(e) >= 0 for e in expos)
        assert expos == sorted(expos, reverse=True)   # descending lex order
    # three variables keep the order every q = 3 table was written in
    assert monomial_exponents(4, 3) == [(a, b, 4 - a - b) for a in range(4, -1, -1)
                                        for b in range(4 - a, -1, -1)]


def test_c6v_quadratic_pair_channel():
    # a two-dimensional channel must span exactly (kx^2 - ky^2, 2 kx ky)
    act = mr.catalog_get("c6v_t").probe_actions["momentum"]
    sets = polynomial_channel(act, 2, seed=0)
    target = np.zeros((2, 6))
    target[0, sets.exponents.index((2, 0, 0))] = 1.0
    target[0, sets.exponents.index((0, 2, 0))] = -1.0
    target[1, sets.exponents.index((1, 1, 0))] = 2.0

    def row_space_gap(a, b):
        qa, _ = np.linalg.qr(a.T)
        qb, _ = np.linalg.qr(b.T)
        return np.linalg.norm(qa @ qa.T - qb @ qb.T, ord=2)

    matches = [c for c in sets.channels if c.action.dim_q == 2
               and row_space_gap(c.coefficients, target) < 1e-9]
    assert len(matches) == 1
    # quadratics are even under momentum reversal
    assert np.allclose(matches[0].action.d_t0 @ matches[0].action.d_t0, np.eye(2))


def test_polynomial_channels_satisfy_substitution_oracle():
    rng = np.random.default_rng(11)
    for name in ("c4v_t", "c4v_c4", "c8t"):
        act = mr.catalog_get(name).probe_actions["momentum"]
        dual_mom = dual_rep(act)
        for order in (1, 2, 3):
            sets = polynomial_channel(act, order, seed=1)
            for ch in sets.channels:
                dch = dual_rep(ch.action)
                for e in range(act.group.order):
                    lin = dual_mom.d(e)
                    for _ in range(5):
                        dk = rng.standard_normal(3)
                        lhs = ch.evaluate(lin @ dk)
                        rhs = dch.d(e) @ ch.evaluate(dk)
                        assert np.abs(lhs - rhs).max() < 1e-9


def test_dispersion_order_trim():
    z2t = mr.catalog_get("z2t")
    table = dispersion_order(z2t.reps["trivial"], z2t.probe_actions["momentum"], 2)
    assert table["orders"][0]["full"]["multiplicity"] == 0
    assert table["orders"][1]["full"]["multiplicity"] == 6
    assert table["leading_order"] == 2


def test_dispersion_order_weyl_leading_linear():
    rep, actions = kramers_setup()
    table = dispersion_order(rep, actions["momentum"], 2)
    assert table["leading_order"] == 1
    assert table["orders"][0]["full"]["multiplicity"] == 9


def test_dispersion_order_trivial_group_all_orders():
    g = mr.groups.build_group([[0]], [0])
    rep = mr.CoRep(group=g, omega=mr.FactorSystem.trivial(1), matrices=[np.eye(1)])
    act = ProbeRepAction(group=g, d_h=[np.eye(3)], d_t0=None)
    table = dispersion_order(rep, act, 2)
    for entry in table["orders"]:
        total_dim = sum(c["dim"] for c in entry["channels"])
        assert entry["full"]["multiplicity"] == total_dim
        for c in entry["channels"]:
            assert c["multiplicity"] == c["dim"]


# -- probe stability -------------------------------------------------------------------

def test_probe_stability_full_group_protected():
    rep, _ = kramers_setup()
    report = probe_stability(rep, [0, 1])
    assert report["protected"]
    assert report["restricted_index"] == pytest.approx(1.0, abs=1e-12)


def test_probe_stability_judges_at_the_tolerance_it_is_given():
    # scaling by 1 + 2e-9 moves the restricted index to 1 + 3e-9
    rep = mr.catalog_get("c4v_t").reps["e_half"]
    scaled = mr.CoRep(group=rep.group, omega=rep.omega,
                      matrices=(1 + 2e-9) * rep.matrices)
    ids = range(rep.group.order)
    assert probe_stability(scaled, ids)["protected"]
    report = probe_stability(scaled, ids, tol=1e-9)
    assert report["tol"] == 1e-9
    assert not report["protected"]


def test_probe_stability_kramers_zeeman():
    rep, actions = kramers_setup()
    report = probe_stability(rep, [0], probes={
        "magnetic": actions["magnetic"], "electric": actions["electric"]})
    assert report["restricted_index"] == pytest.approx(4.0, abs=1e-12)
    assert not report["protected"]
    assert report["probes"]["magnetic"]["splitting_multiplicity"] == 3
    assert report["probes"]["electric"]["splitting_multiplicity"] == 0
    gammas = report["probes"]["magnetic"]["gammas"]
    assert gammas.shape == (3, 1, 2, 2)


def probe_entry_alone(rep, act, tol):
    """The report JSON of a ``probe_stability`` probe entry, built from the
    single-probe entry points and the null-space count of identity couplings."""
    mult, triv = linear_multiplicity(rep, act), trivial_multiplicity_h_t0(act)
    entry = {"multiplicity": mult, "trivial_multiplicity": triv,
             "splitting_multiplicity": mult - triv, "kind": act.kind}
    if mult > 0:
        model = build_gamma_matrices(rep, act, tol)
        entry.update(gammas=model.gammas, residuals=model.residuals)
    return magrep.io.write_report(entry)


@pytest.mark.parametrize("name", mr.catalog_list())
def test_probe_stability_counts_stacked_probes_as_each_alone(name):
    # all of an entry's probes at once: 1- and 3-dim characters in one stack
    entry = mr.catalog_get(name)
    probes = entry.probe_actions
    assert {a.dim_q for a in probes.values()} >= {1, 3}
    for rep in entry.reps.values():
        report = probe_stability(rep, entry.group.h_elements, probes=probes)
        assert list(report["probes"]) == list(probes)
        for probe, act in probes.items():
            assert (magrep.io.write_report(report["probes"][probe])
                    == probe_entry_alone(rep, act, report["tol"]))


def test_probe_stability_counts_oht_field_probes_as_each_alone(oht):
    fields = {k: a for k, a in oht["actions"].items() if a.kind != "momentum"}
    assert {a.dim_q for a in fields.values()} == {1, 2, 3}
    for mats in oht["coreps"].values():
        rep = mr.corep_from_matrices(oht["group"], mats)
        want = {probe: probe_entry_alone(rep, act, 1e-8) for probe, act in fields.items()}
        assert any('"gammas"' in e for e in want.values())
        for ids in oht["lowerings"].values():
            report = probe_stability(rep, ids, probes=fields)
            assert {probe: magrep.io.write_report(e)
                    for probe, e in report["probes"].items()} == want


@pytest.mark.parametrize("strain", ["strain_eg", "strain_t2g"])
def test_oht_strain_couplings_are_the_textbook_ones(oht, strain):
    # time-reversal-even strain never splits the Kramers doublet Gamma6, at
    # any order; it splits Gamma8 at linear order through one deformation
    # potential per strain channel (Bir and Pikus)
    act = oht["actions"][strain]
    spinor = mr.corep_from_matrices(oht["group"], oht["coreps"]["spinor"])
    gamma8 = mr.corep_from_matrices(oht["group"], oht["coreps"]["gamma8"])
    for entry in dispersion_order(spinor, act, 3)["orders"]:
        counts = [entry["full"]] + entry["channels"]
        assert [c["splitting_multiplicity"] for c in counts] == [0] * len(counts)
    first = dispersion_order(gamma8, act, 1)["orders"][0]
    assert first["full"]["splitting_multiplicity"] == 1
    assert first["full"]["multiplicity"] == linear_multiplicity(gamma8, act)


def test_oht_quaternion_couples_to_the_magnetic_field_at_second_order(oht):
    rep = mr.corep_from_matrices(oht["group"], oht["coreps"]["quaternion"])
    table = dispersion_order(rep, oht["actions"]["magnetic"], 2)
    assert table["orders"][0]["full"]["multiplicity"] == 0
    assert table["orders"][1]["full"]["splitting_multiplicity"] == 1
    assert table["leading_order"] == 2


def test_probe_stability_nodal_line_style_restriction():
    # C4v x T electron doublet restricted to the little co-group of a line:
    # keep the rotation subgroup and the anti-unitary partners that fix it
    entry = mr.catalog_get("c4v_t")
    rep = entry.reps["e_half"]
    g = entry.group
    labels = {lab: k for k, lab in enumerate(g.labels)}
    line_ids = [labels["E"], labels["C2"], labels["ET"], labels["C2T"]]
    report = probe_stability(rep, line_ids)
    assert report["subgroup_is_magnetic"]
    assert report["restricted_index"] == pytest.approx(1.0, abs=1e-9)


def test_substitution_oracle_hundred_samples_per_element():
    rng = np.random.default_rng(23)
    act = mr.catalog_get("c6v_t").probe_actions["momentum"]
    dual_mom = dual_rep(act)
    sets = polynomial_channel(act, 2, seed=0)
    for ch in sets.channels:
        dch = dual_rep(ch.action)
        for e in range(act.group.order):
            lin = dual_mom.d(e)
            dks = rng.standard_normal((100, 3))
            lhs = np.stack([ch.evaluate(lin @ dk) for dk in dks])
            rhs = np.stack([dch.d(e) @ ch.evaluate(dk) for dk in dks])
            assert np.abs(lhs - rhs).max() < 1e-9


def test_gammas_are_orthonormal(kp_sweep):
    for record in kp_sweep:
        model = record["model"]
        if model is None:
            continue
        flat = model.gammas.reshape(model.multiplicity, -1)
        gram = (flat.conj() @ flat.T).real
        assert np.abs(gram - np.eye(model.multiplicity)).max() < 1e-12, record["where"]


def test_gamma_construction_gauge_robust(oht):
    # rephasing the co-rep makes the twist phase omega(t0, t0) fully complex;
    # the construction must still match the (gauged) oracle span exactly
    entry = mr.catalog_get("z4t")
    rep = entry.reps["quaternion"]
    act = entry.probe_actions["momentum"]
    for seed in range(6):
        gauged = mr.random_gauge(rep, seed)
        model = build_gamma_matrices(gauged, act)
        oracle = covariant_tuple_basis_columnwise(gauged, act)
        assert model.multiplicity == oracle.shape[0] == 9
        assert tuple_span_residual(model.gammas, oracle) < 1e-10
        herm = np.abs(model.gammas
                      - np.conj(np.swapaxes(model.gammas, 2, 3))).max()
        assert herm == 0.0

    # every catalog co-rep in a random basis and gauge, the order-96 co-reps,
    # and an oblique action S D S^-1, whose dual differs from it
    cases = []
    for k, (name, rep_name, rep) in enumerate(catalog_irreps()):
        moved = mr.conjugate_corep(mr.random_gauge(rep, k), mr.random_unitary(rep.dim, k))
        cases += [(moved, a) for a in mr.catalog_get(name).probe_actions.values()]
    for mats in oht["coreps"].values():
        rep = mr.corep_from_matrices(oht["group"], mats)
        cases += [(rep, oht["actions"][a]) for a in ("momentum", "electric", "magnetic")]
    entry = mr.catalog_get("c4v_t")
    mom = entry.probe_actions["momentum"]
    s = np.array([[1.0, 0.4, 0.0], [0.0, 1.0, -0.3], [0.2, 0.0, 1.0]])
    s_inv = np.linalg.inv(s)
    oblique = ProbeRepAction(group=mom.group, d_h=s @ mom.d_h @ s_inv,
                             d_t0=s @ mom.d_t0 @ s_inv, kind="momentum")
    validate_action(oblique)
    assert np.abs(dual_rep(oblique).d_h - oblique.d_h).max() > 0.1
    cases.append((entry.reps["e_half"], oblique))
    built = 0
    for rep, act in cases:
        oracle = covariant_tuple_basis_columnwise(rep, act)
        if oracle.shape[0] == 0:
            with pytest.raises(EmptyChannel):
                build_gamma_matrices(rep, act)
            continue
        model = build_gamma_matrices(rep, act)
        assert model.multiplicity == oracle.shape[0]
        assert tuple_span_residual(model.gammas, oracle) < 1e-10
        assert np.abs(model.gammas - np.conj(np.swapaxes(model.gammas, 2, 3))).max() == 0.0
        built += 1
    # the oblique case, last, couples; so do about half of the others
    assert model.action is oblique and built > len(cases) // 3


def test_oracle_reads_the_generator_matrices_alone():
    # the solve reads the co-rep at group.generators only: NaN on every
    # other element leaves its tuples bit for bit, while build_gamma_matrices,
    # which reads every element, refuses the co-rep; the criterion meets the
    # NaN first, and a finite non-rep it cannot see (C2T given the matrix of
    # ET, as in CI's console-script step) fails the all-element residuals
    entry = mr.catalog_get("c4v_t")
    rep, g = entry.reps["e_half"], entry.group
    off = np.ones(g.order, dtype=bool)
    off[g.generators] = False
    nan_mats = rep.matrices.copy()
    nan_mats[off] = np.nan
    swapped = rep.matrices.copy()
    swapped[g.labels.index("C2T")] = swapped[g.labels.index("ET")]
    assert off[g.labels.index("C2T")]
    broken = [mr.CoRep(group=g, omega=rep.omega, matrices=m) for m in (nan_mats, swapped)]
    for act in entry.probe_actions.values():
        want = covariant_tuple_basis(rep, act)
        for bad in broken:
            assert np.array_equal(covariant_tuple_basis(bad, act), want)
    momentum = entry.probe_actions["momentum"]
    with pytest.raises(NonIntegerMultiplicity):
        build_gamma_matrices(broken[0], momentum)
    with pytest.raises(NotCommuting):
        build_gamma_matrices(broken[1], momentum)


def test_span_residual_matches_the_projector_form(kp_sweep):
    # the thin norm against the difference of the full projectors: on every
    # model/oracle pair of the catalog sweep and on perturbed subspaces
    rng = np.random.default_rng(23)
    pairs = 0
    for record in kp_sweep:
        model, oracle = record["model"], record["oracle"]
        if model is None:
            continue
        pairs += 1
        want = tuple_span_residual_projectors(model.gammas, oracle)
        assert abs(tuple_span_residual(model.gammas, oracle) - want) <= 1e-15
        for eps in (1e-3, 1e-8, 1e-13):
            kick = eps * (rng.standard_normal(oracle.shape)
                          + 1j * rng.standard_normal(oracle.shape))
            moved = oracle + kick
            want = tuple_span_residual_projectors(oracle, moved)
            got = tuple_span_residual(oracle, moved)
            assert abs(got - want) <= 1e-3 * want + 1e-15, (record["where"], eps)
    assert pairs > 30
    rep, actions = kramers_setup()
    three = covariant_tuple_basis(rep, actions["magnetic"])
    assert tuple_span_residual(three, three[:2]) == float("inf")
    assert tuple_span_residual(three[:0], three[:0]) == 0.0


@pytest.mark.parametrize("copies", [2, 3])
def test_oracle_matches_the_criterion_on_order_96_gamma8_sums(oht, copies):
    # d = 8 and 12 against the magnetic channel, where the column-by-column
    # all-element oracle would have 49 * 2 * 3 d^2 rows: the count against
    # the criterion and the all-element residuals, plain and rotated + gauged
    gamma8 = mr.corep_from_matrices(oht["group"], oht["coreps"]["gamma8"])
    rep = mr.direct_sum([gamma8] * copies)
    act = oht["actions"]["magnetic"]
    moved = mr.random_gauge(mr.conjugate_corep(rep, mr.random_unitary(rep.dim, 80)), 81)
    for r in (rep, moved):
        # the model's tuples are the generator null space itself
        model = build_gamma_matrices(r, act)
        assert model.multiplicity == linear_multiplicity(r, act) > 0
        assert max(model.residuals.values()) <= 1e-12


def relative_gram_spectra(monkeypatch, cases) -> tuple:
    """``covariant_tuple_basis`` of every (rep, action) case, and the Gram
    eigenvalues of each solve relative to max(1, lambda_max), as one array."""
    spectra = []
    eigh = np.linalg.eigh

    def recorded(a):
        out = eigh(a)
        spectra.append(out[0] / max(1.0, out[0].max(initial=0.0)))
        return out

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    bases = [covariant_tuple_basis(rep, a) for rep, a in cases]
    monkeypatch.undo()
    assert len(spectra) == len(cases)
    return bases, np.concatenate(spectra)


def assert_far_from_the_cutoff(values) -> None:
    assert values[values > NULL_SPACE_ATOL].min() > 1e-2
    assert values[values <= NULL_SPACE_ATOL].max() < 1e-13


def test_oracle_systems_are_far_from_the_cutoff(oht, monkeypatch):
    # every generator system of the catalog sweep and of the order-96 co-reps
    # (d <= 4 against each probe and its channels of orders 1-2, Gamma8 + Gamma8
    # against the magnetic one): its Gram eigenvalues, relative to
    # max(1, lambda_max), are rounding noise or of order one, far on either
    # side of NULL_SPACE_ATOL
    cases = []
    for name, _, rep in catalog_irreps():
        for act in mr.catalog_get(name).probe_actions.values():
            cases += [(rep, a) for _, _, a in channel_actions(act, (1, 2, 3))]
    reps = {r: mr.corep_from_matrices(oht["group"], m) for r, m in oht["coreps"].items()}
    for rep in reps.values():
        for probe in ("momentum", "electric", "magnetic"):
            cases += [(rep, a) for _, _, a in channel_actions(oht["actions"][probe], (1, 2))]
    cases.append((mr.direct_sum([reps["gamma8"]] * 2), oht["actions"]["magnetic"]))
    assert len(cases) > 800
    assert_far_from_the_cutoff(relative_gram_spectra(monkeypatch, cases)[1])


@pytest.mark.parametrize("summands", [("spinor", "gamma8"), ("gamma8",) * 3])
def test_oracle_at_d_6_and_12_matches_the_criterion_far_from_the_cutoff(
        oht, monkeypatch, summands):
    # Gamma6 + Gamma8 (d = 6) and 3 Gamma8 (d = 12) against momentum and the
    # magnetic field, plain and rotated + gauged: the null space has the
    # criterion's dimension, its tuples are covariant under every element,
    # and the Gram spectrum keeps the gap of the small systems
    rep = mr.direct_sum([mr.corep_from_matrices(oht["group"], oht["coreps"][r])
                         for r in summands])
    moved = mr.random_gauge(mr.conjugate_corep(rep, mr.random_unitary(rep.dim, 82)), 83)
    cases = [(r, oht["actions"][probe]) for r in (rep, moved)
             for probe in ("momentum", "magnetic")]
    bases, values = relative_gram_spectra(monkeypatch, cases)
    coupled = 0
    for (r, a), basis in zip(cases, bases):
        assert basis.shape[0] == linear_multiplicity(r, a)
        if basis.shape[0]:
            coupled += 1
            assert max(_covariance_residuals(r, dual_rep(a), basis).values()) <= 1e-12
    assert coupled == 2
    assert_far_from_the_cutoff(values)


def test_gamma_construction_unitary_group_branch():
    # purely unitary groups take the subgroup average alone, with no (1 + L)/2
    # factor; check both a trivial group and a projective nonabelian one
    # against the oracle
    kram = mr.catalog_get("z2t_kramers").reps["kramers"]
    h_rep, _ = mr.restrict_corep(kram, kram.group.h_elements)
    act = ProbeRepAction(group=h_rep.group, d_h=[np.eye(1)], d_t0=None)
    model = build_gamma_matrices(h_rep, act)
    assert model.multiplicity == 4
    assert tuple_span_residual(model.gammas,
                               covariant_tuple_basis_columnwise(h_rep, act)) < 1e-10

    entry = mr.catalog_get("c4v_t")
    spinful, _ = mr.restrict_corep(entry.reps["e_half"], entry.group.h_elements)
    mom = entry.probe_actions["momentum"]
    vec = ProbeRepAction(group=spinful.group, d_h=mom.d_h, d_t0=None, kind="momentum")
    validate_action(vec)
    assert linear_multiplicity(spinful, vec) == 2
    model = build_gamma_matrices(spinful, vec)
    oracle = covariant_tuple_basis_columnwise(spinful, vec)
    assert model.multiplicity == oracle.shape[0] == 2
    assert tuple_span_residual(model.gammas, oracle) < 1e-10
    assert np.abs(model.gammas - np.conj(np.swapaxes(model.gammas, 2, 3))).max() < 1e-12
