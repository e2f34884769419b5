import numpy as np
import pytest

import magrep as mr
from magrep.errors import (
    EmptyChannel,
    InvalidAction,
    NotASubgroupEmbedding,
    SingularAction,
)
from magrep.kp import (
    ProbeRepAction,
    _covariance_residuals,
    build_gamma_matrices,
    covariant_tuple_basis,
    dispersion_order,
    dual_rep,
    linear_multiplicity,
    multiplicity_value,
    polynomial_channel,
    probe_stability,
    trivial_multiplicity,
    tuple_span_residual,
    validate_action,
)
from conftest import multiplicity_value_diagonal_t0, multiplicity_value_trace_form

PAULI = [np.array(m, dtype=complex) for m in (
    [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])]


def kramers_setup():
    entry = mr.catalog_get("z2t_kramers")
    return entry.reps["kramers"], entry.probe_actions


# -- probe actions -----------------------------------------------------------------

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
    assert trivial_multiplicity(actions["magnetic"]) == 0


def test_electric_channel_only_trivial_coupling():
    rep, actions = kramers_setup()
    assert linear_multiplicity(rep, actions["electric"]) == 1
    assert trivial_multiplicity(actions["electric"]) == 1


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
    rep, _ = mr.coreps.unitary_restriction(mr.catalog_get("z2t_kramers").reps["kramers"])
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
    oracle = covariant_tuple_basis(rep, actions["momentum"])
    assert tuple_span_residual(model.gammas, oracle) < 1e-10


def test_covariance_residuals_see_each_equation():
    # the identity tuple is H-covariant (H is trivial) but odd momentum needs
    # M(T) conj(gamma) M(T)^dag = -gamma, which the identity misses by 2
    rep, actions = kramers_setup()
    gammas = np.broadcast_to(np.eye(2), (1, 3, 2, 2)).astype(complex)
    res = _covariance_residuals(rep, actions["momentum"], gammas)
    assert res["subgroup_covariance"] == 0.0
    assert res["t0_covariance"] == pytest.approx(2.0)
    assert res["hermiticity"] == 0.0


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
    assert sets.full_action is act
    assert sum(c.action.dim_q for c in sets.channels) == 3


def test_monomial_count():
    act = mr.catalog_get("z2t").probe_actions["momentum"]
    sets = polynomial_channel(act, 2)
    assert len(sets.exponents) == 6
    assert sets.full_action.dim_q == 6


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


def test_probe_stability_with_explicit_subgroup_object():
    rep, _ = kramers_setup()
    sub = mr.groups.build_group([[0]], [0])
    report = probe_stability(rep, [0], g_sub=sub)
    assert report["restricted_index"] == pytest.approx(4.0)
    bad = mr.groups.build_group([[0, 1], [1, 0]], [0, 0])
    with pytest.raises(NotASubgroupEmbedding):
        probe_stability(rep, [0, 1], g_sub=bad)


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


def test_gamma_construction_gauge_robust():
    # rephasing the co-rep makes the twist phase omega(t0, t0) fully complex;
    # the construction must still match the (gauged) oracle span exactly
    entry = mr.catalog_get("z4t")
    rep = entry.reps["quaternion"]
    act = entry.probe_actions["momentum"]
    for seed in range(6):
        gauged = mr.random_gauge(rep, seed)
        model = build_gamma_matrices(gauged, act)
        oracle = covariant_tuple_basis(gauged, act)
        assert model.multiplicity == oracle.shape[0] == 9
        assert tuple_span_residual(model.gammas, oracle) < 1e-10
        herm = np.abs(model.gammas
                      - np.conj(np.swapaxes(model.gammas, 2, 3))).max()
        assert herm < 1e-12


def test_gamma_construction_unitary_group_branch():
    # purely unitary groups take the subgroup average alone, with no (1 + L)/2
    # factor; check both a trivial group and a projective nonabelian one
    # against the oracle
    h_rep, _ = mr.coreps.unitary_restriction(
        mr.catalog_get("z2t_kramers").reps["kramers"])
    act = ProbeRepAction(group=h_rep.group, d_h=[np.eye(1)], d_t0=None)
    model = build_gamma_matrices(h_rep, act)
    assert model.multiplicity == 4
    assert tuple_span_residual(model.gammas, covariant_tuple_basis(h_rep, act)) < 1e-10

    entry = mr.catalog_get("c4v_t")
    spinful, _ = mr.coreps.unitary_restriction(entry.reps["e_half"])
    mom = entry.probe_actions["momentum"]
    vec = ProbeRepAction(group=spinful.group, d_h=mom.d_h, d_t0=None, kind="momentum")
    validate_action(vec)
    assert linear_multiplicity(spinful, vec) == 2
    model = build_gamma_matrices(spinful, vec)
    oracle = covariant_tuple_basis(spinful, vec)
    assert model.multiplicity == oracle.shape[0] == 2
    assert tuple_span_residual(model.gammas, oracle) < 1e-10
    assert np.abs(model.gammas - np.conj(np.swapaxes(model.gammas, 2, 3))).max() < 1e-12
