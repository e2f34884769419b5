import hashlib

import numpy as np
import pytest

import magrep as mr
import magrep.catalog
from magrep.coreps import COREP_TOL, validate_corep
from magrep.errors import UnknownName
from magrep.groups import validate_cocycle
from magrep.kp import validate_action
from magrep.reduction import irreducibility_index


def test_catalog_has_required_entries():
    names = mr.catalog_list()
    assert len(names) >= 6
    for required in ("z2t", "z2t_kramers", "z4t", "c4v_t", "c6v_t", "c8t"):
        assert required in names


def test_unknown_name():
    with pytest.raises(UnknownName):
        mr.catalog_get("nope")


def test_kramers_entry_shape():
    entry = mr.catalog_get("z2t_kramers")
    assert entry.reps["kramers"].dim == 2
    assert entry.reps["kramers"].omega(1, 1) == pytest.approx(-1.0)


def test_z2t_both_cocycle_classes_present():
    plain = mr.catalog_get("z2t")
    kram = mr.catalog_get("z2t_kramers")
    assert plain.omega_classes["trivial"](1, 1) == pytest.approx(1.0)
    assert kram.omega_classes["kramers"](1, 1) == pytest.approx(-1.0)


def test_type_ii_entries_are_non_split():
    for name in ("z4t", "c8t"):
        g = mr.catalog_get(name).group
        assert g.sigma != g.identity


def test_every_rep_validates():
    for name in mr.catalog_list():
        entry = mr.catalog_get(name)
        for rep_name, rep in entry.reps.items():
            report = validate_corep(rep)
            assert report.passed, (name, rep_name, report)
            # the fit's carried bounds, which every co-rep consumer trusts
            assert rep.residuals is not None and max(rep.residuals) <= COREP_TOL, \
                (name, rep_name, rep.residuals)
            assert validate_cocycle(entry.group, rep.omega).passed
            assert entry.rep_omega[rep_name] in entry.omega_classes


def test_cold_build_runs_no_whole_object_check(monkeypatch):
    # the co-rep, cocycle and action checks of the built-in constants run in
    # test_every_rep_validates and test_every_action_validates, not on
    # every cold lookup
    calls = []
    checks = ("validate_cocycle", "validate_action", "validate_corep")
    for module in (magrep.catalog, magrep.groups, magrep.coreps, magrep.kp, magrep.reduction):
        for check in checks:
            real = getattr(module, check, None)
            if real is not None:
                def spy(*args, _real=real, _name=check, **kwargs):
                    calls.append(_name)
                    return _real(*args, **kwargs)
                monkeypatch.setattr(module, check, spy)
    # catalog_get without its cache: each entry built from scratch
    built = [magrep.catalog.catalog_get.__wrapped__(name) for name in mr.catalog_list()]
    assert len(built) == 8 and calls == []


def test_every_rep_is_irreducible():
    for name in mr.catalog_list():
        for rep_name, rep in mr.catalog_get(name).reps.items():
            assert irreducibility_index(rep) == pytest.approx(1.0, abs=1e-10), \
                (name, rep_name)


def test_every_action_validates():
    for name in mr.catalog_list():
        entry = mr.catalog_get(name)
        for act_name, act in entry.probe_actions.items():
            validate_action(act)


def test_vector_actions_for_both_t0_signs():
    for name in ("z2t", "z2t_kramers", "z4t", "c8t"):
        actions = mr.catalog_get(name).probe_actions
        assert np.allclose(actions["vector_t_even"].d_t0, np.eye(3))
        assert np.allclose(actions["vector_t_odd"].d_t0, -np.eye(3))
    for name in ("c4v_t", "c6v_t"):
        actions = mr.catalog_get(name).probe_actions
        assert np.allclose(actions["momentum"].d_t0, -np.eye(3))
        assert np.allclose(actions["vector_t_even"].d_t0, np.eye(3))


def test_torsion_coverage():
    seen = set()
    for name in mr.catalog_list():
        for rep in mr.catalog_get(name).reps.values():
            if rep.group.is_magnetic:
                seen.add(mr.torsion_number(rep))
    assert seen == {1, 2, 4}


# The catalog as built before its entries went through one realization path,
# pinned so that a rewrite of the builders cannot move a table, a label, an
# id or an insertion order.  Per entry: the sha256 of the Cayley table's
# int64 bytes, the flags, the labels, t0, the generators and the co-rep names
# with their factor-system classes.
PINNED = {
    "c4v_c4": ("b4fddc32be007c809e52f6d64b92c1beb18cd7b8a2b30d3cd5cfc0e7973f7470",
               "00001111", "E C4 C2 C4^3 m0T m45T m90T m135T", 4, [1, 4],
               {"a1": "class_a1", "b": "class_b", "c4_i": "class_c4_i",
                "e_half_up": "class_e_half_up"}),
    "c4v_t": ("b668905882c644889d317d8dbe7cd578ac01bf84a24614e54d917592d0f4836b",
              "0000000011111111",
              "E C4 C2 C4^3 m0 m45 m90 m135 ET C4T C2T C4^3T m0T m45T m90T m135T",
              8, [1, 4, 8], {"a1": "trivial", "e": "trivial", "e_half": "spinful"}),
    "c6v_t": ("e1529d7571c55c99358af07209a138b8797445a706506919f84c6c3bbc6309f2",
              "000000000000111111111111",
              "E C6 C3 C2 C3^2 C6^5 m0 m30 m60 m90 m120 m150 "
              "ET C6T C3T C2T C3^2T C6^5T m0T m30T m60T m90T m120T m150T",
              12, [1, 6, 12],
              {"a1": "trivial", "e1": "trivial", "e2": "trivial", "e_half": "spinful"}),
    "c8t": ("f6c0adf5798dcfbd2a5417dd09c7e119f6a982ef87d397c20997cf37eea3f4e4",
            "01010101", "E C8T C4 C8^3T C2 C8^5T C4^3 C8^7T", 1, [2, 1],
            {"trivial": "trivial", "complex_pair": "trivial"}),
    "q8t": ("001045a925c5ce195b61470516bedf814185cffba6086fafe5865659e5614095",
            "0000000011111111",
            "E Ebar i ibar j jbar k kbar ET EbarT iT ibarT jT jbarT kT kbarT", 8, [2, 4, 8],
            {"a1": "trivial", "quartet": "trivial"}),
    "z2t": ("db7f8e2aa97f8d230fc0a6c6d68184ecfee02f4bd2e94dcb331c0d3d54ca5fe8",
            "01", "E T", 1, [1], {"trivial": "trivial"}),
    "z2t_kramers": ("db7f8e2aa97f8d230fc0a6c6d68184ecfee02f4bd2e94dcb331c0d3d54ca5fe8",
                    "01", "E T", 1, [1], {"kramers": "kramers"}),
    "z4t": ("3333dfa1990b9044f09bf898d476201308d9518159b1d9e316bb253dc58d139c",
            "0011", "E s T0 T0s", 2, [1, 2], {"scalar": "trivial", "quaternion": "trivial"}),
}

# (name, kind, dim) of the probe actions in insertion order; the pairs in
# SHARED are one object under two names
SCALAR_ACTIONS = [("vector_t_even", "electric", 3), ("vector_t_odd", "momentum", 3),
                  ("momentum", "momentum", 3), ("electric", "electric", 1),
                  ("magnetic", "magnetic", 1)]
CNV_ACTIONS = [("momentum", "momentum", 3), ("vector_t_even", "electric", 3),
               ("kz_odd", "magnetic", 1)]
PINNED_ACTIONS = {
    "c4v_c4": [("momentum", "momentum", 3), ("kz_odd", "magnetic", 1)],
    "c4v_t": CNV_ACTIONS,
    "c6v_t": CNV_ACTIONS,
    "c8t": [("momentum", "momentum", 3), ("kz_odd", "magnetic", 1),
            ("vector_t_even", "electric", 3), ("vector_t_odd", "momentum", 3)],
    "q8t": [("momentum", "momentum", 3), ("vector_t_even", "electric", 3),
            ("magnetic", "magnetic", 1)],
    "z2t": SCALAR_ACTIONS,
    "z2t_kramers": SCALAR_ACTIONS,
    "z4t": SCALAR_ACTIONS,
}
SHARED = {name: {("momentum", "vector_t_odd")} for name in ("z2t", "z2t_kramers", "z4t")}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_catalog_entry_is_pinned(name):
    assert mr.catalog_list() == sorted(PINNED)
    entry = mr.catalog_get(name)
    g = entry.group
    table_sha, flags, labels, t0, generators, rep_omega = PINNED[name]
    assert entry.name == name
    assert g.cayley.dtype == np.int64
    assert hashlib.sha256(g.cayley.tobytes()).hexdigest() == table_sha
    assert "".join(str(int(f)) for f in g.antiunitary) == flags
    assert list(g.labels) == labels.split()
    assert (g.identity, g.t0) == (0, t0)
    assert g.generators.tolist() == generators
    assert list(entry.rep_omega.items()) == list(rep_omega.items())
    assert list(entry.reps) == list(rep_omega)
    # each class holds the factor system of its first co-rep
    first = {}
    for rep_name, key in rep_omega.items():
        first.setdefault(key, rep_name)
    assert list(entry.omega_classes) == list(first)
    assert all(entry.omega_classes[k] is entry.reps[r].omega for k, r in first.items())
    acts = entry.probe_actions
    assert [(a, act.kind, act.dim_q) for a, act in acts.items()] == PINNED_ACTIONS[name]
    shared = {(a, b) for a in acts for b in acts if a < b and acts[a] is acts[b]}
    assert shared == SHARED.get(name, set())
