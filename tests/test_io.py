import json

import numpy as np
import pytest

import magrep as mr
from magrep import io
from magrep.coreps import CoRep, conjugate_corep
from magrep.errors import ParseError
from magrep.kp import dispersion_order, probe_stability
from magrep.linalg import random_unitary

from conftest import assert_renders_as_indented, indented_report, render_per_leaf


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def through_report(data):
    return json.loads(io.write_report(data))


def same_group(a, b):
    assert same_bits(a.cayley, b.cayley)
    assert same_bits(a.antiunitary, b.antiunitary)
    assert list(a.labels) == list(b.labels)


@pytest.mark.parametrize("name", mr.catalog_list())
def test_catalog_entry_round_trips_bitwise(name):
    entry = mr.catalog_get(name)
    g = entry.group
    for r, rep in entry.reps.items():
        group, omega = io.load_group(through_report(io.group_to_dict(g, rep.omega)))
        same_group(group, g)
        assert same_bits(omega.values, rep.omega.values)
        # a rotated copy puts full-precision floats of both signs in every entry
        rotated = conjugate_corep(rep, random_unitary(rep.dim, 5))
        for original in (rep, rotated):
            data = through_report(io.corep_to_dict(original))
            assert sorted(data) == ["dim", "matrices"]
            back = io.load_corep(data, group, omega)
            assert back.group is group and back.omega is omega
            assert same_bits(back.matrices, original.matrices)
    for a, act in entry.probe_actions.items():
        back = io.load_action(through_report(io.action_to_dict(act)), g)
        assert same_bits(back.d_h, act.d_h)
        assert (back.d_t0 is None) == (act.d_t0 is None)
        if act.d_t0 is not None:
            assert same_bits(back.d_t0, act.d_t0)
        assert back.kind == act.kind


@pytest.mark.parametrize("name", mr.catalog_list())
def test_co_rep_file_with_a_group_key_loads_under_the_given_group(name, tmp_path):
    # co-rep files written before the format held only dim and matrices
    # carry their group inline; the key is ignored, whatever it holds
    entry = mr.catalog_get(name)
    for r, rep in entry.reps.items():
        group, omega = io.load_group(through_report(io.group_to_dict(entry.group, rep.omega)))
        plain = io.corep_to_dict(rep)
        for ref in (io.group_to_dict(entry.group, rep.omega), "elsewhere.json", 5):
            path = tmp_path / f"{r}.rep.json"
            path.write_text(io.write_report({**plain, "group": ref}))
            back = io.load_corep(str(path), group, omega)
            assert back.group is group and back.omega is omega
            assert same_bits(back.matrices, rep.matrices), (r, ref)


@pytest.mark.parametrize("chain", ["default", "custom"])
def test_group_file_with_a_subgroup_chain_loads_as_without_it(chain):
    # files written before the reduction labelled blocks by H alone carry a
    # "subgroup_chain" key, which is now ignored like any unknown key
    entry = mr.catalog_get("c4v_t")
    g, rep = entry.group, entry.reps["e_half"]
    ids = {lab: k for k, lab in enumerate(g.labels)}
    h = g.h_elements.tolist()
    chains = {"default": [[g.identity], h],
              "custom": [[ids["E"], ids["C2"]], [ids["E"], ids["C4"], ids["C2"], ids["C4^3"]], h]}
    data = through_report(io.group_to_dict(g, rep.omega))
    assert "subgroup_chain" not in data
    group, omega = io.load_group({**data, "subgroup_chain": chains[chain]})
    want_group, want_omega = io.load_group(data)
    same_group(group, want_group)
    assert same_bits(omega.values, want_omega.values)
    mixed = conjugate_corep(mr.direct_sum([rep, rep]), random_unitary(4, 17))
    got, want = (mr.reduce_corep(CoRep(group=grp, omega=w, matrices=mixed.matrices), seed=5)
                 for grp, w in ((group, omega), (want_group, want_omega)))
    assert same_bits(got.basis, want.basis)
    assert got.label_names == want.label_names == [
        "class_ops_subgroup_8", "energy", "multiplet_split"]
    assert got.residuals == want.residuals and got.seeds_used == want.seeds_used
    for a, b in zip(got.blocks, want.blocks, strict=True):
        assert (a.start, a.stop, a.energy, a.torsion, a.index) == (
            b.start, b.stop, b.energy, b.torsion, b.index)
        assert same_bits(a.labels, b.labels)


def test_pairs_to_matrix_reads_rows_of_pairs_exactly():
    rows = [[[1, -0.0], [0.5, 2]], [[True, False], [-3, 1e-300]]]
    got = io.pairs_to_matrix(rows)
    want = np.array([[complex(1, -0.0), complex(0.5, 2)],
                     [complex(1, 0), complex(-3, 1e-300)]])
    assert same_bits(got, want)


@pytest.mark.parametrize("rows", [
    [[["1", 0.0]]],               # a string
    [[[1.0, "0"]]],
    [[None]],                     # None for a pair
    [[[1.0, None]]],
    [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0]]],   # a ragged row
    [[[1.0, 0.0, 0.0]]],          # a 3-element pair
    [[[1.0]]],                    # a 1-element pair
    [[1.0, 0.0]],                 # a row of numbers, not of pairs
    [[[float("nan"), 0.0]]],      # non-finite entries
    [[[0.0, float("inf")]]],
    [[[10 ** 400, 0.0]]],         # an integer literal beyond float range
], ids=["string", "string-im", "none", "none-im", "ragged", "triple", "single",
        "flat", "nan", "inf", "huge-int"])
def test_pairs_to_matrix_refuses_malformed_rows(rows):
    with pytest.raises(ParseError):
        io.pairs_to_matrix(rows)


def test_report_converts_numpy_scalars_and_tuples():
    report = {"i": np.int64(-3), "u": np.uint8(7), "b": np.bool_(True),
              "f": np.float64(0.1), "f32": np.float32(0.5), "t": (1, np.int32(2)),
              "z": np.complex128(1 - 2j), "c": 3 + 0j, "s": np.str_("x")}
    assert through_report(report) == {
        "i": -3, "u": 7, "b": True, "f": 0.1, "f32": 0.5, "t": [1, 2],
        "z": [1.0, -2.0], "c": [3.0, 0.0], "s": "x"}


def test_report_renders_non_finite_complex_entries_as_null():
    nan = complex(np.nan, 0.0)
    nested = np.array([[[1 + 2j, nan]], [[complex(0, np.inf), -0.0 - 1j]]])
    assert through_report({
        "zero_d": np.array(1 - 1j),
        "zero_d_nan": np.array(nan),
        "scalar_nan": np.complex64(nan),
        "nested": nested,
        "real": np.arange(3.0),
    }) == {
        "zero_d": [1.0, -1.0],
        "zero_d_nan": None,
        "scalar_nan": None,
        "nested": [[[[1.0, 2.0], None]], [[None, [-0.0, -1.0]]]],
        "real": [0.0, 1.0, 2.0],
    }


def test_report_keeps_the_no_label_nan_of_block_labels_as_null():
    dec = mr.reduce_corep(mr.catalog_get("c4v_t").reps["a1"], seed=0)
    labels = through_report({"labels": dec.blocks[0].labels})["labels"]
    assert any(entry is None for row in labels for entry in row)


def test_report_puts_each_leaf_value_on_one_line():
    # dicts and lists of dicts open, one entry per line; every other value,
    # arrays and empty containers too, is one line
    report = {
        "nested": {"b": 1, "a": {"x": None}},
        "models": [{"k": 2}, {"j": True}],
        "real": np.array([[1.0, -0.5], [0.0, 2.0]]),
        "complex": np.array([1 - 1j, complex(np.nan, 0.0)]),
        "tuple": (1, "two"),
        "empty_dict": {},
        "empty_list": [],
        "count": np.int64(7),
        "flag": False,
        "none": None,
    }
    text = io.write_report(report)
    assert text == """{
  "complex": [[1.0, -1.0], null],
  "count": 7,
  "empty_dict": {},
  "empty_list": [],
  "flag": false,
  "models": [
    {
      "k": 2
    },
    {
      "j": true
    }
  ],
  "nested": {
    "a": {
      "x": null
    },
    "b": 1
  },
  "none": null,
  "real": [[1.0, -0.5], [0.0, 2.0]],
  "tuple": [1, "two"]
}"""
    assert_renders_as_indented(report, text)


@pytest.mark.parametrize("report", [
    {2: "int", 1.5: "float", False: "bool"},
    {None: [{}]},
    {"": [[{"z": 1, "a": -0.0}]]},
    {"\u00e9\n\"": (np.float32(0.1), np.uint8(3), 1e-300)},
], ids=["number-keys", "none-key", "dict-in-leaf", "escapes"])
def test_report_keys_and_leaves_follow_json(report):
    # keys converted and sorted as json sorts them; a dict inside a leaf
    # sorted too
    assert_renders_as_indented(report, io.write_report(report))


@pytest.mark.parametrize("report, error", [
    ({np.int64(1): 0}, TypeError),
    ({1: 0, "a": 1}, TypeError),
    ({float("nan"): 0}, ValueError),
], ids=["numpy-key", "mixed-keys", "nan-key"])
def test_report_refuses_keys_json_refuses(report, error):
    for render in (io.write_report, indented_report):
        with pytest.raises(error):
            render(report)


def test_report_matches_the_per_leaf_oracle_on_every_catalog_report(kp_sweep):
    # the direct scalar writes against json encoding every leaf and key
    reports = []
    for name in mr.catalog_list():
        entry = mr.catalog_get(name)
        g = entry.group
        for rep in entry.reps.values():
            for act in entry.probe_actions.values():
                reports.append(dispersion_order(rep, act, 3, seed=2))
            if g.is_magnetic:
                reports.append(probe_stability(rep, g.h_elements, dict(entry.probe_actions)))
    models = [r["model"] for r in kp_sweep if r["model"] is not None]
    assert len(models) > 100
    reports += [{"where": r["where"], "multiplicity": r["model"].multiplicity,
                 "gammas": r["model"].gammas, "residuals": r["model"].residuals}
                for r in kp_sweep if r["model"] is not None]
    for report in reports:
        assert io.write_report(report) == render_per_leaf(report)


@pytest.mark.parametrize("report", [
    {"complex": np.array([[1 - 1j, complex(np.nan, 0.0)]]), "real": np.array([-0.0, 1e-300])},
    {"f64": np.float64(0.1), "i64": np.int64(-3), "tiny": 5e-324, "big": 1e300, "neg": -0.0},
    {"true": True, "false": False, "none": None, "int": 2**70, "str": "\u00e9\n\"\\"},
    {1: "a", -2: {"x": 0}}, {0.5: 1, 1e-7: 2}, {True: [1], False: 2}, {None: (1, "two")},
    {"\u00e9\n\"": 1, "": {"\t": [2]}},
    {"tuple": (1, 2.5, None, (True, "x")), "nested": [{"a": ()}, 3, [{"b": []}]]},
    {"empty_dict": {}, "empty_list": [], "empty_tuple": ()},
], ids=["arrays", "numbers", "literals", "int-keys", "float-keys", "bool-keys", "none-key",
        "str-keys", "tuples", "empty"])
def test_report_edge_leaves_match_the_per_leaf_oracle(report):
    assert io.write_report(report) == render_per_leaf(report)
    assert io.write_report({"wrapped": [report]}) == render_per_leaf({"wrapped": [report]})


@pytest.mark.parametrize("value", [float("nan"), np.array([[0.0], [np.inf]])],
                         ids=["nan", "array-inf"])
def test_report_and_oracle_refuse_the_same_non_finite_reals(value):
    for render in (io.write_report, render_per_leaf):
        with pytest.raises(ValueError):
            render({"value": value})
    # a refusal leaves nothing behind for the next report
    shared = [1.0, 2]
    report = {"a": [shared, shared], "b": np.arange(2)}
    assert io.write_report(report) == render_per_leaf(report)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), np.float64(-np.inf), np.float32(np.nan),
    [1.0, float("nan")], (0.0, float("inf")), np.array([1.0, np.nan]),
    np.array([[0.0], [np.inf]]), {"deep": [{"x": np.float64(np.nan)}]},
], ids=["nan", "inf", "np-inf", "np32-nan", "list", "tuple", "array", "array-2d", "nested"])
def test_report_refuses_non_finite_reals(value):
    with pytest.raises(ValueError):
        io.write_report({"value": value})


def test_non_finite_corep_raises_on_write_and_writes_nothing(tmp_path):
    rep = mr.catalog_get("z2t_kramers").reps["kramers"]
    mats = rep.matrices.copy()
    mats[1, 0, 1] = complex(np.nan, 1.0)
    bad = CoRep(group=rep.group, omega=rep.omega, matrices=mats)
    out = tmp_path / "bad.rep.json"
    with pytest.raises(ValueError):
        io.write_report(io.corep_to_dict(bad), out=str(out))
    assert not out.exists()


def load_c4v_t(kind, edit):
    """The c4v_t e_half co-rep file (``kind`` "rep") or momentum action file
    ("action"), read back after ``edit`` changed its parsed data in place."""
    entry = mr.catalog_get("c4v_t")
    data = through_report(io.corep_to_dict(entry.reps["e_half"]) if kind == "rep"
                          else io.action_to_dict(entry.probe_actions["momentum"]))
    edit(data)
    if kind == "rep":
        return io.load_corep(data, entry.group, entry.reps["e_half"].omega)
    return io.load_action(data, entry.group)


def load_c4v_t_group(edit):
    entry = mr.catalog_get("c4v_t")
    data = through_report(io.group_to_dict(entry.group, entry.reps["e_half"].omega))
    edit(data)
    return io.load_group(data)


def write_text(path, text):
    path.write_text(text)
    return str(path)


#: the element-matrix reader's refusals, each for co-rep and action files:
#: the edit of the file and the message it gets
READER_REFUSALS = {
    "no-matrices": (lambda d: d.pop("matrices"), "needs 'matrices'"),
    "matrices-a-list": (lambda d: d.update(matrices=list(d["matrices"].values())),
                        "needs 'matrices'"),
    "unknown-label": (lambda d: d["matrices"].update(X=d["matrices"]["E"]),
                      "unknown element label 'X'"),
    "shape-not-dim": (lambda d: d.update(dim=d["dim"] + 1), "matrix of C2 is not"),
    "missing-element": (lambda d: d["matrices"].pop("C2"), "element matrices"),
}


@pytest.mark.parametrize("load, match", [
    *(pytest.param(lambda tmp, kind=kind, edit=edit: load_c4v_t(kind, edit), match,
                   id=f"{kind}-{case}")
      for kind in ("rep", "action") for case, (edit, match) in READER_REFUSALS.items()),
    pytest.param(lambda tmp: load_c4v_t("action", lambda d: d["matrices"].update(
        ET=d["matrices"]["E"])), "action files list the unitary elements only, got 'ET'",
        id="action-anti-unitary-label"),
    pytest.param(lambda tmp: load_c4v_t("action", lambda d: d.pop("t0")), "'t0'",
                 id="action-magnetic-without-t0"),
    pytest.param(lambda tmp: load_c4v_t("action", lambda d: d["matrices"].update(
        C4=[[1.0, 0.0, 0.0], [1.0]])), None, id="real-matrix-ragged-rows"),
    pytest.param(lambda tmp: load_c4v_t("action", lambda d: d["matrices"].update(
        C4=[1.0, 0.0, 0.0])), "must be a matrix", id="real-matrix-not-2d"),
    pytest.param(lambda tmp: io.load_group(str(tmp / "absent.json")), "cannot read",
                 id="unreadable-path"),
    pytest.param(lambda tmp: io.load_group(write_text(tmp / "list.json", "[1, 2]")),
                 "top level must be an object", id="top-level-not-an-object"),
    pytest.param(lambda tmp: load_c4v_t_group(lambda d: d.pop("cayley")), "'cayley'",
                 id="group-missing-key"),
    pytest.param(lambda tmp: load_c4v_t_group(lambda d: d.update(order=8)),
                 "cayley table size", id="group-cayley-size-not-order"),
    pytest.param(lambda tmp: load_c4v_t_group(lambda d: d.update(omega=[[[1, 0]]])),
                 "factor system shape", id="group-omega-shape"),
])
def test_every_boundary_refusal_is_a_parse_error(load, match, tmp_path):
    with pytest.raises(ParseError, match=match):
        load(tmp_path)


def test_the_unedited_files_of_the_refusal_cases_load():
    # the refusals above come from their edits, not from the files they edit
    entry = mr.catalog_get("c4v_t")
    rep = load_c4v_t("rep", lambda d: None)
    action = load_c4v_t("action", lambda d: None)
    assert same_bits(rep.matrices, entry.reps["e_half"].matrices)
    assert same_bits(action.d_h, entry.probe_actions["momentum"].d_h)
    same_group(load_c4v_t_group(lambda d: None)[0], entry.group)
