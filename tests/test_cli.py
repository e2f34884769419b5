import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

import magrep as mr
import magrep.cli
import magrep.coreps
import magrep.reduction
from magrep import io
from magrep.cli import main

from conftest import assert_renders_as_indented, indented_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalog")
    for name in ("z2t_kramers", "z2t", "c4v_t"):
        assert main(["catalog", name, "--export", str(root), "--out",
                     str(root / f"{name}.manifest.json")]) == 0
    return root


def test_catalog_listing(capsys):
    code, report = run_cli(capsys, "catalog")
    assert code == 0
    assert len(report["entries"]) >= 6


def test_validate_good_files(exported, capsys):
    code, report = run_cli(
        capsys, "validate",
        str(exported / "z2t_kramers.group-kramers.json"),
        str(exported / "z2t_kramers.rep-kramers.json"))
    assert code == 0
    assert report["passed"] is True
    assert report["corep"]["passed"] is True
    assert report["cocycle"]["tol"] > 0


def test_validate_corrupted_cayley(exported, tmp_path, capsys):
    data = json.load(open(exported / "z2t_kramers.group-kramers.json"))
    data["cayley"] = [[0, 0], [1, 1]]
    bad = tmp_path / "bad.group.json"
    bad.write_text(json.dumps(data))
    code = main(["validate", str(bad)])
    assert code == 1


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["validate", str(bad)]) == 2


def test_zero_tol_is_used_not_replaced_by_the_default(exported, capsys):
    code, report = run_cli(
        capsys, "validate",
        str(exported / "z2t_kramers.group-kramers.json"),
        str(exported / "z2t_kramers.rep-kramers.json"), "--tol", "0")
    assert code == 0      # the Kramers pair is exact, so it passes even at 0
    assert report["cocycle"]["tol"] == 0.0
    assert report["corep"]["tol"] == 0.0
    code, report = run_cli(capsys, "irreducible", "@z2t_kramers", "@z2t_kramers/kramers",
                           "--tol", "0")
    assert report["tol"] == 0.0


@pytest.mark.parametrize("flag", [["--tol=-1e-9"], ["--tol", "-0.5"], ["--tol", "nan"]])
def test_negative_tol_is_a_parse_error(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["irreducible", "@z2t_kramers", "@z2t_kramers/kramers", *flag])
    assert exc.value.code == 2
    assert "tolerance must be >= 0" in capsys.readouterr().err


def test_missing_omega_defaults_to_trivial(exported, tmp_path, capsys):
    data = json.load(open(exported / "z2t.group-trivial.json"))
    data.pop("omega")
    path = tmp_path / "noomega.group.json"
    path.write_text(json.dumps(data))
    code, report = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert report["omega"]["defaulted"] is True


@pytest.mark.parametrize("command", ["validate", "reduce", "kp"])
def test_co_rep_file_under_an_entry_of_several_factor_systems_is_refused(
        exported, capsys, command):
    # the file names no factor system, and c4v_t has two: taking the trivial
    # one would misread the spinor co-rep
    argv = [command, "@c4v_t", str(exported / "c4v_t.rep-e_half.json")]
    assert main(argv + ["@c4v_t/momentum"] * (command == "kp")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: @c4v_t has factor-system classes ['spinful', 'trivial']")
    assert "c4v_t.group-<rep>.json" in err
    # no co-rep, a catalog co-rep, or an entry of one class: as before
    code, report = run_cli(capsys, "validate", "@c4v_t")
    assert code == 0 and report["omega"]["defaulted"] is True
    assert main([command, "@c4v_t", "@c4v_t/e_half"]
                + ["@c4v_t/momentum"] * (command == "kp")) == 0
    assert main([command, "@z2t_kramers", str(exported / "z2t_kramers.rep-kramers.json")]
                + ["@z2t_kramers/momentum"] * (command == "kp")) == 0
    capsys.readouterr()


def test_irreducible_and_torsion(capsys):
    code, report = run_cli(capsys, "irreducible", "@z2t_kramers", "@z2t_kramers/kramers")
    assert code == 0
    assert report["irreducible"] is True
    assert report["criterion"] == pytest.approx(1.0)
    code, report = run_cli(capsys, "torsion", "@z2t_kramers", "@z2t_kramers/kramers")
    assert code == 0
    assert report["tol"] == mr.reduction.TORSION_TOL   # the tolerance applied
    assert report["torsion"] == 4
    assert report["indicator"] == pytest.approx(-2.0)


def test_reduce_cli_two_kramers(tmp_path, capsys):
    entry = mr.catalog_get("z2t_kramers")
    rep = mr.direct_sum([entry.reps["kramers"], entry.reps["kramers"]])
    rep = mr.conjugate_corep(rep, mr.random_unitary(4, 21))
    gpath = tmp_path / "g.json"
    rpath = tmp_path / "r.json"
    gpath.write_text(io.write_report(io.group_to_dict(rep.group, rep.omega)))
    rpath.write_text(io.write_report(io.corep_to_dict(rep)))
    code, report = run_cli(capsys, "reduce", str(gpath), str(rpath), "--seed", "3")
    assert code == 0
    assert sorted(b["dim"] for b in report["blocks"]) == [2, 2]
    assert report["residuals"]["block_diagonality"] < 1e-8
    assert report["seeds_used"] == [3]


def test_reduce_cli_irreducible_message(capsys):
    code, report = run_cli(capsys, "reduce", "@z2t_kramers", "@z2t_kramers/kramers")
    assert code == 0
    assert report["message"] == "already irreducible"
    assert [b["torsion"] for b in report["blocks"]] == [4]


def test_reduce_judges_irreducible_at_the_tolerance_it_echoes(tmp_path, capsys):
    # 3e-10 off unitarity puts the criterion 4.5e-10 above 1
    rep = mr.catalog_get("c4v_t").reps["e_half"]
    scaled = mr.CoRep(group=rep.group, omega=rep.omega, matrices=rep.matrices * (1 + 3e-10))
    gpath = tmp_path / "g.json"
    rpath = tmp_path / "r.json"
    gpath.write_text(io.write_report(io.group_to_dict(rep.group, rep.omega)))
    rpath.write_text(io.write_report(io.corep_to_dict(scaled)))
    code, report = run_cli(capsys, "reduce", str(gpath), str(rpath), "--tol", "1e-10")
    assert code == 0
    assert report["tol"] == 1e-10
    assert abs(report["criterion"] - 1.0) > 1e-10
    assert report["irreducible"] is False
    assert report["torsion"] is None and "message" not in report
    code, report = run_cli(capsys, "reduce", str(gpath), str(rpath))
    assert report["tol"] == 1e-9
    assert report["irreducible"] is True
    assert report["message"] == "already irreducible"


def corrupted_c4v_t_e(exported, tmp_path):
    """Group and co-rep files of the exported c4v_t ``e`` co-rep with
    M(C4^3T) = diag(2, 0.5): not unitary, yet its characters on H and the
    coset indicator look like those of an irreducible co-rep."""
    data = json.load(open(exported / "c4v_t.rep-e.json"))
    data["matrices"]["C4^3T"] = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    path = tmp_path / "bad.rep.json"
    path.write_text(json.dumps(data))
    return str(exported / "c4v_t.group-e.json"), str(path)


@pytest.mark.parametrize("command, extra", [
    ("irreducible", []), ("torsion", []), ("reduce", []), ("kp", ["@c4v_t/momentum"]),
    ("probe", ["--subgroup", "0,1,2,3,4,5,6,7", "--probe", "kz=@c4v_t/kz_odd"])])
def test_invalid_co_rep_file_is_refused_before_any_criterion(command, extra, exported,
                                                             tmp_path, capsys):
    group, rep = corrupted_c4v_t_e(exported, tmp_path)
    assert main([command, group, rep, *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidCoRep: input fails validation: unitarity ")
    assert "Traceback" not in captured.err


def test_malformed_option_is_an_input_error_before_the_co_rep_check(exported, tmp_path):
    group, rep = corrupted_c4v_t_e(exported, tmp_path)
    assert main(["kp", group, rep, "@c4v_t/momentum", "--max-order", "0"]) == 2
    assert main(["probe", group, rep, "--subgroup", "0,x"]) == 2


def test_validate_still_reports_an_invalid_co_rep_file(exported, tmp_path, capsys):
    code, report = run_cli(capsys, "validate", *corrupted_c4v_t_e(exported, tmp_path))
    assert code == 1
    assert report["cocycle"]["passed"] is True
    assert report["corep"]["passed"] is False and report["passed"] is False


def test_co_rep_input_is_validated_once_and_catalog_co_reps_never(exported, monkeypatch,
                                                                   capsys):
    calls = []
    real = magrep.coreps.validate_corep

    def counting(rep, tol=magrep.coreps.COREP_TOL):
        calls.append(tol)
        return real(rep, tol)

    for module in (magrep.coreps, magrep.reduction, magrep.cli):
        monkeypatch.setattr(module, "validate_corep", counting)
    files = [str(exported / "c4v_t.group-e.json"), str(exported / "c4v_t.rep-e.json")]
    # reduce_corep accepts the bounds the command measured
    assert main(["reduce", *files, "--tol", "1e-10"]) == 0
    assert calls == [1e-9]
    calls.clear()
    for command, extra in (("irreducible", []), ("torsion", []), ("reduce", []),
                           ("kp", ["@c4v_t/momentum"]),
                           ("probe", ["--subgroup", "0,1,2,3", "--probe", "kz=@c4v_t/kz_odd"])):
        assert main([command, "@c4v_t", "@c4v_t/e", *extra]) == 0
    assert calls == []
    capsys.readouterr()


def test_reduce_report_roundtrip(tmp_path, capsys):
    # re-verify a written decomposition: identical residual verdicts
    out = tmp_path / "dec.json"
    assert main(["reduce", "@z2t_kramers", "@z2t_kramers/kramers",
                 "--out", str(out)]) == 0
    report = json.load(open(out))
    rep = mr.catalog_get("z2t_kramers").reps["kramers"]
    basis = np.array([[complex(re, im) for re, im in row] for row in report["basis"]])
    rotated = mr.conjugate_corep(rep, basis)
    for block in report["blocks"]:
        lo, hi = block["indices"]
        sub = mr.CoRep(group=rep.group, omega=rep.omega,
                       matrices=rotated.matrices[:, lo:hi, lo:hi])
        assert mr.irreducibility_index(sub) == pytest.approx(block["criterion"], abs=1e-9)
        assert mr.torsion_number(sub) == block["torsion"]


def test_kp_cli_weyl(exported, capsys):
    code, report = run_cli(
        capsys, "kp",
        str(exported / "z2t_kramers.group-kramers.json"),
        str(exported / "z2t_kramers.rep-kramers.json"),
        str(exported / "z2t_kramers.action-momentum.json"),
        "--max-order", "1")
    assert code == 0
    assert report["dispersion"]["leading_order"] == 1
    total = sum(m["multiplicity"] for m in report["models"])
    assert total == 9


def test_kp_cli_trim_second_order(exported, capsys):
    code, report = run_cli(
        capsys, "kp",
        str(exported / "z2t.group-trivial.json"),
        str(exported / "z2t.rep-trivial.json"),
        str(exported / "z2t.action-momentum.json"),
        "--max-order", "2")
    assert code == 0
    orders = report["dispersion"]["orders"]
    assert orders[0]["full"]["multiplicity"] == 0
    assert orders[1]["full"]["multiplicity"] == 6
    assert report["models"]


KP_TEXT = ["kp", "@z2t_kramers", "@z2t_kramers/kramers", "@z2t_kramers/momentum",
           "--max-order", "2", "--format", "text"]


def test_kp_text_format_follows_the_json_report(capsys):
    # the README's example: the JSON report, then one "# order" header per
    # model and its gamma matrices, printed to 4 decimals
    assert main(KP_TEXT) == 0
    out = capsys.readouterr().out
    report, end = json.JSONDecoder().raw_decode(out)
    assert report["models"]
    lines = out[end:].strip().splitlines()
    for model in report["models"]:
        assert lines.pop(0) == (f"# order {model['order']} channel {model['channel']} "
                                f"multiplicity {model['multiplicity']}")
        for i, tup in enumerate(model["gammas"]):
            for m, mat in enumerate(tup):
                assert lines.pop(0) == f"gamma[{i}][{m}]:"
                for row in mat:
                    printed = [complex(z.replace("j", "") + "j") for z in lines.pop(0).split()]
                    assert len(printed) == len(row)
                    for z, (re, im) in zip(printed, row):
                        assert abs(z.real - re) <= 5.0001e-5 and abs(z.imag - im) <= 5.0001e-5
    assert lines == []


def test_report_written_to_a_file_prints_only_a_notice(tmp_path, capsys):
    assert main(KP_TEXT) == 0
    report, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    out = tmp_path / "kp.json"
    assert main(KP_TEXT + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == f"report written to {out}\n"
    assert json.load(open(out)) == report
    # the JSON format with --out prints nothing at all
    assert main(KP_TEXT[:-2] + ["--out", str(tmp_path / "kp2.json")]) == 0
    assert capsys.readouterr().out == ""
    assert json.load(open(tmp_path / "kp2.json")) == report


def test_kp_cli_rejects_bad_order(exported, capsys):
    code = main(["kp",
                 str(exported / "z2t.group-trivial.json"),
                 str(exported / "z2t.rep-trivial.json"),
                 str(exported / "z2t.action-momentum.json"),
                 "--max-order", "0"])
    assert code == 2


@pytest.mark.parametrize("command", ["kp", "probe"])
def test_singular_t0_probe_matrix_is_a_clean_domain_error(exported, tmp_path, capsys,
                                                          command):
    data = json.load(open(exported / "z2t.action-momentum.json"))
    data["t0"] = np.zeros((3, 3)).tolist()
    bad = tmp_path / "singular.action.json"
    bad.write_text(json.dumps(data))
    group = str(exported / "z2t.group-trivial.json")
    rep = str(exported / "z2t.rep-trivial.json")
    if command == "kp":
        argv = ["kp", group, rep, str(bad)]
    else:
        argv = ["probe", group, rep, "--subgroup", "0", "--probe", f"k={bad}"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "SingularAction" in err
    assert "Traceback" not in err



def test_non_finite_rep_file_is_a_parse_error(exported, tmp_path, capsys):
    # JSON parses NaN; the loader refuses it before any norm meets it
    data = json.load(open(exported / "z2t_kramers.rep-kramers.json"))
    first = next(iter(data["matrices"]))
    data["matrices"][first][0][0] = [float("nan"), 0.0]
    bad = tmp_path / "nan.rep.json"
    bad.write_text(json.dumps(data))
    assert main(["validate", str(exported / "z2t_kramers.group-kramers.json"),
                 str(bad)]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err


def test_non_finite_action_file_is_a_parse_error(exported, tmp_path, capsys):
    data = json.load(open(exported / "z2t_kramers.action-magnetic.json"))
    data["t0"] = [[float("nan")]]
    bad = tmp_path / "nan.action.json"
    bad.write_text(json.dumps(data))
    assert main(["kp", "@z2t_kramers", "@z2t_kramers/kramers", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "Traceback" not in err

def _edited(src, dst, key, value):
    data = json.load(open(src))
    data[key] = value
    dst.write_text(json.dumps(data))
    return str(dst)


@pytest.mark.parametrize("kind, key, value", [
    ("action", "matrices", [[[1.0]]]),
    ("action", "dim", "x"),
    ("rep", "dim", "x"),
    ("group", "labels", 5),
    ("group", "cayley", [["a", "b"], ["b", "a"]]),
    # fractional ids and dims, which int() would truncate to valid ones
    ("group", "order", 2.5),
    ("group", "cayley", [[0.4, 1.3], [1.2, 0.1]]),
    ("group", "antiunitary", [0, 1.9]),
    ("group", "omega", [[0.5]]),
    ("rep", "dim", 2.7),
    ("action", "dim", 1.5),
])
def test_malformed_file_is_a_parse_error(exported, tmp_path, capsys, kind, key, value):
    files = {"group": exported / "z2t_kramers.group-kramers.json",
             "rep": exported / "z2t_kramers.rep-kramers.json",
             "action": exported / "z2t_kramers.action-magnetic.json"}
    args = {k: str(path) for k, path in files.items()}
    args[kind] = _edited(files[kind], tmp_path / f"bad.{kind}.json", key, value)
    assert main(["kp", args["group"], args["rep"], args["action"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_group_file_with_fractional_ids_does_not_validate(tmp_path, capsys):
    # int() truncates this table and these flags to z2t's
    bad = tmp_path / "fractional.group.json"
    bad.write_text(json.dumps({"order": 2, "cayley": [[0.4, 1.3], [1.2, 0.1]],
                               "antiunitary": [0, 1.9]}))
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "must be integers" in err and "Traceback" not in err
    bad.write_text(json.dumps({"order": 2, "cayley": [[0, 1], [1, 0]],
                               "antiunitary": [0, 1]}))
    assert main(["validate", str(bad)]) == 0


def test_co_rep_file_with_an_inline_group_validates_as_without_it(exported, tmp_path, capsys):
    # co-rep files written before the format held only dim and matrices
    # carry their group inline; the group argument decides, the key is ignored
    entry = mr.catalog_get("c4v_t")
    group_file = str(exported / "c4v_t.group-e_half.json")
    plain = str(exported / "c4v_t.rep-e_half.json")
    legacy = _edited(plain, tmp_path / "legacy.rep.json", "group",
                     io.group_to_dict(entry.group, entry.reps["e_half"].omega))
    code, report = run_cli(capsys, "validate", group_file, legacy)
    assert code == 0
    assert report == run_cli(capsys, "validate", group_file, plain)[1]


def test_probe_cli(capsys):
    code, report = run_cli(
        capsys, "probe", "@z2t_kramers", "@z2t_kramers/kramers",
        "--subgroup", "0",
        "--probe", "magnetic=@z2t_kramers/magnetic",
        "--probe", "electric=@z2t_kramers/electric")
    assert code == 0
    assert report["protected"] is False
    assert report["probes"]["magnetic"]["splitting_multiplicity"] == 3
    assert report["probes"]["electric"]["splitting_multiplicity"] == 0


@pytest.mark.parametrize("name", mr.catalog_list())
def test_kp_field_order_one_is_the_probe_entry(name, capsys):
    # a field action takes the one polynomial path: its order-1 counts are
    # the linear coupling counts magrep probe reports for it
    entry = mr.catalog_get(name)
    fields = [a for a, act in entry.probe_actions.items() if act.dim_q != 3]
    assert fields
    for rep, field in itertools.product(entry.reps, fields):
        code, kp = run_cli(capsys, "kp", f"@{name}", f"@{name}/{rep}", f"@{name}/{field}")
        assert code == 0
        code, probe = run_cli(capsys, "probe", f"@{name}", f"@{name}/{rep}",
                              "--subgroup", "0", "--probe", f"f=@{name}/{field}")
        assert code == 0
        orders = kp["dispersion"]["orders"]
        assert [o["order"] for o in orders] == [1, 2]
        want = {k: probe["probes"]["f"][k] for k in orders[0]["full"]}
        assert orders[0]["full"] == want, (rep, field)


def test_console_script_installed():
    out = subprocess.run([sys.executable, "-m", "magrep.cli", "catalog"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "z2t_kramers" in out.stdout


def test_reports_have_no_nonfinite_numbers(capsys):
    code, report = run_cli(capsys, "reduce", "@z4t", "@z4t/quaternion")
    assert code == 0

    def scan(node):
        if isinstance(node, dict):
            for v in node.values():
                scan(v)
        elif isinstance(node, list):
            for v in node:
                scan(v)
        elif isinstance(node, float):
            assert np.isfinite(node)

    scan(report)


def test_cli_validate_sweep_over_catalog(tmp_path):
    # every catalog rep round-trips through files and passes cli validation
    for name in mr.catalog_list():
        entry = mr.catalog_get(name)
        assert main(["catalog", name, "--export", str(tmp_path),
                     "--out", str(tmp_path / f"{name}.json")]) == 0
        for rep_name in entry.reps:
            code = main(["validate",
                         str(tmp_path / f"{name}.group-{rep_name}.json"),
                         str(tmp_path / f"{name}.rep-{rep_name}.json"),
                         "--out", str(tmp_path / "v.json")])
            assert code == 0, (name, rep_name)


def test_kp_report_roundtrip(exported, tmp_path, capsys):
    # gammas written by the CLI re-verify their covariance when read back
    out = tmp_path / "kp.json"
    assert main(["kp",
                 str(exported / "z2t_kramers.group-kramers.json"),
                 str(exported / "z2t_kramers.rep-kramers.json"),
                 str(exported / "z2t_kramers.action-momentum.json"),
                 "--max-order", "1", "--out", str(out)]) == 0
    report = json.load(open(out))
    entry = mr.catalog_get("z2t_kramers")
    rep = entry.reps["kramers"]
    mt = rep.m(1)
    for model in report["models"]:
        gammas = np.array([[ [[complex(re, im) for re, im in row] for row in mat]
                             for mat in tup] for tup in model["gammas"]])
        for tup in gammas:
            for mat in tup:
                assert np.abs(mat - mat.conj().T).max() < 1e-10


@pytest.mark.parametrize("argv, message", [
    (["validate", "@nope"],
     "unknown catalog entry 'nope'; have " + str(mr.catalog_list())),
    (["validate", "@c6v_t", "@c6v_t"],
     "catalog co-rep reference must be @entry/rep, got '@c6v_t'"),
    (["reduce", "@c6v_t", "@c6v_t/e_half/x"],
     "catalog co-rep reference must be @entry/rep, got '@c6v_t/e_half/x'"),
    (["validate", "@c6v_t", "@c6v_t/nope"],
     "entry 'c6v_t' has reps ['a1', 'e1', 'e2', 'e_half']"),
    (["kp", "@c6v_t", "@c6v_t/e_half", "@c6v_t"],
     "catalog action reference must be @entry/action, got '@c6v_t'"),
    (["kp", "@c6v_t", "@c6v_t/e_half", "@c6v_t/nope"],
     "entry 'c6v_t' has actions ['kz_odd', 'momentum', 'vector_t_even']"),
    (["probe", "@z2t_kramers", "@z2t_kramers/kramers", "--subgroup", "0",
      "--probe", "m=@nope/x"],
     "unknown catalog entry 'nope'; have " + str(mr.catalog_list())),
    (["reduce", "@c6v_t/e_half", "@c6v_t/e_half"],
     "catalog group reference must be @entry, got '@c6v_t/e_half'"),
    (["validate", "@c6v_t/typo"],
     "catalog group reference must be @entry, got '@c6v_t/typo'"),
    (["probe", "@z2t_kramers", "@z2t_kramers/kramers", "--subgroup", "0",
      "--probe", "@z2t_kramers/magnetic"],
     "--probe takes NAME=ACTION"),
])
def test_unresolved_catalog_reference_is_an_input_error(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# the commands that draw nothing random take no --seed, and only kp has a
# text format
@pytest.mark.parametrize("argv", [
    ["validate", "@c6v_t", "--seed", "0"],
    ["validate", "@c6v_t", "--format", "text"],
    ["irreducible", "@c6v_t", "@c6v_t/e_half", "--seed", "0"],
    ["irreducible", "@c6v_t", "@c6v_t/e_half", "--format", "text"],
    ["torsion", "@c6v_t", "@c6v_t/e_half", "--seed", "0"],
    ["torsion", "@c6v_t", "@c6v_t/e_half", "--format", "text"],
    ["reduce", "@c6v_t", "@c6v_t/e_half", "--format", "text"],
    ["probe", "@c6v_t", "@c6v_t/e_half", "--subgroup", "0", "--format", "text"],
    ["catalog", "c6v_t", "--format", "text"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_options_that_changed_nothing_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err


def test_catalog_entry_report(capsys):
    code, report = run_cli(capsys, "catalog", "c6v_t")
    assert code == 0
    entry = mr.catalog_get("c6v_t")
    assert report == {
        "name": "c6v_t", "order": 24, "labels": list(entry.group.labels),
        "is_magnetic": True, "t0": entry.group.label(entry.group.t0),
        "reps": {name: {"dim": rep.dim, "omega_class": entry.rep_omega[name]}
                 for name, rep in entry.reps.items()},
        "probe_actions": {name: {"dim": act.dim_q, "kind": act.kind}
                          for name, act in entry.probe_actions.items()}}
    assert report["reps"]["e_half"] == {"dim": 2, "omega_class": "spinful"}


def test_export_writes_group_rep_and_action_files_that_read_back(tmp_path, capsys):
    code, report = run_cli(capsys, "catalog", "c4v_t", "--export", str(tmp_path))
    assert code == 0
    entry = mr.catalog_get("c4v_t")
    names = [f"c4v_t.{kind}-{r}.json" for r in entry.reps for kind in ("group", "rep")]
    names += [f"c4v_t.action-{a}.json" for a in entry.probe_actions]
    assert report["exported"] == [str(tmp_path / n) for n in names]
    for r, rep in entry.reps.items():
        path = tmp_path / f"c4v_t.group-{r}.json"
        assert path.read_text() == io.write_report(io.group_to_dict(entry.group, rep.omega))
        group, omega = io.load_group(str(path))
        back = io.load_corep(str(tmp_path / f"c4v_t.rep-{r}.json"), group=group, omega=omega)
        assert np.array_equal(back.matrices, rep.matrices)
        assert np.array_equal(back.omega.values, rep.omega.values)
    for a, act in entry.probe_actions.items():
        back = io.load_action(str(tmp_path / f"c4v_t.action-{a}.json"), entry.group)
        assert np.array_equal(back.d_h, act.d_h)


# -- report layout: one-line leaves, parsing as json's indented layout --------------

@pytest.fixture
def rendered(monkeypatch):
    """(report, text) for every report ``io.write_report`` renders."""
    calls = []
    write = io.write_report

    def spy(report, out=None):
        calls.append((report, write(report, out)))
        return calls[-1][1]

    monkeypatch.setattr(io, "write_report", spy)
    return calls


@pytest.fixture(scope="module")
def console_files(tmp_path_factory):
    """The files CI's console-script step writes: a Kramers pair with the
    wrong sign, the c6v_t export and its e_half co-rep with the group inlined."""
    root = tmp_path_factory.mktemp("console")
    (root / "wrongsign.group.json").write_text(json.dumps(
        {"order": 2, "cayley": [[0, 1], [1, 0]], "antiunitary": [0, 1], "labels": ["E", "T"]}))
    (root / "wrongsign.rep.json").write_text(json.dumps(
        {"matrices": {"E": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                      "T": [[[0, 0], [1, 0]], [[-1, 0], [0, 0]]]}}))
    assert main(["catalog", "c6v_t", "--export", str(root / "cat"),
                 "--out", str(root / "manifest.json")]) == 0
    legacy = json.loads((root / "cat" / "c6v_t.rep-e_half.json").read_text())
    legacy["group"] = json.loads((root / "cat" / "c6v_t.group-e_half.json").read_text())
    (root / "legacy.rep.json").write_text(json.dumps(legacy))
    return root


# every command of CI's console-script step that writes a report
CONSOLE_SCRIPT = [pytest.param(argv, id=tag) for tag, argv in [
    ("catalog", ["catalog"]),
    ("validate-c6v", ["validate", "@c6v_t", "@c6v_t/e_half"]),
    ("validate-q8t", ["validate", "@q8t", "@q8t/quartet"]),
    ("validate-wrongsign", ["validate", "{tmp}/wrongsign.group.json",
                            "{tmp}/wrongsign.rep.json"]),
    ("kp-c6v", ["kp", "@c6v_t", "@c6v_t/e_half", "@c6v_t/momentum", "--max-order", "3"]),
    ("kp-c4v_c4", ["kp", "@c4v_c4", "@c4v_c4/e_half_up", "@c4v_c4/momentum",
                   "--max-order", "3"]),
    ("kp-q8t", ["kp", "@q8t", "@q8t/quartet", "@q8t/magnetic", "--max-order", "3"]),
    ("reduce-c6v", ["reduce", "@c6v_t", "@c6v_t/e_half"]),
    ("reduce-q8t", ["reduce", "@q8t", "@q8t/quartet"]),
    ("reduce-c8t", ["reduce", "@c8t", "@c8t/complex_pair"]),
    ("probe-kramers", ["probe", "@z2t_kramers", "@z2t_kramers/kramers", "--subgroup", "0",
                       "--probe", "zeeman=@z2t_kramers/magnetic"]),
    ("kp-c6v-kz", ["kp", "@c6v_t", "@c6v_t/e_half", "@c6v_t/kz_odd", "--max-order", "3"]),
    ("probe-c4v", ["probe", "@c4v_t", "@c4v_t/e_half", "--subgroup", "0,1,2,3,4,5,6,7",
                   "--probe", "kz=@c4v_t/kz_odd", "--probe", "e=@c4v_t/vector_t_even"]),
    ("irreducible-q8t", ["irreducible", "@q8t", "@q8t/quartet"]),
    ("torsion-q8t", ["torsion", "@q8t", "@q8t/quartet"]),
    ("export-c6v", ["catalog", "c6v_t", "--export", "{tmp}/cat"]),
    ("validate-export", ["validate", "{tmp}/cat/c6v_t.group-e_half.json",
                         "{tmp}/cat/c6v_t.rep-e_half.json"]),
    ("kp-export", ["kp", "@c6v_t", "@c6v_t/e_half", "{tmp}/cat/c6v_t.action-momentum.json",
                   "--max-order", "3"]),
    ("validate-legacy", ["validate", "{tmp}/cat/c6v_t.group-e_half.json",
                         "{tmp}/legacy.rep.json"]),
    ("reduce-q8t-seed0", ["reduce", "@q8t", "@q8t/quartet", "--seed", "0"]),
]]


@pytest.mark.parametrize("argv", CONSOLE_SCRIPT)
def test_console_script_report_layout(argv, console_files, rendered, tmp_path, capsys):
    argv = [a.format(tmp=console_files) for a in argv]
    code = 1 if "wrongsign" in argv[-1] else 0
    assert main(argv) == code
    stdout = capsys.readouterr().out
    assert stdout == rendered[-1][1] + "\n"
    for report, text in rendered:
        assert_renders_as_indented(report, text)
    # the report written with --out is the text printed without it
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == code
    assert out.read_text() == stdout


@pytest.mark.parametrize("name", mr.catalog_list())
def test_kp_report_layout(name, rendered, capsys):
    entry = mr.catalog_get(name)
    for rep, act in itertools.product(entry.reps, entry.probe_actions):
        assert main(["kp", f"@{name}", f"@{name}/{rep}", f"@{name}/{act}",
                     "--max-order", "3"]) == 0
    capsys.readouterr()
    assert len(rendered) == len(entry.reps) * len(entry.probe_actions)
    for report, text in rendered:
        assert_renders_as_indented(report, text)


@pytest.mark.parametrize("name", mr.catalog_list())
def test_reduce_and_probe_report_layout(name, rendered, capsys):
    entry = mr.catalog_get(name)
    probes = [f"{a}=@{name}/{a}" for a in entry.probe_actions]
    for rep in entry.reps:
        assert main(["reduce", f"@{name}", f"@{name}/{rep}"]) == 0
        for subgroup in ("0", ",".join(map(str, entry.group.h_elements))):
            assert main(["probe", f"@{name}", f"@{name}/{rep}", "--subgroup", subgroup,
                         *itertools.chain.from_iterable(("--probe", p) for p in probes)]) == 0
    capsys.readouterr()
    assert len(rendered) == 3 * len(entry.reps)
    for report, text in rendered:
        assert_renders_as_indented(report, text)


def _loaded_bits(kind, data, group, omega):
    """The arrays the loader of a ``kind`` file reads from ``data``."""
    if kind == "group":
        loaded, w = io.load_group(data)
        return [loaded.cayley, loaded.antiunitary, np.array(loaded.labels), w.values]
    if kind == "rep":
        return [io.load_corep(data, group, omega).matrices]
    action = io.load_action(data, group)
    return [action.d_h, action.d_t0]


@pytest.mark.parametrize("name", mr.catalog_list())
def test_export_layout_reads_back_the_same_bits(name, tmp_path, rendered, capsys):
    entry = mr.catalog_get(name)
    assert main(["catalog", name, "--export", str(tmp_path)]) == 0
    *files, (manifest, _) = rendered
    assert len(files) == len(manifest["exported"]) == 2 * len(entry.reps) + len(entry.probe_actions)
    for path, (data, text) in zip(manifest["exported"], files):
        assert open(path).read() == text
        assert_renders_as_indented(data, text)
        # the loaders read the file to the bits they read from the indented one
        kind = path.split(".")[-2].split("-")[0]
        if kind == "group":
            group, omega = io.load_group(path)
        new, old = (_loaded_bits(kind, json.loads(t), group, omega)
                    for t in (text, indented_report(data)))
        for a, b in zip(new, old, strict=True):
            assert (a is None and b is None) or (
                a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()), path
    # the 19 co-reps CI validates from the exported files
    rendered.clear()
    for rep in entry.reps:
        assert main(["validate", str(tmp_path / f"{name}.group-{rep}.json"),
                     str(tmp_path / f"{name}.rep-{rep}.json")]) == 0
    capsys.readouterr()
    assert len(rendered) == len(entry.reps)
    for report, text in rendered:
        assert_renders_as_indented(report, text)


def test_kp_report_has_no_line_that_is_a_bare_number(capsys):
    assert main(["kp", "@c6v_t", "@c6v_t/e_half", "@c6v_t/momentum", "--max-order", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) > 20
    for line in lines:
        with pytest.raises(ValueError):
            float(line.strip().rstrip(","))


def test_exported_co_rep_file_has_one_line_per_element_matrix(tmp_path, capsys):
    assert main(["catalog", "c6v_t", "--export", str(tmp_path)]) == 0
    capsys.readouterr()
    group = mr.catalog_get("c6v_t").group
    lines = (tmp_path / "c6v_t.rep-e_half.json").read_text().splitlines()
    assert lines[:3] == ["{", '  "dim": 2,', '  "matrices": {'] and lines[-2:] == ["  }", "}"]
    assert [line.split(": ", 1)[0] for line in lines[3:-2]] == [
        "    " + json.dumps(lab) for lab in sorted(group.labels)]
