import json
import subprocess
import sys

import numpy as np
import pytest

import magrep as mr
from magrep import io
from magrep.cli import main


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
    rpath.write_text(io.write_report(io.corep_to_dict(rep, inline_group=False)))
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
