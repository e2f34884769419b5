"""Acceptance suite: one test per shipping criterion, each at its stated
tolerance, printing a pass line when it holds (run with -s to see them)."""

import warnings

import numpy as np
import pytest

import magrep as mr
from magrep.coreps import (
    conjugate_corep,
    direct_sum,
    random_gauge,
    restrict_corep,
)
from magrep.errors import EigenvalueAtBranchCutWarning
from magrep.kp import (
    dual_rep,
    linear_multiplicity,
    probe_stability,
    tuple_span_residual,
)
from magrep.linalg import symmetric_unitary_sqrt
from magrep.reduction import (
    TORSION_INDICATOR,
    build_G_commutant,
    criterion_sums,
    irreducibility_index,
    reduce_corep,
    torsion_number,
)
from conftest import (
    catalog_irreps,
    compatible_rep_groups,
    irreducibility_index_trace_form,
    random_symmetric_unitary,
)


def _ok(n, text):
    print(f"[PASS] criterion {n:02d}: {text}")


def magnetic_irreps():
    return [(n, r, rep) for n, r, rep in catalog_irreps() if rep.group.is_magnetic]


def test_criterion_01_exact_kramers_values():
    kram = mr.catalog_get("z2t_kramers").reps["kramers"]
    assert irreducibility_index(kram) == pytest.approx(1.0, abs=1e-10)
    assert irreducibility_index(direct_sum([kram, kram])) == pytest.approx(6.0, abs=1e-10)
    _ok(1, "Kramers doublet criterion 1, its double 6, at 1e-10")


def test_criterion_02_dual_path_identity():
    for name, rep_name, rep in magnetic_irreps():
        a = irreducibility_index(rep)
        b = irreducibility_index_trace_form(rep)
        assert abs(a - b) <= 1e-9, (name, rep_name)
    _ok(2, "factor-system and coset-trace criterion forms agree to 1e-9")


def test_criterion_03_torsion_trichotomy_and_restriction():
    seen = set()
    for name, rep_name, rep in magnetic_irreps():
        # the indicator is the coset sum of the criterion
        value = criterion_sums(rep, np.ones(rep.group.order))[1]
        r = torsion_number(rep)
        assert abs(value - TORSION_INDICATOR[r]) <= 1e-8, (name, rep_name)
        seen.add(r)
        if r == 4:
            h_rep, _ = restrict_corep(rep, rep.group.h_elements)
            dec = reduce_corep(h_rep, seed=11)
            dims = dec.block_dims
            assert len(dims) == 2 and dims[0] == dims[1], (name, rep_name)
            rot = dec.basis.conj().T @ h_rep.matrices @ dec.basis
            b0, b1 = dec.blocks
            chi_a = np.einsum("gii->g", rot[:, b0.start:b0.stop, b0.start:b0.stop])
            chi_b = np.einsum("gii->g", rot[:, b1.start:b1.stop, b1.start:b1.stop])
            assert np.abs(chi_a - chi_b).max() < 1e-8
    assert seen == {1, 2, 4}
    _ok(3, "indicator quantized at {1, 0, -2}; quaternion blocks restrict doubled")


def test_criterion_04_reduction_roundtrip_twenty_sums():
    rng = np.random.default_rng(2024)
    cases = 0
    entries = [mr.catalog_get(n) for n in mr.catalog_list()]
    while cases < 20:
        entry = entries[cases % len(entries)]
        buckets = [b for b in compatible_rep_groups(entry)]
        bucket = buckets[int(rng.integers(len(buckets)))]
        reps = [rep for _, rep in bucket]
        k = int(rng.integers(2, 5))
        summands = [reps[int(rng.integers(len(reps)))] for _ in range(k)]
        total = sum(r.dim for r in summands)
        if total > 24:
            continue
        expected = sorted(r.dim for r in summands)
        rep = conjugate_corep(direct_sum(summands),
                              mr.random_unitary(total, int(rng.integers(1 << 30))))
        seeds = [int(rng.integers(1 << 30)) for _ in range(2)]
        dims = []
        for seed in seeds:
            dec = reduce_corep(rep, seed=seed)
            assert dec.residuals["block_diagonality"] < 1e-8
            for b in dec.blocks:
                assert abs(b.index - 1.0) <= 1e-8
            dims.append(sorted(dec.block_dims))
        assert dims[0] == expected and dims[1] == expected, entry.name
        cases += 1
    _ok(4, "20 random direct sums recover exact block multisets, seed independent")


def test_criterion_05_commutant_contracts():
    for name, rep_name, rep in magnetic_irreps():
        com = build_G_commutant(rep, seed=7)
        gamma = com.gamma
        g = rep.group
        herm = np.linalg.norm(gamma - gamma.conj().T, ord=2)
        sub = max(np.linalg.norm(rep.apply(int(h), gamma) - gamma, ord=2)
                  for h in g.h_elements)
        anti = np.linalg.norm(rep.apply(g.t0, gamma) - gamma, ord=2)
        assert max(herm, sub, anti) < 1e-9, (name, rep_name)
        scale = np.trace(gamma) / rep.dim
        rel = np.linalg.norm(gamma - scale * np.eye(rep.dim), ord=2)
        rel /= max(1.0, abs(scale))
        assert rel < 1e-8, (name, rep_name)
    _ok(5, "commutant Hamiltonian satisfies all three relations; Schur on irreps")


def test_criterion_06_symmetric_unitary_roots():
    rng = np.random.default_rng(99)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EigenvalueAtBranchCutWarning)
        for k in range(100):
            d = int(rng.integers(1, 17))
            m = random_symmetric_unitary(d, rng)
            u = symmetric_unitary_sqrt(m)
            assert np.linalg.norm(u @ u - m, ord=2) < 1e-9
            assert np.linalg.norm(u - u.T, ord=2) < 1e-9
            rebased = u.conj().T @ m @ np.conj(u)
            assert np.linalg.norm(rebased - np.eye(d), ord=2) < 1e-9
    _ok(6, "100 random symmetric unitaries: U^2 = M, U^T = U, rebase to identity")


def test_criterion_07_weyl_benchmark(kp_sweep):
    kram = mr.catalog_get("z2t_kramers")
    z2t = mr.catalog_get("z2t")
    assert linear_multiplicity(kram.reps["kramers"],
                               kram.probe_actions["momentum"]) == 9
    assert linear_multiplicity(z2t.reps["trivial"],
                               z2t.probe_actions["momentum"]) == 0
    hit = [r for r in kp_sweep
           if r["where"][:3] == ("z2t_kramers", "kramers", "momentum")
           and r["where"][3] == 1 and r["where"][4] == "full"]
    assert len(hit) == 1
    model, oracle = hit[0]["model"], hit[0]["oracle"]
    assert model.multiplicity == 9 and oracle.shape[0] == 9
    assert tuple_span_residual(model.gammas, oracle) < 1e-8
    _ok(7, "magnetic Weyl multiplicity 9 with oracle-matching span; TRIM 0")


def test_criterion_08_criterion_vs_oracle_sweep(kp_sweep):
    assert len(kp_sweep) > 100
    for record in kp_sweep:
        assert record["criterion"] == record["oracle"].shape[0], record["where"]
        if record["model"] is not None:
            assert tuple_span_residual(record["model"].gammas,
                                       record["oracle"]) < 1e-8, record["where"]
    _ok(8, f"criterion equals oracle null-space dimension on {len(kp_sweep)} combos")


def test_criterion_09_covariance_roundtrip(kp_sweep):
    rng = np.random.default_rng(17)
    for record in kp_sweep:
        model = record["model"]
        if model is None:
            continue
        rep, action = model.rep, model.action
        g = rep.group
        duals = dual_rep(action).d(np.arange(g.order))
        draws = [(rng.standard_normal(model.multiplicity),
                  rng.standard_normal(action.dim_q)) for _ in range(50)]
        r = np.stack([x for x, _ in draws])
        dk = np.stack([k for _, k in draws])
        gam = np.einsum("si,sm,imab->sab", r, dk, model.gammas)
        # target[s, e] = H(r_s, D*(e) dk_s), the model at the transformed field
        target = np.einsum("si,ems,imab->seab", r, duals @ dk.T, model.gammas)
        flip = g.antiunitary[None, :, None, None] == 1
        inner = np.where(flip, np.conj(gam)[:, None], gam[:, None])
        mats = rep.matrices
        lhs = np.einsum("eab,sebc,edc->sead", mats, inner, np.conj(mats))
        resid = np.abs(lhs - target).max()
        assert resid < 1e-8, record["where"]
    _ok(9, "50-draw covariance round-trip passes for every built model")


def test_criterion_10_hermiticity_guarantee(kp_sweep):
    worst = 0.0
    for record in kp_sweep:
        if record["model"] is None:
            continue
        gam = record["model"].gammas
        dev = np.abs(gam - np.conj(np.swapaxes(gam, 2, 3))).max()
        worst = max(worst, float(dev))
    assert worst == 0.0
    _ok(10, f"every emitted coupling matrix Hermitian (worst dev {worst:.1e})")


def test_criterion_11_gauge_invariance():
    for name, rep_name, rep in magnetic_irreps():
        entry = mr.catalog_get(name)
        base_index = irreducibility_index(rep)
        base_torsion = torsion_number(rep)
        action = entry.probe_actions.get("momentum") or \
            next(iter(entry.probe_actions.values()))
        base_mult = linear_multiplicity(rep, action)
        for seed in range(10):
            gauged = random_gauge(rep, seed=seed)
            assert abs(irreducibility_index(gauged) - base_index) <= 1e-9
            assert torsion_number(gauged) == base_torsion
            assert linear_multiplicity(gauged, action) == base_mult
    _ok(11, "criterion, torsion and multiplicity invariant under 10 random gauges")


def test_criterion_12_probe_stability():
    entry = mr.catalog_get("z2t_kramers")
    rep = entry.reps["kramers"]
    report = probe_stability(rep, [0], probes={
        "magnetic": entry.probe_actions["magnetic"],
        "electric": entry.probe_actions["electric"],
    })
    assert report["restricted_index"] > 1.0 + 1e-8      # reducible when all broken
    assert not report["protected"]
    assert report["probes"]["magnetic"]["multiplicity"] == 3
    assert report["probes"]["magnetic"]["splitting_multiplicity"] == 3
    assert report["probes"]["electric"]["splitting_multiplicity"] == 0
    _ok(12, "Zeeman channel couples with multiplicity 3, electric splits nothing")
