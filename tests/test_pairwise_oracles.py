"""Batched co-rep, action and group kernels against their pair-by-pair oracles.

Every catalog entry is checked as given, under a random basis change, under a
random gauge, as 2- and 3-fold direct sums and restricted to its unitary
subgroup; corrupted inputs must fail with the oracle's exception and the
oracle's element labels, or report the oracle's residual.  Each of these
co-reps carries residual bounds inherited from the catalog rep, and the
residuals measured from scratch must lie within them, here and on the
order-96 co-reps of ``bench/ohtgen``.  The probe kernels (``ProbeRepAction.d`` over an id array,
the degree-by-degree substitution matrices, the identity-coupling count, the
row-blocked ``validate_action``) are checked against their element-by-element
or row-by-row forms on every catalog action; the substitution matrices from
cached degree tables, and the fixed-space basis and idempotency residual
from one SVD, bit for bit against tables built per call and against the
form that took two more norms.  The null-space oracle built
from the batched covariance defects against the one built a parameter column
and an element at a time.  ``dispersion_order``, which counts each order from
one stack of characters, must give the table of one criterion call and one
null space per channel, on the catalog and at order 96.  Its channel sets,
which read every element once per call and build their actions on first
use, must match the eager order-by-order oracle bit for bit, and its tables
byte for byte.  The covariance residuals of every coupled catalog and
order-96 model, read from one defect stack of every element, must equal
the largest per-element defects exactly, and one model must stay under a
mebibyte of traced memory.  The co-rep
residuals are largest Frobenius norms: each matrix's norm must match
``math.hypot`` of its entries within a few ulps, under- and overflowing
squares and non-contiguous stacks included, and a NaN must give NaN; every
residual must lie between the spectral pairwise oracle's r and sqrt(d) r;
validation and the factor-system fit run no SVD, and the fit refuses a
misfit that only the Frobenius norm sees.  The carried bounds must also
hold for 3-summand sums of unequal dimension and loose gauges.  The blocked
products of ``_row_products`` must match the pair-by-pair products for
d = 1-12.
"""

import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

import magrep as mr
import magrep.groups
from magrep.catalog import _cnv_realization, _group_from_realization, _lift3
from magrep.coreps import (
    OMEGA_FIT_TOL,
    CoRep,
    _frobenius_norms,
    _max_frobenius_norm,
    _row_products,
    conjugate_corep,
    corep_from_matrices,
    direct_sum,
    gauge_transform,
    random_gauge,
    restrict_corep,
    validate_corep,
)
from magrep.errors import InvalidAction, InvalidCoRep, NotAGroup
from magrep.groups import (
    ROW_BLOCK_ENTRIES,
    FactorSystem,
    build_group,
    conjugacy_classes,
    restricted_group,
    validate_cocycle,
)
from magrep.io import write_report
from magrep.kp import (
    ProbeRepAction,
    _characters,
    _coupling_counts,
    _covariance_defects,
    _dual_matrices,
    _substitution_matrices,
    dispersion_order,
    dual_rep,
    linear_multiplicity,
    monomial_exponents,
    polynomial_channel,
    covariant_tuple_basis,
    tuple_span_residual,
    validate_action,
)
from magrep.linalg import random_unitary

from conftest import (
    action_residual_pairwise,
    associativity_failure_full,
    cayley_from_realization_pairwise,
    catalog_irreps,
    channel_set_eager,
    cocycle_violation_full,
    cocycle_violation_rowwise,
    compatible_rep_groups,
    channel_actions,
    conjugacy_classes_pairwise,
    covariant_tuple_basis_columnwise,
    dispersion_table_eager,
    dispersion_table_per_channel,
    element_order_bruteforce,
    full_induced_action,
    omega_pairwise,
    relabelled,
    restricted_table_pairwise,
    substitution_matrices_per_call,
    substitution_matrix_dict,
    trivial_multiplicity_h_t0,
    validate_action_rowwise,
    validate_corep_pairwise,
    verify_embedding_pairwise,
)

ENTRIES = mr.catalog_list()
IRREPS = catalog_irreps()
IRREP_IDS = [f"{name}-{rep_name}" for name, rep_name, _ in IRREPS]


def rep_variants(rep, seed):
    """The rep, rotated, gauged, 2- and 3-fold direct sums, and the rotated
    3-fold sum restricted to the unitary subgroup."""
    rotated = conjugate_corep(rep, random_unitary(rep.dim, seed))
    out = {
        "plain": rep,
        "rotated": rotated,
        "gauged": random_gauge(rep, seed + 1),
        "sum2": direct_sum([rep, rotated]),
        "sum3": random_gauge(direct_sum([rotated, rep, rotated]), seed + 2),
    }
    if rep.group.is_magnetic:
        mixed = conjugate_corep(out["sum3"], random_unitary(3 * rep.dim, seed + 3))
        out["halving"] = restrict_corep(mixed, mixed.group.h_elements)[0]
    return out


def assert_within_bounds(rep, report, tag):
    """Residuals measured from scratch lie within the bounds the co-rep carries."""
    uni, rel = rep.residuals
    assert report.unitarity_residual <= uni, (tag, report.unitarity_residual, uni)
    assert report.relation_residual <= rel, (tag, report.relation_residual, rel)


def entry_actions(entry):
    """Every probe action of an entry, its quadratic channels and a rotated copy."""
    out = dict(entry.probe_actions)
    for name, act in entry.probe_actions.items():
        if act.dim_q == 3:
            for k, ch in enumerate(polynomial_channel(act, 2).channels):
                out[f"{name}-quad{k}"] = ch.action
    rng = np.random.default_rng(7)
    for name, act in list(out.items()):
        o, _ = np.linalg.qr(rng.standard_normal((act.dim_q, act.dim_q)))
        d_t0 = None if act.d_t0 is None else o.T @ act.d_t0 @ o
        out[f"{name}-rotated"] = ProbeRepAction(group=act.group, d_h=o.T @ act.d_h @ o,
                                                d_t0=d_t0, kind=act.kind)
    return out


def regular_realization(group):
    """Left-regular permutation matrices; faithful, so products match uniquely."""
    n = group.order
    perm = np.zeros((n, n, n))
    ids = np.arange(n)
    perm[ids[:, None], group.cayley, ids[None, :]] = 1.0
    return perm


def raised(fn, *args):
    """(exception type, message) raised by ``fn(*args)``, or None."""
    try:
        fn(*args)
    except Exception as err:  # the comparison is the point
        return type(err), str(err)
    return None


# -- co-reps ---------------------------------------------------------------------

@pytest.mark.parametrize("name,rep_name,rep", IRREPS, ids=IRREP_IDS)
def test_corep_kernels_match_pairwise(name, rep_name, rep):
    for tag, var in rep_variants(rep, seed=len(IRREP_IDS)).items():
        uni, rel = validate_corep_pairwise(var)
        report = validate_corep(var)
        assert_within_bounds(var, report, tag)
        assert abs(report.unitarity_residual - uni) <= 1e-12, tag
        assert abs(report.relation_residual - rel) <= 1e-12, tag
        rebuilt = corep_from_matrices(var.group, var.matrices)
        assert np.abs(rebuilt.omega.values - omega_pairwise(var.group, var.matrices)).max() <= 1e-12
        assert np.abs(rebuilt.omega.values - var.omega.values).max() <= 1e-12, tag
        assert abs(validate_cocycle(var.group, var.omega).max_violation
                   - cocycle_violation_full(var.group, var.omega)) <= 1e-15, tag


@pytest.mark.parametrize("name,rep_name,rep", IRREPS, ids=IRREP_IDS)
def test_inherited_bounds_follow_loose_inputs(name, rep_name, rep):
    # a basis change 1e-9 off unitary, phases 1e-12 off unit modulus, and a
    # summand whose factor system is up to 1e-12 off: the residuals grow to
    # first order in each, and the bounds must grow with them
    rng = np.random.default_rng(len(rep_name) + rep.dim)
    g, d = rep.group, rep.dim
    u = random_unitary(d, 8) * (1 + 1e-9) + 1e-9 * rng.standard_normal((d, d))
    phases = np.exp(2j * np.pi * rng.random(g.order)) * (1 + rng.uniform(-1e-12, 1e-12, g.order))
    nudge = np.ones(g.order, dtype=complex)
    nudge[-1] = np.exp(4e-13j)
    skewed = conjugate_corep(rep, u)
    variants = {
        "skewed": skewed,
        "stretched": gauge_transform(rep, phases),
        "both": gauge_transform(skewed, phases),
        "skewed-sum": direct_sum([rep, skewed]),
        "nudged-sum": direct_sum([rep, gauge_transform(rep, nudge)]),
    }
    for tag, var in variants.items():
        assert_within_bounds(var, validate_corep(var), tag)


@pytest.mark.parametrize("rep_name", ["vector", "spinor", "gamma8", "quaternion"])
def test_inherited_bounds_hold_at_order_96(oht, rep_name):
    g, mats = oht["group"], oht["coreps"][rep_name]
    rep = corep_from_matrices(g, mats)
    report = validate_corep(rep)
    # the fit's residuals are the validator's, bit for bit
    assert rep.residuals == (report.unitarity_residual, report.relation_residual)
    variants = rep_variants(rep, seed=96)
    for low, ids in oht["lowerings"].items():
        variants[low] = restrict_corep(variants["rotated"], ids)[0]
    for tag, var in variants.items():
        assert_within_bounds(var, validate_corep(var), tag)
        assert max(var.residuals) <= 1e-12, tag


@pytest.mark.parametrize("rep_name", ["vector", "spinor", "gamma8", "quaternion"])
def test_validate_corep_matches_pairwise_at_order_96(oht, rep_name):
    rep = corep_from_matrices(oht["group"], oht["coreps"][rep_name])
    rep = random_gauge(conjugate_corep(rep, random_unitary(rep.dim, 961)), 962)
    uni, rel = validate_corep_pairwise(rep)
    report = validate_corep(rep)
    assert abs(report.unitarity_residual - uni) <= 1e-12
    assert abs(report.relation_residual - rel) <= 1e-12


@pytest.mark.parametrize("rotated", [False, True])
def test_validate_bare_order_96_sum_matches_pairwise(oht, rotated):
    # spinor + gamma8, d = 6: 24 blocks of 4 rows; unrotated, the residuals tie
    g = oht["group"]
    rep = direct_sum([corep_from_matrices(g, oht["coreps"][r]) for r in ("spinor", "gamma8")])
    if rotated:
        rep = random_gauge(conjugate_corep(rep, random_unitary(rep.dim, 963)), 964)
    bare = CoRep(group=g, omega=rep.omega, matrices=rep.matrices)
    assert bare.residuals is None and bare.dim == 6
    uni, rel = validate_corep_pairwise(bare)
    report = validate_corep(bare)
    assert abs(report.unitarity_residual - uni) <= 1e-15
    assert abs(report.relation_residual - rel) <= 1e-15


@pytest.mark.parametrize("name", [*ENTRIES, "oht"])
def test_row_products_match_pair_products(name, oht):
    g = oht["group"] if name == "oht" else mr.catalog_get(name).group
    n = g.order
    rng = np.random.default_rng(n)
    eps = np.finfo(float).eps
    mixed = partial = False
    for d in range(1, 13):
        mats = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        bound = 4 * eps * np.linalg.norm(mats, ord=2, axis=(-2, -1)).max() ** 2
        step = max(1, ROW_BLOCK_ENTRIES // (n * d * d))
        start = 0
        for rows, prod, target in _row_products(g, mats):
            assert rows.tolist() == list(range(start, min(start + step, n))), d
            start += len(rows)
            mixed |= len(set(g.antiunitary[rows])) == 2
            partial |= len(rows) < step
            want = np.array([[mats[a] @ (np.conj(mats[b]) if g.s(a) else mats[b])
                              for b in range(n)] for a in rows])
            assert np.abs(prod - want).max() <= bound, d
            assert np.array_equal(target, mats[g.cayley[rows]]), d
        assert start == n, d
    assert mixed and partial


@pytest.mark.parametrize("source", ["c8t", "oht"])
def test_fit_names_the_first_bad_pair_of_a_mixed_block(source, oht):
    # bad pairs at (1, 5), an anti-unitary row, and (2, 3), a later unitary
    # row of the same block: the fit must name (1, 5), as the oracle does
    if source == "oht":
        g, mats = oht["group"], oht["coreps"]["spinor"]
        perm = np.stack([np.flatnonzero(g.antiunitary == 0),
                         np.flatnonzero(g.antiunitary == 1)], axis=1).ravel()
        g, mats = relabelled(g, mats, perm)
    else:
        rep = mr.catalog_get("c8t").reps["complex_pair"]
        g, mats = rep.group, rep.matrices
    n, d = g.order, mats.shape[1]
    assert (g.s(1), g.s(2)) == (1, 0)
    assert max(1, ROW_BLOCK_ENTRIES // (n * d * d)) > 2
    table = g.cayley.copy()
    for a, b in ((1, 5), (2, 3)):
        true = mats[g.cayley[a, b]]
        # an entry whose matrix is no multiple of the true product's
        table[a, b] = next(c for c in range(n)
                           if abs(np.trace(mats[c].conj().T @ true)) < d / 2)
    skewed = dataclasses.replace(g, cayley=table)
    want = raised(omega_pairwise, skewed, mats)
    assert want == (InvalidCoRep, "products are not scalar multiples of the table "
                    f"entry at ({g.label(1)}, {g.label(5)})")
    assert raised(corep_from_matrices, skewed, mats) == want


def _norm_stacks(d, mag, rng, k=40):
    """Stacks of spread, tied, near-isotropic and degenerate matrices scaled
    by ``mag``, one whose magnitudes span 280 decades, and two
    non-contiguous views."""
    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    base = gauss(d, d)
    iso = np.stack([random_unitary(d, seed) for seed in range(k)])
    onehot = np.zeros((k, d, d), dtype=complex)
    onehot[3] = base
    outlier = np.zeros((k, d, d), dtype=complex)
    outlier[:, range(d), range(d)] = 1 + 1e-8 * rng.standard_normal((k, d))
    outlier[:, 0, 0] += 1e-7 * rng.random(k)
    # rank d-1 partial isometries among isotropic matrices of norm up to 1.05
    mixed = iso.copy()
    mixed[::2, :, -1] = 0
    mixed[1::2] *= 1 + 0.05 * rng.random((k // 2, 1, 1))
    # a few distinct matrices, each repeated byte for byte, and a twin that
    # differs only in a signed zero
    repeats = np.repeat(iso[:5], k // 5, axis=0)[rng.permutation(k // 5 * 5)]
    twins = np.repeat(base[None], k, axis=0)
    twins[:, 0, -1] = 0.0
    twins[1::3, 0, -1] = -0.0
    stacks = {
        "gauss": gauss(k, d, d),
        "ties": np.repeat(base[None], k, axis=0),
        "isotropic": iso,
        "rank1": gauss(k, d, 1) @ gauss(k, 1, d),
        "zero": np.zeros((k, d, d), dtype=complex),
        "onehot": onehot,
        "near-ties": base * (1 + 1e-15 * rng.standard_normal((k, 1, 1))),
        "near-isotropic": iso * (1 + 1e-9 * rng.standard_normal((k, 1, 1))),
        "outlier": outlier,
        "mixed": mixed,
        "noise": 1e-16 * gauss(k, d, d),
        "repeats": repeats,
        "signed-zero": twins,
        # sums of squares that underflow, overflow and stay normal in one stack
        "mixed-magnitude": gauss(k, d, d) * 10.0 ** rng.uniform(-140, 140, (k, 1, 1)),
    }
    out = {tag: mag * st for tag, st in stacks.items()}
    out["transposed"] = np.swapaxes(out["mixed-magnitude"], 1, 2)
    out["strided"] = (mag * gauss(k, d, 2 * d))[:, :, ::2]
    return out


def hypot_norm(m):
    """||m||_F as ``math.hypot`` of the real and imaginary parts of the entries."""
    return math.hypot(*m.real.ravel(), *m.imag.ravel())


def assert_ulps(got, want, tag, ulps=4):
    assert abs(got - want) <= ulps * math.ulp(want), (tag, got, want)


# squares of entries go subnormal from 1e-160 down and overflow at 1e160
@pytest.mark.parametrize("mag", [1e-300, 1e-170, 1e-160, 1.0, 1e150, 1e160])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 8, 12])
def test_frobenius_norms_are_within_ulps_of_hypot(d, mag):
    # the residual kernel takes the largest Frobenius norm: every matrix's
    # norm within a few ulps of math.hypot, and so between LAPACK's spectral
    # norm and sqrt(d) times it
    rng = np.random.default_rng(d)
    for tag, stack in _norm_stacks(d, mag, rng).items():
        norms = _frobenius_norms(stack)
        for m, got in zip(stack, norms):
            assert_ulps(got, hypot_norm(m), tag)
        spectral = np.linalg.norm(stack, ord=2, axis=(-2, -1))
        assert (spectral <= norms * (1 + 1e-14)).all(), tag
        assert (norms <= np.sqrt(d) * spectral * (1 + 1e-14)).all(), tag
        top = _max_frobenius_norm(stack)
        assert top == norms.max(), tag
        for floor in (top, top * (1 - 1e-12), top * (1 + 1e-12), np.median(norms), 2 * top):
            assert _max_frobenius_norm(stack, floor) == max(floor, top), (tag, floor)


def test_max_frobenius_norm_propagates_nan():
    # a NaN matrix, or a NaN floor, makes the maximum NaN, whatever the
    # floor; an infinite entry makes it infinite
    for mag in (1e-300, 1e-170, 1.0, 1e150):
        stack = mag * np.stack([np.eye(2)] * 4).astype(complex)
        assert not np.isnan(_max_frobenius_norm(stack, np.inf))
        assert np.isnan(_max_frobenius_norm(stack, np.nan)), mag
        stack[1::2, 0, 1] = np.nan
        for floor in (0.0, mag, 1e300, np.inf):
            assert np.isnan(_max_frobenius_norm(stack, floor)), (mag, floor)
        stack[1::2, 0, 1] = np.inf
        assert _max_frobenius_norm(stack) == np.inf, mag


def test_max_frobenius_norm_reads_overflowing_squares():
    # the isotropic matrix's sum of squares, 4e308, overflows unscaled, yet
    # its norm 2e154 is finite and above the rank-one matrix's 1.2e154
    iso = 1e154 * random_unitary(4, 0)
    rank1 = np.zeros((4, 4), dtype=complex)
    rank1[0, 0] = 1.2e154
    stack = np.stack([iso, rank1, iso])
    assert_ulps(_max_frobenius_norm(stack), hypot_norm(iso), "iso")
    assert _max_frobenius_norm(stack) == pytest.approx(2e154, rel=1e-14)
    assert _max_frobenius_norm(stack[1:2]) == 1.2e154


def test_validation_and_fit_run_no_svd(oht, monkeypatch):
    # neither the residuals nor the fit's first-bad-pair search decompose a
    # matrix: np.linalg.svd, and the svd behind np.linalg.norm(ord=2), raise
    def refuse(*args, **kwargs):
        raise AssertionError("SVD called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", refuse)
    with pytest.raises(AssertionError, match="SVD called"):
        np.linalg.norm(np.eye(2), ord=2)
    reps = [rep for _, _, rep in IRREPS]
    reps += [corep_from_matrices(oht["group"], m) for m in oht["coreps"].values()]
    for rep in reps:
        moved = random_gauge(conjugate_corep(rep, random_unitary(rep.dim, 5)), 6)
        assert validate_corep(moved).passed
        corep_from_matrices(moved.group, moved.matrices)
        mats = moved.matrices.copy()
        mats[-1] = 1.5 * mats[-1]
        assert not validate_corep(CoRep(group=rep.group, omega=moved.omega,
                                        matrices=mats)).passed
        with pytest.raises(InvalidCoRep):
            corep_from_matrices(rep.group, mats)


def assert_brackets_spectral(rep, tag):
    """Each residual of ``validate_corep`` lies in [r, sqrt(d) r] of the
    spectral pairwise oracle's r, up to the rounding of the two routes."""
    slack = 16 * rep.dim * np.finfo(float).eps
    report = validate_corep(rep)
    got = (report.unitarity_residual, report.relation_residual)
    for fro, spec in zip(got, validate_corep_pairwise(rep, ord=2)):
        assert spec - slack <= fro <= np.sqrt(rep.dim) * spec + slack, (tag, fro, spec)


def broken_copy(rep):
    """The co-rep with its last matrix scaled by 1.5 and rotated."""
    mats = rep.matrices.copy()
    mats[-1] = 1.5 * mats[-1] @ random_unitary(rep.dim, 3)
    return CoRep(group=rep.group, omega=rep.omega, matrices=mats)


@pytest.mark.parametrize("name,rep_name,rep", IRREPS, ids=IRREP_IDS)
def test_residuals_bracket_the_spectral_oracle(name, rep_name, rep):
    moved = random_gauge(conjugate_corep(rep, random_unitary(rep.dim, 11)), 12)
    for tag, var in {"plain": rep, "moved": moved, "broken": broken_copy(moved)}.items():
        assert_brackets_spectral(var, tag)


@pytest.mark.parametrize("rep_name", ["vector", "gamma8"])
def test_residuals_bracket_the_spectral_oracle_at_order_96(oht, rep_name):
    rep = corep_from_matrices(oht["group"], oht["coreps"][rep_name])
    moved = random_gauge(conjugate_corep(rep, random_unitary(rep.dim, 13)), 14)
    for tag, var in {"plain": rep, "moved": moved, "broken": broken_copy(moved)}.items():
        assert_brackets_spectral(var, tag)


def test_fit_refuses_a_misfit_only_the_frobenius_norm_sees():
    # M(x) -> M(x)(1 + delta D) with D = diag(1, -1, 1, -1) on the 4-dim
    # quartet: the worst pair misses by 2 delta in the spectral norm, under
    # OMEGA_FIT_TOL, and by 4 delta in the Frobenius norm, over it
    rep = mr.catalog_get("q8t").reps["quartet"]
    g, x, delta = rep.group, rep.group.order - 1, 3e-9
    mats = rep.matrices.copy()
    mats[x] = mats[x] @ (np.eye(4) + delta * np.diag([1.0, -1.0, 1.0, -1.0]))
    broken = CoRep(group=g, omega=rep.omega, matrices=mats)
    _, spec = validate_corep_pairwise(broken, ord=2)
    assert spec < OMEGA_FIT_TOL < validate_corep(broken).relation_residual
    # a spectral fit would accept every pair
    assert raised(omega_pairwise, g, mats, OMEGA_FIT_TOL, 2) is None
    want = raised(omega_pairwise, g, mats)
    assert want is not None and want[0] is InvalidCoRep
    assert raised(corep_from_matrices, g, mats) == want


def loose_sums(reps, seed):
    """3-summand direct sums of unequal dimension from co-reps sharing a
    factor system: the largest rotated 1e-9 off unitary, the smallest
    rescaled by moduli up to 2e-13 off 1, the largest with a factor system
    nudged by 4e-13 and rotated 1e-9 off unitary too; and the sum gauged by
    phases up to 1e-12 off unit modulus."""
    rng = np.random.default_rng(seed)
    big, small = max(reps, key=lambda r: r.dim), min(reps, key=lambda r: r.dim)
    assert big.dim > small.dim
    n, d = big.group.order, big.dim

    def skew():
        return random_unitary(d, seed) * (1 + 1e-9) + 1e-9 * rng.standard_normal((d, d))

    moduli = 1 + rng.uniform(-2e-13, 2e-13, n)
    nudge = np.ones(n, dtype=complex)
    nudge[-1] = np.exp(4e-13j)
    plain = direct_sum([conjugate_corep(big, skew()), gauge_transform(small, moduli),
                        conjugate_corep(gauge_transform(big, nudge), skew())])
    phases = np.exp(2j * np.pi * rng.random(n)) * (1 + rng.uniform(-1e-12, 1e-12, n))
    return {"sum3": plain, "sum3-stretched": gauge_transform(plain, phases)}


@pytest.mark.parametrize("name", ENTRIES)
def test_inherited_bounds_follow_loose_unequal_sums(name):
    buckets = [[rep for _, rep in bucket] for bucket in compatible_rep_groups(mr.catalog_get(name))
               if len({rep.dim for _, rep in bucket}) > 1]
    for k, reps in enumerate(buckets):
        for tag, var in loose_sums(reps, 30 + k).items():
            assert_within_bounds(var, validate_corep(var), (k, tag))


def test_inherited_bounds_follow_loose_unequal_sums_at_order_96(oht):
    g = oht["group"]
    reps = [corep_from_matrices(g, oht["coreps"][r]) for r in ("spinor", "gamma8")]
    for tag, var in loose_sums(reps, 96).items():
        assert_within_bounds(var, validate_corep(var), tag)


@pytest.mark.parametrize("name,rep_name,rep", IRREPS, ids=IRREP_IDS)
def test_corrupted_corep_matches_pairwise(name, rep_name, rep):
    g = rep.group
    bad_id = g.order - 1
    mats = rep.matrices.copy()
    mats[bad_id] = 1.5 * mats[bad_id] @ random_unitary(rep.dim, 3)   # also off unitarity
    broken = CoRep(group=g, omega=rep.omega, matrices=mats)
    uni, rel = validate_corep_pairwise(broken)
    report = validate_corep(broken)
    assert not report.passed
    assert abs(report.unitarity_residual - uni) <= 1e-12
    assert abs(report.relation_residual - rel) <= 1e-12
    want = raised(omega_pairwise, g, mats)
    assert want is not None
    assert raised(corep_from_matrices, g, mats) == want

    if g.order > 2:
        # one wrong table entry; the group is replaced without revalidation
        table = g.cayley.copy()
        table[1, 2] = table[1, 1]
        skewed = dataclasses.replace(g, cayley=table)
        want = raised(omega_pairwise, skewed, rep.matrices)
        assert raised(corep_from_matrices, skewed, rep.matrices) == want
        skewed_rep = CoRep(group=skewed, omega=rep.omega, matrices=rep.matrices)
        uni, rel = validate_corep_pairwise(skewed_rep)
        report = validate_corep(skewed_rep)
        assert abs(report.relation_residual - rel) <= 1e-12


# -- probe actions -----------------------------------------------------------------

@pytest.mark.parametrize("name", ENTRIES)
def test_action_residuals_match_pairwise(name):
    for act_name, act in entry_actions(mr.catalog_get(name)).items():
        assert abs(validate_action(act) - action_residual_pairwise(act)) <= 1e-12, act_name


@pytest.mark.parametrize("name", ENTRIES)
def test_corrupted_action_matches_pairwise(name):
    for act_name, act in mr.catalog_get(name).probe_actions.items():
        for k in (0, len(act.d_h) - 1):
            d_h = act.d_h.copy()
            d_h[k] = d_h[k] + 0.25
            broken = ProbeRepAction(group=act.group, d_h=d_h, d_t0=act.d_t0, kind=act.kind)
            want = action_residual_pairwise(broken)
            assert abs(validate_action(broken, tol=np.inf) - want) <= 1e-12, act_name
            with pytest.raises(InvalidAction) as err:
                validate_action(broken)
            assert str(err.value) == f"probe matrices violate the group law by {want:.3e}"


@pytest.mark.parametrize("name", ENTRIES)
def test_action_d_batches_over_element_ids(name):
    for act_name, act in entry_actions(mr.catalog_get(name)).items():
        n, q = act.group.order, act.dim_q
        stacked = np.stack([act.d(g) for g in range(n)])
        assert np.array_equal(act.d(np.arange(n)), stacked), act_name
        ids = np.arange(n)[::-1].reshape(-1, 1)
        assert np.array_equal(act.d(ids), stacked[::-1].reshape(n, 1, q, q)), act_name
        # a linear rep of the whole group, coset included: D(a) D(b) = D(ab)
        law = stacked[:, None] @ stacked[None, :] - act.d(act.group.cayley)
        assert np.abs(law).max() <= 1e-12, act_name


def assert_substitution_matches_dict_expansion(act, orders, tag):
    lin = _dual_matrices(act.d(np.arange(act.group.order)))
    q = act.dim_q
    for n in orders:
        got = _substitution_matrices(lin, n)
        # the cached degree tables do the arithmetic of tables built per call
        assert np.array_equal(got, substitution_matrices_per_call(lin, n)), (tag, n)
        want = np.stack([substitution_matrix_dict(monomial_exponents(n, q), m) for m in lin])
        assert np.abs(got - want).max() <= 1e-12, (tag, n)
        # the induced action is the dual of the substitution rep
        full = full_induced_action(act, n)
        assert np.abs(dual_rep(full).d(np.arange(len(lin))) - want).max() <= 1e-12, (tag, n)


@pytest.mark.parametrize("name", ENTRIES)
def test_substitution_matrices_match_dict_expansion(name):
    # the momenta and the one-component fields of every entry
    acts = mr.catalog_get(name).probe_actions
    assert {a.dim_q for a in acts.values()} == {1, 3}
    for act_name, act in acts.items():
        assert_substitution_matches_dict_expansion(act, (1, 2, 3, 4, 5), act_name)


def test_substitution_matrices_match_dict_expansion_in_two_variables(oht):
    # the E_g strain of O_h x T: the polynomials of a 2-dim channel
    act = oht["actions"]["strain_eg"]
    assert act.dim_q == 2
    assert_substitution_matches_dict_expansion(act, (1, 2, 3, 4), "strain_eg")


@pytest.mark.parametrize("name", ENTRIES)
def test_trivial_multiplicity_matches_h_plus_t0_oracle(name):
    acts = entry_actions(mr.catalog_get(name))
    for act_name, act in list(acts.items()):
        if act.dim_q == 3:
            for n in (2, 3):
                sets = polynomial_channel(act, n)
                acts[f"{act_name}-full{n}"] = full_induced_action(act, n)
                acts.update({f"{act_name}-ord{n}-{k}": c.action
                             for k, c in enumerate(sets.channels)})
    # the count of every entry of ``_coupling_counts``, here under the
    # entry's first co-rep, whose criterion is an integer for every rep
    rep = next(iter(mr.catalog_get(name).reps.values()))
    counts = _coupling_counts(rep, np.stack([_characters(act) for act in acts.values()]))
    for (act_name, act), count in zip(acts.items(), counts, strict=True):
        assert count["trivial_multiplicity"] == trivial_multiplicity_h_t0(act), act_name


def corrupted_actions(act):
    """Copies that break the group law: one entry of the identity's matrix
    + 1e-6, D(t0) x 1.5, and the identity's matrix swapped with the first
    one that is not 1 (D'(E)^2 = D'(E) then fails)."""
    g = act.group
    e = list(g.h_elements).index(g.identity)
    bumped = act.d_h.copy()
    bumped[e, 0, 0] += 1e-6
    out = {"bump": (bumped, act.d_t0)}
    if act.d_t0 is not None:
        out["t0"] = (act.d_h, 1.5 * act.d_t0)
    other = [k for k in range(len(act.d_h)) if np.abs(act.d_h[k] - act.d_h[e]).max() > 1e-3]
    if other:
        swapped = act.d_h.copy()
        swapped[[e, other[0]]] = swapped[[other[0], e]]
        out["swap"] = (swapped, act.d_t0)
    return {tag: ProbeRepAction(group=g, d_h=d_h, d_t0=d_t0, kind=act.kind)
            for tag, (d_h, d_t0) in out.items()}


def assert_action_matches_rowwise(act, tag):
    assert abs(validate_action(act) - validate_action_rowwise(act)) <= 1e-15, tag
    for how, broken in corrupted_actions(act).items():
        want = validate_action_rowwise(broken, tol=np.inf)
        assert abs(validate_action(broken, tol=np.inf) - want) <= 1e-15, (tag, how)
        with pytest.raises(InvalidAction):
            validate_action_rowwise(broken)
        with pytest.raises(InvalidAction):
            validate_action(broken)


@pytest.mark.parametrize("name", ENTRIES)
def test_action_validation_matches_rowwise(name):
    # every catalog action's full induced action and every channel of orders
    # 1-3
    for act_name, act in mr.catalog_get(name).probe_actions.items():
        for order, tag, a in channel_actions(act, (1, 2, 3)):
            assert_action_matches_rowwise(a, (act_name, order, tag))


def test_action_validation_matches_rowwise_at_order_96(oht):
    # the 3-dim actions take two row blocks, and the order-3 induced action
    # of the momenta (10 x 10) sixteen
    for act_name, act in oht["actions"].items():
        assert_action_matches_rowwise(act, act_name)
    for order, tag, a in channel_actions(oht["actions"]["momentum"], (2, 3)):
        assert_action_matches_rowwise(a, (order, tag))


def assert_same_table(got, want, tag):
    """Field-by-field equality of two dispersion tables."""
    assert got["leading_order"] == want["leading_order"], tag
    assert got["seed"] == want["seed"], tag
    assert [o["order"] for o in got["orders"]] == [o["order"] for o in want["orders"]]
    for a, b in zip(got["orders"], want["orders"]):
        where = (tag, a["order"])
        assert a["full"] == b["full"], where
        assert len(a["channels"]) == len(b["channels"]), where
        for x, y in zip(a["channels"], b["channels"]):
            assert x.keys() == y.keys(), where
            assert np.array_equal(x.pop("polynomials"), y.pop("polynomials")), where
            assert x == y, where
        counts = [a["full"]] + a["channels"]
        # plain ints, as the JSON reports write them
        assert all(type(c[k]) is int for c in counts for k in
                   ("multiplicity", "trivial_multiplicity", "splitting_multiplicity"))


def assert_table_matches_per_channel(rep, action, seed, tag):
    variants = {"plain": rep,
                "rotated": random_gauge(conjugate_corep(rep, random_unitary(rep.dim, seed)),
                                        seed + 1)}
    for how, r in variants.items():
        assert_same_table(dispersion_order(r, action, 3),
                          dispersion_table_per_channel(r, action, 3), (tag, how))


@pytest.mark.parametrize("name,rep_name,rep", IRREPS, ids=IRREP_IDS)
def test_dispersion_table_matches_per_channel(name, rep_name, rep):
    momenta = {a: act for a, act in mr.catalog_get(name).probe_actions.items()
               if act.dim_q == 3}
    assert momenta
    for act_name, act in momenta.items():
        assert_table_matches_per_channel(rep, act, 17, act_name)


@pytest.mark.parametrize("rep_name", ["vector", "spinor", "gamma8", "quaternion"])
def test_dispersion_table_matches_per_channel_at_order_96(oht, rep_name):
    rep = corep_from_matrices(oht["group"], oht["coreps"][rep_name])
    assert_table_matches_per_channel(rep, oht["actions"]["momentum"], 23, rep_name)


def assert_channel_sets_match_eager(reps, actions, tag):
    """Every action's channel sets at orders 1-3 and seeds 0 and 17 against
    ``channel_set_eager``, and every (co-rep, action) table against the
    eager one, byte for byte."""
    for seed in (0, 17):
        for act_name, act in actions.items():
            for n in (1, 2, 3):
                where = (tag, act_name, n, seed)
                got, want = polynomial_channel(act, n, seed=seed), channel_set_eager(act, n, seed)
                assert got.exponents == want.exponents and len(got.channels) == len(want.channels)
                # row 0 from the traces of the substitution rep, not of its inverse
                assert np.abs(got.characters - want.characters).max() <= 1e-12, where
                assert np.array_equal(got.characters[1:], want.characters[1:]), where
                pairs = [(full_induced_action(act, n), want.full_action)]
                pairs += [(a.action, b.action) for a, b in zip(got.channels, want.channels)]
                for a, b in pairs:
                    assert (a.kind, a.dim_q) == (b.kind, b.dim_q), where
                    assert np.array_equal(a.d_h, b.d_h), where
                    assert (a.d_t0 is None) == (b.d_t0 is None), where
                    assert a.d_t0 is None or np.array_equal(a.d_t0, b.d_t0), where
                for a, b in zip(got.channels, want.channels):
                    assert np.array_equal(a.coefficients, b.coefficients), where
            for rep_name, rep in reps.items():
                table = dispersion_order(rep, act, 3, seed=seed)
                want = dispersion_table_eager(rep, act, 3, seed)
                assert write_report(table) == write_report(want), (tag, rep_name, act_name)
                assert_same_table(table, want, (tag, rep_name, act_name, seed))


@pytest.mark.parametrize("name", ENTRIES)
def test_channel_sets_match_the_eager_oracle(name):
    entry = mr.catalog_get(name)
    assert_channel_sets_match_eager(entry.reps, entry.probe_actions, name)


def test_channel_sets_match_the_eager_oracle_at_order_96(oht):
    reps = {r: corep_from_matrices(oht["group"], mats) for r, mats in oht["coreps"].items()}
    assert_channel_sets_match_eager(reps, oht["actions"], "oht")


COUNT_KEYS = ("multiplicity", "trivial_multiplicity", "splitting_multiplicity")


def assert_full_row_is_the_channel_sum(table, tag):
    """Each count of the full induced action, taken from the traces, is the
    sum of the channels' counts, taken from the split."""
    for entry in table["orders"]:
        for key in COUNT_KEYS:
            want = sum(ch[key] for ch in entry["channels"])
            assert entry["full"][key] == want, (tag, entry["order"], key)


@pytest.mark.parametrize("name", ENTRIES)
def test_full_row_is_the_channel_sum(name):
    entry = mr.catalog_get(name)
    for rep_name, rep in entry.reps.items():
        for act_name, act in entry.probe_actions.items():
            assert_full_row_is_the_channel_sum(dispersion_order(rep, act, 3),
                                               (name, rep_name, act_name))


@pytest.mark.parametrize("act_name", ["momentum", "magnetic", "strain_eg", "strain_t2g"])
def test_full_row_is_the_channel_sum_at_order_96(oht, act_name):
    for rep_name, mats in oht["coreps"].items():
        rep = corep_from_matrices(oht["group"], mats)
        table = dispersion_order(rep, oht["actions"][act_name], 3, seed=5)
        assert_full_row_is_the_channel_sum(table, (rep_name, act_name))


# -- groups ------------------------------------------------------------------------

def entry_realizations(name):
    """(matrices, flags, labels) realizations of an entry's group."""
    g = mr.catalog_get(name).group
    flags = g.antiunitary.tolist()
    out = [(regular_realization(g), flags, list(g.labels))]
    if name in ("c4v_t", "c6v_t"):
        o2, _, labels = _cnv_realization(int(name[1]))
        o3 = [_lift3(x) for x in o2] * 2
        out.append((o3, [0] * len(o2) + [1] * len(o2), labels + [f"{x}T" for x in labels]))
    rng = np.random.default_rng(5)
    rotated = []
    for mats, fl, labels in out:
        mats = np.asarray(mats)
        o, _ = np.linalg.qr(rng.standard_normal(mats.shape[1:]))
        rotated.append((o.T @ mats @ o, fl, labels))
    return out + rotated


@pytest.mark.parametrize("name", ENTRIES)
def test_covariant_tuple_basis_matches_columnwise_oracle(name):
    # every rep, rotated and gauged, against every action and its channels of
    # orders 1-3: the same null-space dimension and span
    entry = mr.catalog_get(name)
    for k, rep in enumerate(entry.reps.values()):
        variant = random_gauge(conjugate_corep(rep, random_unitary(rep.dim, 40 + k)), 50 + k)
        for act in entry.probe_actions.values():
            for order, tag, a in channel_actions(act, (1, 2, 3)):
                got = covariant_tuple_basis(variant, a)
                want = covariant_tuple_basis_columnwise(variant, a)
                assert got.shape == want.shape, (order, tag)
                assert tuple_span_residual(got, want) < 1e-12, (order, tag)


@pytest.mark.parametrize("rep_name", ["vector", "spinor", "gamma8", "quaternion"])
def test_covariant_tuple_basis_matches_columnwise_oracle_at_order_96(oht, rep_name):
    # the four generators against all 49 elements of H plus t0: every probe
    # and its order-2 channels, the co-rep plain and rotated + gauged
    rep = corep_from_matrices(oht["group"], oht["coreps"][rep_name])
    variant = random_gauge(conjugate_corep(rep, random_unitary(rep.dim, 60)), 70)
    for probe in ("momentum", "electric", "magnetic"):
        act = oht["actions"][probe]
        channels = [c.action for c in polynomial_channel(act, 2).channels]
        for k, a in enumerate([act] + channels):
            for r in (rep, variant):
                got = covariant_tuple_basis(r, a)
                want = covariant_tuple_basis_columnwise(r, a)
                assert got.shape == want.shape, (probe, k)
                assert tuple_span_residual(got, want) < 1e-12, (probe, k)


@pytest.mark.parametrize("name", ENTRIES)
def test_covariance_defects_match_elementwise(name):
    # the batched defect of random tuples, element by element and as one stack
    entry = mr.catalog_get(name)
    rng = np.random.default_rng(9)
    for rep in entry.reps.values():
        g, d = rep.group, rep.dim
        for act in entry.probe_actions.values():
            dual = dual_rep(act)
            q = act.dim_q
            tuples = rng.standard_normal((2, q, d, d)) + 1j * rng.standard_normal((2, q, d, d))
            stack = _covariance_defects(rep, dual, np.arange(g.order), tuples)
            for e in range(g.order):
                m = rep.m(e)
                inner = np.conj(tuples) if g.s(e) else tuples
                want = (m @ inner @ m.conj().T
                        - np.einsum("nm,pnab->pmab", dual.d(e), tuples))
                assert np.abs(_covariance_defects(rep, dual, e, tuples) - want).max() < 1e-12
                assert np.abs(stack[e] - want).max() < 1e-12


@pytest.fixture(scope="module")
def coupled_models(oht):
    """(co-rep, action, model) of every coupled pair of a catalog co-rep with
    a probe action of its entry or one of its order 1-3 channels, and of an
    O_h x T co-rep with an O_h x T action or one of its order 1-2 channels."""
    pairs = []
    for name in ENTRIES:
        entry = mr.catalog_get(name)
        pairs += [(rep, act, 3) for rep in entry.reps.values()
                  for act in entry.probe_actions.values()]
    pairs += [(corep_from_matrices(oht["group"], mats), act, 2)
              for mats in oht["coreps"].values() for act in oht["actions"].values()]
    cases = []
    for rep, act, n_max in pairs:
        for n in range(n_max + 1):
            for a in [act] if n == 0 else [c.action for c in polynomial_channel(act, n).channels]:
                if linear_multiplicity(rep, a) > 0:
                    cases.append((rep, a, mr.build_gamma_matrices(rep, a)))
    return cases


def test_model_residuals_are_the_per_element_defect_maxima(coupled_models):
    # the one defect stack of build_gamma_matrices, bit for bit the largest
    # defect of each element alone, over H and over the coset
    assert sum(rep.group.order == 96 for rep, _, _ in coupled_models) >= 8
    for rep, act, model in coupled_models:
        g, dual = rep.group, dual_rep(act)
        worst = [np.abs(_covariance_defects(rep, dual, e, model.gammas)).max()
                 for e in range(g.order)]
        want = {"subgroup_covariance": float(max(worst[h] for h in g.h_elements))}
        if g.is_magnetic:
            want["coset_covariance"] = float(max(worst[u] for u in g.coset_elements))
        got = {k: v for k, v in model.residuals.items() if k != "hermiticity"}
        assert got == want, (g.order, act.kind)


def test_gamma_construction_stays_under_a_mebibyte(coupled_models):
    # the peak traced memory of one model: its defect stack of every element
    # is O(|G| p q d^2) entries, 0.6 MiB at most on these pairs
    tracemalloc.start()
    try:
        for rep, act, _ in coupled_models:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            mr.build_gamma_matrices(rep, act)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert peak <= 2 ** 20, (rep.group.order, rep.dim, act.kind, peak)
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ENTRIES)
def test_group_kernels_match_pairwise(name):
    g = mr.catalog_get(name).group
    for mats, flags, labels in entry_realizations(name):
        built = _group_from_realization(mats, flags, labels)
        want = cayley_from_realization_pairwise(list(mats), flags, labels)
        assert np.array_equal(built.cayley, want)
    assert conjugacy_classes(g, g.h_elements) == conjugacy_classes_pairwise(g, g.h_elements)
    for ids in (g.h_elements, [g.identity], range(g.order)):
        sub, emb = restricted_group(g, ids)
        assert np.array_equal(sub.cayley, restricted_table_pairwise(g, ids))
        assert (conjugacy_classes(sub, sub.h_elements)
                == conjugacy_classes_pairwise(sub, sub.h_elements))
        assert np.array_equal(verify_embedding_pairwise(g, sub, emb), emb)


@pytest.mark.parametrize("name", ["c8t", "c4v_t"])
def test_realization_match_is_the_same_one_row_per_block(name, monkeypatch):
    # blocks of one first element: the table and the first bad pair's labels
    # come out as from a single block, whichever block the pair lies in
    monkeypatch.setattr(magrep.groups, "ROW_BLOCK_ENTRIES", 1)
    for mats, flags, labels in entry_realizations(name):
        built = _group_from_realization(mats, flags, labels)
        assert np.array_equal(built.cayley, mr.catalog_get(name).group.cayley)
        mats = np.array(mats)
        mats[-1] = 2.0 * mats[-1]
        want = raised(cayley_from_realization_pairwise, list(mats), flags, labels)
        assert not want[1].startswith(f"realization is not closed at ({labels[0]},")
        assert raised(_group_from_realization, mats, flags, labels) == want


@pytest.mark.parametrize("name", ENTRIES)
def test_group_errors_match_pairwise(name):
    g = mr.catalog_get(name).group
    # realization with one element moved: some product loses its match
    for mats, flags, labels in entry_realizations(name)[:1]:
        mats = np.array(mats)
        mats[-1] = 2.0 * mats[-1]
        want = raised(cayley_from_realization_pairwise, list(mats), flags, labels)
        assert want is not None and want[0] is ValueError
        assert raised(_group_from_realization, mats, flags, labels) == want
    if g.order < 4:
        return
    # not closed: H without its last element (more than half of H cannot be
    # a proper subgroup), or for |H| = 2 the identity plus an order-4 element
    h = g.h_elements.tolist()
    ids = h[:-1] if len(h) > 2 else [g.identity, g.order - 1]
    want = raised(restricted_table_pairwise, g, ids)
    assert want is not None
    assert raised(restricted_group, g, ids) == want
    assert raised(conjugacy_classes, g, ids) == raised(conjugacy_classes_pairwise, g, ids)


@pytest.mark.parametrize("name", ENTRIES)
def test_associativity_matches_full_scan(name):
    table = mr.catalog_get(name).group.cayley
    n = len(table)
    swap = np.arange(n)
    swap[[1, n - 1]] = swap[[n - 1, 1]]
    # Latin squares all: the permutation checks pass and associativity decides
    variants = [table, table[swap], table[:, swap], swap[table], table[swap][:, swap],
                (table + 1) % n]
    failures = 0
    for t in variants:
        want = associativity_failure_full(t)
        got = raised(build_group, t, np.zeros(n, dtype=int))
        if want is None:
            assert got is None or not got[1].startswith("associativity"), got
        else:
            failures += 1
            assert got == (NotAGroup, f"associativity fails at triple {want}")
    assert failures > 0 or n <= 2


# a Latin square with identity 0 that is not associative: (1 1) 2 != 1 (1 2)
ORDER5_LOOP = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                        [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])


def loop_times_z10():
    """ORDER5_LOOP x Z_10, element (x, y) at id 10 x + y: its first failing
    triple starts at id 10, past the first block of three rows."""
    z10 = np.add.outer(np.arange(10), np.arange(10)) % 10
    return (10 * ORDER5_LOOP[:, None, :, None] + z10[None, :, None, :]).reshape(50, 50)


def factor_systems(oht):
    """(group, factor system) of every catalog co-rep, plain, gauged and with
    its last entry rephased by i so that the cocycle fails, and of the four
    O_h x T co-reps, plain and gauged."""
    out = []
    for _, _, rep in IRREPS:
        broken = rep.omega.values.copy()
        broken[-1, -1] *= 1j
        out += [(rep.group, rep.omega), (rep.group, random_gauge(rep, 3).omega),
                (rep.group, FactorSystem(broken))]
    for mats in oht["coreps"].values():
        rep = corep_from_matrices(oht["group"], mats)
        out += [(rep.group, rep.omega), (rep.group, random_gauge(rep, 3).omega)]
    return out


@pytest.mark.parametrize("rows", [1, 3])
def test_cocycle_blocks_match_the_row_loop(rows, oht, monkeypatch):
    # blocks of one and of three first elements: every report bit for bit
    # that of the row loop, in whichever block its largest violation lies
    cases = factor_systems(oht)
    broken = 0
    for g, omega in cases:
        monkeypatch.setattr(magrep.groups, "ROW_BLOCK_ENTRIES", rows * g.order ** 2)
        got = validate_cocycle(g, omega).max_violation
        assert got == cocycle_violation_rowwise(g, omega), (g.order, got)
        broken += got > 1.0
    assert broken == len(IRREPS)


@pytest.mark.parametrize("rows", [1, 3])
def test_associativity_blocks_name_the_first_triple(rows, monkeypatch):
    tables = [ORDER5_LOOP, loop_times_z10()]
    for name in ENTRIES:
        table = mr.catalog_get(name).group.cayley
        tables.append((table + 1) % len(table))
    for t in tables:
        n = len(t)
        monkeypatch.setattr(magrep.groups, "ROW_BLOCK_ENTRIES", rows * n * n)
        want = associativity_failure_full(t)
        got = raised(build_group, t, np.zeros(n, dtype=int))
        if want is None:
            assert got is None or not got[1].startswith("associativity"), got
        else:
            assert got == (NotAGroup, f"associativity fails at triple {want}")
    assert associativity_failure_full(tables[0]) == (1, 1, 2)
    assert associativity_failure_full(tables[1]) == (10, 10, 20)


@pytest.mark.parametrize("rows", [1, 3])
def test_element_orders_match_bruteforce(rows, oht, monkeypatch):
    for g in [mr.catalog_get(name).group for name in ENTRIES] + [oht["group"]]:
        monkeypatch.setattr(magrep.groups, "ROW_BLOCK_ENTRIES", rows * g.order ** 2)
        built = build_group(g.cayley, g.antiunitary, g.labels)
        want = [element_order_bruteforce(g.cayley, g.identity, e) for e in range(g.order)]
        assert built.element_order.tolist() == want


def test_group_checks_stay_under_a_mebibyte(oht):
    # the peak traced memory of one check, temporaries included: blocks of
    # n^2 triples a row keep it at O(max(ROW_BLOCK_ENTRIES, n^2)) entries
    cases = factor_systems(oht)
    tracemalloc.start()
    try:
        for g, omega in cases:
            for fn, args in ((validate_cocycle, (g, omega)),
                             (build_group, (g.cayley, g.antiunitary, g.labels))):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                fn(*args)
                peak = tracemalloc.get_traced_memory()[1] - base
                assert peak <= 2 ** 20, (fn.__name__, g.order, peak)
    finally:
        tracemalloc.stop()
