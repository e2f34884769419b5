import numpy as np
import pytest

from magrep.errors import EigenvalueAtBranchCutWarning, NotCommuting, NotSymmetricUnitary
from magrep.linalg import (
    _spectral_norm,
    random_unitary,
    refine_eigenbasis,
    symmetric_unitary_sqrt,
)

from conftest import random_symmetric_unitary, simultaneous_diag

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_simultaneous_diag_trivial_families():
    u, vals = simultaneous_diag([np.eye(3)])
    assert np.allclose(np.abs(u @ u.conj().T), np.eye(3))
    assert np.allclose(vals[0], 1.0)
    u, vals = simultaneous_diag([SZ, np.eye(2)])
    # standard basis columns, ordered by ascending eigenvalue: e2 then e1
    assert np.allclose(np.abs(u), np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(vals[0], [-1.0, 1.0])


def test_simultaneous_diag_refines_degeneracies():
    rng = np.random.default_rng(1)
    combo = 0.3 * np.eye(2) + 0.7 * SX
    u, vals = simultaneous_diag([SX, combo], seed=2)
    for mat, row in zip([SX, combo], vals):
        off = u.conj().T @ mat @ u - np.diag(row)
        assert np.abs(off).max() < 1e-10


def test_simultaneous_diag_rejects_noncommuting():
    with pytest.raises(NotCommuting):
        simultaneous_diag([SX, SZ])


def test_simultaneous_diag_order_invariance():
    # nondegenerate tuples: permuting the family permutes/rephases columns but
    # the eigenrays themselves are unchanged
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a = q @ np.diag([0.0, 1.0, 2.0]) @ q.conj().T
    b = q @ np.diag([5.0, -1.0, 3.0]) @ q.conj().T
    u1, v1 = simultaneous_diag([a, b], seed=0)
    u2, v2 = simultaneous_diag([b, a], seed=0)
    overlap = np.abs(u1.conj().T @ u2)
    assert np.allclose(np.sort(overlap, axis=0)[-1], 1.0, atol=1e-10)
    assert np.allclose(np.sort(overlap, axis=0)[:-1], 0.0, atol=1e-10)
    assert sorted(map(tuple, np.round(v1.T, 9))) == \
        sorted(map(tuple, np.round(np.flipud(v2).T, 9)))


def test_simultaneous_diag_real_inputs_stay_real():
    a = np.array([[1.0, 2.0], [2.0, 0.5]])
    u, _ = simultaneous_diag([a, np.eye(2)])
    assert np.isrealobj(u)


def test_refine_eigenbasis_labels_only_the_columns_it_splits():
    # a leaves one degenerate pair, which b splits; the columns a already
    # isolated never reach b, so b's value there is NaN
    q = random_unitary(4, 3)
    a = q @ np.diag([2.0, 1.0, 0.0, 1.0]) @ q.conj().T
    b = q @ np.diag([7.0, 5.0, 9.0, 3.0]) @ q.conj().T
    cols, values = refine_eigenbasis(q[:, ::-1], [a, b], [1e-9, 1e-9])
    assert np.allclose(values[0], [0.0, 1.0, 1.0, 2.0], atol=1e-12)
    assert np.isnan(values[1, [0, 3]]).all()
    assert np.allclose(values[1, 1:3], [3.0, 5.0], atol=1e-12)
    for mat, want in ((a, [0.0, 1.0, 1.0, 2.0]), (b, [9.0, 3.0, 5.0, 7.0])):
        assert np.abs(cols.conj().T @ mat @ cols - np.diag(want)).max() < 1e-12


def test_refine_eigenbasis_takes_an_array_stack_of_ops():
    q = random_unitary(4, 3)
    a = q @ np.diag([2.0, 1.0, 0.0, 1.0]) @ q.conj().T
    b = q @ np.diag([7.0, 5.0, 9.0, 3.0]) @ q.conj().T
    listed = refine_eigenbasis(q, [a, b], [1e-9, 1e-9])
    stacked = refine_eigenbasis(q, np.stack([a, b]), [1e-9, 1e-9])
    assert np.array_equal(listed[0], stacked[0])
    assert np.array_equal(listed[1], stacked[1], equal_nan=True)


def test_symmetric_sqrt_identity_and_diagonal():
    assert np.allclose(symmetric_unitary_sqrt(np.eye(3)), np.eye(3))
    m = np.diag([1j, -1j])
    u = symmetric_unitary_sqrt(m)
    assert np.allclose(u, np.diag(np.exp([0.25j * np.pi, -0.25j * np.pi])))


def test_symmetric_sqrt_random_fixtures():
    rng = np.random.default_rng(3)
    for k in range(20):
        d = int(rng.integers(1, 9))
        m = random_symmetric_unitary(d, rng)
        u = symmetric_unitary_sqrt(m)
        assert np.abs(u @ u - m).max() < 1e-10
        assert np.abs(u - u.T).max() < 1e-11
        assert np.abs(u.conj().T @ m @ np.conj(u) - np.eye(d)).max() < 1e-10


def _two_pass_root(m, tol=1e-9):
    """The root as it was built on the seeded ``simultaneous_diag``."""
    u_basis, (cos_t, sin_t) = simultaneous_diag([m.real, m.imag], seed=0, tol=tol)
    return u_basis @ np.diag(np.exp(0.5j * np.arctan2(sin_t, cos_t))) @ u_basis.T


def test_symmetric_sqrt_matches_the_two_pass_root_on_repeated_phases():
    # phases from the 7th roots of unity repeat often and come in conjugate
    # pairs (equal cos theta), so the refinement by sin theta runs; none is -1
    rng = np.random.default_rng(16)
    roots = np.exp(2j * np.pi * np.arange(7) / 7)
    for d in range(1, 17):
        for _ in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            m = q.T @ np.diag(rng.choice(roots, d)) @ q
            u = symmetric_unitary_sqrt(m)
            assert np.linalg.norm(u - _two_pass_root(m), ord=2) < 1e-8
            assert np.linalg.norm(u @ u - m, ord=2) < 1e-10


def test_symmetric_sqrt_separates_near_conjugate_and_reflected_phases():
    # cos theta of theta and -theta + delta differ by ~delta, just above the
    # tolerance: split there, their eigenvectors would be mixed by ~eps/delta.
    # pi/2 +- eps share sin theta, so only cos theta, again, separates them
    rng = np.random.default_rng(5)
    for delta in (1e-7, 1e-8, 3e-9):
        eps = 50 * delta
        for pair in ([1.1, -1.1 + delta], [np.pi / 2 + eps, np.pi / 2 - eps]):
            for _ in range(10):
                q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
                m = q.T @ np.diag(np.exp(1j * np.array(pair + [0.3, 2.0]))) @ q
                u = symmetric_unitary_sqrt(m)
                assert np.linalg.norm(u @ u - m, ord=2) < 1e-12


def test_symmetric_sqrt_branch_cut_warns():
    m = np.diag([-1.0 + 0j, 1.0])
    with pytest.warns(EigenvalueAtBranchCutWarning):
        u = symmetric_unitary_sqrt(m)
    assert np.allclose(u, np.diag([1j, 1.0]))
    # just below the cut, theta = -pi + 1e-12 is pinned to pi: the root is i, not -i
    m = np.diag([np.exp(-1j * (np.pi - 1e-12)), 1.0])
    with pytest.warns(EigenvalueAtBranchCutWarning):
        u = symmetric_unitary_sqrt(m)
    assert np.allclose(u, np.diag([1j, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_symmetric_sqrt_rejects_non_finite_entries(bad):
    # LAPACK would fail to converge on them, outside the library's errors
    m = np.eye(2, dtype=complex)
    m[0, 0] = bad
    with pytest.raises(NotSymmetricUnitary, match="finite"):
        symmetric_unitary_sqrt(m)


def test_symmetric_sqrt_rejects_plain_unitary():
    u = random_unitary(3, 5)
    if np.abs(u @ np.conj(u) - np.eye(3)).max() > 1e-6:
        with pytest.raises(NotSymmetricUnitary):
            symmetric_unitary_sqrt(u)


# -- spectral norm --------------------------------------------------------------

def spectral_norm_inputs(kind, rng):
    """Matrices of one kind, square at several d and one tall one, as
    ``tuple_span_residual`` passes."""
    for shape in ((2, 2), (3, 3), (5, 5), (12, 12), (18, 4)):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if kind == "complex":
            yield z
        elif kind == "real":
            yield z.real
        elif kind == "rank-deficient":   # rank 1, and the zero matrix
            yield np.outer(z[:, 0], z[0].conj())
            yield np.zeros(shape, dtype=complex)
    if kind == "one-by-one":
        yield np.array([[-3.5]])
        yield np.array([[2.0 - 1.5j]])


@pytest.mark.parametrize("kind", ["complex", "real", "rank-deficient", "one-by-one"])
def test_spectral_norm_is_numpys_two_norm_bit_for_bit(kind):
    rng = np.random.default_rng(17)
    for a in spectral_norm_inputs(kind, rng):
        got, want = _spectral_norm(a), np.linalg.norm(a, 2)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), (a.shape, got, want)


def test_spectral_norm_raises_like_numpy_on_nan():
    a = np.eye(3, dtype=complex)
    a[1, 2] = np.nan
    with pytest.raises(np.linalg.LinAlgError) as want:
        np.linalg.norm(a, 2)
    with pytest.raises(np.linalg.LinAlgError) as got:
        _spectral_norm(a)
    assert str(got.value) == str(want.value)
