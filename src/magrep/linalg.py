"""Numerical kernels: common eigenbases refined block by block and
symmetric-unitary square roots, plus a random unitary fixture.

These wrap LAPACK via numpy but add the validation, determinism and
branch-cut policies the representation engines rely on.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .errors import EigenvalueAtBranchCutWarning, NotCommuting, NotSymmetricUnitary

LINALG_TOL = 1e-9


def _cluster_slices(values: np.ndarray, gap: float):
    """Split ascending values into contiguous clusters at gaps above ``gap``."""
    slices = []
    start = 0
    for k in range(1, len(values)):
        if values[k] - values[k - 1] > gap:
            slices.append(slice(start, k))
            start = k
    slices.append(slice(start, len(values)))
    return slices


def refine_eigenbasis(cols: np.ndarray, ops: Sequence[np.ndarray], gaps: Sequence[float]):
    """Common eigenbasis of Hermitian ``ops`` on the span of the orthonormal
    ``cols`` ``(d, m)``: ``ops[0]`` is diagonalized there, and each cluster
    of its eigenvalues (split at ``gaps[0]``) wider than one column is
    refined by the remaining ops in turn.  Returns the columns and each op's
    eigenvalues on them, ``(len(ops), m)``, NaN where a column was already
    alone in its cluster."""
    values = np.full((len(ops), cols.shape[1]), np.nan)
    if cols.shape[1] == 1 or len(ops) == 0:
        return cols, values
    sub = cols.conj().T @ ops[0] @ cols
    sub = (sub + sub.conj().T) / 2
    values[0], vecs = np.linalg.eigh(sub)
    cols = cols @ vecs
    out = []
    for sl in _cluster_slices(values[0], gaps[0]):
        part, values[1:, sl] = refine_eigenbasis(cols[:, sl], ops[1:], gaps[1:])
        out.append(part)
    return np.hstack(out), values


def symmetric_unitary_sqrt(m: np.ndarray, tol: float = LINALG_TOL) -> np.ndarray:
    """Principal square root U of a symmetric unitary M, with U^T = U.

    M @ conj(M) = I forces M symmetric; writing M = A + iB with commuting
    real symmetric A, B, ``refine_eigenbasis`` diagonalizes A and splits each
    of its clusters by B, then by A again, so one real orthogonal R carries
    cos theta and sin theta on its rotated diagonals and the root
    U = R diag(exp(i theta / 2)) R^T stays symmetric with U* = U^-1.  The
    first split is at sqrt(tol): at tol, cos theta values a little more than
    tol apart (theta and -theta + 1e-8) would have their eigenvectors mixed
    by ~eps / gap.  B separates such pairs, and A again those that share
    sin theta (pi/2 +- 1e-7).  Raises
    NotCommuting if an off-diagonal entry of R^T A R or R^T B R exceeds
    10 tol.  Phases use theta in (-pi, pi]; eigenvalues within ``tol`` of -1
    are pinned to theta = pi (deterministic branch) with a warning.
    """
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    eye = np.eye(d)
    # a non-finite entry is refused before LAPACK sees it
    if not np.isfinite(m).all() or np.linalg.norm(m.conj().T @ m - eye, ord=2) > tol:
        raise NotSymmetricUnitary("matrix is not a finite unitary at tolerance")
    if np.linalg.norm(m @ np.conj(m) - eye, ord=2) > tol:
        raise NotSymmetricUnitary("M @ conj(M) != I")

    parts = np.stack([m.real, m.imag])
    r = refine_eigenbasis(eye, parts[[0, 1, 0]], [np.sqrt(tol), tol, tol])[0]
    rotated = r.T @ parts @ r
    cos_t, sin_t = np.diagonal(rotated, axis1=1, axis2=2)
    resid = np.abs(rotated * (1.0 - eye)).max(initial=0.0)
    if resid > 10 * tol:
        raise NotCommuting(f"off-diagonal residual {resid:.3e} after refinement")
    theta = np.arctan2(sin_t, cos_t)
    near_cut = np.abs(np.exp(1j * theta) + 1.0) <= tol
    if near_cut.any():
        warnings.warn("unitary eigenvalue at the -1 branch cut pinned to phase pi",
                      EigenvalueAtBranchCutWarning)
        theta = np.where(near_cut, np.pi, theta)
    return r @ np.diag(np.exp(0.5j * theta)) @ r.T


# -- small random fixture -----------------------------------------------------

def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-ish random unitary from the QR of a complex Ginibre matrix."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))

