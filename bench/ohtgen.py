"""O_h x T: the full cubic point group times time reversal (order 96).

The group is built from integer data alone: the 48 signed 3x3 permutation
matrices, each paired with a time-reversal flag.  Element id ``k + 48 s`` is
spatial matrix ``k`` with flag ``s``; id 0 is the identity and id 48 is bare
time reversal T.  The Cayley table comes from hashing the integer product
matrices, so it costs one dict lookup per pair.

Everything here is plain numpy: these are the *inputs* handed to magrep
(Cayley table, flags, co-rep matrices, probe matrices), generated without
calling the library so that the library's answers can be checked against
the construction.  The catalog stops at order 24; this entry stays here until
it moves into ``magrep.catalog``.
"""

from __future__ import annotations

import itertools

import numpy as np

N_SPATIAL = 48

_I_SIGMA_Y = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)   # i * sigma_y
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def signed_permutations() -> np.ndarray:
    """The 48 signed 3x3 permutation matrices (O_h), identity first."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            m = np.zeros((3, 3), dtype=int)
            m[np.arange(3), perm] = signs
            out.append(m)
    return np.stack(out)


def spatial_parts() -> tuple[np.ndarray, np.ndarray]:
    """Per-element spatial matrix ``(96, 3, 3)`` int and flag ``(96,)`` int."""
    ops = signed_permutations()
    spatial = np.concatenate([ops, ops])
    flags = np.repeat([0, 1], N_SPATIAL)
    return spatial, flags


def cayley_table(spatial: np.ndarray, flags: np.ndarray) -> np.ndarray:
    """Multiplication table by hashing (integer product matrix, xor flag).

    T commutes with every spatial operation, so the spatial part of a
    product ignores the flags.
    """
    index = {(m.tobytes(), int(s)): k for k, (m, s) in enumerate(zip(spatial, flags))}
    n = len(spatial)
    products = np.einsum("aij,bjk->abik", spatial, spatial)
    table = np.empty((n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            table[a, b] = index[(products[a, b].tobytes(), int(flags[a] ^ flags[b]))]
    return table


def labels() -> list:
    """Readable labels: the image of (x, y, z) plus a trailing T."""
    spatial, flags = spatial_parts()
    names = []
    for m, s in zip(spatial, flags):
        axes = []
        for row in m:
            k = int(np.nonzero(row)[0][0])
            axes.append(("-" if row[k] < 0 else "") + "xyz"[k])
        names.append("(" + ",".join(axes) + ")" + ("T" if s else ""))
    return names


# -- representation matrices -----------------------------------------------------

def su2_lift(rot: np.ndarray) -> np.ndarray:
    """One of the two SU(2) matrices covering a proper rotation.

    With U = w - i (x sigma_x + y sigma_y + z sigma_z), the rotation fixes
    every product 4 q_a q_b of the quaternion q = (w, x, y, z); q is read off
    the row of the largest square (Shepperd's rule).  The overall sign is
    arbitrary and ends up in the factor system.
    """
    r = np.asarray(rot, dtype=float)
    t = np.trace(r)
    p = np.empty((4, 4))                      # p[a, b] = 4 q_a q_b
    p[0, 0] = 1 + t
    p[0, 1:] = p[1:, 0] = [r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]
    p[1:, 1:] = r + r.T + (1 - t) * np.eye(3)
    k = int(np.argmax(np.diag(p)))
    q = p[k] / (2 * np.sqrt(p[k, k]))
    return q[0] * np.eye(2) - 1j * sum(q[i + 1] * _PAULI[i] for i in range(3))


def _quadratic_form_rep(spatial: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Action X -> R X R^T on an orthonormal basis of symmetric 3x3 matrices."""
    rot = spatial.astype(float)
    images = np.einsum("gij,kjl,gml->gkim", rot, basis, rot)
    return np.einsum("pim,gkim->gpk", basis, images)


def eg_matrices(spatial: np.ndarray) -> np.ndarray:
    """Real 2-dim E_g rep: traceless diagonal quadratic forms."""
    basis = np.zeros((2, 3, 3))
    basis[0] = np.diag([1.0, -1.0, 0.0]) / np.sqrt(2)
    basis[1] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(6)
    return _quadratic_form_rep(spatial, basis)


def t2g_matrices(spatial: np.ndarray) -> np.ndarray:
    """Real 3-dim T_2g rep: the shear components (yz, zx, xy)."""
    basis = np.zeros((3, 3, 3))
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        basis[k, i, j] = basis[k, j, i] = 1.0 / np.sqrt(2)
    return _quadratic_form_rep(spatial, basis)


def corep_matrices(spatial: np.ndarray, flags: np.ndarray) -> dict:
    """The four co-reps: name -> (matrices, expected torsion R).

    * ``vector``: T_1u, M(R, s) = R, real type (R = 1), d = 3.
    * ``spinor``: E_1/2g, SU(2) lift with inversion acting as +1 and
      M(T) = i sigma_y, d = 2; real type since Gamma_6 is pseudoreal and
      T^2 = -1.
    * ``gamma8``: E_1/2g x E_g, d = 4, real type.
    * ``quaternion``: E_g x 1_2 with M(T) = 1 x i sigma_y, d = 4; T^2 = -1
      on a real irrep doubles it into a quaternion-type co-rep (R = 4).
    """
    det = np.rint(np.linalg.det(spatial)).astype(int)
    proper = spatial * det[:, None, None]
    lift = np.stack([su2_lift(r) for r in proper])
    t_part = np.stack([np.linalg.matrix_power(_I_SIGMA_Y, int(s)) for s in flags])
    spin = np.einsum("gij,gjk->gik", lift, t_part)
    eg = eg_matrices(spatial).astype(complex)
    return {
        "vector": (spatial.astype(complex), 1),
        "spinor": (spin, 1),
        "gamma8": (np.einsum("gij,gkl->gikjl", spin, eg).reshape(-1, 4, 4), 1),
        "quaternion": (np.einsum("gij,gkl->gikjl", eg, t_part).reshape(-1, 4, 4), 4),
    }


def action_matrices(spatial: np.ndarray, flags: np.ndarray) -> dict:
    """Real probe channels on every element: name -> (matrices, kind).

    ``momentum`` is the T-odd polar vector, ``electric`` the T-even polar
    vector, ``magnetic`` the T-odd axial vector; the strain channels (E_g,
    T_2g) and the T-odd scalar are the perturbations used to lower the
    symmetry.
    """
    rot = spatial.astype(float)
    det = np.linalg.det(rot)
    t_sign = np.where(flags == 1, -1.0, 1.0)
    return {
        "momentum": (rot * t_sign[:, None, None], "momentum"),
        "electric": (rot.copy(), "electric"),
        "magnetic": (rot * (t_sign * det)[:, None, None], "magnetic"),
        "strain_eg": (eg_matrices(spatial), "strain"),
        "strain_t2g": (t2g_matrices(spatial), "strain"),
        "t_odd_scalar": (t_sign[:, None, None].copy(), "magnetic"),
    }


def lowering_subgroups(spatial: np.ndarray, flags: np.ndarray) -> dict:
    """Element ids kept by each symmetry-lowering perturbation, by predicate.

    Returns name -> (ids, probe channel name).  Strain along n keeps the
    operations with R n = +-n; a magnetic field along z keeps those whose
    axial, T-odd action fixes z; dropping T keeps the unitary half.
    """
    rot = spatial.astype(float)
    det = np.linalg.det(rot)
    z = np.array([0.0, 0.0, 1.0])
    n111 = np.ones(3)

    def keeps_axis(n):
        img = rot @ n
        return np.all(np.isclose(img, n), axis=1) | np.all(np.isclose(img, -n), axis=1)

    axial = (np.where(flags == 1, -1.0, 1.0) * det)[:, None] * (rot @ z)
    preds = {
        "strain_z": (keeps_axis(z), "strain_eg"),
        "strain_111": (keeps_axis(n111), "strain_t2g"),
        "field_z": (np.all(np.isclose(axial, z), axis=1), "magnetic"),
        "no_t": (flags == 0, "t_odd_scalar"),
    }
    return {name: (np.nonzero(mask)[0].tolist(), probe)
            for name, (mask, probe) in preds.items()}


def generate() -> dict:
    """All inputs of the order-96 workloads, as plain arrays and lists."""
    spatial, flags = spatial_parts()
    return {
        "cayley": cayley_table(spatial, flags),
        "flags": flags,
        "labels": labels(),
        "spatial": spatial,
        "coreps": corep_matrices(spatial, flags),
        "actions": action_matrices(spatial, flags),
        "subgroups": lowering_subgroups(spatial, flags),
    }
