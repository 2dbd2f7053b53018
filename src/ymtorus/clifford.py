"""Weyl-basis gamma matrices, Clifford products and the two spinor pairings.

Signature is (-,+,+,+); in this basis g0 @ g0 = +I and gk @ gk = -I, and the
volume element OMEGA = i g0 g1 g2 g3 = diag(I, -I).  Spinors split as
psi = (psi_+, psi_-) with the upper two components spanning the + chirality
eigenspace of OMEGA.

Twisted spinors carry an internal index directly after the spin index
(shape (4, dim_V, ...)); plain 4-spinors are also accepted everywhere.
Clifford multiplication acts on the spin index only.

Two pairings:
  spin_inner(psi, phi)     = psi^dag g0 phi      (indefinite, chiral parts null)
  spin_inner_pos(psi, phi) = psi^dag phi         (positive definite)
both summed over spin and internal indices, pointwise on the grid.
"""

import numpy as np

SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)

GAMMA = np.empty((4, 4, 4), dtype=complex)
GAMMA[0] = np.block([[_Z2, _I2], [_I2, _Z2]])
for _k in range(3):
    GAMMA[_k + 1] = np.block([[_Z2, -SIGMA[_k]], [SIGMA[_k], _Z2]])

OMEGA = 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]
PROJ_PLUS = 0.5 * (np.eye(4) + OMEGA)
PROJ_MINUS = 0.5 * (np.eye(4) - OMEGA)

MINKOWSKI = np.diag([-1.0, 1.0, 1.0, 1.0])

# frequently used products: G0G[k] = g0 gk, GG[i, j] = g_{i+1} g_{j+1}
G0G = np.stack([GAMMA[0] @ GAMMA[k + 1] for k in range(3)])
GG = np.stack([np.stack([GAMMA[i + 1] @ GAMMA[j + 1] for j in range(3)]) for i in range(3)])


def spin_rows(mat):
    """Row table ((col_0, phase_0), ..., (col_3, phase_3)) of a 4x4 spin matrix
    with one nonzero per row: row r of mat @ X is phase_r X[col_r]."""
    cols = np.argmax(mat != 0, axis=1)
    return tuple((int(col), mat[r, col]) for r, col in enumerate(cols))


# the row tables of GAMMA, G0G and GG, each a signed row permutation (phases +-1, +-i)
GAMMA_ROWS = [spin_rows(mat) for mat in GAMMA]
G0G_ROWS = [spin_rows(mat) for mat in G0G]
GG_ROWS = [[spin_rows(mat) for mat in row] for row in GG]


def spin_row(rows, X, r, scale=None, out=None):
    """Row r of scale * gamma_apply(mat, X) (of gamma_apply(mat, X) if scale
    is None) for the row table `rows` of mat, into `out` when given."""
    col, phase = rows[r]
    out = np.multiply(X[col], phase, out=out)
    if scale is not None:
        np.multiply(scale, out, out=out)
    return out


def spin_add(acc, rows, X, scale=None, subtract=False):
    """acc +- scale * gamma_apply(mat, X) into acc (see spin_row), one spin
    row at a time through one row buffer: the bits of the whole-array form,
    with no permuted copy of X.  Returns acc."""
    term = None
    for r in range(4):
        term = spin_row(rows, X, r, scale, out=term)
        (np.subtract if subtract else np.add)(acc[r], term, out=acc[r])
    return acc


def gamma_apply(mat, psi):
    """Apply a constant 4x4 spin matrix to the spin index of psi; one with a
    single nonzero per row (GAMMA, G0G, GG) is a row permutation times a phase.
    The whole-array form; rhs and the constraints use the row kernel."""
    nonzero = mat != 0
    if (nonzero.sum(axis=1) != 1).any():
        return np.tensordot(mat, psi, axes=(1, 0))
    cols = nonzero.argmax(axis=1)
    out = psi[cols].astype(np.result_type(mat, psi), copy=False)
    out *= mat[np.arange(4), cols].reshape((4,) + (1,) * (psi.ndim - 1))
    return out


def clifford_mul(X, psi):
    """Clifford-multiply by a tangent vector with frame components X^mu.

    X has shape (4,) or (4, *grid); the result is (sum_mu X^mu gamma_mu) psi,
    acting on the spin index only.
    """
    X = np.asarray(X)
    if X.ndim == 1:
        return gamma_apply(np.einsum("m,mab->ab", X, GAMMA), psi)
    out = np.zeros_like(psi)
    for mu in range(4):
        out += X[mu] * gamma_apply(GAMMA[mu], psi)
    return out


def _pair(psi, phi, mat=None):
    left = np.conj(psi if mat is None else gamma_apply(mat.conj().T, psi))
    if psi.ndim == 1 or phi.ndim == 1:
        return np.sum(left * phi)
    # sum spin + internal, keep grid
    return np.einsum("av...,av...->...", left.reshape((4, -1) + psi.shape[2:]),
                     phi.reshape((4, -1) + phi.shape[2:]))


def spin_inner(psi, phi):
    """Indefinite pairing psi^dag g0 phi (pointwise complex)."""
    return _pair(psi, phi, GAMMA[0])


def spin_inner_pos(psi, phi):
    """Positive-definite pairing psi^dag phi (pointwise complex)."""
    return _pair(psi, phi)


def anticommutator_table():
    """Max deviation of g_mu g_nu + g_nu g_mu from -2 eta_{mu nu} I."""
    worst = 0.0
    for mu in range(4):
        for nu in range(4):
            acom = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            worst = max(worst, np.abs(acom + 2 * MINKOWSKI[mu, nu] * np.eye(4)).max())
    return worst
