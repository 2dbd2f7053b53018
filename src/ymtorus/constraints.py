"""Constraint evaluation, constraint-satisfying initial data and drift
monitoring.

Four constraints accompany the first-order system (flat reference
connection, frame-scaled stencils d_k = (1/b_k) diff, and the covariant
derivative D_k = d_k + [eta_k, .] of lattice.covariant_d):

  curvature  G_m    = Q_m - B_ij(eta),  (m, i, j) cyclic, B_ij = D_i eta_j - d_j eta_i
  Bianchi    T      = sum_cyc D_i B_jk = D_k Q_k
  Gauss      C0     = D_k E_k + Re<phidot, rho* phi> - (1/2) Im<g0 psi, chi* psi>
  Dirac      Theta  = psidot - g0 ( gk S_k + Y_phi psi )

Q = *B carries the field strength, so the curvature of eta is formed in
Q's shape (star_curvature) and G has Q's components.  Theta uses the
evolved S; the separate s_consistency diagnostic compares S against a
recomputed covariant derivative of psi.  A function of u takes
its lattice.Connection `conn` (None: built from u.eta) where others share it.
"""

from dataclasses import dataclass

import numpy as np

from . import algebra
from .clifford import GAMMA_ROWS, spin_add, spin_row
from .clifford import gamma_apply  # noqa: F401  (unused; perfbench's tracer test reads it)
from .errors import SolverError
from .geometry import UNIT
from .lattice import (EPS, Connection, covariant_d, covariant_diff, covariant_diff_sq_norm,
                      covariant_div, covariant_laplacian, sq_norm)


@dataclass
class ConstraintReport:
    """One constraints.csv row.  Its drift_* fields, ||c(tau) - c(0)|| per
    constraint, are None in a report made without the step-0 fields."""
    tau: float
    curvature: float
    bianchi: float
    gauss: float
    dirac: float
    s_consistency: float = 0.0
    drift_curvature: float = None
    drift_bianchi: float = None
    drift_gauss: float = None
    drift_dirac: float = None


def frame_at(u, bg):
    """The background's geometry.Frame at u.tau; UNIT without a background."""
    return UNIT if bg is None else bg.frame(u.tau)


def volume_weight(u, bg):
    """The volume element sqrt(g) dx^3 of one site (the unit frame without bg)."""
    return frame_at(u, bg).sqrt_g * u.grid.cell_volume


def star_curvature(u, bg=None, conn=None):
    """*B(eta) in Q's shape: component m is the discrete field strength
    B_ij = D_i eta_j - d_j eta_i = d_i eta_j + [eta_i, eta_j] - d_j eta_i for
    cyclic (m, i, j), formed from the i < j term (B_20 = -B_02) and added to
    +0, so that a zero is +0."""
    frame, conn = frame_at(u, bg), conn or Connection(u.eta, u.model)
    star = np.empty_like(u.Q)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        m = 3 - i - j
        Bij = (covariant_d(u.eta[j], i, conn, u.grid, "adjoint", frame)
               - covariant_d(u.eta[i], j, None, u.grid, "adjoint", frame))
        (np.add if EPS[m, i, j] > 0 else np.subtract)(0.0, Bij, out=star[m])
    return star


def curvature_constraint(u, bg=None, conn=None):
    """G = Q - *B(eta); zero when Q matches the curvature of eta."""
    return u.Q - star_curvature(u, bg, conn)


def bianchi_constraint(u, bg=None, conn=None):
    """Fully antisymmetrized covariant derivative of *Q (single component):
    sum_cyc D_i B_jk = sum_i D_i Q_i, since B_jk = Q_i for cyclic (i, j, k)."""
    conn = conn or Connection(u.eta, u.model)
    return covariant_div(u.Q, conn, u.grid, "adjoint", frame_at(u, bg))


def gauss_constraint(u, bg=None, conn=None):
    model = u.model
    C0 = covariant_div(u.E, conn or Connection(u.eta, model), u.grid, "adjoint", frame_at(u, bg))
    C0 += np.real(algebra.current_pairing(model.rho, u.phidot, u.phi))
    # <g0 psi, chi* psi> = psi^dag (I (x) chi*) psi
    C0 -= 0.5 * np.imag(algebra.current_pairing(model.chi, u.psi, u.psi))
    return C0


def dirac_operator_rhs(u):
    """g0 ( gk S_k + Y_phi psi ) with the evolved S (the psidot a solution has),
    each spin matrix acting one row at a time (no permuted copies)."""
    model = u.model
    acc = (algebra.yukawa_spinor_apply(model.yukawa, u.phi, u.psi) if model.acts["yukawa"]
           else np.zeros_like(u.psi))
    for k in range(3):
        spin_add(acc, GAMMA_ROWS[k + 1], u.S[k])
    out = np.empty_like(acc)
    for r, row in enumerate(out):
        spin_row(GAMMA_ROWS[0], acc, r, out=row)
    return out


def dirac_constraint(u):
    return u.psidot - dirac_operator_rhs(u)


def recompute_S(u, bg=None, conn=None):
    conn = conn or Connection(u.eta, u.model)
    return covariant_diff(u.psi, conn, u.grid, "spinor", frame_at(u, bg))


def s_consistency(u, bg=None, conn=None):
    """L2 norm of u.S - recompute_S(u, bg), formed without either field
    (lattice.covariant_diff_sq_norm): the same squares, in the same sum.  No
    Connection is built where chi* acts by zero (D_k leaves it out there)."""
    conn = conn or (Connection(u.eta, u.model) if u.model.acts["spinor"] else None)
    sq = covariant_diff_sq_norm(u.psi, conn, u.grid, "spinor", frame_at(u, bg), u.S)
    return float(np.sqrt(sq * volume_weight(u, bg)))


def l2_norm(field, weight):
    """Weighted L2 norm."""
    return float(np.sqrt(sq_norm(field) * weight))


def constraint_report(u, bg=None, fields=None, conn=None, initial=None):
    """The ConstraintReport of u: L2 norms of the four constraints, the
    S-consistency diagnostic and, given the step-0 constraint fields
    `initial`, the drift of each.

    `fields` are constraint_fields(u, bg) when the caller has them already."""
    fields = fields or constraint_fields(u, bg, conn)
    w = volume_weight(u, bg)
    drift = ({} if initial is None else
             {"drift_" + name: l2_norm(c - initial[name], w) for name, c in fields.items()})
    return ConstraintReport(tau=u.tau, **{name: l2_norm(c, w) for name, c in fields.items()},
                            s_consistency=s_consistency(u, bg, conn), **drift)


def constraint_fields(u, bg=None, conn=None):
    conn = conn or Connection(u.eta, u.model)
    return {
        "curvature": curvature_constraint(u, bg, conn),
        "bianchi": bianchi_constraint(u, bg, conn),
        "gauss": gauss_constraint(u, bg, conn),
        "dirac": dirac_constraint(u),
    }


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

def complete_Q_Z(u, bg=None, conn=None):
    """Q from the curvature constraint and Z = D phi: reads eta and phi."""
    conn = conn or Connection(u.eta, u.model)
    u.Q[:] = star_curvature(u, bg, conn)
    u.Z[:] = covariant_diff(u.phi, conn, u.grid, "higgs", frame_at(u, bg))


def complete_S_psidot(u, bg=None, conn=None):
    """S = D psi and psidot from the Dirac constraint: reads eta, phi and psi."""
    u.S[:] = recompute_S(u, bg, conn)
    u.psidot[:] = dirac_operator_rhs(u)


def complete_state(u, bg=None):
    """Fill the derived sectors from the free data (eta, E, phi, phidot, psi)
    by its two halves, neither of which reads E.  Mutates and returns u."""
    conn = Connection(u.eta, u.model)
    complete_Q_Z(u, bg, conn)
    complete_S_psidot(u, bg, conn)
    return u


def solve_gauss_initial(u, bg=None, cg_tol=1e-10, conn=None):
    """Project E so the Gauss constraint holds: E -> E - grad_omega(phi) with
    the covariant Poisson problem  -div_omega grad_omega phi = -C0(E).

    The spatial mean of the source (the harmonic obstruction of the compact
    torus, e.g. a net abelian charge) is removed first and reported.  Mutates
    u.E and returns an info dict; its "converged" is false when CG stopped
    on a non-positive curvature p.Ap before reaching the residual target
    (a source component the centered stencils cannot see), and it raises
    SolverError after 10 n^3 iterations.  It reads E, eta, phi, phidot and
    psi.
    """
    grid = u.grid
    max_iter = 10 * grid.n ** 3
    w = volume_weight(u, bg)

    def demean(y):
        m = y.mean(axis=(-3, -2, -1))
        return y - m.reshape(m.shape + (1, 1, 1)), m

    conn, frame = conn or Connection(u.eta, u.model), frame_at(u, bg)  # E changes, not eta
    src = -gauss_constraint(u, bg, conn)
    src, mean = demean(src)

    def apply_A(phi_lie):
        # projected operator: CG runs on the mean-free complement, where the
        # covariant Laplacian is uniformly definite
        return demean(-covariant_laplacian(phi_lie, conn, grid, "adjoint", frame))[0]

    x = np.zeros_like(src)
    r = src.copy()
    p = r.copy()
    rs = np.sum(r * r)
    n_iter = 0
    target = (cg_tol / np.sqrt(w)) ** 2  # CG tracks the plain 2-norm
    while rs > target and n_iter < max_iter:
        Ap = apply_A(p)
        denom = np.sum(p * Ap)
        if denom <= 0:
            break  # numerical kernel component exhausted
        alpha = rs / denom
        x += alpha * p
        r -= alpha * Ap
        rs_new = np.sum(r * r)
        p = r + (rs_new / rs) * p
        rs = rs_new
        n_iter += 1
    if rs > target and n_iter >= max_iter:
        raise SolverError("Gauss CG did not converge: |r| = %.3e after %d iterations"
                          % (np.sqrt(rs * w), n_iter))
    u.E -= covariant_diff(x, conn, grid, "adjoint", frame)
    res = l2_norm(gauss_constraint(u, bg, conn), w)
    return {
        "iterations": n_iter,
        "converged": bool(rs <= target),
        "residual": res,
        "removed_mean": mean.tolist(),
        "removed_mean_norm": float(np.linalg.norm(mean)),
    }


def operator_symmetry_defect(u, bg=None):
    """Max |<x, A y> - <A x, y>| / scale over 5 random pairs for the CG
    operator (discrete SPD check)."""
    rng = np.random.default_rng(0)
    frame, conn = frame_at(u, bg), Connection(u.eta, u.model)

    def A(x):  # the CG operator before the mean is removed
        return -covariant_laplacian(x, conn, u.grid, "adjoint", frame)

    worst = 0.0
    for _ in range(5):
        x = rng.standard_normal((u.model.dim_g,) + u.grid.shape)
        y = rng.standard_normal((u.model.dim_g,) + u.grid.shape)
        Ax, Ay = A(x), A(y)
        num = abs(np.sum(x * Ay) - np.sum(Ax * y))
        scale = max(abs(np.sum(x * Ay)), abs(np.sum(Ax * y)), 1e-30)
        worst = max(worst, num / scale)
    return worst


def observed_order(coarse, fine):
    """log_2 of a residual ratio under one refinement step (dx halves)."""
    if fine <= 0:
        return np.inf
    return float(np.log(coarse / fine) / np.log(2.0))
