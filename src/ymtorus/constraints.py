"""Constraint evaluation, constraint-satisfying initial data and drift
monitoring.

Four constraints accompany the first-order system (flat reference
connection, frame-scaled stencils d_k = (1/b_k) diff, and the covariant
derivative D_k = d_k + [eta_k, .] of lattice.covariant_d):

  curvature  G_ij   = B_ij - (D_i eta_j - d_j eta_i),  B = *Q
  Bianchi    T      = sum_cyc D_i B_jk = D_k Q_k
  Gauss      C0     = D_k E_k + Re<phidot, rho* phi> - (1/2) Im<g0 psi, chi* psi>
  Dirac      Theta  = psidot - g0 ( gk S_k + Y_phi psi )

Theta uses the evolved S; the separate s_consistency diagnostic compares S
against a recomputed covariant derivative of psi.
"""

from dataclasses import dataclass

import numpy as np

from . import algebra
from .clifford import GAMMA, gamma_apply
from .errors import SolverError
from .lattice import covariant_d, covariant_diff, covariant_div, hodge_dual_B, hodge_dual_Q


@dataclass
class ConstraintReport:
    tau: float
    curvature: float
    bianchi: float
    gauss: float
    dirac: float
    s_consistency: float = 0.0

    def as_dict(self):
        return {
            "tau": self.tau,
            "curvature": self.curvature,
            "bianchi": self.bianchi,
            "gauss": self.gauss,
            "dirac": self.dirac,
            "s_consistency": self.s_consistency,
        }


def _volume_weight(u, bg):
    return (1.0 if bg is None else bg.sqrt_g(u.tau)) * u.grid.cell_volume


def _frame(u, bg):
    """(b, II) of the background at u.tau; (None, None) without one, which
    the covariant derivative reads as the unit static frame."""
    return (None, None) if bg is None else (bg.b(u.tau), bg.II(u.tau))


def curvature_2form(u, bg=None):
    """Discrete field strength B_ij = D_i eta_j - d_j eta_i
    = d_i eta_j + [eta_i, eta_j] - d_j eta_i."""
    b = _frame(u, bg)[0]

    def D(fld, k, eta):
        return covariant_d(fld, k, eta, u.model, u.grid, "adjoint", bvec=b)

    B = np.zeros((3, 3) + u.eta.shape[1:], dtype=u.eta.dtype)
    for i in range(3):
        for j in range(i + 1, 3):
            Bij = D(u.eta[j], i, u.eta) - D(u.eta[i], j, None)
            B[i, j] = Bij
            B[j, i] = -Bij
    return B


def curvature_constraint(u, bg=None):
    """G_ij = (*Q)_ij - B_ij(eta); zero when Q matches the curvature of eta."""
    return hodge_dual_B(u.Q) - curvature_2form(u, bg)


def bianchi_constraint(u, bg=None):
    """Fully antisymmetrized covariant derivative of *Q (single component):
    sum_cyc D_i B_jk = sum_i D_i Q_i, since B_jk = Q_i for cyclic (i, j, k)."""
    return _cov_div(u.Q, u, bg)


def gauss_constraint(u, bg=None):
    model = u.model
    C0 = _cov_div(u.E, u, bg)
    C0 += np.real(algebra.current_pairing(model.rho, u.phidot, u.phi))
    # <g0 psi, chi* psi> = psi^dag (I (x) chi*) psi
    C0 -= 0.5 * np.imag(algebra.current_pairing(model.chi, u.psi, u.psi))
    return C0


def dirac_operator_rhs(u, bg=None):
    """g0 ( gk S_k + Y_phi psi ) with the evolved S (the psidot a solution has)."""
    model = u.model
    acc = algebra.yukawa_spinor_apply(model.yukawa, u.phi, u.psi) if model.acts["yukawa"] else 0.0
    for k in range(3):
        acc = acc + gamma_apply(GAMMA[k + 1], u.S[k])
    return gamma_apply(GAMMA[0], acc)


def dirac_constraint(u, bg=None):
    return u.psidot - dirac_operator_rhs(u, bg)


def recompute_S(u, bg=None):
    b, kappa = _frame(u, bg)
    return covariant_diff(u.psi, u.eta, u.model, u.grid, "spinor", bvec=b, II=kappa)


def s_consistency(u, bg=None):
    return u.S - recompute_S(u, bg)


def l2_norm(field, weight, two_form=False):
    """Weighted L2 norm; a 2-form counts each independent component once."""
    val = np.sum(np.abs(field) ** 2) * weight
    if two_form:
        val *= 0.5
    return float(np.sqrt(val))


def constraint_report(u, bg=None, fields=None):
    """L2 norms of the four constraints (plus the S-consistency diagnostic).

    `fields` are constraint_fields(u, bg) when the caller has them already."""
    if fields is None:
        fields = constraint_fields(u, bg)
    w = _volume_weight(u, bg)
    return ConstraintReport(
        tau=u.tau,
        curvature=l2_norm(fields["curvature"], w, two_form=True),
        bianchi=l2_norm(fields["bianchi"], w),
        gauss=l2_norm(fields["gauss"], w),
        dirac=l2_norm(fields["dirac"], w),
        s_consistency=l2_norm(s_consistency(u, bg), w),
    )


def constraint_fields(u, bg=None):
    return {
        "curvature": curvature_constraint(u, bg),
        "bianchi": bianchi_constraint(u, bg),
        "gauss": gauss_constraint(u, bg),
        "dirac": dirac_constraint(u, bg),
    }


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------

def complete_state(u, bg=None):
    """Fill the derived sectors from the free data (eta, E, phi, phidot, psi):
    Q from the curvature constraint, Z and S as covariant derivatives, psidot
    from the Dirac constraint.  Mutates and returns u."""
    b = _frame(u, bg)[0]
    u.Q[:] = hodge_dual_Q(curvature_2form(u, bg))
    u.Z[:] = covariant_diff(u.phi, u.eta, u.model, u.grid, "higgs", bvec=b)
    u.S[:] = recompute_S(u, bg)
    u.psidot[:] = dirac_operator_rhs(u, bg)
    return u


def _cov_grad(phi_lie, u, bg):
    """Covariant gradient of a Lie-valued scalar, (3, dim_g, grid)."""
    return covariant_diff(phi_lie, u.eta, u.model, u.grid, "adjoint", bvec=_frame(u, bg)[0])


def _cov_div(vec, u, bg):
    """Covariant divergence of a Lie-valued 1-form, (dim_g, grid)."""
    return covariant_div(vec, u.eta, u.model, u.grid, "adjoint", bvec=_frame(u, bg)[0])


def solve_gauss_initial(u, bg=None, cg_tol=1e-10, max_iter=None):
    """Project E so the Gauss constraint holds: E -> E - grad_omega(phi) with
    the covariant Poisson problem  -div_omega grad_omega phi = -C0(E).

    The spatial mean of the source (the harmonic obstruction of the compact
    torus, e.g. a net abelian charge) is removed first and reported.  Mutates
    u.E and returns an info dict; its "converged" is false when CG stopped
    on a non-positive curvature p.Ap before reaching the residual target
    (a source component the centered stencils cannot see).
    """
    grid = u.grid
    if max_iter is None:
        max_iter = 10 * grid.n ** 3
    w = _volume_weight(u, bg)

    def demean(y):
        m = y.mean(axis=(-3, -2, -1))
        return y - m.reshape(m.shape + (1, 1, 1)), m

    src = -gauss_constraint(u, bg)
    src, mean = demean(src)

    def apply_A(phi_lie):
        # projected operator: CG runs on the mean-free complement, where the
        # covariant Laplacian is uniformly definite
        out = -_cov_div(_cov_grad(phi_lie, u, bg), u, bg)
        return demean(out)[0]

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
    u.E -= _cov_grad(x, u, bg)
    res = l2_norm(gauss_constraint(u, bg), w)
    return {
        "iterations": n_iter,
        "converged": bool(rs <= target),
        "residual": res,
        "removed_mean": mean.tolist(),
        "removed_mean_norm": float(np.linalg.norm(mean)),
    }


def operator_symmetry_defect(u, bg=None, samples=5, seed=0):
    """Max |<x, A y> - <A x, y>| / scale for the CG operator (discrete SPD check)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal((u.model.dim_g,) + u.grid.shape)
        y = rng.standard_normal((u.model.dim_g,) + u.grid.shape)
        Ax = -_cov_div(_cov_grad(x, u, bg), u, bg)
        Ay = -_cov_div(_cov_grad(y, u, bg), u, bg)
        num = abs(np.sum(x * Ay) - np.sum(Ax * y))
        scale = max(abs(np.sum(x * Ay)), abs(np.sum(Ax * y)), 1e-30)
        worst = max(worst, num / scale)
    return worst


# ---------------------------------------------------------------------------
# Drift monitoring
# ---------------------------------------------------------------------------

def propagation_monitor(reports):
    """Summarize a trajectory of ConstraintReport rows: per-constraint series
    and their initial (post-solve floor) and maximum values."""
    names = ("curvature", "bianchi", "gauss", "dirac")
    series = {name: np.array([getattr(r, name) for r in reports]) for name in names}
    series["tau"] = np.array([r.tau for r in reports])
    out = {"series": series}
    out["initial"] = {name: series[name][0] for name in names}
    out["max"] = {name: series[name].max() for name in names}
    return out


def observed_order(coarse, fine, factor=2.0):
    """log_factor of a residual ratio under one refinement step."""
    if fine <= 0:
        return np.inf
    return float(np.log(coarse / fine) / np.log(factor))
