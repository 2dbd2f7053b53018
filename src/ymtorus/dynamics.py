"""Right-hand side of the first-order evolution system and its integrator.

State u = (eta, Q, E, phi, phidot, Z, psi, psidot, S) in the adapted
orthonormal frame of a diagonal homogeneous background; Q is the spatial
Hodge dual of the magnetic field B and the reference connection is flat.
D_k is the covariant derivative of lattice.covariant_d: the frame-scaled
periodic stencil (1/b_k) * diff plus the fiber action of eta_k ([eta_k, .],
rho*(eta_k) or chi*(eta_k)) plus, on spinors, the spin-connection piece
(1/2) kappa_k g0 gk.

With kappa_i = II_ii (diagonal), H = sum(kappa)/3 and Scal the spacetime
scalar curvature, the evolution reads

  d eta_i /dtau   = kappa_i eta_i + E_i
  d Q_i /dtau     = eps_ijk D_j E_k + 3H Q_i - kappa_i Q_i
  d E_i /dtau     = D_k B_ki + 3H E_i - kappa_i E_i + J_i
  d phi /dtau     = phidot
  d phidot /dtau  = D_k Z_k + 3H phidot - (Scal/6) phi
                    - lam |phi|^2 phi - <psi, i Y^- psi>
  d Z_i /dtau     = D_i phidot + rho*(E_i) phi + kappa_i Z_i
  d psi /dtau     = psidot
  d psidot /dtau  = D_k S_k + 3H psidot - (Scal/4) psi
                    + g0 gk chi*(E_k) psi - (1/2) gi gj chi*(B_ij) psi
                    + g0 Y_phidot psi - gk Y_{Z_k} psi + Y_phi^2 psi
  d S_i /dtau     = D_i psidot + (1/2)(dkappa_i - kappa_i^2) g0 gi psi
                    + chi*(E_i) psi + kappa_i S_i

where J is the matter current
  J_i = -Re<Z_i, rho* phi> + (1/2) Im<gi psi, chi* psi>.
"""

from dataclasses import dataclass

import numpy as np

from . import algebra, lattice
from .clifford import G0G, GG, GAMMA, gamma_apply
from .errors import BlowUpError, InputError
from .lattice import EPS, FieldState, covariant_d, covariant_div, hodge_dual_B
from .lattice import diff  # noqa: F401  (unused; perfbench's tracer test reads dynamics.diff)


@dataclass
class Couplings:
    model: "algebra.GaugeModel"
    lam: float = 0.0


@dataclass
class StepControl:
    dtau: float
    cfl: float = 0.5
    max_steps: int = 100000
    tau_end: float = 0.0

    def validate(self, grid, bg):
        if not (0 < self.cfl <= 1.5):
            raise InputError("CFL factor out of range (0, 1.5]")
        taus = np.linspace(0.0, self.tau_end, 33)
        bmin = min(bg.b(t).min() for t in taus)
        if self.dtau > self.cfl * grid.dx * bmin + 1e-15:
            raise InputError(
                "dtau = %g violates CFL bound %g" % (self.dtau, self.cfl * grid.dx * bmin)
            )


def currents(u, bg=None):
    """Matter current J_i^a = -Re<Z_i, rho*(xi_a) phi> + (1/2) Im<g_i psi, chi*(xi_a) psi>."""
    model = u.model
    J = np.zeros_like(u.E)
    for i in range(3):
        J[i] -= np.real(algebra.current_pairing(model.rho, u.Z[i], u.phi))
        if model.acts["spinor"]:
            # <g_i psi, X> = psi^dag (g0 g_i) X and g0 g_i is Hermitian
            psi_rot = gamma_apply(G0G[i], u.psi)
            J[i] += 0.5 * np.imag(algebra.current_pairing(model.chi, psi_rot, u.psi))
    return J


def yukawa_source(u):
    """Higgs-equation source <psi, i Y^- psi> (complex W-vector field)."""
    return algebra.yukawa_antilinear_current(u.model.yukawa, u.psi)


def rhs(u, bg, couplings):
    """State derivative of the first-order system at u.tau."""
    model = couplings.model
    grid = u.grid
    bg.check_tau(u.tau)
    b = bg.b(u.tau)
    kappa = bg.II(u.tau)
    dkappa = bg.dII_dtau(u.tau)
    H = bg.H(u.tau)
    scal = bg.scal_h(u.tau)
    lam = couplings.lam
    yuk = model.yukawa

    def D(fld, k, kind):
        return covariant_d(fld, k, u.eta, model, grid, kind, bvec=b, II=kappa)

    def div(vec, kind):
        return covariant_div(vec, u.eta, model, grid, kind, bvec=b, II=kappa)

    out = FieldState.zeros(grid, model, tau=u.tau)
    B = hodge_dual_B(u.Q)

    J = currents(u)

    for i in range(3):
        out.eta[i] = kappa[i] * u.eta[i] + u.E[i]

        acc = 3.0 * H * u.Q[i] - kappa[i] * u.Q[i]
        for j in range(3):
            for k in range(3):
                e = EPS[i, j, k]
                if e:
                    acc = acc + e * D(u.E[k], j, "adjoint")
        out.Q[i] = acc

        acc = 3.0 * H * u.E[i] - kappa[i] * u.E[i] + J[i]
        for k in range(3):
            if k != i:  # B[i, i] = 0
                acc = acc + D(B[k, i], k, "adjoint")
        out.E[i] = acc

    # Higgs triple
    out.phi[:] = u.phidot
    acc = 3.0 * H * u.phidot - (scal / 6.0) * u.phi \
        - lam * np.sum(np.abs(u.phi) ** 2, axis=0) * u.phi
    if model.yukawa_acts:
        acc = acc - yukawa_source(u)
    out.phidot[:] = acc + div(u.Z, "higgs")
    for i in range(3):
        out.Z[i] = (D(u.phidot, i, "higgs")
                    + algebra.rho_star_apply(model.rho, u.E[i], u.phi)
                    + kappa[i] * u.Z[i])

    # Dirac triple; the chi* and Yukawa terms are skipped where they vanish
    # identically (adding their zeros changes no value)
    chi_acts = model.acts["spinor"]
    out.psi[:] = u.psidot
    acc = div(u.S, "spinor")  # first: its temporaries then share memory with no other term
    acc += 3.0 * H * u.psidot - (scal / 4.0) * u.psi
    if chi_acts:
        for k in range(3):
            acc = acc + gamma_apply(G0G[k], algebra.chi_spinor_apply(model.chi, u.E[k], u.psi))
        for i in range(3):
            for j in range(3):
                if i != j:
                    acc = acc - 0.5 * gamma_apply(
                        GG[i, j], algebra.chi_spinor_apply(model.chi, B[i, j], u.psi))
    if model.yukawa_acts:
        acc = acc + gamma_apply(GAMMA[0], algebra.yukawa_spinor_apply(yuk, u.phidot, u.psi))
        for k in range(3):
            acc = acc - gamma_apply(GAMMA[k + 1],
                                    algebra.yukawa_spinor_apply(yuk, u.Z[k], u.psi))
        acc = acc + algebra.yukawa_spinor_apply(
            yuk, u.phi, algebra.yukawa_spinor_apply(yuk, u.phi, u.psi))
    out.psidot[:] = acc
    for i in range(3):
        acc = D(u.psidot, i, "spinor")
        acc = acc + 0.5 * (dkappa[i] - kappa[i] ** 2) * gamma_apply(G0G[i], u.psi)
        if chi_acts:
            acc = acc + algebra.chi_spinor_apply(model.chi, u.E[i], u.psi)
        out.S[i] = acc + kappa[i] * u.S[i]
    return out


# ---------------------------------------------------------------------------
# Principal symbol
# ---------------------------------------------------------------------------

SYMBOL_LABELS = (
    ["eta%d" % i for i in range(3)] + ["Q%d" % i for i in range(3)]
    + ["E%d" % i for i in range(3)] + ["phi", "phidot"]
    + ["Z%d" % i for i in range(3)] + ["psi", "psidot"] + ["S%d" % i for i in range(3)]
)


def principal_symbol(xi):
    """Structural principal symbol sigma_L(xi) of the spatial part.

    Returned as a 19x19 real symmetric matrix over one copy of each fiber
    factor (the Lie/W/V multiplicities act as identities and do not change
    symmetry or spectrum).  sigma_L(dtau) is the identity by construction.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (3,):
        raise InputError("principal_symbol expects a spatial covector (3,)")
    M = np.zeros((19, 19))
    iQ, iE, iPd, iZ, iSd, iS = 3, 6, 10, 11, 15, 16
    for i in range(3):
        for j in range(3):
            for k in range(3):
                e = EPS[i, j, k]
                if e:
                    M[iQ + i, iE + k] += -e * xi[j]       # dQ_i ~ eps_ijk d_j E_k
                    M[iE + i, iQ + j] += -EPS[j, k, i] * xi[k]  # dE_i ~ eps_jki d_k Q_j
    for k in range(3):
        M[iPd, iZ + k] = -xi[k]
        M[iZ + k, iPd] = -xi[k]
        M[iSd, iS + k] = -xi[k]
        M[iS + k, iSd] = -xi[k]
    return M


def principal_symbol_dtau():
    return np.eye(19)


# ---------------------------------------------------------------------------
# Time stepping
# ---------------------------------------------------------------------------

def step(u, bg, couplings, dtau, k1=None):
    """Classic RK4 update; raises BlowUpError on non-finite output.

    k1 is rhs(u, bg, couplings) when the caller has already evaluated it
    (evolve does, for its callback); it is then not evaluated again.  The three
    stage states and the result share one new state's arrays, filled in the
    order a fresh lincomb per stage would use, so the result is the same.
    """
    if k1 is None:
        k1 = rhs(u, bg, couplings)
    stage = u.lincomb(1.0, [(dtau / 2, k1)])
    stage.tau = u.tau + dtau / 2
    k2 = rhs(stage, bg, couplings)
    u.lincomb(1.0, [(dtau / 2, k2)], out=stage)
    stage.tau = u.tau + dtau / 2
    k3 = rhs(stage, bg, couplings)
    u.lincomb(1.0, [(dtau, k3)], out=stage)
    stage.tau = u.tau + dtau
    k4 = rhs(stage, bg, couplings)
    out = u.lincomb(1.0, [(dtau / 6, k1), (dtau / 3, k2), (dtau / 3, k3), (dtau / 6, k4)],
                    out=stage)
    out.tau = u.tau + dtau
    for name in lattice.FIELDS:
        arr = getattr(out, name)
        if arr.size and not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise BlowUpError(
                "non-finite %s at index %s, tau = %.6f" % (name, bad.tolist(), out.tau)
            )
    return out


def evolve(u, bg, couplings, dtau, n_steps, callback=None):
    """March n_steps RK4 steps; callback(step_index, state, du) after each.

    du is rhs(state), evaluated once per state: the callback reads it (a
    report needs it for the energies) and the next step takes it as its k1.
    """
    k1 = None
    for m in range(n_steps + 1):
        if m:
            u, k1 = step(u, bg, couplings, dtau, k1=k1), None  # drop k1 once used
        if callback is not None:
            k1 = rhs(u, bg, couplings)
            callback(m, u, k1)
    return u
