"""Second-order consistency oracles for the first-order evolution.

Each residual assembles a wave equation for one sector entirely from a
short stack of RK4-evolved states centered at tau0 (time derivatives by
fourth-order central differences), and compares against the corresponding
second-order right-hand side evaluated on the center state.  On a solution
of the continuum system every residual vanishes; discretely they shrink at
the stencil/integrator order, which is the verification target.

Conventions: homogeneous diagonal backgrounds (so spatial derivatives of
II, H and the slice curvature vanish), Box = -d^2/dtau^2 + 3H d/dtau - D*D
with the full covariant spatial D of each fiber, and the corrected
curvature coefficients

    Box E_i  = 2[E^k, B_ik] + (dII)_ii E_i - Tr(dII) E_i - |II|^2 E_i
               + 3H kap_i E_i - kap_i^2 E_i - 2 II^{kl} (D B)_{k l i} + currents
    Box B_ij = 2[B^k_i, B_kj] - 2[E_i, E_j] - 2 kap_i (D E)_{ij...} + ...

(see the function bodies for the exact index placement).
"""

import numpy as np

from . import algebra, dynamics
from .clifford import G0G, GG, GAMMA, gamma_apply
from .lattice import covariant_d, covariant_diff, covariant_div, hodge_dual_B


def time_stack(u0, bg, couplings, dtau):
    """The 5 states at tau0 + m*dtau, m = -2..2, that _d1 and _d2 read."""
    back1 = dynamics.step(u0, bg, couplings, -dtau)
    fwd1 = dynamics.step(u0, bg, couplings, dtau)
    return [dynamics.step(back1, bg, couplings, -dtau), back1, u0,
            fwd1, dynamics.step(fwd1, bg, couplings, dtau)]


def _d1(series, dtau):
    """Fourth-order first derivative at the center of a 5-stack."""
    return (series[0] - 8 * series[1] + 8 * series[3] - series[4]) / (12 * dtau)


def _d2(series, dtau):
    """Fourth-order second derivative at the center of a 5-stack."""
    return (-series[0] + 16 * series[1] - 30 * series[2] + 16 * series[3]
            - series[4]) / (12 * dtau ** 2)


def _box_spatial(fld, u, bg, kind):
    """-D*D fld = sum_k D_k D_k fld with the full covariant stencil."""
    b, II = bg.b(u.tau), bg.II(u.tau)
    return covariant_div(covariant_diff(fld, u.eta, u.model, u.grid, kind, bvec=b, II=II),
                         u.eta, u.model, u.grid, kind, bvec=b, II=II)


def _l2(x, u, bg):
    w = (1.0 if bg is None else bg.sqrt_g(u.tau)) * u.grid.cell_volume
    return float(np.sqrt(np.sum(np.abs(x) ** 2) * w))


def higgs_wave_residual(stack, bg, couplings):
    """|| Box phi - (Scal/6) phi - lam |phi|^2 phi - <psi, iY- psi> ||."""
    u = stack[2]
    model = couplings.model
    H = bg.H(u.tau)
    scal = bg.scal_h(u.tau)
    phis = [s.phi for s in stack]
    box = -_d2(phis, stack[3].tau - stack[2].tau) + 3 * H * _d1(phis, stack[3].tau - stack[2].tau)
    box = box + _box_spatial(u.phi, u, bg, "higgs")
    rhs = (scal / 6.0) * u.phi \
        + couplings.lam * np.sum(np.abs(u.phi) ** 2, axis=0) * u.phi \
        + algebra.yukawa_antilinear_current(model.yukawa, u.psi)
    return _l2(box - rhs, u, bg)


def dirac_wave_residual(stack, bg, couplings):
    """|| Box psi - (Scal/4) psi - chi*(F).psi - Y_{grad phi}.psi + Y_phi^2 psi ||."""
    u = stack[2]
    model = couplings.model
    yuk = model.yukawa
    dtau = stack[3].tau - stack[2].tau
    H = bg.H(u.tau)
    scal = bg.scal_h(u.tau)
    psis = [s.psi for s in stack]
    box = -_d2(psis, dtau) + 3 * H * _d1(psis, dtau) + _box_spatial(u.psi, u, bg, "spinor")
    B = hodge_dual_B(u.Q)
    rhs = (scal / 4.0) * u.psi
    for k in range(3):
        rhs = rhs - gamma_apply(G0G[k], algebra.chi_spinor_apply(model.chi, u.E[k], u.psi))
    for i in range(3):
        for j in range(3):
            if i != j:
                rhs = rhs + 0.5 * gamma_apply(
                    GG[i, j], algebra.chi_spinor_apply(model.chi, B[i, j], u.psi))
    # Y_{grad phi} . psi = -g0 Y_phidot psi + gk Y_{Z_k} psi
    rhs = rhs - gamma_apply(GAMMA[0], algebra.yukawa_spinor_apply(yuk, u.phidot, u.psi))
    for k in range(3):
        rhs = rhs + gamma_apply(GAMMA[k + 1], algebra.yukawa_spinor_apply(yuk, u.Z[k], u.psi))
    rhs = rhs - algebra.yukawa_spinor_apply(yuk, u.phi,
                                            algebra.yukawa_spinor_apply(yuk, u.phi, u.psi))
    return _l2(box - rhs, u, bg)


def em_wave_residuals(stack, bg, couplings):
    """Residual norms of the electric and magnetic wave equations.

    Homogeneous diagonal backgrounds, kappa_i = II_ii:

      Box E_i  = 2[E^k, B_ik]
                 + (dkap_i - Tr dkap + 3H kap_i - kap_i^2) E_i
                 - 2 kap_k (D B)_{k k i}
                 + Im<g0 psi, chi* S_i> - Im<g_i psi, chi* psidot>
                 + Re<rho*(E_i) phi, rho* phi> - 2 Re<phidot, rho* Z_i>

      Box B_ij = 2[B^k_i, B_kj] - 2[E_i, E_j]
                 - 2 kap_i (D E)_{ij} + 2 kap_j (D E)_{ji}
                 + (-dkap_i - dkap_j + 3H(kap_i + kap_j)
                    - 2 kap_i kap_j - kap_i^2 - kap_j^2) B_ij
                 + Im<g_i psi, chi* S_j> - Im<g_j psi, chi* S_i>
                 + Re<rho*(B_ij) phi, rho* phi> - 2 Re<Z_i, rho* Z_j>
    """
    u = stack[2]
    model = couplings.model
    lie = model.lie
    dtau = stack[3].tau - stack[2].tau
    kap = bg.II(u.tau)
    dk = bg.dII_dtau(u.tau)
    H = bg.H(u.tau)
    trd = float(np.sum(dk))

    B = hodge_dual_B(u.Q)
    Bstack = [hodge_dual_B(s.Q) for s in stack]
    b = bg.b(u.tau)
    DE = covariant_diff(u.E, u.eta, model, u.grid, "adjoint", bvec=b)  # DE[k, i] = D_k E_i

    def D(fld, k):
        return covariant_d(fld, k, u.eta, model, u.grid, "adjoint", bvec=b)

    def im_pairing(left, right):
        return np.imag(algebra.current_pairing(model.chi, left, right))

    def re_pairing(left, right):
        return np.real(algebra.current_pairing(model.rho, left, right))

    # electric part
    Es = [s.E for s in stack]
    res_E = 0.0
    boxE = -_d2(Es, dtau) + 3 * H * _d1(Es, dtau)
    for i in range(3):
        boxE_i = boxE[i] + _box_spatial(u.E[i], u, bg, "adjoint")
        rhs = (dk[i] - trd + 3 * H * kap[i] - kap[i] ** 2) * u.E[i]
        for k in range(3):
            rhs = rhs + 2.0 * algebra.bracket(lie, u.E[k], B[i, k])
            if k != i:  # B[i, i] = 0
                rhs = rhs - 2.0 * kap[k] * D(B[k, i], k)
        rhs = rhs + im_pairing(u.psi, u.S[i])  # <g0 psi, X> = psi^dag X
        rhs = rhs - im_pairing(gamma_apply(G0G[i], u.psi), u.psidot)
        rhs = rhs + re_pairing(algebra.rho_star_apply(model.rho, u.E[i], u.phi), u.phi)
        rhs = rhs - 2.0 * re_pairing(u.phidot, u.Z[i])
        res_E += np.sum(np.abs(boxE_i - rhs) ** 2)
    res_E = float(np.sqrt(res_E * bg.sqrt_g(u.tau) * u.grid.cell_volume))

    # magnetic part (independent components ij = 01, 02, 12)
    res_B = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            Bser = [bs[i, j] for bs in Bstack]
            boxB = -_d2(Bser, dtau) + 3 * H * _d1(Bser, dtau) \
                + _box_spatial(B[i, j], u, bg, "adjoint")
            rhs = -2.0 * algebra.bracket(lie, u.E[i], u.E[j])
            for k in range(3):
                rhs = rhs + 2.0 * algebra.bracket(lie, B[k, i], B[k, j])
            rhs = rhs - 2.0 * kap[i] * DE[i, j] + 2.0 * kap[j] * DE[j, i]
            rhs = rhs + (-dk[i] - dk[j] + 3 * H * (kap[i] + kap[j])
                         - 2 * kap[i] * kap[j] - kap[i] ** 2 - kap[j] ** 2) * B[i, j]
            rhs = rhs + im_pairing(gamma_apply(G0G[i], u.psi), u.S[j])
            rhs = rhs - im_pairing(gamma_apply(G0G[j], u.psi), u.S[i])
            rhs = rhs + re_pairing(algebra.rho_star_apply(model.rho, B[i, j], u.phi), u.phi)
            rhs = rhs - 2.0 * re_pairing(u.Z[i], u.Z[j])
            res_B += np.sum(np.abs(boxB - rhs) ** 2)
    res_B = float(np.sqrt(res_B * bg.sqrt_g(u.tau) * u.grid.cell_volume))
    return res_E, res_B


def current_divergence_residual(stack, bg, couplings):
    """|| d_omega^* J || assembled from the trajectory (temporal component by
    fourth-order differences); vanishes at discretization order when the
    matter equations hold."""
    u = stack[2]
    model = couplings.model
    dtau = stack[3].tau - stack[2].tau
    H = bg.H(u.tau)

    def J0_of(s):
        out = -np.real(algebra.current_pairing(model.rho, s.phidot, s.phi))
        out += 0.5 * np.imag(algebra.current_pairing(model.chi, s.psi, s.psi))
        return out

    J0s = [J0_of(s) for s in stack]
    Jsp = dynamics.currents(u)
    div = covariant_div(Jsp, u.eta, model, u.grid, "adjoint", bvec=bg.b(u.tau))
    resid = _d1(J0s, dtau) - 3 * H * J0s[2] - div
    return _l2(resid, u, bg)
