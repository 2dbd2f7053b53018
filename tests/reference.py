"""The first-order system written once, in whole-array form: the reference
every kernel test compares against.

It is built on the stencil (lattice.diff, lattice._divide), the Levi-Civita
symbol and B = *Q (lattice.EPS, lattice.hodge_dual_B), whole-array spin
matrices (clifford.gamma_apply) and the nonzero pairs of the fiber tables
(algebra.FiberTerms.pairs): on nothing rhs itself runs, no row kernel, no
sign-folded components and no Connection.  Fiber actions and pairings loop
over the nonzero pairs, b ascending.  D_k is (1/b_k) diff, plus the action of
eta_k, plus (1/2) II_k g0 g_k on spinors.  Every formula adds its terms in the
order dynamics documents, and leaves out the terms rhs leaves out because
they vanish identically (an empty table, II_k = 0, dII_k = II_k^2, a matter
triple outside the live sectors), whose zeros would only flip the sign of a
zero.  So a kernel that keeps the arithmetic matches this module bit for bit,
signs of zero included.

A bit-exact change to the package compares against this module, or extends
it, rather than keeping a copy of the code it replaces.
"""

import numpy as np
from scipy import interpolate

from ymtorus.clifford import G0G, GG, GAMMA, gamma_apply
from ymtorus.geometry import UNIT
from ymtorus.lattice import EPS, FieldState, _divide, diff, fourier_sobolev_norms, hodge_dual_B
from ymtorus.oracles import _d1, _d2


# ---------------------------------------------------------------------------
# Fiber actions, pairings and the covariant derivative
# ---------------------------------------------------------------------------

def fiber_apply(terms, xi, x, axis=0):
    """out[..., c] = sum_b M_bc x[..., b], M_bc = sum_a t[a, b, c] xi_a, with x's
    fiber axis at `axis`; a constant (1-D) xi or x broadcasts over the grid."""
    lead = (slice(None),) * axis
    grid = np.broadcast_shapes(xi.shape[1:], x.shape[axis + 1:])
    out = np.zeros(x.shape[:axis] + (terms.dim_out,) + grid,
                   dtype=np.result_type(terms.dtype, xi, x))
    for b, c, coeffs in terms.pairs:
        (a, w), *rest = coeffs
        M = xi[a] if w == 1 else w * xi[a]
        for a, w in rest:
            M = M + w * xi[a]
        out[lead + (c,)] += M * x[lead + (b,)]
    return out


def fiber_pairing(terms, left, right, first=0):
    """out[a - first] = <left, T_a right> for a >= first, summed over the fiber
    axis and the leading axes of a (4, d, *grid) spinor."""
    axis = right.ndim - 4 if right.ndim >= 4 else right.ndim - 1
    lead = (slice(None),) * axis
    out = np.zeros((terms.dim_xi - first,) + right.shape[axis + 1:], dtype=complex)
    for b, c, coeffs in terms.pairs:
        C = np.sum(np.conj(left[lead + (c,)]) * right[lead + (b,)], axis=tuple(range(axis)))
        for a, w in coeffs:
            if a >= first:
                out[a - first] += w * C
    return out


def covariant_d(fld, k, eta, model, grid, kind, frame=UNIT):
    """D_k fld for the fiber kind ('adjoint', 'higgs', 'spinor'); eta=None is
    the flat reference connection."""
    dk = diff(fld, k, grid)
    _divide(dk, frame.b[k])
    terms = model.terms[kind]
    if eta is not None and terms.pairs:
        dk = dk + fiber_apply(terms, eta[k], fld, axis=fld.ndim - 4)
    if kind == "spinor" and frame.II[k]:
        spin = 0.5 * frame.II[k] * gamma_apply(G0G[k], np.moveaxis(fld, -5, 0))
        dk = dk + np.moveaxis(spin, 0, -5)
    return dk


def covariant_diff(fld, eta, model, grid, kind, frame=UNIT):
    return np.stack([covariant_d(fld, k, eta, model, grid, kind, frame) for k in range(3)])


def covariant_div(vec, eta, model, grid, kind, frame=UNIT):
    """D_0 vec_0 + D_1 vec_1 + D_2 vec_2, left to right."""
    out = covariant_d(vec[0], 0, eta, model, grid, kind, frame)
    for k in (1, 2):
        out = out + covariant_d(vec[k], k, eta, model, grid, kind, frame)
    return out


def covariant_laplacian(fld, eta, model, grid, kind, frame=UNIT):
    return covariant_div(covariant_diff(fld, eta, model, grid, kind, frame),
                         eta, model, grid, kind, frame)


def sobolev_norms(fld, k, eta, model, grid, kind, frame=UNIT, weight=1.0):
    """[H^0, ..., H^k]: running sums of sum |level|^2 over the covariant_diff
    chain, times weight.  Where the connection term drops out the package sums
    in Fourier space (lattice.fourier_sobolev_norms), and so does this."""
    if eta is None or not model.terms[kind].pairs:
        return fourier_sobolev_norms(fld, k, grid, kind, frame, weight)
    cur, total = fld, np.sum(np.abs(fld) ** 2)
    norms = [float(total * weight)]
    for _ in range(k):
        cur = covariant_diff(cur, eta, model, grid, kind, frame)
        total += np.sum(np.abs(cur) ** 2)
        norms.append(float(total * weight))
    return norms


# ---------------------------------------------------------------------------
# The first-order system
# ---------------------------------------------------------------------------

def yukawa_spinor_apply(yuk, w, psi):
    return fiber_apply(yuk.terms, np.concatenate([w, np.conj(w)]), psi, axis=1)


def yukawa_antilinear_current(yuk, psi):
    """<psi, i Y^- psi> = i <g0 psi, R_k psi> over the conj-w block of the table."""
    return 1j * fiber_pairing(yuk.terms, gamma_apply(GAMMA[0], psi), psi, first=yuk.dim_W)


def currents(u):
    """J_i = -Re<Z_i, rho* phi> + (1/2) Im<g0 g_i psi, chi* psi>."""
    model, J = u.model, np.zeros_like(u.E)
    for i in range(3):
        J[i] -= np.real(fiber_pairing(model.rho.terms, u.Z[i], u.phi))
        J[i] += 0.5 * np.imag(fiber_pairing(model.chi.terms, gamma_apply(G0G[i], u.psi), u.psi))
    return J


def rhs(u, bg, couplings, every_row=False):
    """The state derivative of dynamics' first-order system at u.tau; with
    every_row, also the matter rows of zero matter that rhs skips."""
    model, grid, frame = couplings.model, u.grid, bg.frame(u.tau)
    kap, dkap, H, scal = frame.II, frame.dII, frame.H, frame.scal
    yuk, chi_acts, yuk_acts = model.yukawa, model.chi.terms.pairs, model.yukawa.terms.pairs
    dirac = every_row or np.any(u.sectors["dirac"])  # the live matter triples
    higgs = every_row or (dirac and yuk_acts) or np.any(u.sectors["higgs"])
    out = FieldState.zeros(grid, model, tau=u.tau)
    B, J = hodge_dual_B(u.Q), currents(u)  # J of zero matter is +0, as rhs takes it

    def D(fld, k, kind):
        return covariant_d(fld, k, u.eta, model, grid, kind, frame)

    def chi(xi, psi):
        return fiber_apply(model.chi.terms, xi, psi, axis=1)

    for i in range(3):
        out.eta[i] = kap[i] * u.eta[i] + u.E[i]
        acc = 3.0 * H * u.Q[i] - kap[i] * u.Q[i]
        for j, k in np.argwhere(EPS[i]):
            acc = acc + EPS[i, j, k] * D(u.E[k], j, "adjoint")
        out.Q[i] = acc
        acc = 3.0 * H * u.E[i] - kap[i] * u.E[i] + J[i]
        for k in range(3):
            if k != i:
                acc = acc + D(B[k, i], k, "adjoint")
        out.E[i] = acc

    if higgs:
        out.phi = u.phidot
        acc = (3.0 * H * u.phidot - (scal / 6.0) * u.phi
               - couplings.lam * np.sum(np.abs(u.phi) ** 2, axis=0) * u.phi)
        if dirac and yuk_acts:
            acc = acc - yukawa_antilinear_current(yuk, u.psi)
        out.phidot = acc + covariant_div(u.Z, u.eta, model, grid, "higgs", frame)
        for i in range(3):
            out.Z[i] = (D(u.phidot, i, "higgs") + fiber_apply(model.rho.terms, u.E[i], u.phi)
                        + kap[i] * u.Z[i])

    if dirac:
        chi_E = [chi(u.E[k], u.psi) for k in range(3)]
        out.psi = u.psidot
        acc = (covariant_div(u.S, u.eta, model, grid, "spinor", frame)
               + (3.0 * H * u.psidot - (scal / 4.0) * u.psi))
        if chi_acts:
            for k in range(3):
                acc = acc + gamma_apply(G0G[k], chi_E[k])
            # the (j, i) term of -(1/2) g_i g_j chi*(B_ij) psi is the (i, j) one
            curv = {(i, j): 0.5 * gamma_apply(GG[i, j], chi(B[i, j], u.psi))
                    for i, j in ((0, 1), (0, 2), (1, 2))}
            for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
                acc = acc - curv[min(i, j), max(i, j)]
        if yuk_acts:
            acc = acc + gamma_apply(GAMMA[0], yukawa_spinor_apply(yuk, u.phidot, u.psi))
            for k in range(3):
                acc = acc - gamma_apply(GAMMA[k + 1], yukawa_spinor_apply(yuk, u.Z[k], u.psi))
            acc = acc + yukawa_spinor_apply(yuk, u.phi, yukawa_spinor_apply(yuk, u.phi, u.psi))
        out.psidot = acc
        for i in range(3):
            acc = D(u.psidot, i, "spinor")
            if dkap[i] != kap[i] ** 2:
                acc = acc + 0.5 * (dkap[i] - kap[i] ** 2) * gamma_apply(G0G[i], u.psi)
            if chi_acts:
                acc = acc + chi_E[i]
            out.S[i] = acc + kap[i] * u.S[i]
    return out


# ---------------------------------------------------------------------------
# Constraints and oracles
# ---------------------------------------------------------------------------

def dirac_constraint(u):
    """psidot - g0 (g_k S_k + Y_phi psi)."""
    yuk = u.model.yukawa
    acc = yukawa_spinor_apply(yuk, u.phi, u.psi) if yuk.terms.pairs else 0.0
    for k in range(3):
        acc = acc + gamma_apply(GAMMA[k + 1], u.S[k])
    return u.psidot - gamma_apply(GAMMA[0], acc)


def constraint_fields(u, bg):
    """The curvature, Bianchi, Gauss and Dirac constraint fields at u.tau."""
    model, grid, frame = u.model, u.grid, bg.frame(u.tau)
    curv = np.zeros((3, 3) + u.eta.shape[1:])
    for i in range(3):
        for j in range(i + 1, 3):
            Bij = (covariant_d(u.eta[j], i, u.eta, model, grid, "adjoint", frame)
                   - covariant_d(u.eta[i], j, None, model, grid, "adjoint", frame))
            curv[i, j], curv[j, i] = Bij, -Bij
    gauss = (covariant_div(u.E, u.eta, model, grid, "adjoint", frame)
             + np.real(fiber_pairing(model.rho.terms, u.phidot, u.phi))
             - 0.5 * np.imag(fiber_pairing(model.chi.terms, u.psi, u.psi)))
    return {"curvature": hodge_dual_B(u.Q) - curv,
            "bianchi": covariant_div(u.Q, u.eta, model, grid, "adjoint", frame),
            "gauss": gauss, "dirac": dirac_constraint(u)}


def em_wave_residuals(stack, bg, couplings):
    """The electric and magnetic wave-equation residuals of oracles (its time
    stencils _d1, _d2 on the five-state stack)."""
    u, model = stack[2], couplings.model
    lie, rho, chi = model.lie.terms, model.rho.terms, model.chi.terms
    dtau, frame = stack[3].tau - u.tau, bg.frame(u.tau)
    kap, dk, H = frame.II, frame.dII, frame.H
    trd, weight = float(np.sum(dk)), frame.sqrt_g * u.grid.cell_volume
    B = hodge_dual_B(u.Q)
    DE = covariant_diff(u.E, u.eta, model, u.grid, "adjoint", frame)

    def box(series, now):
        return (-_d2(series, dtau) + 3 * H * _d1(series, dtau)
                + covariant_laplacian(now, u.eta, model, u.grid, "adjoint", frame))

    def im(left, right):
        return np.imag(fiber_pairing(chi, left, right))

    def re(left, right):
        return np.real(fiber_pairing(rho, left, right))

    res_E = 0.0
    for i in range(3):
        r = (dk[i] - trd + 3 * H * kap[i] - kap[i] ** 2) * u.E[i]
        for k in range(3):
            r = r + 2.0 * fiber_apply(lie, u.E[k], B[i, k])
            if k != i:
                r = r - 2.0 * kap[k] * covariant_d(B[k, i], k, u.eta, model, u.grid,
                                                   "adjoint", frame)
        r = r + im(u.psi, u.S[i]) - im(gamma_apply(G0G[i], u.psi), u.psidot)
        r = r + re(fiber_apply(rho, u.E[i], u.phi), u.phi) - 2.0 * re(u.phidot, u.Z[i])
        res_E += np.sum(np.abs(box([s.E[i] for s in stack], u.E[i]) - r) ** 2)
    res_B = 0.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        r = -2.0 * fiber_apply(lie, u.E[i], u.E[j])
        for k in range(3):
            r = r + 2.0 * fiber_apply(lie, B[k, i], B[k, j])
        r = r - 2.0 * kap[i] * DE[i, j] + 2.0 * kap[j] * DE[j, i]
        r = r + (-dk[i] - dk[j] + 3 * H * (kap[i] + kap[j])
                 - 2 * kap[i] * kap[j] - kap[i] ** 2 - kap[j] ** 2) * B[i, j]
        r = r + im(gamma_apply(G0G[i], u.psi), u.S[j]) - im(gamma_apply(G0G[j], u.psi), u.S[i])
        r = r + re(fiber_apply(rho, B[i, j], u.phi), u.phi) - 2.0 * re(u.Z[i], u.Z[j])
        res_B += np.sum(np.abs(box([hodge_dual_B(s.Q)[i, j] for s in stack], B[i, j]) - r) ** 2)
    return float(np.sqrt(res_E * weight)), float(np.sqrt(res_B * weight))


# ---------------------------------------------------------------------------
# Backgrounds: b, b' and b'' as the closures that built them before b was
# one piecewise polynomial
# ---------------------------------------------------------------------------

def static_flat_b(tau):
    return np.ones(3), np.zeros(3), np.zeros(3)


def bianchi1_b(eps):
    return lambda tau: (np.array([1.0, 1.0 + eps * tau, 1.0]), np.array([0.0, eps, 0.0]),
                        np.zeros(3))


def b_table_b(path):
    data = np.loadtxt(path, delimiter=",", comments="#")
    splines = [interpolate.CubicSpline(data[:, 0], data[:, 1 + i]) for i in range(3)]
    return lambda tau: [np.array([sp(tau, nu) for sp in splines]) for nu in range(3)]


def frame_of(b_and_derivatives, tau):
    """(b, II, dII) of Background.frame from b, b' and b''."""
    b, bd, bdd = b_and_derivatives(tau)
    return b, -bd / b, -bdd / b + (bd / b) ** 2
