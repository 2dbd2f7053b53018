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
from scipy import interpolate

from . import algebra, parallel
from .clifford import G0G_ROWS, GG_ROWS, GAMMA_ROWS, spin_add, spin_row
from .errors import BlowUpError, InputError
from .lattice import EPS, SECTORS, Connection, FieldState, covariant_d, covariant_div
from .lattice import diff  # noqa: F401  (unused; perfbench's tracer test reads dynamics.diff)


@dataclass
class Couplings:
    model: "algebra.GaugeModel"
    lam: float = 0.0


def cfl_steps(grid, bg, tau_end, cfl, dtau=None):
    """(dtau, n_steps): the fewest equal steps over [0, tau_end] no longer than
    dtau, or than the CFL bound cfl * dx * min b when dtau is None; raises
    InputError when such a step exceeds that bound or when b reaches zero
    there.  b is a PPoly, so its minimum on [0, tau_end] is at an end, a knot
    or a root of some b_i'."""
    b = bg.b
    taus = np.concatenate([[0.0, tau_end], b.x] + [
        interpolate.PPoly(b.c[..., i], b.x).derivative().roots() for i in range(3)])
    bmin = b(taus[(taus >= 0.0) & (taus <= tau_end)]).min()
    if bmin <= 0:
        raise InputError("b must stay positive on [0, %g]: min b = %g" % (tau_end, bmin))
    bound = cfl * grid.dx * bmin
    n_steps = max(1, int(np.ceil(tau_end / (dtau or bound) - 1e-12)))
    if tau_end / n_steps > bound + 1e-15:
        raise InputError("dtau = %g violates CFL bound %g" % (tau_end / n_steps, bound))
    return tau_end / n_steps, n_steps


def currents(u):
    """Matter current J_i^a = -Re<Z_i, rho*(xi_a) phi> + (1/2) Im<g_i psi, chi*(xi_a) psi>,
    with <g_i psi, X> = psi^dag (g0 g_i) X paired a spin row at a time."""
    model = u.model
    J = np.zeros_like(u.E)
    for i in range(3):
        J[i] -= np.real(algebra.current_pairing(model.rho, u.Z[i], u.phi))
        if model.acts["spinor"]:
            J[i] += 0.5 * np.imag(algebra.current_pairing(model.chi, u.psi, u.psi,
                                                          spin=G0G_ROWS[i]))
    return J


def _live_sectors(u, model, zero=()):
    """Sectors whose derivative at u can be nonzero; the others are zeroed in
    the states `zero`.  The Dirac triple's derivative is linear in (psi,
    psidot, S), and the Higgs triple's vanishes when the triple is zero and
    the Dirac triple is zero or the Yukawa map acts by zero."""
    dirac = np.any(u.sectors["dirac"])
    higgs = (dirac and model.acts["yukawa"]) or np.any(u.sectors["higgs"])
    live = ("gauge",) + (("higgs",) if higgs else ()) + (("dirac",) if dirac else ())
    for buf in (s.sectors[name] for s in zero for name in SECTORS if name not in live):
        if np.any(buf):  # a buffer that is zero already is not written
            buf.fill(0.0)
    return live


def _add_signed(acc, sign, term):
    """acc + sign * term into acc for sign = +-1: the bits of acc += sign * term."""
    return (np.add if sign > 0 else np.subtract)(acc, term, out=acc)


def gauge_rhs(u, frame, couplings, out, live=None, conn=None):
    """Gauge rows (eta, Q, E) of rhs(u) into `out` in the background's frame
    at u.tau, on the lattice.Connection `conn` of u.eta (built if None).  J
    enters E iff a matter sector is live (`live` = _live_sectors(u), scanned
    if None).  The E rows add or subtract D_k Q_m for D_k B_ki (B_ki =
    eps_mki Q_m): D_k of -Q_m is -D_k Q_m where nonzero, and no E-row sum is
    -0 after J, whose zeros are +0, so the rows keep the bits of adding D_k B_ki."""
    kappa, H = frame.II, frame.H
    live = _live_sectors(u, couplings.model) if live is None else live
    J = currents(u) if len(live) > 1 else np.zeros_like(u.E)
    conn = conn or Connection(u.eta, couplings.model)

    def D(fld, k):
        return covariant_d(fld, k, conn, u.grid, "adjoint", frame)

    for i in range(3):
        np.add(kappa[i] * u.eta[i], u.E[i], out=out.eta[i])

        acc = np.subtract(3.0 * H * u.Q[i], kappa[i] * u.Q[i], out=out.Q[i])
        for j, k in np.argwhere(EPS[i]):  # the nonzero terms, j ascending
            _add_signed(acc, EPS[i, j, k], D(u.E[k], j))

        acc = np.subtract(3.0 * H * u.E[i], kappa[i] * u.E[i], out=out.E[i])
        acc += J[i]
        for k in range(3):
            if k != i:  # B[i, i] = 0
                m = 3 - i - k
                _add_signed(acc, EPS[m, k, i], D(u.Q[m], k))


def _subtract_curvature(acc, model, Q, psi):
    """acc - (1/2) g_i g_j chi*(B_ij) psi for (i, j) = (0, 1), (0, 2), (1, 0),
    (1, 2), (2, 0), (2, 1) in turn, into acc.  The (j, i) term is the (i, j)
    one (B_ji = -B_ij, GG[j, i] = -GG[i, j]), formed once per pair i < j and
    spin row from B_ij = 0 + eps_mij Q_m (hodge_dual_B's sum)."""
    pairs = [(i, j, algebra.chi_spinor_apply(
        model.chi, np.add(0.0, EPS[3 - i - j, i, j] * Q[3 - i - j]), psi))
        for i, j in ((0, 1), (0, 2), (1, 2))]
    curv = {}
    for r, row in enumerate(acc):
        for i, j, chi_B in pairs:
            curv[i, j] = spin_row(GG_ROWS[i][j], chi_B, r, 0.5, out=curv.get((i, j)))
        for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
            row -= curv[min(i, j), max(i, j)]


def rhs(u, bg, couplings, out=None, live=None):
    """State derivative of the first-order system at u.tau, summed term by
    term in the order of the formulas above into `out` (a state of u's
    shapes, not u; returned) or a new state.  Matter triples outside
    _live_sectors(u) are zeroed, not evaluated (J is quadratic in matter).
    A caller that has scanned u passes its `live` tuple, with out's sectors
    outside it zero already (as step does); they are then not checked.

    With the Dirac triple live, the rows form two blocks that read only u
    and write disjoint rows: (eta, Q, E, phi, phidot, Z, S) and (psi,
    psidot).  parallel.split runs them side by side on large grids; each
    row is summed in the same order either way.  Each constant spin matrix
    acts one spin row at a time (clifford.spin_add), and B = *Q is not formed
    (gauge_rhs, _subtract_curvature): every element keeps the arithmetic of
    the whole-array terms."""
    if out is u:
        raise InputError("rhs cannot write into the state it reads")
    frame = bg.frame(u.tau)
    model, grid = couplings.model, u.grid
    out = FieldState.zeros(grid, model) if out is None else out
    out.tau = u.tau
    if live is None:
        live = _live_sectors(u, model, zero=[out])
    higgs, dirac = "higgs" in live, "dirac" in live
    kappa, dkappa, H, scal = frame.II, frame.dII, frame.H, frame.scal
    lam, yuk = couplings.lam, model.yukawa
    conn = Connection(u.eta, model)  # read by both row blocks

    def D(fld, k, kind, out=None):
        return covariant_d(fld, k, conn, grid, kind, frame, out=out)

    def div(vec, kind, out=None):
        return covariant_div(vec, conn, grid, kind, frame, out=out)

    def gauge_and_higgs_rows():
        gauge_rhs(u, frame, couplings, out, live, conn)
        if higgs:
            np.copyto(out.phi, u.phidot)
            acc = np.subtract(3.0 * H * u.phidot, (scal / 6.0) * u.phi, out=out.phidot)
            acc -= lam * np.sum(np.abs(u.phi) ** 2, axis=0) * u.phi
            if dirac and model.acts["yukawa"]:
                acc -= algebra.yukawa_antilinear_current(yuk, u.psi)
            acc += div(u.Z, "higgs")
            for i in range(3):
                acc = D(u.phidot, i, "higgs", out=out.Z[i])
                acc += algebra.rho_star_apply(model.rho, u.E[i], u.phi)
                acc += kappa[i] * u.Z[i]

    if not dirac:
        gauge_and_higgs_rows()
        return out

    # Dirac triple; the chi* and Yukawa terms are skipped where they vanish
    # identically, as is the spin-connection term where its coefficient is
    # zero (adding their zeros changes no value)
    chi_acts = model.acts["spinor"]
    chi_E = chi_acts and [algebra.chi_spinor_apply(model.chi, u.E[k], u.psi) for k in range(3)]

    def S_rows():
        for i in range(3):
            acc = D(u.psidot, i, "spinor", out=out.S[i])
            if dkappa[i] != kappa[i] ** 2:
                spin_add(acc, G0G_ROWS[i], u.psi, 0.5 * (dkappa[i] - kappa[i] ** 2))
            if chi_acts:
                acc += chi_E[i]
            acc += kappa[i] * u.S[i]

    def psi_rows():
        np.copyto(out.psi, u.psidot)
        acc = div(u.S, "spinor", out=out.psidot)
        term, scaled_psi = np.empty_like(acc[0]), np.empty_like(acc[0])
        for r, row in enumerate(acc):
            np.multiply(3.0 * H, u.psidot[r], out=term)
            term -= np.multiply(scal / 4.0, u.psi[r], out=scaled_psi)
            row += term
        if chi_acts:
            for k in range(3):
                spin_add(acc, G0G_ROWS[k], chi_E[k])
            _subtract_curvature(acc, model, u.Q, u.psi)
        if model.acts["yukawa"]:
            spin_add(acc, GAMMA_ROWS[0], algebra.yukawa_spinor_apply(yuk, u.phidot, u.psi))
            for k in range(3):
                spin_add(acc, GAMMA_ROWS[k + 1], algebra.yukawa_spinor_apply(yuk, u.Z[k], u.psi),
                         subtract=True)
            algebra.yukawa_spinor_apply(
                yuk, u.phi, algebra.yukawa_spinor_apply(yuk, u.phi, u.psi), out=acc)

    # the S rows join the gauge and Higgs rows so that the blocks cost about
    # the same: 106 and 96 ms on su2_toy, bianchi1, n = 32 (62 and 127 ms
    # with every Dirac row in the worker)
    parallel.split(grid, lambda: (gauge_and_higgs_rows(), S_rows()), psi_rows)
    return out


# ---------------------------------------------------------------------------
# Principal symbol
# ---------------------------------------------------------------------------

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

def _half(buf, h):
    """First (h = 0) or second (h = 1) half of a flat sector buffer."""
    mid = buf.size // 2
    return buf[mid:] if h else buf[:mid]


def threads(u):
    """Threads that rhs and step use on u: parallel.threads(u.grid) while
    the Dirac triple is live, else 1.  Without it rhs is one block, and
    halves of the RK4 updates written by the worker would only slow the
    one-thread rhs that reads them next (u1_toy at n = 32: 35 ms a step on
    one thread, 52 ms with split updates)."""
    return parallel.threads(u.grid) if np.any(u.sectors["dirac"]) else 1


def _by_halves(grid, live, fn):
    """(fn(0), fn(1)), where fn(h) reads and writes only the h halves of
    flat sector buffers: elementwise work, side by side on large grids
    while the Dirac triple is live (see threads)."""
    if "dirac" not in live:
        return fn(0), fn(1)
    return parallel.split(grid, lambda: fn(0), lambda: fn(1))


def _axpy(out, u, c, du, scratch, sectors):
    """out = u + c du on the named sectors, with c du formed in `scratch`
    (which may be out, unless out is u)."""
    def update(h):
        for name in sectors:
            cdu = np.multiply(_half(du.sectors[name], h), c, out=_half(scratch.sectors[name], h))
            np.add(_half(u.sectors[name], h), cdu, out=_half(out.sectors[name], h))

    _by_halves(u.grid, sectors, update)


def step(u, bg, couplings, dtau, k1=None, work=None):
    """Classic RK4 update; raises BlowUpError on non-finite output.

    k1 is rhs(u) when the caller has already evaluated it (evolve does, for
    its callback).  work = (out, stage, k) are states of u's shapes that the
    step overwrites (None allocates them; k1 may be k): each stage is formed
    in stage, and its rhs lands in k and is added to out at once.  That sums
    u + (dtau/6) k1 + (dtau/3) k2 + (dtau/3) k3 + (dtau/6) k4 left to right.
    u's matter is scanned once: sectors outside _live_sectors(u) are zeroed
    in the three buffers and stay zero, and every rhs call skips them (a
    stage is zero where u and k1 are).  Returns out.
    """
    out, stage, k = work or [FieldState.zeros(u.grid, u.model) for _ in range(3)]
    live = _live_sectors(u, couplings.model, zero=[out, stage, k])
    dk = rhs(u, bg, couplings, out=k, live=live) if k1 is None else k1
    _axpy(out, u, dtau / 6, dk, out, live)
    for c_stage, c_out in ((dtau / 2, dtau / 3), (dtau / 2, dtau / 3), (dtau, dtau / 6)):
        _axpy(stage, u, c_stage, dk, stage, live)
        stage.tau = u.tau + c_stage
        dk = rhs(stage, bg, couplings, out=k, live=live)
        _axpy(out, out, c_out, dk, stage, live)  # rhs has read stage
    out.tau = u.tau + dtau
    finite = _by_halves(u.grid, live, lambda h: [
        np.isfinite(_half(out.sectors[s], h)).all() for s in live])
    for sector, first, second in zip(live, *finite):
        if not (first and second):  # find the field only on failure
            name = next(f for f in SECTORS[sector] if not np.isfinite(getattr(out, f)).all())
            raise BlowUpError("non-finite %s at index %s, tau = %.6f" % (
                name, np.argwhere(~np.isfinite(getattr(out, name)))[0].tolist(), out.tau))
    return out


def evolve(u, bg, couplings, dtau, n_steps, callback=None):
    """March n_steps RK4 steps, advancing u in place; returns u.
    callback(step_index, state, du) runs after each step (and at step 0).

    du is rhs(state), evaluated once per state: the callback reads it (a
    report needs it for the energies) and the next step takes it as its k1.
    Four states are resident: u, an rhs buffer k and two spares.  A step
    writes into u when its input is not u and an even number of steps
    remains after it, else into the spare that is not its input; its stage
    takes the buffer left over.  So the last step lands in u (a one-step run
    copies its result there), and state and du are overwritten after the
    callback returns: a caller that keeps them, or u's initial values,
    copies them.  The spares exist only between the first and the last
    callback, which can take their memory.
    """
    k, spares, du, state = FieldState.zeros(u.grid, u.model), None, None, u
    for m in range(n_steps + 1):
        if m:
            spares = spares or [FieldState.zeros(u.grid, u.model) for _ in range(2)]
            if state is not u and (n_steps - m) % 2 == 0:
                out, stage = u, *[s for s in spares if s is not state]
            else:
                out, stage = [s for s in (*spares, u) if s is not state]
            state = step(state, bg, couplings, dtau, k1=du, work=(out, stage, k))
        if m == n_steps:
            if state is not u:  # one step: its result sits in a spare
                for name, buf in state.sectors.items():
                    np.copyto(u.sectors[name], buf)
                u.tau, state = state.tau, u
            spares = out = stage = None
        if callback is not None:
            du = rhs(state, bg, couplings, out=k)
            callback(m, state, du)
    return u
