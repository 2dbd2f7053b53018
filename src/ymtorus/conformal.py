"""Transformation between the simulation frame and the physical expanding
frame, decay-rate fitting, and the conformal-covariance residual check.

With conformal factor Omega = 1/(N s) the physical fields are

    phi = phi~ / (N s),   psi = psi~ / (N s)^{3/2},   E = E~ / (N s),
    B = B~,               eta = eta~,

so uniform boundedness of the simulation-frame fields translates into decay
at rates s^-1 (Higgs, electric field) and s^-{3/2} (fermions); the lapse N
is constant and leaves the rates alone.  The geometry.Background carries s
(bg.profile.s_of_tau) and N (bg.N), and the fits here read both from it:
there is no separate frame-map object.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import algebra, lattice
from .errors import InputError


RESCALING_EXPONENTS = {"phi": -1.0, "psi": -1.5, "E": -1.0, "B": 0.0, "eta": 0.0}


@dataclass
class DecayFit:
    slope: float
    half_width: float
    n_samples: int
    window: tuple
    undefined: bool = False


def physical(name, tilde, s, bg):
    """The physical-frame series of the simulation-frame series `tilde` of
    field `name` at scale factors s: tilde s^w / N^max(0, -w), w its
    RESCALING_EXPONENTS entry and N the Background bg's lapse."""
    w = RESCALING_EXPONENTS[name]
    return tilde * s ** w / bg.N ** max(0.0, -w)


def decay_fit(taus, phys, s):
    """Least-squares slope of log phys against log s over the final 40% of
    the run (in tau); phys is a physical-frame series (see physical) and s
    the scale factors at taus."""
    taus = np.asarray(taus, dtype=float)
    phys = np.asarray(phys, dtype=float)
    if taus.size != phys.size:
        raise InputError("series length mismatch")
    t_lo = taus[-1] - 0.4 * (taus[-1] - taus[0])
    sel = taus >= t_lo - 1e-14
    taus_w = taus[sel]
    phys_w = phys[sel]
    if taus_w.size < 10:
        raise InputError("decay_fit needs >= 10 samples in the window")
    if np.all(phys_w == 0.0):
        return DecayFit(np.nan, np.nan, int(taus_w.size),
                        (float(t_lo), float(taus[-1])), undefined=True)
    x = np.log(s[sel])
    y = np.log(phys_w)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    dof = max(1, len(x) - 2)
    sigma2 = float(res[0]) / dof if res.size else 0.0
    sxx = float(np.sum((x - x.mean()) ** 2))
    half = 1.96 * np.sqrt(sigma2 / sxx) if sxx > 0 else np.inf
    return DecayFit(slope, float(half), int(taus_w.size),
                    (float(t_lo), float(taus[-1])))


def physical_series(e, bg):
    """(s, {name: series}) of energy.csv's columns e (driver.read_csv's dict):
    s(tau) of bg once per row, and the physical-frame sup-norm series of phi,
    E and psi, which decay.json fits and decay.svg draws."""
    s = np.array([bg.profile.s_of_tau(t) for t in e["tau"]])
    return s, {name: physical(name, e["sup_" + name], s, bg) for name in ("phi", "E", "psi")}


# each L2 fit's (column, p), sqrt(column s^p): L2 norms pick up the s^3 volume growth
L2_DIAGNOSTIC = {"phi": ("E_higgs_k0", 1.0), "E": ("E_ym_k0", 1.0), "psi": ("E_dirac_k0", 0.0)}


def decay_report(e, bg):
    """decay.json of energy.csv's columns e: the sup-norm fits of
    physical_series, and under "l2_diagnostic" the fits of the k = 0 sector
    energies' square roots; {"error": message} when a fit cannot be made."""
    try:
        s, series = physical_series(e, bg)
        decay = {name: asdict(decay_fit(e["tau"], y, s)) for name, y in series.items()}
        decay["l2_diagnostic"] = {
            name: asdict(decay_fit(e["tau"], np.sqrt(np.maximum(e[col], 0.0) * s ** power), s))
            for name, (col, power) in L2_DIAGNOSTIC.items()}
    except ValueError as err:
        return {"error": str(err)}
    return decay


# ---------------------------------------------------------------------------
# Conformal covariance of the Higgs equation
# ---------------------------------------------------------------------------

def _manufactured(grid, model, seed):
    """Smooth band-limited space profiles with analytic tau dependence."""
    rng = np.random.default_rng(seed)
    A = lattice._band_limited(rng, grid, (model.dim_W,), 1, True)
    B = lattice._band_limited(rng, grid, (model.dim_W,), 1, True)
    P = lattice._band_limited(rng, grid, (4, model.dim_V), 1, True)
    P *= model.fer_mask[..., None, None, None]

    def phi_t(tau):
        return A * np.cos(tau) + B * np.sin(1.6 * tau)

    def psi_t(tau):
        return P * np.cos(1.3 * tau)

    return phi_t, psi_t


def _tilde_higgs_residual(phi_t, psi_t, tau, dtau, grid, couplings):
    """Simulation-frame residual Box phi - lam|phi|^2 phi - <psi,iY- psi>
    on the static flat frame (eta = 0, Scal~ = 0, H~ = 0)."""
    model = couplings.model
    pm, p0, pp = phi_t(tau - dtau), phi_t(tau), phi_t(tau + dtau)
    dd = (pp - 2 * p0 + pm) / dtau ** 2
    box = -dd + lattice.covariant_laplacian(p0, None, grid, "higgs")
    psi0 = psi_t(tau)
    src = algebra.yukawa_antilinear_current(model.yukawa, psi0)
    return box - couplings.lam * np.sum(np.abs(p0) ** 2, axis=0) * p0 - src


def conformal_residual_check(grid, couplings, bg, tau, dtau, seed=7,
                             phi_weight=-1.0):
    """Mismatch between the physical-frame Higgs residual (built with the
    conformally transformed wave operator and scalar curvature) and
    Omega^3 times the simulation-frame residual.

    On the correct rescaling (phi_weight = -1, i.e. phi = Omega phi~ with
    Omega = 1/(N s), s and N of the Background bg) the two agree up to
    discretization error, second order in dtau; a wrong weight (e.g. 0)
    leaves an O(1) mismatch.  Returns (mismatch_norm, scale_norm).
    """
    model = couplings.model
    phi_t, psi_t = _manufactured(grid, model, seed)

    def omega_of(t):
        return 1.0 / (bg.N * bg.profile.s_of_tau(t))

    # conformal factor data: f = log Omega, derivatives by small exact steps
    h = 1e-5
    f0 = np.log(omega_of(tau))
    fp = (np.log(omega_of(tau + h)) - np.log(omega_of(tau - h))) / (2 * h)
    fpp = (np.log(omega_of(tau + h)) - 2 * f0 + np.log(omega_of(tau - h))) / h ** 2
    Om0 = omega_of(tau)

    # physical-frame field phi = Omega^(-phi_weight scaling): correct weight -1
    def phi_phys(t):
        return omega_of(t) ** (-phi_weight) * phi_t(t)

    qm, q0, qp = phi_phys(tau - dtau), phi_phys(tau), phi_phys(tau + dtau)
    ddq = (qp - 2 * q0 + qm) / dtau ** 2
    dq = (qp - qm) / (2 * dtau)
    # tilde wave operator on phi
    box_tilde_of_phys = -ddq + lattice.covariant_laplacian(q0, None, grid, "higgs")
    box_phys = Om0 ** 2 * (box_tilde_of_phys + 2.0 * fp * dq)
    scal_phys = -6.0 * Om0 ** 2 * (fpp - fp ** 2)  # static flat tilde frame

    psi0 = psi_t(tau)
    psi_phys = Om0 ** 1.5 * psi0
    src_phys = algebra.yukawa_antilinear_current(model.yukawa, psi_phys)
    r_phys = (box_phys - scal_phys / 6.0 * q0
              - couplings.lam * np.sum(np.abs(q0) ** 2, axis=0) * q0 - src_phys)

    r_tilde = _tilde_higgs_residual(phi_t, psi_t, tau, dtau, grid, couplings)
    mismatch = r_phys - Om0 ** 3 * r_tilde
    w = grid.cell_volume
    return (float(np.sqrt(np.sum(np.abs(mismatch) ** 2) * w)),
            float(np.sqrt(np.sum(np.abs(Om0 ** 3 * r_tilde) ** 2) * w)))
