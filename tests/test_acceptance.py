"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

The heavyweight preset runs are shared between criteria through the session
fixture below.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines as they complete.
"""

import numpy as np
import pytest

from ymtorus import algebra, clifford, conformal, constraints, dynamics
from ymtorus import driver, geometry, lattice, oracles


def _report(num, ok, detail):
    line = "ACCEPTANCE %2d: %s  %s" % (num, "PASS" if ok else "FAIL", detail)
    print(line, flush=True)
    assert ok, line


def _run_preset(name, overrides=None, out_root="/tmp/ymtorus_acceptance"):
    raw = driver.preset_config(name).as_dict()
    raw["outputs"]["plot"] = "false"
    for sec, kv in (overrides or {}).items():
        raw.setdefault(sec, {}).update(kv)
    cfg = driver.validate_config(raw)
    out = "%s/%s_n%s" % (out_root, name, cfg["grid", "n"])
    return driver.run_experiment(cfg, out_dir=out, quiet=True)


@pytest.fixture(scope="session")
def headline_runs():
    return {name: _run_preset(name)
            for name in ("desitter_u1_small", "desitter_su2_small")}


# -- 1 ----------------------------------------------------------------------

def test_criterion_1_algebra_clifford_identities():
    worst = clifford.anticommutator_table()
    om = clifford.OMEGA
    worst = max(worst, np.abs(om @ om - np.eye(4)).max())
    for mu in range(4):
        worst = max(worst, np.abs(om @ clifford.GAMMA[mu] + clifford.GAMMA[mu] @ om).max())
    p, mns = clifford.PROJ_PLUS, clifford.PROJ_MINUS
    worst = max(worst, np.abs(p @ p - p).max(), np.abs(p + mns - np.eye(4)).max())
    for make in algebra.SHIPPED_ALGEBRAS.values():
        worst = max(worst, max(algebra.check_lie(make()).values()))
    for factory in (algebra.u1_toy, algebra.su2_toy):
        model = factory()
        worst = max(worst, model.rho.skew_residual(),
                    model.rho.homomorphism_residual(model.lie),
                    model.chi.homomorphism_residual(model.lie),
                    algebra.check_equivariance(model.rho, model.chi, model.yukawa, 100))
        rng = np.random.default_rng(12)
        for _ in range(100):
            w = rng.standard_normal(model.dim_W) + 1j * rng.standard_normal(model.dim_W)
            psi = (rng.standard_normal((4, model.dim_V))
                   + 1j * rng.standard_normal((4, model.dim_V))) * model.fer_mask
            cur = algebra.yukawa_antilinear_current(model.yukawa, psi)
            lhs = 2 * np.real(np.sum(np.conj(w) * cur))
            rhs = clifford.spin_inner(psi, 1j * algebra.yukawa_spinor_apply(model.yukawa, w, psi))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    _report(1, worst <= 1e-12, "identity residuals <= %.2e (tol 1e-12)" % worst)


# -- 2 ----------------------------------------------------------------------

def test_criterion_2_symmetric_hyperbolicity():
    id_defect = np.abs(dynamics.principal_symbol_dtau() - np.eye(19)).max()
    rng = np.random.default_rng(2)
    worst_sym, worst_spec = 0.0, 0.0
    for _ in range(100):
        xi = rng.standard_normal(3)
        M = dynamics.principal_symbol(xi)
        worst_sym = max(worst_sym, np.abs(M - M.T).max())
        nrm = np.linalg.norm(xi)
        for e in np.linalg.eigvalsh(M):
            worst_spec = max(worst_spec, min(abs(e), abs(e - nrm), abs(e + nrm)))
    ok = id_defect == 0.0 and worst_sym <= 1e-14 and worst_spec <= 1e-10
    _report(2, ok, "sigma(dtau)=Id exact, symmetry %.1e (tol 1e-14), "
                   "spectrum defect %.1e (tol 1e-10)" % (worst_sym, worst_spec))


# -- 3 ----------------------------------------------------------------------

def test_criterion_3_constraint_propagation(headline_runs):
    details = []
    ok = True
    for name, summary in headline_runs.items():
        cg_tol = float(summary["config"]["numerics"]["cg_tol"])
        floor = max(max(summary["constraint_initial"].values()), cg_tol)
        worst_ratio = max(v / floor for v in summary["constraint_max"].values())
        ok &= worst_ratio <= 10.0
        details.append("%s max/floor %.2f" % (name, worst_ratio))
    for name in ("desitter_u1_small", "desitter_su2_small"):
        coarse = headline_runs[name]
        fine = _run_preset(name, overrides={
            "grid": {"n": "32"},
            "numerics": {"cg_tol": "1e-12", "report_every": "100000"},
        })
        order = constraints.observed_order(coarse["terminal_drift"]["gauss"],
                                           fine["terminal_drift"]["gauss"])
        ok &= order >= 3.5
        details.append("%s gauss-drift order %.2f" % (name, order))
    _report(3, ok, "; ".join(details) + "  (ratios <= 10, orders >= 3.5)")


# -- 4 ----------------------------------------------------------------------

def test_criterion_4_energy_boundedness(headline_runs):
    worst_C = 0.0
    exceeded = False
    bounded = True
    for summary in headline_runs.values():
        mon = summary["energy_monitor"]
        worst_C = max(worst_C, mon["fitted_C"])
        exceeded |= mon["exceeded_unity"]
        bounded &= mon["bounded"]
    ok = bounded and not exceeded and worst_C <= 20.0
    _report(4, ok, "fitted C = %.3f (tol 20), never exceeds 1: %s"
            % (worst_C, not exceeded))


# -- 5 ----------------------------------------------------------------------

def test_criterion_5_decay_rates(headline_runs):
    windows = {"phi": (-1.15, -0.85), "E": (-1.15, -0.85), "psi": (-1.65, -1.35)}
    ok = True
    details = []
    for name, summary in headline_runs.items():
        for sector, (lo, hi) in windows.items():
            slope = summary["decay"][sector]["slope"]
            ok &= lo <= slope <= hi
            details.append("%s/%s %+.3f" % (name.split("_")[1], sector, slope))
    _report(5, ok, " ".join(details) + "  (phi,E in [-1.15,-0.85]; psi in [-1.65,-1.35])")


# -- 6 ----------------------------------------------------------------------

def test_criterion_6_gauge_invariance_of_energy():
    cfg = driver.preset_config("gauge_invariance")
    grid, model, bg, couplings = driver.build_run(cfg)
    u0, _ = driver.prepare_initial_state(cfg, grid, model, bg, couplings,
                                         k=int(cfg["numerics", "energy_k"]))
    res = driver.run_gauge_invariance(cfg, u0, bg, couplings)
    worst = res["worst_relative_mismatch"]
    _report(6, worst <= 1e-6,
            "worst relative sector-energy mismatch %.2e (tol 1e-6) over %d report times"
            % (worst, len(res["rows"])))


# -- 7 ----------------------------------------------------------------------

def test_criterion_7_automorphism_construction():
    cfg = driver.preset_config("automorphism_check")
    diag = driver.run_automorphism_check(cfg)
    ok = diag["alpha_defect"] <= 1e-6 and diag["unitarity_defect"] <= 1e-10
    _report(7, ok, "temporal-coefficient defect %.2e (tol 1e-6), unitarity %.2e (tol 1e-10)"
            % (diag["alpha_defect"], diag["unitarity_defect"]))


# -- 8 ----------------------------------------------------------------------

def test_criterion_8_wave_system_oracles():
    cfg = driver.preset_config("convergence_study")
    model = driver.build_model(cfg)
    bg = driver.build_background(cfg)
    coup = dynamics.Couplings(model, lam=float(cfg["gauge", "lambda"]))
    seed = int(cfg["initial", "seed"])
    amp = float(cfg["initial", "amplitude"])

    def residuals(n):
        grid = lattice.Grid(n)
        u = lattice.random_state(grid, model, seed, amp,
                                 cutoff=int(cfg["initial", "cutoff"]))
        u.tau = 0.4
        constraints.complete_state(u, bg)
        constraints.solve_gauss_initial(u, bg, cg_tol=float(cfg["numerics", "cg_tol"]))
        stack = oracles.time_stack(u, bg, coup, 0.1 * grid.dx)
        return np.array([
            oracles.higgs_wave_residual(stack, bg, coup),
            oracles.dirac_wave_residual(stack, bg, coup),
            *oracles.em_wave_residuals(stack, bg, coup),
            oracles.current_divergence_residual(stack, bg, coup)])

    r16, r32 = residuals(16), residuals(32)
    orders = np.log2(r16 / r32)
    ok = bool(np.all(orders >= 3.5))
    _report(8, ok, "orders (higgs, dirac, E, B, d*J) = %s (tol >= 3.5)"
            % np.array2string(orders, precision=2))


# -- 9 ----------------------------------------------------------------------

def test_criterion_9_conformal_covariance():
    model = algebra.su2_toy()
    coup = dynamics.Couplings(model, lam=1.0)
    bg = geometry.static_flat(geometry.ScaleProfile("desitter", a=1.0))
    res = {}
    for n, dt in ((8, 0.08), (16, 0.04), (32, 0.02)):
        res[n], scale = conformal.conformal_residual_check(
            lattice.Grid(n), coup, bg, 0.7, dt, seed=7)
    o1 = np.log2(res[8] / res[16])
    o2 = np.log2(res[16] / res[32])
    mis0, scale0 = conformal.conformal_residual_check(
        lattice.Grid(16), coup, bg, 0.7, 0.04, seed=7, phi_weight=0.0)
    ok = o1 >= 1.8 and o2 >= 1.8 and mis0 >= 0.1 * scale0
    _report(9, ok, "orders %.2f, %.2f (tol >= 1.8); wrong-weight mismatch %.2f of scale"
            % (o1, o2, mis0 / scale0))


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_geometry_closed_forms():
    worst_T = 0.0
    for a in (0.5, 1.0, 2.0):
        p = geometry.ScaleProfile("desitter", a=a)
        worst_T = max(worst_T, abs(p.horizon() - np.pi / 2))
    worst_T = max(worst_T, abs(geometry.ScaleProfile("exponential").horizon() - 1.0))
    rng = np.random.default_rng(10)
    prof = geometry.ScaleProfile("desitter")
    worst_scal = 0.0
    count = 0
    while count < 50:
        coeffs = np.ones((3, 4))
        coeffs[:, 1:] = 0.4 * rng.standard_normal((3, 3))
        bg = geometry.polynomial_b(prof, coeffs)
        # keep the metric family well away from degeneracy
        if min(bg.b(t).min() for t in np.linspace(0, 1.3, 14)) < 0.4:
            continue
        count += 1
        tau = rng.uniform(0.0, 1.3)
        comp = geometry.riemann_components(bg, tau)
        trace = -comp["ricci_00"] + np.trace(comp["ricci_ik"])
        worst_scal = max(worst_scal, abs(trace - bg.frame(tau).scal))
    ok = worst_T <= 1e-9 and worst_scal <= 1e-10
    _report(10, ok, "horizon defect %.1e (tol 1e-9); Ricci-trace vs Scal %.1e (tol 1e-10)"
            % (worst_T, worst_scal))
