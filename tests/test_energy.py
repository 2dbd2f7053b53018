import numpy as np
import pytest

from ymtorus import dynamics, energy, lattice
from conftest import make_state


def test_sobolev_norm_basics(u1_model):
    grid = lattice.Grid(8, L=1.0)  # unit-volume torus
    const = np.ones((1,) + grid.shape, dtype=complex)
    val = energy.sobolev_norm(const, 0, None, grid, "higgs", weight=grid.cell_volume)
    assert abs(val - 1.0) < 1e-12
    zero = np.zeros_like(const)
    assert energy.sobolev_norm(zero, 2, None, grid, "higgs") == 0.0
    with pytest.raises(energy.InputError):
        energy.sobolev_norm(const, 7, None, grid, "higgs")


def test_sobolev_parseval_single_mode(u1_model):
    # k = 1 norm of a single Fourier mode matches the modified wavenumber
    grid = lattice.Grid(16)
    x = np.arange(grid.n) * grid.dx
    kmode = 2
    f = np.exp(2j * np.pi * kmode * x / grid.L)[:, None, None] * np.ones((1, 16, 16))
    f = f.reshape((1,) + grid.shape)
    w = grid.cell_volume
    val = energy.sobolev_norm(f, 1, None, grid, "higgs", weight=w)
    k = 2 * np.pi * kmode / grid.L
    k_eff = (8 * np.sin(k * grid.dx) - np.sin(2 * k * grid.dx)) / (6 * grid.dx)
    vol = grid.L ** 3
    expect = vol * (1 + k_eff ** 2)
    assert abs(val - expect) < 1e-9 * expect


def test_sector_energy_zero_and_dirac_k0(su2_model, flat_bg):
    grid = lattice.Grid(8)
    u = lattice.FieldState.zeros(grid, su2_model)
    du = dynamics.rhs(u, flat_bg, dynamics.Couplings(su2_model, 1.0))
    for sector in ("higgs", "yangmills", "dirac"):
        assert energy.sector_energy(u, sector, 2, du, flat_bg) == 0.0
    u = make_state(grid, su2_model, flat_bg, seed=1, amplitude=0.2)
    val = energy.sector_energy(u, "dirac", 0, None, flat_bg)
    expect = np.sum(np.abs(u.psi) ** 2) * flat_bg.frame(0.0).sqrt_g * grid.cell_volume
    assert abs(val - expect) < 1e-12 * expect


def test_energy_report_totals(su2_model, flat_bg):
    grid = lattice.Grid(8)
    u = make_state(grid, su2_model, flat_bg, seed=2, amplitude=0.1)
    du = dynamics.rhs(u, flat_bg, dynamics.Couplings(su2_model, 1.0))
    rep = energy.energy_report(u, du, flat_bg, k=2)
    assert rep.total == rep.yangmills[2] + rep.higgs[2] + rep.dirac[2]
    assert rep.total > 0 and rep.reference_total > 0
    assert set(rep.sup) == {"eta", "E", "B", "phi", "psi"}
    # sector zeroing never increases the total
    v = u.copy()
    v.phi[:] = 0
    v.phidot[:] = 0
    v.Z[:] = 0
    dv = dynamics.rhs(v, flat_bg, dynamics.Couplings(su2_model, 1.0))
    rep2 = energy.energy_report(v, dv, flat_bg, k=2)
    assert rep2.total <= rep.total


def test_energy_gauge_invariance_stencil_order(su2_model, flat_bg):
    coup = dynamics.Couplings(su2_model, lam=1.0)
    errs = {}
    for n in (12, 24):
        grid = lattice.Grid(n)
        u = make_state(grid, su2_model, flat_bg, seed=3, amplitude=0.1)
        gt = lattice.GaugeTransform.random_smooth(grid, su2_model, seed=4, amplitude=0.05)
        ug = lattice.apply_gauge(u, gt)
        worst = 0.0
        du, dug = dynamics.rhs(u, flat_bg, coup), dynamics.rhs(ug, flat_bg, coup)
        for sector in ("yangmills", "higgs", "dirac"):
            ea = energy.sector_energy(u, sector, 2, du, flat_bg)
            eb = energy.sector_energy(ug, sector, 2, dug, flat_bg)
            worst = max(worst, abs(ea - eb) / ea)
        errs[n] = worst
    assert np.log2(errs[12] / errs[24]) > 3.0


def test_estimate_monitor():
    taus = np.linspace(0, 1, 11)
    totals = 1e-4 * np.exp(0.5 * taus)
    v = energy.estimate_monitor(taus, totals)
    assert v.bounded and abs(v.fitted_C - 0.5) < 1e-6 and not v.exceeded_unity
    v0 = energy.estimate_monitor(taus, np.zeros_like(taus))
    assert v0.bounded and v0.fitted_C == 0.0
    vbig = energy.estimate_monitor(taus, 2.0 * np.ones_like(taus))
    assert vbig.exceeded_unity


def test_lemma_shadow_constant_stable_under_refinement(u1_model, flat_bg):
    # |d/dtau ||phi||^2| <= C (||phidot|| + ||II|| ||phi||) ||phi||: fit C on a
    # coarse run, hold it on a refined run
    coup = dynamics.Couplings(u1_model, lam=1.0)
    ratios = {}
    for n, dt_steps in ((8, 20), (16, 40)):
        grid = lattice.Grid(n)
        u = make_state(grid, u1_model, flat_bg, seed=5, amplitude=0.1, solve=True)
        dt = 0.6 / dt_steps
        taus, norms, rates = [], [], []
        st = u
        w = flat_bg.frame(0.0).sqrt_g * grid.cell_volume
        for m in range(dt_steps + 1):
            taus.append(st.tau)
            conn = lattice.Connection(st.eta, u1_model)
            norms.append(np.sqrt(energy.sobolev_norm(st.phi, 2, conn, grid, "higgs", weight=w)))
            rates.append(np.sqrt(energy.sobolev_norm(st.phidot, 2, conn, grid, "higgs",
                                                     weight=w)))
            if m < dt_steps:
                st = dynamics.step(st, flat_bg, coup, dt)
        ratios[n] = energy.norm_evolution_ratio(taus, norms, rates, ii_sup=0.0)
    C = ratios[8]
    assert ratios[16] <= 1.2 * C  # the fitted constant transfers under refinement


def test_reference_energy_includes_eta(su2_model, flat_bg):
    grid = lattice.Grid(8)
    u = lattice.FieldState.zeros(grid, su2_model)
    rng = np.random.default_rng(6)
    u.eta[:] = 0.1 * rng.standard_normal(u.eta.shape)
    du = dynamics.rhs(u, flat_bg, dynamics.Couplings(su2_model, 1.0))
    rep = energy.energy_report(u, du, flat_bg, k=2)
    assert rep.reference_total > 0.0  # ||eta||^2 contributes
