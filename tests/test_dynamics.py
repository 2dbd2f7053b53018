import numpy as np
import pytest

from ymtorus import algebra, constraints, dynamics, lattice
from conftest import make_state


def test_currents_zero_and_reality(su2_model, flat_bg):
    grid = lattice.Grid(8)
    u = lattice.FieldState.zeros(grid, su2_model)
    assert np.abs(dynamics.currents(u)).max() == 0.0
    u = make_state(grid, su2_model, flat_bg, seed=1, amplitude=0.3)
    J = dynamics.currents(u)
    assert J.dtype == np.float64 and np.all(np.isfinite(J))


def test_currents_abelian_higgs_value():
    # Z_i = i q phi (pure-gauge-like): J_i = -Re<i phi, i q phi> = -q |phi|^2
    q = 2.0
    model = algebra.u1_toy(q_w=q)
    grid = lattice.Grid(4)
    u = lattice.FieldState.zeros(grid, model)
    rng = np.random.default_rng(0)
    u.phi[:] = rng.standard_normal((1,) + grid.shape) + 1j * rng.standard_normal((1,) + grid.shape)
    for i in range(3):
        u.Z[i] = 1j * u.phi
    J = dynamics.currents(u)
    expect = -q * np.sum(np.abs(u.phi) ** 2, axis=0)
    for i in range(3):
        assert np.abs(J[i, 0] - expect).max() < 1e-12


def test_rhs_zero_state(su2_model, flat_bg):
    grid = lattice.Grid(8)
    u = lattice.FieldState.zeros(grid, su2_model)
    du = dynamics.rhs(u, flat_bg, dynamics.Couplings(su2_model, lam=1.0))
    assert not any(buf.any() for buf in du.sectors.values())


def test_principal_symbol_properties():
    assert np.abs(dynamics.principal_symbol_dtau() - np.eye(19)).max() == 0.0
    rng = np.random.default_rng(1)
    for _ in range(100):
        xi = rng.standard_normal(3)
        M = dynamics.principal_symbol(xi)
        assert np.abs(M - M.T).max() <= 1e-14
        ev = np.linalg.eigvalsh(M)
        nrm = np.linalg.norm(xi)
        dist = max(min(abs(e), abs(e - nrm), abs(e + nrm)) for e in ev)
        assert dist <= 1e-10
    with pytest.raises(dynamics.InputError):
        dynamics.principal_symbol(np.zeros(4))


def test_maxwell_plane_wave_dispersion(u1_model, flat_bg):
    grid = lattice.Grid(32)
    coup = dynamics.Couplings(u1_model, lam=0.0)
    u = lattice.FieldState.zeros(grid, u1_model)
    x = np.arange(grid.n) * grid.dx
    kmode = 2
    u.eta[1, 0] = np.cos(kmode * x)[:, None, None]
    constraints.complete_state(u, flat_bg)
    dtau = 0.05
    phases = []
    st = u
    spec0 = None
    for m in range(64):
        amp = np.fft.rfft(st.eta[1, 0, :, 0, 0])[kmode]
        if spec0 is None:
            spec0 = abs(amp)
        phases.append(np.real(amp) / spec0)
        st = dynamics.step(st, flat_bg, coup, dtau)
    from scipy.optimize import curve_fit
    ts = np.arange(64) * dtau
    (w_fit,), _ = curve_fit(lambda t, w: np.cos(w * t), ts, phases, p0=[kmode])
    k_eff = (8 * np.sin(kmode * grid.dx) - np.sin(2 * kmode * grid.dx)) / (6 * grid.dx)
    assert abs(w_fit - k_eff) < 5e-4          # matches the stencil dispersion
    assert abs(w_fit - kmode) > 5 * abs(w_fit - k_eff)  # and not the continuum one


def test_step_zero_stays_zero(su2_model, flat_bg):
    grid = lattice.Grid(8)
    u = lattice.FieldState.zeros(grid, su2_model)
    v = dynamics.step(u, flat_bg, dynamics.Couplings(su2_model, 1.0), 0.03)
    assert not any(buf.any() for buf in v.sectors.values()) and v.tau == 0.03


def test_step_reversibility_order(su2_model, flat_bg):
    grid = lattice.Grid(8)
    coup = dynamics.Couplings(su2_model, lam=1.0)
    u = make_state(grid, su2_model, flat_bg, seed=3, amplitude=0.2)
    errs = {}
    for dt in (0.05, 0.025):
        fwd = dynamics.step(u, flat_bg, coup, dt)
        back = dynamics.step(fwd, flat_bg, coup, -dt)
        errs[dt] = max(np.abs(getattr(back, n) - getattr(u, n)).max()
                       for n in lattice.FIELDS)
    order = np.log2(errs[0.05] / errs[0.025])
    assert order > 4.5  # local error O(dt^5)


def test_global_rk4_order(u1_model, flat_bg):
    grid = lattice.Grid(8)
    coup = dynamics.Couplings(u1_model, lam=1.0)
    u0 = make_state(grid, u1_model, flat_bg, seed=4, amplitude=0.2)

    def advance(dt, steps):
        st = u0
        for _ in range(steps):
            st = dynamics.step(st, flat_bg, coup, dt)
        return st

    ref = advance(0.4 / 64, 64)
    errs = []
    for steps in (4, 8):
        st = advance(0.4 / steps, steps)
        errs.append(max(np.abs(getattr(st, n) - getattr(ref, n)).max()
                        for n in lattice.FIELDS))
    assert 3.6 < np.log2(errs[0] / errs[1]) < 4.4


def test_blowup_detection(u1_model, flat_bg):
    grid = lattice.Grid(8)
    u = lattice.FieldState.zeros(grid, u1_model)
    u.phi[0, 0, 0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(dynamics.BlowUpError):
        dynamics.step(u, flat_bg, dynamics.Couplings(u1_model, 0.0), 0.01)


def test_blowup_names_the_field_and_index(flat_bg):
    # su3_pure matter is trivial, so the inf stays in the Dirac triple, and
    # the stencils spread it to sites after the first
    model = algebra.su3_pure()
    u = lattice.FieldState.zeros(lattice.Grid(8), model)
    u.psi[1, 0, 0, 0, 0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(
            dynamics.BlowUpError, match=r"^non-finite psi at index \[1, 0, 0, 0, 0\], tau = 0.010000$"):
        dynamics.step(u, flat_bg, dynamics.Couplings(model, 0.0), 0.01)


def test_cfl_validation(u1_model, desitter_bg):
    grid = lattice.Grid(8)
    with pytest.raises(dynamics.InputError, match="violates CFL bound"):
        dynamics.cfl_steps(grid, desitter_bg, 1.0, cfl=0.5, dtau=grid.dx)
    dtau, n_steps = dynamics.cfl_steps(grid, desitter_bg, 1.0, cfl=0.5, dtau=0.4 * grid.dx)
    assert n_steps * dtau == pytest.approx(1.0) and dtau <= 0.4 * grid.dx


def test_rhs_gauge_equivariance(su2_model, flat_bg):
    # evolving the transformed data = transforming the evolved data, at
    # stencil order, for a time-independent gauge transformation
    coup = dynamics.Couplings(su2_model, lam=1.0)
    errs = {}
    for n in (12, 24):
        grid = lattice.Grid(n)
        u = make_state(grid, su2_model, flat_bg, seed=5, amplitude=0.2)
        gt = lattice.GaugeTransform.random_smooth(grid, su2_model, seed=6, amplitude=0.2)
        dt = 0.02
        a = lattice.apply_gauge(dynamics.step(u, flat_bg, coup, dt), gt)
        b = dynamics.step(lattice.apply_gauge(u, gt), flat_bg, coup, dt)
        errs[n] = max(np.abs(getattr(a, nm) - getattr(b, nm)).max()
                      for nm in lattice.FIELDS)
    assert np.log2(errs[12] / errs[24]) > 3.2


def test_evolution_preserves_chirality(su2_model, flat_bg):
    # Fer_+ fibers: spin rows 0,1 carry only V_+, rows 2,3 only V_-
    grid = lattice.Grid(8)
    u = make_state(grid, su2_model, flat_bg, seed=7, amplitude=0.2)
    coup = dynamics.Couplings(su2_model, lam=1.0)
    for _ in range(3):
        u = dynamics.step(u, flat_bg, coup, 0.03)
    off = 1 - su2_model.fer_mask[..., None, None, None]
    assert np.abs(u.psi * off).max() < 1e-14
    assert np.abs(u.psidot * off).max() < 1e-14
    assert np.abs(u.S * off[None]).max() < 1e-14


def test_evolve_zero_steps_echoes_initial(u1_model, flat_bg):
    grid = lattice.Grid(8)
    u = make_state(grid, u1_model, flat_bg, seed=8, amplitude=0.1)
    seen = []
    out = dynamics.evolve(u, flat_bg, dynamics.Couplings(u1_model, 0.0), 0.01, 0,
                          callback=lambda m, st, du: seen.append((m, st.tau)))
    assert seen == [(0, 0.0)] and out is u


def test_step_scans_matter_once(u1_model, flat_bg, monkeypatch):
    # the stage rhs calls take u's live sectors: a stage is zero where u and
    # k1 are, so scanning it again finds nothing new
    u = make_state(lattice.Grid(8), u1_model, flat_bg, seed=8, amplitude=0.1)
    u.sectors["higgs"].fill(0.0)
    u.sectors["dirac"].fill(0.0)
    scans, scan = [], dynamics._live_sectors

    def counted(*args, **kwargs):
        scans.append(1)
        return scan(*args, **kwargs)

    monkeypatch.setattr(dynamics, "_live_sectors", counted)
    out = dynamics.step(u, flat_bg, dynamics.Couplings(u1_model, 0.0), 0.01)
    assert len(scans) == 1
    assert not np.any(out.sectors["higgs"]) and not np.any(out.sectors["dirac"])
