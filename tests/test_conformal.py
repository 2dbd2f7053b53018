import numpy as np
import pytest

from ymtorus import conformal, dynamics, geometry, lattice
from conftest import make_state


def _fmap(kind="desitter", N=1.0, **kw):
    return conformal.FrameMap(geometry.ScaleProfile(kind, **kw), N=N)


def test_to_physical_identity_at_unit_scale(su2_model, flat_bg):
    # s = N = 1 at t = 0 for the de Sitter profile with a = 1
    fmap = _fmap(a=1.0)
    grid = lattice.Grid(8)
    u = make_state(grid, su2_model, flat_bg, seed=1, amplitude=0.2)
    u.tau = 0.0
    phys = conformal.to_physical(u, fmap)
    assert np.abs(phys["phi"] - u.phi).max() < 1e-14
    assert np.abs(phys["psi"] - u.psi).max() < 1e-14
    assert np.abs(phys["E"] - u.E).max() < 1e-14


def test_round_trip(su2_model, flat_bg):
    fmap = _fmap(a=1.3, N=1.7)
    grid = lattice.Grid(8)
    u = make_state(grid, su2_model, flat_bg, seed=2, amplitude=0.2)
    u.tau = 0.9
    phys = conformal.to_physical(u, fmap)
    back = conformal.to_tilde(phys, fmap, u.tau)
    assert np.abs(back["phi"] - u.phi).max() < 1e-14
    assert np.abs(back["psi"] - u.psi).max() < 1e-14
    assert np.abs(back["E"] - u.E).max() < 1e-14
    assert np.abs(back["eta"] - u.eta).max() == 0.0


def test_decay_fit_synthetic_power_laws():
    fmap = _fmap(a=1.0)
    taus = np.linspace(0.2, 1.4, 60)
    fit = conformal.decay_fit(taus, 3.0 * np.ones_like(taus), fmap, rescale=-1.0)
    assert abs(fit.slope + 1.0) < 1e-6 and fit.half_width < 1e-6
    fit = conformal.decay_fit(taus, 2.0 * np.ones_like(taus), fmap, rescale=-1.5)
    assert abs(fit.slope + 1.5) < 1e-6
    # already-decaying synthetic input: sup_tilde = c / s -> physical c / s^2
    svals = np.array([fmap.s_at_tau(t) for t in taus])
    fit = conformal.decay_fit(taus, 1.0 / svals, fmap, rescale=-1.0)
    assert abs(fit.slope + 2.0) < 1e-6


def test_decay_fit_guards():
    fmap = _fmap(a=1.0)
    taus = np.linspace(0.2, 1.4, 60)
    fit = conformal.decay_fit(taus, np.zeros_like(taus), fmap, rescale=-1.0)
    assert fit.undefined
    with pytest.raises(conformal.InputError):
        conformal.decay_fit(taus[:8], np.ones(8), fmap)


def test_conformal_residual_identity_and_control(su2_model):
    coup = dynamics.Couplings(su2_model, lam=1.0)
    fmap = _fmap(a=1.0)
    # omega == 1: put tau where s = 1, i.e. tau = 0 (a=1, N=1); the frame
    # factors are constant to machine precision only if the profile is flat,
    # so use the exponential profile with tiny rate as the "omega = const" case
    flat_map = _fmap("exponential", rate=1e-12)
    grid = lattice.Grid(8)
    mis, scale = conformal.conformal_residual_check(grid, coup, flat_map, 0.3, 0.01, seed=3)
    assert mis < 1e-7 * scale
    # convergence order >= 1.8 under simultaneous refinement
    res = {}
    for n, dt in ((8, 0.08), (16, 0.04)):
        res[n] = conformal.conformal_residual_check(lattice.Grid(n), coup, fmap,
                                                    0.7, dt, seed=3)[0]
    assert np.log2(res[8] / res[16]) > 1.8
    # wrong weight: O(1) relative mismatch
    mis0, scale0 = conformal.conformal_residual_check(lattice.Grid(8), coup, fmap,
                                                      0.7, 0.08, seed=3, phi_weight=0.0)
    assert mis0 > 0.1 * scale0


def test_decay_report_shapes(su2_model):
    fmap = _fmap(a=1.0)
    taus = np.linspace(0.0, 1.4, 40)
    svals = np.array([fmap.s_at_tau(t) for t in taus])
    series = {"phi": 2 / svals * svals, "E": np.ones_like(taus), "psi": np.ones_like(taus)}
    fits = conformal.decay_report(taus, series, fmap)
    assert set(fits) == {"phi", "E", "psi"}
    assert abs(fits["E"].slope + 1.0) < 1e-6
    assert abs(fits["psi"].slope + 1.5) < 1e-6
