import numpy as np
import pytest

from ymtorus import conformal, dynamics, geometry, lattice


def _bg(kind="desitter", **kw):
    return geometry.static_flat(geometry.ScaleProfile(kind, **kw))


def test_decay_fit_synthetic_power_laws():
    bg = _bg(a=1.0)
    taus = np.linspace(0.2, 1.4, 60)
    svals = np.array([bg.profile.s_of_tau(t) for t in taus])
    fit = conformal.decay_fit(taus, conformal.physical("phi", 3.0 * np.ones_like(taus), svals, bg),
                              svals)
    assert abs(fit.slope + 1.0) < 1e-6 and fit.half_width < 1e-6
    fit = conformal.decay_fit(taus, conformal.physical("psi", 2.0 * np.ones_like(taus), svals, bg),
                              svals)
    assert abs(fit.slope + 1.5) < 1e-6
    # already-decaying synthetic input: sup_tilde = c / s -> physical c / s^2
    fit = conformal.decay_fit(taus, conformal.physical("phi", 1.0 / svals, svals, bg), svals)
    assert abs(fit.slope + 2.0) < 1e-6


def test_decay_fit_guards():
    bg = _bg(a=1.0)
    taus = np.linspace(0.2, 1.4, 60)
    svals = np.array([bg.profile.s_of_tau(t) for t in taus])
    fit = conformal.decay_fit(taus, np.zeros_like(taus), svals)
    assert fit.undefined
    with pytest.raises(conformal.InputError):
        conformal.decay_fit(taus[:8], np.ones(8), svals[:8])


def test_conformal_residual_identity_and_control(su2_model):
    coup = dynamics.Couplings(su2_model, lam=1.0)
    bg = _bg(a=1.0)
    # omega == 1: put tau where s = 1, i.e. tau = 0 (a=1, N=1); the frame
    # factors are constant to machine precision only if the profile is flat,
    # so use the exponential profile with tiny rate as the "omega = const" case
    steady_bg = _bg("exponential", rate=1e-12)
    grid = lattice.Grid(8)
    mis, scale = conformal.conformal_residual_check(grid, coup, steady_bg, 0.3, 0.01, seed=3)
    assert mis < 1e-7 * scale
    # convergence order >= 1.8 under simultaneous refinement
    res = {}
    for n, dt in ((8, 0.08), (16, 0.04)):
        res[n] = conformal.conformal_residual_check(lattice.Grid(n), coup, bg,
                                                    0.7, dt, seed=3)[0]
    assert np.log2(res[8] / res[16]) > 1.8
    # wrong weight: O(1) relative mismatch
    mis0, scale0 = conformal.conformal_residual_check(lattice.Grid(8), coup, bg,
                                                      0.7, 0.08, seed=3, phi_weight=0.0)
    assert mis0 > 0.1 * scale0


def test_decay_report_shapes(su2_model):
    bg = _bg(a=1.0)
    taus = np.linspace(0.0, 1.4, 40)
    svals = np.array([bg.profile.s_of_tau(t) for t in taus])
    ones = np.ones_like(taus)
    columns = {"tau": taus, "sup_phi": 2 / svals * svals, "sup_E": ones, "sup_psi": ones,
               "E_higgs_k0": ones, "E_ym_k0": svals ** -2, "E_dirac_k0": np.zeros_like(taus)}
    fits = conformal.decay_report(columns, bg)
    assert list(fits) == ["phi", "E", "psi", "l2_diagnostic"]
    assert abs(fits["E"]["slope"] + 1.0) < 1e-6
    assert abs(fits["psi"]["slope"] + 1.5) < 1e-6
    # sqrt(E_k0 s): s^0.5 for the Higgs, s^-0.5 for the Yang-Mills column
    l2 = fits["l2_diagnostic"]
    assert abs(l2["phi"]["slope"] - 0.5) < 1e-6 and abs(l2["E"]["slope"] + 0.5) < 1e-6
    assert l2["psi"]["undefined"]
    short = {name: x[:8] for name, x in columns.items()}
    assert conformal.decay_report(short, bg) == {
        "error": "decay_fit needs >= 10 samples in the window"}
