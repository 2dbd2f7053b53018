"""Set-up normalises on the gauge rows of the rhs and the total energy alone.

The gauge rows, of rhs and of dynamics.gauge_rhs alone, must keep the bits
of tests/reference.py, and the set-up total must be the total an energy
report of the full rhs records.
"""

import hashlib

import numpy as np
import pytest

import reference
from ymtorus import constraints, driver, dynamics, energy, lattice
from ymtorus.lattice import FieldState
from conftest import MODELS, same_bits, state

SETUP_BACKGROUNDS = ["bianchi1", "desitter"]


@pytest.mark.parametrize("bg_name", SETUP_BACKGROUNDS)
@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("matter", [True, False])
def test_gauge_rows_are_the_reference_block(name, bg_name, matter):
    u, bg, coup = state(name, bg_name, 23, matter=matter)
    ref = reference.rhs(u, bg, coup)
    full = dynamics.rhs(u, bg, coup)
    alone = FieldState.zeros(u.grid, u.model)
    dynamics.gauge_rhs(u, bg.frame(u.tau), coup, alone)
    for field in lattice.SECTORS["gauge"]:
        for rows in (full, alone):
            assert same_bits(getattr(rows, field), getattr(ref, field)), field
    # the set-up evaluation writes the gauge rows only
    assert not np.any(alone.sectors["higgs"]) and not np.any(alone.sectors["dirac"])


@pytest.mark.parametrize("bg_name", SETUP_BACKGROUNDS)
@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("k", [0, 2, 3])
def test_set_up_total_is_the_reported_total(name, bg_name, k):
    u, bg, coup = state(name, bg_name, 23)
    du = FieldState.zeros(u.grid, u.model)
    dynamics.gauge_rhs(u, bg.frame(u.tau), coup, du)
    rep = energy.energy_report(u, dynamics.rhs(u, bg, coup), bg, k=k)
    assert energy.total_energy(u, du, bg, k=k) == rep.total
    assert rep.total == rep.yangmills[k] + rep.higgs[k] + rep.dirac[k]
    assert sorted(rep.yangmills) == sorted({0, 1, 2, k})


def small_su2_config():
    raw = driver.preset_config("bianchi1_su2").as_dict()
    raw["grid"]["n"] = "8"
    return driver.validate_config(raw)


def test_prepared_state_is_pinned():
    # digest of the sector buffers computed before set-up skipped the matter rows
    cfg = small_su2_config()
    grid, model, bg, coup = driver.build_run(cfg)
    u, info = driver.prepare_initial_state(cfg, grid, model, bg, coup)
    digest = hashlib.sha256()
    for name in lattice.SECTORS:
        digest.update(u.sectors[name].tobytes())
    assert digest.hexdigest() == (
        "dd9ba5670e06e6e4e81464a4d4c5ad29ec60cab0905c7c0e0e192b8d2dd38944")
    assert info["converged"] is True
    assert info["energy"] == energy.energy_report(u, dynamics.rhs(u, bg, coup), bg, k=2).total


def perturbing_gauss_solve(monkeypatch):
    """Make every set-up pass miss its target: E grows after each Gauss solve."""
    solve = constraints.solve_gauss_initial

    def perturbing(u, *args, **kwargs):
        info = solve(u, *args, **kwargs)
        u.E *= 1.5
        return info

    monkeypatch.setattr(constraints, "solve_gauss_initial", perturbing)


def test_unconverged_set_up_returns_the_measured_state(monkeypatch):
    perturbing_gauss_solve(monkeypatch)
    cfg = small_su2_config()
    grid, model, bg, coup = driver.build_run(cfg)
    u, info = driver.prepare_initial_state(cfg, grid, model, bg, coup)
    assert info["converged"] is False
    assert abs(info["energy"] - 1e-4) > 1e-10 + 1e-9 * 1e-4
    # no rescale after the last pass: the state is the one whose energy is recorded
    assert info["energy"] == energy.energy_report(u, dynamics.rhs(u, bg, coup), bg, k=2).total


def test_unconverged_set_up_is_a_warning(tmp_path, monkeypatch):
    perturbing_gauss_solve(monkeypatch)
    raw = small_su2_config().as_dict()
    raw["background"]["tau_end_fraction"] = "0.02"
    raw["outputs"] = {"directory": str(tmp_path), "plot": "false", "snapshots": "0"}
    summary = driver.run_experiment(driver.validate_config(raw))
    assert summary["initial_data"]["converged"] is False
    assert any("six rescaling passes" in w for w in summary["warnings"])


def test_one_connection_per_set_up_pass(monkeypatch):
    # complete_state, the Gauss solve, gauge_rhs and the energy norms each
    # built one from the same eta: 8 builds in this two-pass set-up
    cfg = driver.validate_config({"grid": {"n": "8"}, "gauge": {"model": "su3_pure"}})
    grid, model, bg, coup = driver.build_run(cfg)
    build, solve = lattice.Connection.__init__, constraints.solve_gauss_initial
    builds, passes = [], []

    def counted_build(self, *args):
        builds.append(1)
        build(self, *args)

    def counted_solve(*args, **kwargs):
        passes.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lattice.Connection, "__init__", counted_build)
    monkeypatch.setattr(constraints, "solve_gauss_initial", counted_solve)
    _, info = driver.prepare_initial_state(cfg, grid, model, bg, coup)
    assert info["converged"] is True
    assert len(passes) == 2 and len(builds) == 2
