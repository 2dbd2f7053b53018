"""The reporting path reuses the stepper's work, and the first report
set-up's energy norms, without changing a bit.

Each test compares the single-pass code against the formula it replaced,
kept as the reference: the np.roll stencil and the RK4 step with a fresh
rhs and a fresh state per stage (conftest), and here the energies with one
covariant-derivative chain per field and k.  Energies summed in Fourier space (see
lattice.fourier_sobolev_norms) match the chain to rounding, not bit for bit.
"""

import numpy as np
import pytest

from ymtorus import algebra, clifford, constraints, driver, dynamics, energy, lattice
from conftest import MODELS, fresh_stage_step, make_state, roll_diff, same_bits, states_same_bits


# ---------------------------------------------------------------------------
# Stencil
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 5, 8])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("complex_field", [False, True])
def test_diff_matches_roll_stencil(n, order, lead, complex_field):
    grid = lattice.Grid(n, L=1.7, order=order)
    rng = np.random.default_rng(n * 100 + order * 10 + len(lead))
    f = rng.standard_normal(lead + grid.shape)
    if complex_field:
        f = f + 1j * rng.standard_normal(f.shape)
    for axis in range(3):
        assert same_bits(lattice.diff(f, axis, grid), roll_diff(f, axis, grid))
    # a non-contiguous input gives the same result as its copy
    view = np.swapaxes(f, -1, -2)
    assert same_bits(lattice.diff(view, 0, grid), roll_diff(view, 0, grid))


# ---------------------------------------------------------------------------
# Stepper
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(MODELS))
def test_step_with_reported_k1_is_bit_identical(name, bianchi_bg):
    model = MODELS[name]()
    u = make_state(lattice.Grid(8), model, bianchi_bg, seed=4, amplitude=0.1)
    coup = dynamics.Couplings(model, lam=1.0)
    plain = dynamics.step(u, bianchi_bg, coup, 0.02)
    reused = dynamics.step(u, bianchi_bg, coup, 0.02, k1=dynamics.rhs(u, bianchi_bg, coup))
    assert states_same_bits(plain, reused)
    assert states_same_bits(plain, fresh_stage_step(u, bianchi_bg, coup, 0.02))


def test_skipped_fiber_terms_change_no_value(bianchi_bg):
    # su3_pure: trivial fermions and a zero Yukawa map, so rhs skips the
    # chi* and Yukawa terms; forcing them on adds only (signed) zeros
    model = algebra.su3_pure()
    assert not model.acts["spinor"] and not model.acts["yukawa"]
    u = make_state(lattice.Grid(8), model, bianchi_bg, seed=7, amplitude=0.1)
    coup = dynamics.Couplings(model, lam=1.0)
    skipped = dynamics.rhs(u, bianchi_bg, coup)
    model.acts["spinor"] = model.acts["yukawa"] = True
    full = dynamics.rhs(u, bianchi_bg, coup)
    for name in lattice.FIELDS:
        assert np.array_equal(getattr(skipped, name), getattr(full, name)), name
    assert algebra.su2_toy().acts["spinor"] and algebra.u1_toy().acts["yukawa"]


# ---------------------------------------------------------------------------
# Energies
# ---------------------------------------------------------------------------

def adding_covariant_diff(fld, eta, model, grid, kind, bvec, II):
    """covariant_diff that adds every term, the connection action included
    when its term table is empty."""
    out = np.empty((3,) + fld.shape, dtype=fld.dtype)
    for k in range(3):
        dk = roll_diff(fld, k, grid) / bvec[k]
        if eta is not None:
            dk = dk + lattice.connection_action(fld, lattice.Connection(eta, model), k, kind)
        if kind == "spinor" and II is not None and II[k]:
            dk = dk + 0.5 * II[k] * np.einsum("ab,...bvxyz->...avxyz", clifford.G0G[k], fld)
        out[k] = dk
    return out


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("kind", ["adjoint", "higgs", "spinor"])
def test_covariant_diff_matches_adding_every_term(name, kind, bianchi_bg):
    model = MODELS[name]()
    u = make_state(lattice.Grid(8), model, bianchi_bg, seed=11, amplitude=0.1)
    fld = {"adjoint": u.E, "higgs": u.phi, "spinor": u.psi}[kind]
    frame = bianchi_bg.frame(0.3)
    for eta in (u.eta, None):
        # equal values; an omitted zero term may flip the sign of a zero
        conn = None if eta is None else lattice.Connection(eta, model)
        assert np.array_equal(
            lattice.covariant_diff(fld, conn, u.grid, kind, frame),
            adding_covariant_diff(fld, eta, model, u.grid, kind, frame.b, frame.II))


def per_k_sobolev(fld, k, eta, model, grid, kind, bvec, II, weight):
    total = 0.0
    cur = fld
    total += np.sum(np.abs(cur) ** 2)
    for _ in range(k):
        nxt = adding_covariant_diff(cur, eta, model, grid, kind, bvec, II)
        total += np.sum(np.abs(nxt) ** 2)
        cur = nxt
    return float(total * weight)


def per_k_sector_energy(u, sector, k, du, bg, connection="omega"):
    frame = bg.frame(u.tau)
    b, II, w = frame.b, frame.II, frame.sqrt_g * u.grid.cell_volume
    eta = u.eta if connection == "omega" else None

    def H(fld, kk, kind):
        return per_k_sobolev(fld, kk, eta, u.model, u.grid, kind, b,
                             II if kind == "spinor" else None, w)

    if sector == "higgs":
        if k == 0:
            return H(u.phi, 0, "higgs")
        return H(u.phidot, k - 1, "higgs") + H(u.phi, k, "higgs")
    if sector == "yangmills":
        if k == 0:
            return H(u.E, 0, "adjoint") + H(u.Q, 0, "adjoint")
        return (H(du.E, k - 1, "adjoint") + H(u.E, k, "adjoint")
                + H(du.Q, k - 1, "adjoint") + H(u.Q, k, "adjoint"))
    if k == 0:
        return H(u.psi, 0, "spinor")
    return H(u.psidot, k - 1, "spinor") + H(u.psi, k, "spinor")


SECTOR_KIND = {"yangmills": "adjoint", "higgs": "higgs", "dirac": "spinor"}


def matches_per_k(value, expect, model, sector, connection="omega"):
    """Exact where the connection acts (the same chain); within rounding where
    the energy is summed in Fourier space (reference chains, kinds that act
    by zero), which reassociates the sums."""
    if connection == "omega" and model.acts[SECTOR_KIND[sector]]:
        return value == expect
    return value == pytest.approx(expect, rel=1e-13, abs=0)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_energy_report_matches_per_k_norms(name, bianchi_bg):
    model = MODELS[name]()
    u = make_state(lattice.Grid(8), model, bianchi_bg, seed=8, amplitude=0.1)
    u.tau = 0.3
    assert np.any(bianchi_bg.frame(u.tau).II)  # the spinor spin-connection term runs
    du = dynamics.rhs(u, bianchi_bg, dynamics.Couplings(model, lam=1.0))
    norms = energy.Norms(u, du, bianchi_bg, 2)
    rep = energy.energy_report(norms)
    sectors = {"yangmills": rep.yangmills, "higgs": rep.higgs, "dirac": rep.dirac}
    for sector, values in sectors.items():
        for kk in (0, 1, 2):
            assert matches_per_k(values[kk], per_k_sector_energy(u, sector, kk, du, bianchi_bg),
                                 model, sector), (sector, kk)
    assert rep.total == rep.yangmills[2] + rep.higgs[2] + rep.dirac[2]
    frame = bianchi_bg.frame(u.tau)
    b, w = frame.b, frame.sqrt_g * u.grid.cell_volume
    ref = (per_k_sector_energy(u, "yangmills", 2, du, bianchi_bg, "reference")
           + per_k_sector_energy(u, "higgs", 2, du, bianchi_bg, "reference")
           + per_k_sector_energy(u, "dirac", 2, du, bianchi_bg, "reference")
           + per_k_sobolev(u.eta, 2, None, model, u.grid, "adjoint", b, None, w))
    assert rep.reference_total == pytest.approx(ref, rel=1e-13, abs=0)
    for sector in sectors:
        for connection in ("omega", "reference"):
            assert matches_per_k(
                norms.energy(sector, 2, connection),
                per_k_sector_energy(u, sector, 2, du, bianchi_bg, connection),
                model, sector, connection)


def test_sobolev_norms_are_the_per_k_norms(su2_model, bianchi_bg):
    u = make_state(lattice.Grid(8), su2_model, bianchi_bg, seed=9)
    frame = bianchi_bg.frame(0.3)
    conn = lattice.Connection(u.eta, su2_model)
    norms = energy.sobolev_norms(u.psi, 3, conn, u.grid, "spinor", frame, weight=0.5)
    assert norms == [per_k_sobolev(u.psi, kk, u.eta, su2_model, u.grid, "spinor",
                                   frame.b, frame.II, 0.5) for kk in range(4)]
    assert energy.sobolev_norm(u.psi, 2, conn, u.grid, "spinor", frame, weight=0.5) == norms[2]


# ---------------------------------------------------------------------------
# Constraints and the driver's report
# ---------------------------------------------------------------------------

def test_constraint_report_from_given_fields(su2_model, bianchi_bg):
    u = make_state(lattice.Grid(8), su2_model, bianchi_bg, seed=10, amplitude=0.1)
    u.tau = 0.2
    given = constraints.constraint_report(
        u, bianchi_bg, fields=constraints.constraint_fields(u, bianchi_bg))
    assert given == constraints.constraint_report(u, bianchi_bg)


def test_run_makes_four_rhs_calls_per_step(tmp_path, monkeypatch):
    raw = driver.preset_config("desitter_u1_small").as_dict()
    raw["grid"]["n"] = "8"
    raw["initial"]["cutoff"] = "1"
    raw["background"]["tau_end_fraction"] = "0.1"
    raw["numerics"].update({"dtau": "0.03", "report_every": "1"})
    raw["outputs"].update({"plot": "false", "directory": str(tmp_path)})
    cfg = driver.validate_config(raw)

    calls = {"rhs": 0, "set_up": None, "fields": 0}
    rhs, prepare = dynamics.rhs, driver.prepare_initial_state
    fields = constraints.constraint_fields

    def counting_rhs(*args, **kwargs):
        calls["rhs"] += 1
        return rhs(*args, **kwargs)

    def counting_prepare(*args, **kwargs):
        out = prepare(*args, **kwargs)
        calls["set_up"] = calls["rhs"]
        return out

    def counting_fields(*args, **kwargs):
        calls["fields"] += 1
        return fields(*args, **kwargs)

    monkeypatch.setattr(dynamics, "rhs", counting_rhs)
    monkeypatch.setattr(driver, "prepare_initial_state", counting_prepare)
    monkeypatch.setattr(constraints, "constraint_fields", counting_fields)
    summary = driver.run_experiment(cfg)
    n_steps = summary["n_steps"]
    assert n_steps >= 2
    assert calls["set_up"] == 0  # set-up evaluates only the gauge rows (gauge_rhs)
    # each step's k1 is the rhs its preceding report read, and the final
    # report adds one
    assert calls["rhs"] == calls["set_up"] + 4 * n_steps + 1
    # one evaluation of the constraint fields per reported state
    assert calls["fields"] == n_steps + 1


@pytest.mark.parametrize("preset", ["desitter_u1_small", "bianchi1_su2"])
def test_one_connection_per_report(tmp_path, monkeypatch, preset):
    # the energy norms, the constraint fields and the S-consistency each
    # built one from the same eta: 3 builds a report (2 at step 0); from
    # set-up's return to the end of the step-0 report, evolve's rhs and the
    # report build one each (the step-0 constraint fields built a third)
    raw = driver.preset_config(preset).as_dict()
    raw["grid"]["n"] = "8"
    raw["initial"]["cutoff"] = "1"
    raw["background"]["tau_end_fraction"] = "0.1"
    raw["numerics"].update({"dtau": "0.03", "report_every": "1"})
    raw["outputs"].update({"plot": "false", "directory": str(tmp_path)})
    build, prepare, evolve = (lattice.Connection.__init__, driver.prepare_initial_state,
                              dynamics.evolve)
    builds, per_report, to_step_zero = [], [], []

    def counted_build(self, *args):
        builds.append(1)
        build(self, *args)

    def prepare_then_count(*args, **kwargs):
        result = prepare(*args, **kwargs)
        builds.clear()
        return result

    def evolve_counting_reports(*args, callback=None):
        def counted(m, state, du):  # evolve's own rhs has built its connection
            before = len(builds)
            callback(m, state, du)
            per_report.append(len(builds) - before)
            if m == 0:
                to_step_zero.append(len(builds))

        return evolve(*args, callback=counted)

    monkeypatch.setattr(lattice.Connection, "__init__", counted_build)
    monkeypatch.setattr(driver, "prepare_initial_state", prepare_then_count)
    monkeypatch.setattr(dynamics, "evolve", evolve_counting_reports)
    summary = driver.run_experiment(driver.validate_config(raw))
    assert per_report == [1] * (summary["n_steps"] + 1)
    assert to_step_zero == [2]


def small_run_config(tmp_path, energy_k):
    raw = driver.preset_config("bianchi1_su2").as_dict()  # su2_toy with matter
    raw["grid"]["n"] = "8"
    raw["background"]["tau_end_fraction"] = "0.1"
    raw["numerics"].update({"dtau": "0.03", "report_every": "1000", "energy_k": str(energy_k)})
    raw["outputs"].update({"plot": "false", "directory": str(tmp_path)})
    return driver.validate_config(raw)


@pytest.mark.parametrize("energy_k", [1, 2, 3])
def test_first_report_reads_the_set_up_norms(tmp_path, monkeypatch, energy_k):
    # chains with a connection walked in each phase of the run: set-up, from
    # its end to the step-0 row, and after that row
    walked = {"set-up": 0, "first report": 0, "later": 0}
    phase = ["set-up"]
    sobolev_norms, prepare, report = (energy.sobolev_norms, driver.prepare_initial_state,
                                      energy.energy_report)

    def counting_norms(fld, k, eta, *args, **kwargs):
        walked[phase[0]] += eta is not None
        return sobolev_norms(fld, k, eta, *args, **kwargs)

    def marking_prepare(*args, **kwargs):
        out = prepare(*args, **kwargs)
        phase[0] = "first report"
        return out

    def marking_report(*args, **kwargs):
        out = report(*args, **kwargs)
        phase[0] = "later"
        return out

    monkeypatch.setattr(energy, "sobolev_norms", counting_norms)
    monkeypatch.setattr(driver, "prepare_initial_state", marking_prepare)
    monkeypatch.setattr(energy, "energy_report", marking_report)
    driver.run_experiment(small_run_config(tmp_path, energy_k))
    assert walked["set-up"] > 0 and walked["later"] > 0
    # set-up measures at the report's top, max(2, energy_k): every chain is reused
    assert walked["first report"] == 0


@pytest.mark.parametrize("energy_k", [1, 2, 3])
def test_first_row_is_a_fresh_report(tmp_path, energy_k):
    cfg = small_run_config(tmp_path, energy_k)
    driver.run_experiment(cfg)
    grid, model, bg, coup = driver.build_run(cfg)
    u, _ = driver.prepare_initial_state(cfg, grid, model, bg, coup, k=energy_k)
    fresh = energy.energy_report(energy.Norms(u, dynamics.rhs(u, bg, coup), bg,
                                              energy_k)).as_row()
    header, first, last = (tmp_path / "energy.csv").read_text().splitlines()  # steps 0 and 4
    assert header.split(",") == list(fresh)
    assert first == ",".join(driver._fmt(x) for x in fresh.values())  # "%.17g": every bit
