"""The reporting path reuses the stepper's work without changing a bit.

Each test compares the single-pass code against the formula it replaced,
kept here as the reference: the np.roll stencil, the RK4 step with a fresh
rhs and a fresh state per stage, and the energies with one covariant-
derivative chain per field and k.
"""

import numpy as np
import pytest

from ymtorus import algebra, clifford, constraints, driver, dynamics, energy, geometry
from ymtorus import lattice
from conftest import make_state


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def states_same_bits(u, v):
    return u.tau == v.tau and all(same_bits(getattr(u, name), getattr(v, name))
                                  for name in lattice.FIELDS)


# ---------------------------------------------------------------------------
# Stencil
# ---------------------------------------------------------------------------

def roll_diff(f, axis, grid):
    ax = f.ndim - 3 + axis
    if grid.order == 2:
        return (np.roll(f, -1, ax) - np.roll(f, 1, ax)) / (2.0 * grid.dx)
    return (8.0 * (np.roll(f, -1, ax) - np.roll(f, 1, ax))
            - (np.roll(f, -2, ax) - np.roll(f, 2, ax))) / (12.0 * grid.dx)


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

def fresh_stage_step(u, bg, coup, dtau):
    """RK4 with a new rhs and a new state for every stage."""
    k1 = dynamics.rhs(u, bg, coup)
    u2 = u.lincomb(1.0, [(dtau / 2, k1)])
    u2.tau = u.tau + dtau / 2
    k2 = dynamics.rhs(u2, bg, coup)
    u3 = u.lincomb(1.0, [(dtau / 2, k2)])
    u3.tau = u.tau + dtau / 2
    k3 = dynamics.rhs(u3, bg, coup)
    u4 = u.lincomb(1.0, [(dtau, k3)])
    u4.tau = u.tau + dtau
    k4 = dynamics.rhs(u4, bg, coup)
    out = u.lincomb(1.0, [(dtau / 6, k1), (dtau / 3, k2), (dtau / 3, k3), (dtau / 6, k4)])
    out.tau = u.tau + dtau
    return out


@pytest.fixture(scope="module")
def bianchi_bg():
    return geometry.bianchi1(geometry.ScaleProfile("desitter", a=1.0), eps=0.2)


MODELS = {"u1_toy": algebra.u1_toy, "su2_toy": algebra.su2_toy,
          "su3_pure": algebra.su3_pure}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_step_with_reported_k1_is_bit_identical(name, bianchi_bg):
    model = MODELS[name]()
    u = make_state(lattice.Grid(8), model, bianchi_bg, seed=4, amplitude=0.1)
    coup = dynamics.Couplings(model, lam=1.0)
    plain = dynamics.step(u, bianchi_bg, coup, 0.02)
    reused = dynamics.step(u, bianchi_bg, coup, 0.02, k1=dynamics.rhs(u, bianchi_bg, coup))
    assert states_same_bits(plain, reused)
    assert states_same_bits(plain, fresh_stage_step(u, bianchi_bg, coup, 0.02))


def test_lincomb_into_buffer_matches_new_state(su2_model, flat_bg):
    u = make_state(lattice.Grid(8), su2_model, flat_bg, seed=5)
    v = make_state(lattice.Grid(8), su2_model, flat_bg, seed=6)
    buf = lattice.FieldState.zeros(u.grid, su2_model, tau=9.0)
    into = u.lincomb(0.3, [(0.7, v), (-1.1, u)], out=buf)
    assert into is buf
    assert states_same_bits(into, u.lincomb(0.3, [(0.7, v), (-1.1, u)]))


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
            dk = dk + lattice.connection_action(fld, eta[k], model, kind)
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
    b, II = bianchi_bg.b(0.3), bianchi_bg.II(0.3)
    for eta in (u.eta, None):
        # equal values; an omitted zero term may flip the sign of a zero
        assert np.array_equal(
            lattice.covariant_diff(fld, eta, model, u.grid, kind, bvec=b, II=II),
            adding_covariant_diff(fld, eta, model, u.grid, kind, b, II))


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
    b, II, w = bg.b(u.tau), bg.II(u.tau), bg.sqrt_g(u.tau) * u.grid.cell_volume
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


@pytest.mark.parametrize("name", sorted(MODELS))
def test_energy_report_matches_per_k_norms(name, bianchi_bg):
    model = MODELS[name]()
    u = make_state(lattice.Grid(8), model, bianchi_bg, seed=8, amplitude=0.1)
    u.tau = 0.3
    assert np.any(bianchi_bg.II(u.tau))  # the spinor spin-connection term runs
    du = dynamics.rhs(u, bianchi_bg, dynamics.Couplings(model, lam=1.0))
    rep = energy.energy_report(u, du, bianchi_bg, k=2)
    sectors = {"yangmills": rep.yangmills, "higgs": rep.higgs, "dirac": rep.dirac}
    for sector, values in sectors.items():
        for kk in (0, 1, 2):
            assert values[kk] == per_k_sector_energy(u, sector, kk, du, bianchi_bg), (
                sector, kk)
    assert rep.total == rep.yangmills[2] + rep.higgs[2] + rep.dirac[2]
    b, w = bianchi_bg.b(u.tau), bianchi_bg.sqrt_g(u.tau) * u.grid.cell_volume
    ref = (per_k_sector_energy(u, "yangmills", 2, du, bianchi_bg, "reference")
           + per_k_sector_energy(u, "higgs", 2, du, bianchi_bg, "reference")
           + per_k_sector_energy(u, "dirac", 2, du, bianchi_bg, "reference")
           + per_k_sobolev(u.eta, 2, None, model, u.grid, "adjoint", b, None, w))
    assert rep.reference_total == ref
    for sector in sectors:
        for connection in ("omega", "reference"):
            assert (energy.sector_energy(u, sector, 2, du, bianchi_bg, connection)
                    == per_k_sector_energy(u, sector, 2, du, bianchi_bg, connection))


def test_sobolev_norms_are_the_per_k_norms(su2_model, bianchi_bg):
    u = make_state(lattice.Grid(8), su2_model, bianchi_bg, seed=9)
    b, II = bianchi_bg.b(0.3), bianchi_bg.II(0.3)
    norms = energy.sobolev_norms(u.psi, 3, u.eta, su2_model, u.grid, "spinor",
                                 bvec=b, II=II, weight=0.5)
    assert norms == [per_k_sobolev(u.psi, kk, u.eta, su2_model, u.grid, "spinor",
                                   b, II, 0.5) for kk in range(4)]
    assert energy.sobolev_norm(u.psi, 2, u.eta, su2_model, u.grid, "spinor",
                               bvec=b, II=II, weight=0.5) == norms[2]


# ---------------------------------------------------------------------------
# Constraints and the driver's report
# ---------------------------------------------------------------------------

def test_constraint_report_from_given_fields(su2_model, bianchi_bg):
    u = make_state(lattice.Grid(8), su2_model, bianchi_bg, seed=10, amplitude=0.1)
    u.tau = 0.2
    given = constraints.constraint_report(
        u, bianchi_bg, fields=constraints.constraint_fields(u, bianchi_bg))
    assert given.as_dict() == constraints.constraint_report(u, bianchi_bg).as_dict()


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
    assert calls["set_up"] >= 1
    # each step's k1 is the rhs its preceding report read, and the final
    # report adds one
    assert calls["rhs"] == calls["set_up"] + 4 * n_steps + 1
    # one evaluation of the constraint fields per reported state
    assert calls["fields"] == n_steps + 1
