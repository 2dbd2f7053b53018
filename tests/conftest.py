import gc
import os
import tracemalloc

import numpy as np
import pytest

from ymtorus import algebra, dynamics, geometry, lattice

MODELS = {"u1_toy": algebra.u1_toy, "su2_toy": algebra.su2_toy,
          "su3_pure": algebra.su3_pure}
# bianchi1 has II != 0, so the spin connection runs; its b is linear in tau, so
# dII = II^2 and the S rows' (dII - II^2) g0 gi psi term is off, which the
# quadratic b of "curved" turns on
BACKGROUNDS = {
    "bianchi1": lambda: geometry.bianchi1(geometry.ScaleProfile("desitter", a=1.0), eps=0.2),
    "desitter": lambda: geometry.static_flat(geometry.ScaleProfile("desitter", a=1.0)),
    "curved": lambda: geometry.polynomial_b(geometry.ScaleProfile("desitter", a=1.0),
                                            [[1.0, 0.1, 0.3], [1.0, 0.2, 0.0], [1.0, 0.0, -0.2]]),
}


@pytest.fixture(scope="session")
def u1_model():
    return algebra.u1_toy()


@pytest.fixture(scope="session")
def su2_model():
    return algebra.su2_toy()


@pytest.fixture(scope="session")
def flat_bg():
    # static flat simulation frame with a long conformal horizon
    return geometry.static_flat(geometry.ScaleProfile("exponential", rate=0.01))


@pytest.fixture(scope="session")
def desitter_bg():
    return BACKGROUNDS["desitter"]()


@pytest.fixture(scope="module")
def bianchi_bg():
    bg = BACKGROUNDS["bianchi1"]()
    assert np.any(bg.frame(0.3).II)  # kappa != 0 at tau 0.3: the spin-connection term runs
    return bg


@pytest.fixture
def grid8():
    return lattice.Grid(8)


@pytest.fixture
def grid12():
    return lattice.Grid(12)


def make_state(grid, model, bg, seed=3, amplitude=0.1, cutoff=1, solve=False,
               cg_tol=1e-11):
    from ymtorus import constraints

    u = lattice.random_state(grid, model, seed, amplitude, cutoff)
    constraints.complete_state(u, bg)
    if solve:
        constraints.solve_gauss_initial(u, bg, cg_tol=cg_tol)
    return u


def state(name, bg_name, seed, n=8, matter=True, zeros=False):
    """(state, background, couplings with lam 1): make_state of MODELS[name]
    on an n-grid and BACKGROUNDS[bg_name] at amplitude 0.1, moved to tau 0.3.
    Without matter the Higgs and Dirac sectors are 0; with zeros a fifth of
    the entries of every other sector are +-0 (with_zeros, seeded seed + the
    sector's index)."""
    bg = BACKGROUNDS[bg_name]()
    u = make_state(lattice.Grid(n), MODELS[name](), bg, seed=seed, amplitude=0.1)
    for index, (sector, buf) in enumerate(u.sectors.items()):
        if not (matter or sector == "gauge"):
            buf.fill(0.0)
        elif zeros:
            np.copyto(buf, with_zeros(buf, seed=seed + index))
    u.tau = 0.3
    return u, bg, dynamics.Couplings(u.model, lam=1.0)


def same_bits(a, b):
    """Equal dtype, shape and bytes: every value, the sign of every zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def states_same_bits(u, v):
    return u.tau == v.tau and all(same_bits(getattr(u, name), getattr(v, name))
                                  for name in lattice.FIELDS)


def assert_same_states(got, ref):
    for field in lattice.FIELDS:
        assert same_bits(getattr(got, field), getattr(ref, field)), field


def with_zeros(fld, seed):
    """fld with a tenth of its entries set to +0 and a tenth to -0 (parts of
    both signs on complex fields), where a reordered sum would flip a sign."""
    rng = np.random.default_rng(seed)
    out = fld.copy()
    pick = rng.random(fld.shape)
    out[pick < 0.1] = 0.0
    out[(pick >= 0.1) & (pick < 0.2)] = -0.0
    if np.iscomplexobj(out):
        out[(pick >= 0.2) & (pick < 0.25)] = complex(-0.0, 0.0)
        out[(pick >= 0.25) & (pick < 0.3)] = complex(0.0, -0.0)
    return out


def roll_diff(f, axis, grid):
    """The centered periodic stencil of lattice.diff written with np.roll."""
    ax = f.ndim - 3 + axis
    if grid.order == 2:
        return (np.roll(f, -1, ax) - np.roll(f, 1, ax)) / (2.0 * grid.dx)
    return (8.0 * (np.roll(f, -1, ax) - np.roll(f, 1, ax))
            - (np.roll(f, -2, ax) - np.roll(f, 2, ax))) / (12.0 * grid.dx)


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


def traced_peak(fn):
    """(result, bytes of the traced peak beyond what was allocated before)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def force_threads(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
