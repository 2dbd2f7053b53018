import numpy as np
import pytest

from ymtorus import algebra, geometry, lattice


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
    return geometry.static_flat(geometry.ScaleProfile("desitter", a=1.0))


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


def same_bits(a, b):
    """Equal dtype, shape and bytes: every value, the sign of every zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
