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
