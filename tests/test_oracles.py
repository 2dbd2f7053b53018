import numpy as np

from ymtorus import constraints, dynamics, geometry, lattice, oracles


def _stack_for(model, bg, n, seed=11, amp=0.25, dt_scale=0.1, lam=1.0):
    grid = lattice.Grid(n)
    u = lattice.random_state(grid, model, seed, amp, cutoff=1)
    u.tau = 0.4
    constraints.complete_state(u, bg)
    constraints.solve_gauss_initial(u, bg, cg_tol=1e-12)
    coup = dynamics.Couplings(model, lam=lam)
    return oracles.time_stack(u, bg, coup, dt_scale * grid.dx), coup


def _residuals(stack, bg, coup):
    return np.array([
        oracles.higgs_wave_residual(stack, bg, coup),
        oracles.dirac_wave_residual(stack, bg, coup),
        *oracles.em_wave_residuals(stack, bg, coup),
        oracles.current_divergence_residual(stack, bg, coup),
    ])


def test_wave_oracles_converge_u1_static(u1_model, desitter_bg):
    r = {}
    for n in (12, 24):
        stack, coup = _stack_for(u1_model, desitter_bg, n)
        r[n] = _residuals(stack, desitter_bg, coup)
    orders = np.log2(r[12] / r[24])
    assert np.all(orders > 3.5), orders


def test_wave_oracles_converge_su2_bianchi(su2_model):
    # all extrinsic-curvature terms active
    bg = geometry.bianchi1(geometry.ScaleProfile("desitter"), eps=0.3)
    r = {}
    for n in (12, 24):
        stack, coup = _stack_for(su2_model, bg, n)
        r[n] = _residuals(stack, bg, coup)
    orders = np.log2(r[12] / r[24])
    assert np.all(orders > 3.4), orders


def test_zero_state_oracles(su2_model, desitter_bg):
    grid = lattice.Grid(8)
    u = lattice.FieldState.zeros(grid, su2_model, tau=0.3)
    coup = dynamics.Couplings(su2_model, 1.0)
    stack = oracles.time_stack(u, desitter_bg, coup, 0.01)
    assert np.abs(_residuals(stack, desitter_bg, coup)).max() == 0.0
