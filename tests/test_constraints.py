import numpy as np

from ymtorus import algebra, constraints, lattice
from conftest import BACKGROUNDS, make_state


def test_zero_state_all_constraints_vanish(su2_model, flat_bg):
    grid = lattice.Grid(8)
    u = lattice.FieldState.zeros(grid, su2_model)
    rep = constraints.constraint_report(u, flat_bg)
    assert rep.curvature == rep.bianchi == rep.gauss == rep.dirac == 0.0


def test_curvature_constraint_stencil_consistency(u1_model):
    # Q from an analytic curl of an analytic eta: residual O(dx^4)
    errs = {}
    for n in (16, 32):
        grid = lattice.Grid(n)
        u = lattice.FieldState.zeros(grid, u1_model)
        x = np.arange(n) * grid.dx
        X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
        u.eta[1, 0] = np.sin(2 * X)          # eta = sin(2x) e^y
        u.Q[2, 0] = 2 * np.cos(2 * X)        # curl -> 2 cos(2x) e^z
        G = constraints.curvature_constraint(u)
        errs[n] = np.abs(G).max()
    assert np.log2(errs[16] / errs[32]) > 3.8
    # discrete-exact version: Q from complete_state
    grid = lattice.Grid(8)
    u = lattice.random_state(grid, u1_model, 1, 0.5)
    constraints.complete_state(u, None)
    assert np.abs(constraints.curvature_constraint(u)).max() < 1e-13
    # negative control
    u.Q += 1.0
    assert np.abs(constraints.curvature_constraint(u)).max() > 0.5


def test_bianchi_follows_from_curvature(su2_model):
    grid = lattice.Grid(12)
    u = lattice.random_state(grid, su2_model, 2, 0.4)
    constraints.complete_state(u, None)
    rep = constraints.constraint_report(u)
    # discrete curvature-consistent Q: Bianchi residual at discretization level
    assert rep.bianchi < 1e-4 * max(1.0, np.abs(u.Q).max())
    # random unrelated Q: O(1) residual
    rng = np.random.default_rng(3)
    u.Q[:] = rng.standard_normal(u.Q.shape)
    assert constraints.constraint_report(u).bianchi > 1e3 * rep.bianchi


def test_gauss_divcurl_identity(u1_model):
    grid = lattice.Grid(8)
    u = lattice.FieldState.zeros(grid, u1_model)
    rng = np.random.default_rng(4)
    A = rng.standard_normal((3, 1) + grid.shape)
    # E = discrete curl of A: divergence vanishes exactly (stencils commute)
    for i in range(3):
        acc = np.zeros((1,) + grid.shape)
        for j in range(3):
            for k in range(3):
                if lattice.EPS[i, j, k]:
                    acc += lattice.EPS[i, j, k] * lattice.diff(A[k], j, grid)
        u.E[i] = acc
    assert constraints.constraint_report(u).gauss < 1e-13
    # negative control: E = grad(phi) has C0 = discrete laplacian != 0
    phi = rng.standard_normal(grid.shape)
    for i in range(3):
        u.E[i, 0] = lattice.diff(phi, i, grid)
    assert constraints.constraint_report(u).gauss > 1e-3


def test_dirac_constraint_definitional(su2_model, flat_bg):
    grid = lattice.Grid(8)
    u = make_state(grid, su2_model, flat_bg, seed=5, amplitude=0.3)
    # psidot was set from the constraint formula
    assert constraints.constraint_report(u, flat_bg).dirac < 1e-13
    u.psidot += 0.01
    assert constraints.constraint_report(u, flat_bg).dirac > 1e-3


def test_gauss_solver(su2_model, flat_bg):
    grid = lattice.Grid(8)
    # all-zero input stays zero
    u = lattice.FieldState.zeros(grid, su2_model)
    info = constraints.solve_gauss_initial(u, flat_bg, cg_tol=1e-11)
    assert np.abs(u.E).max() == 0.0 and info["iterations"] == 0
    assert info["converged"]
    # seed E = gradient of a known potential, no sources: the projection
    # removes it entirely (abelian model, where the adjoint action is trivial
    # and the solve is an exact discrete Poisson inversion)
    m1 = algebra.u1_toy()
    u = lattice.FieldState.zeros(grid, m1)
    rng = np.random.default_rng(6)
    u.eta[:] = 0.3 * rng.standard_normal((3, 1) + grid.shape)
    phi0 = rng.standard_normal((1,) + grid.shape)
    u.E[:] = lattice.covariant_diff(phi0, lattice.Connection(u.eta, m1), grid, "adjoint",
                                    flat_bg.frame(u.tau))
    constraints.solve_gauss_initial(u, flat_bg, cg_tol=1e-12)
    assert np.abs(u.E).max() < 1e-9
    # random small data: post-solve residual below the spec tolerance plus
    # the logged harmonic obstruction
    u = make_state(grid, su2_model, flat_bg, seed=7, amplitude=0.01)
    info = constraints.solve_gauss_initial(u, flat_bg, cg_tol=1e-10)
    rep = constraints.constraint_report(u, flat_bg)
    w = flat_bg.frame(0.0).sqrt_g * grid.cell_volume
    obstruction = info["removed_mean_norm"] * np.sqrt(grid.n ** 3 * w)
    assert rep.gauss <= 1e-10 + obstruction * 1.0001


def test_gauss_solver_reports_stencil_blind_source(u1_model, flat_bg):
    # a checkerboard charge density: every centered stencil maps it to zero,
    # so CG meets p.Ap = 0 at once and must not report convergence
    grid = lattice.Grid(8)
    i, j, k = np.indices(grid.shape)
    checker = (-1.0) ** (i + j + k)
    u = lattice.FieldState.zeros(grid, u1_model)
    u.phi[:] = 1.0
    u.phidot[:] = -1j * checker
    assert np.abs(constraints.gauss_constraint(u, flat_bg) + checker).max() < 1e-15
    info = constraints.solve_gauss_initial(u, flat_bg, cg_tol=1e-10)
    assert info["converged"] is False
    assert info["iterations"] == 0
    assert info["residual"] > 1.0


def test_cg_operator_symmetry(su2_model, flat_bg):
    grid = lattice.Grid(8)
    u = make_state(grid, su2_model, flat_bg, seed=8, amplitude=0.2)
    assert constraints.operator_symmetry_defect(u, flat_bg) < 1e-12


def test_gauss_covariance_under_gauge(su2_model, flat_bg):
    errs = {}
    for n in (12, 24):
        grid = lattice.Grid(n)
        u = make_state(grid, su2_model, flat_bg, seed=9, amplitude=0.2)
        gt = lattice.GaugeTransform.random_smooth(grid, su2_model, seed=10, amplitude=0.2)
        ug = lattice.apply_gauge(u, gt)
        c_of_transformed = constraints.gauss_constraint(ug, flat_bg)
        lie = su2_model.lie
        U = gt.matrices(lie.defining)
        Uinv = np.conj(np.moveaxis(U, 0, 1))
        adC = lie.from_matrix(np.einsum(
            "ab...,bc...,cd...->ad...", U,
            lie.to_matrix(constraints.gauss_constraint(u, flat_bg)), Uinv))
        errs[n] = np.abs(c_of_transformed - adC).max()
    assert np.log2(errs[12] / errs[24]) > 3.2


def test_propagation_monitor_and_orders():
    reports = [constraints.ConstraintReport(0.1 * m, 1e-12, 1e-12, 1e-8, 1e-10)
               for m in range(5)]
    mon = constraints.propagation_monitor(reports)
    assert mon["initial"]["gauss"] == 1e-8
    assert mon["max"]["curvature"] == 1e-12
    assert constraints.observed_order(16.0, 1.0) == 4.0
    assert constraints.observed_order(1.0, 0.0) == np.inf


def test_complete_state_consistency(su2_model, desitter_bg):
    grid = lattice.Grid(8)
    u = make_state(grid, su2_model, desitter_bg, seed=11, amplitude=0.1)
    assert constraints.s_consistency(u, desitter_bg) == 0.0
    assert np.abs(constraints.curvature_constraint(u, desitter_bg)).max() < 1e-13
    assert np.abs(constraints.dirac_constraint(u)).max() < 1e-14


def test_s_consistency_keeps_the_bits_of_the_difference_field_norm(su2_model):
    # formed direction by direction, without S - recompute_S, in the same sum
    bg = BACKGROUNDS["bianchi1"]()
    u = make_state(lattice.Grid(8), su2_model, bg, seed=5, amplitude=0.1)
    rng = np.random.default_rng(2)
    u.S += 1e-3 * (rng.standard_normal(u.S.shape) + 1j * rng.standard_normal(u.S.shape))
    u.tau = 0.3  # b_1 != 1 and II_1 != 0: the division and the spin connection run
    expect = constraints.l2_norm(u.S - constraints.recompute_S(u, bg),
                                 constraints.volume_weight(u, bg))
    assert expect > 0.0
    assert constraints.s_consistency(u, bg) == expect
    assert constraints.constraint_report(u, bg).s_consistency == expect
