"""Constraint floors and drift on a nonabelian de Sitter run.

Random band-limited data is completed into a constraint-consistent state:
Q is defined exactly by the discrete curvature of eta, Z/S/psidot by their
defining formulas, and E by a covariant Poisson projection (conjugate
gradient).  On the compact torus the matter can carry a net charge that no
periodic field can source; that harmonic obstruction is projected out of
the Gauss source and logged - it shows up as a constant floor in the Gauss
norm, while the genuine discretization drift sits orders of magnitude
below and is visible in the fieldwise drift column.
"""

import numpy as np

from ymtorus import algebra, constraints, dynamics, geometry, lattice

model = algebra.su2_toy()
grid = lattice.Grid(16)
bg = geometry.static_flat(geometry.ScaleProfile("desitter", a=1.0))
coup = dynamics.Couplings(model, lam=1.0)

u = lattice.random_state(grid, model, seed=1001, amplitude=0.01, cutoff=2)
constraints.complete_state(u, bg)
print("before Gauss solve : ||C0|| = %.3e" % constraints.constraint_report(u, bg).gauss)
info = constraints.solve_gauss_initial(u, bg, cg_tol=1e-10)
print("after  Gauss solve : ||C0|| = %.3e  (%d CG iterations, "
      "removed charge mean %.2e)" % (info["residual"], info["iterations"],
                                     info["removed_mean_norm"]))

c0_fields = constraints.constraint_fields(u, bg)
dtau = 0.1 * grid.dx
w = bg.frame(0.0).sqrt_g * grid.cell_volume
print("\n tau     curvature   bianchi     gauss       dirac      gauss drift")
st = u
for m in range(37):
    if m % 6 == 0:
        rep = constraints.constraint_report(st, bg)
        cf = constraints.constraint_fields(st, bg)
        drift = np.sqrt(np.sum((cf["gauss"] - c0_fields["gauss"]) ** 2) * w)
        print(" %.3f   %.3e   %.3e   %.3e   %.3e   %.3e"
              % (st.tau, rep.curvature, rep.bianchi, rep.gauss, rep.dirac, drift))
    st = dynamics.step(st, bg, coup, dtau)

print("\ncurvature and Bianchi stay at machine precision (their discrete")
print("propagation is exact up to the integrator), the Gauss norm sits on")
print("the charge-obstruction floor, and the fieldwise drift underneath")
print("refines at fourth order with the grid and the step.")
