"""ymtorus: Yang-Mills-Higgs-Dirac evolution on an expanding periodic 3-torus.

The simulation frame is a Gaussian-foliated spacetime -dtau^2 + g_tau with
homogeneous diagonal spatial metrics g_tau = diag(b1^2, b2^2, b3^2) on the
flat torus [0, L)^3.  All field components are taken in the adapted
orthonormal frame e_0 = d/dtau, e_i = b_i(tau)^-1 d/dx^i, so the metric
enters only through frame-scaled derivatives, the extrinsic curvature and
the volume weight b1*b2*b3.

Array conventions (grid axes always trail):

==================  =======================================  =========
quantity            shape                                    dtype
==================  =======================================  =========
Lie-algebra scalar  (dim_g, n, n, n)                         float64
Lie-valued 1-form   (3, dim_g, n, n, n)                      float64
Higgs scalar        (dim_W, n, n, n)                         complex128
Higgs 1-form        (3, dim_W, n, n, n)                      complex128
twisted spinor      (4, dim_V, n, n, n)                      complex128
spinor 1-form       (3, 4, dim_V, n, n, n)                   complex128
==================  =======================================  =========

A lattice.FieldState holds the nine fields of the state as views into three
flat sector buffers, u.sectors["gauge" | "higgs" | "dirac"] (lattice.SECTORS:
eta, Q, E | phi, phidot, Z | psi, psidot, S); assigning a field copies into
its view.

Pointwise algebra (brackets, representation actions, Yukawa maps, Clifford
products, inner products) broadcasts over the trailing grid axes, so the
same functions work on single fiber vectors and on whole lattices.
"""

__version__ = "0.1.0"

from . import errors, algebra, clifford, geometry, lattice, dynamics, constraints
from . import energy, conformal, oracles, driver

__all__ = [
    "errors",
    "algebra",
    "clifford",
    "geometry",
    "lattice",
    "dynamics",
    "constraints",
    "energy",
    "conformal",
    "oracles",
    "driver",
]
