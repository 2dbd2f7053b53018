"""The closed-form Sobolev norms against the covariant-derivative chain.

Where D_k has constant coefficients (the flat reference connection, or a
connection that acts by zero) lattice.fourier_sobolev_norms sums every H^l
from one FFT.  The chain of lattice.covariant_diff stays the reference; the
sums are reassociated, so the two agree to rounding only.
"""

import numpy as np
import pytest

from ymtorus import algebra, energy, geometry, lattice

RTOL = 1e-13
BVEC = np.array([0.8, 1.25, 1.05])
II = np.array([0.3, -0.45, 0.2])
FRAME, SCALES = geometry.Frame(BVEC, II), geometry.Frame(BVEC)


def chain_norms(fld, k, conn, grid, kind, frame, weight):
    total = np.sum(np.abs(fld) ** 2)
    norms, cur = [float(total * weight)], fld
    for _ in range(k):
        cur = lattice.covariant_diff(cur, conn, grid, kind, frame)
        total += np.sum(np.abs(cur) ** 2)
        norms.append(float(total * weight))
    return norms


# kind -> (fiber shape of a field, complex); the spinor shapes are psi and S
FIELDS = {"adjoint": [((3, 3), False), ((3,), False)],
          "higgs": [((2,), True), ((3, 2), True)],
          "spinor": [((4, 2), True), ((3, 4, 2), True)]}


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_closed_form_matches_the_chain(n, order, kind):
    model = algebra.su2_toy()
    grid = lattice.Grid(n, L=1.7, order=order)
    rng = np.random.default_rng(100 * n + order)
    for shape, complex_field in FIELDS[kind]:
        fld = rng.standard_normal(shape + grid.shape)
        if complex_field:
            fld = fld + 1j * rng.standard_normal(fld.shape)
        for frame in ((FRAME, SCALES) if kind == "spinor" else (SCALES,)):
            fourier = lattice.fourier_sobolev_norms(fld, 4, grid, kind, frame, weight=0.3)
            chain = chain_norms(fld, 4, None, grid, kind, frame, 0.3)
            assert fourier[0] == chain[0]  # H^0 is the same direct sum
            assert fourier == pytest.approx(chain, rel=RTOL, abs=0)
            for k in range(5):
                assert lattice.fourier_sobolev_norms(fld, k, grid, kind, frame,
                                                     weight=0.3) == fourier[:k + 1]


@pytest.mark.parametrize("order", [2, 4])
def test_sobolev_norms_use_the_closed_form_where_the_connection_drops(order):
    # the u(1) adjoint and su3_pure's trivial representations act by zero, so
    # the evolved connection gives the reference chain's norms
    grid = lattice.Grid(8, order=order)
    rng = np.random.default_rng(order)
    for model, kind, shape in ((algebra.u1_toy(), "adjoint", (3, 1)),
                               (algebra.su3_pure(), "higgs", (1,)),
                               (algebra.su3_pure(), "spinor", (4, 1))):
        assert not model.acts[kind]
        conn = lattice.Connection(rng.standard_normal((3, model.dim_g) + grid.shape), model)
        fld = rng.standard_normal(shape + grid.shape) + 1j * rng.standard_normal(
            shape + grid.shape)
        frame = FRAME if kind == "spinor" else SCALES
        norms = energy.sobolev_norms(fld, 3, conn, grid, kind, frame)
        assert norms == lattice.fourier_sobolev_norms(fld, 3, grid, kind, frame)
        assert norms == pytest.approx(
            chain_norms(fld, 3, conn, grid, kind, frame, 1.0), rel=RTOL, abs=0)


@pytest.mark.parametrize("kind", ["adjoint", "higgs"])
def test_no_spin_connection_shift_off_spinors(kind):
    # II enters covariant_d on spinors alone, so with II != 0 and the
    # connection dropped the Fourier sums of another kind take no II^2 / 4
    model, grid = algebra.su2_toy(), lattice.Grid(8)
    frame = geometry.Frame((1.0, 1.3, 0.8), (0.1, -0.2, 0.05))
    rng = np.random.default_rng(5)
    for shape, complex_field in FIELDS[kind]:
        fld = rng.standard_normal(shape + grid.shape)
        if complex_field:
            fld = fld + 1j * rng.standard_normal(fld.shape)
        norms = energy.sobolev_norms(fld, 2, None, grid, kind, frame)
        assert norms == pytest.approx(
            chain_norms(fld, 2, None, grid, kind, frame, 1.0), rel=RTOL, abs=0)


@pytest.mark.parametrize("n", [8, 9])
@pytest.mark.parametrize("order", [2, 4])
def test_diff_of_a_fourier_mode_is_the_modified_wavenumber(n, order):
    grid = lattice.Grid(n, L=1.7, order=order)
    s = lattice.modified_wavenumber(grid)
    x = np.arange(n) * grid.dx
    kappa = 2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx)
    for m in range(n):
        wave = np.exp(1j * kappa[m] * x)
        for axis in range(3):
            shape = [1, 1, 1]
            shape[axis] = n
            mode = np.broadcast_to(wave.reshape(shape), grid.shape)
            assert np.allclose(lattice.diff(mode, axis, grid), 1j * s[m] * mode,
                               rtol=0, atol=1e-12 * (1 + abs(s[m])))
