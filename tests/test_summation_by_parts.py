"""Summation by parts of the covariant derivative, as a property over random
fields: sum conj(f) (D_k g) = -sum conj(D_k f) g for the stencil plus the
fiber action of a random connection (no spin-connection term, II = None).

The centered periodic stencil is antisymmetric and every fiber action is
anti-Hermitian at each site, so D_k is anti-Hermitian.  Skipped without
hypothesis.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ymtorus import geometry, lattice  # noqa: E402
from conftest import MODELS  # noqa: E402


def random_field(rng, shape, real):
    f = rng.standard_normal(shape)
    return f if real else f + 1j * rng.standard_normal(shape)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)),
       kind=st.sampled_from(["adjoint", "higgs", "spinor"]),
       order=st.sampled_from([2, 4]),
       n=st.integers(4, 7),
       k=st.integers(0, 2),
       bvec=st.lists(st.floats(0.25, 4.0), min_size=3, max_size=3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_covariant_d_sums_by_parts(name, kind, order, n, k, bvec, seed):
    model = MODELS[name]()
    grid = lattice.Grid(n, L=1.9, order=order)
    rng = np.random.default_rng(seed)
    fiber = {"adjoint": (model.dim_g,), "higgs": (model.dim_W,),
             "spinor": (4, model.dim_V)}[kind]
    f, g = (random_field(rng, fiber + grid.shape, kind == "adjoint") for _ in range(2))
    conn = lattice.Connection(rng.standard_normal((3, model.dim_g) + grid.shape), model)
    Df = lattice.covariant_d(f, k, conn, grid, kind, geometry.Frame(bvec))
    Dg = lattice.covariant_d(g, k, conn, grid, kind, geometry.Frame(bvec))
    lhs, rhs = np.vdot(f, Dg), -np.vdot(Df, g)
    scale = np.sum(np.abs(np.conj(f) * Dg)) + np.sum(np.abs(np.conj(Df) * g))
    assert abs(lhs - rhs) <= 1e-12 * scale
