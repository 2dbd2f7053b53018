"""A run holds four states, and covariant derivatives and chain tops make no
whole-field temporaries, with the bits of the code that made them.

tests/reference.py adds the fiber terms as whole fields and stacks a chain's
last level before it is summed.  The covariant derivative, the fiber kernel
and the Sobolev chain must match it bit for bit, signs of zero included.
Peaks are measured with tracemalloc, which sees numpy's data buffers.
"""


import numpy as np
import pytest

import reference
from ymtorus import algebra, dynamics, energy, geometry, lattice
from conftest import BACKGROUNDS, MODELS, make_state, same_bits, traced_peak, with_zeros

BIANCHI = BACKGROUNDS["bianchi1"]()
TAU = 0.3


# ---------------------------------------------------------------------------
# Bits
# ---------------------------------------------------------------------------

def field(u, kind, lead):
    """A field of the kind with `lead` leading 1-form axes (0, 1 or 2)."""
    base = {"adjoint": u.E[0], "higgs": u.phi, "spinor": u.psi}[kind]
    stack = [base, {"adjoint": u.E, "higgs": u.Z, "spinor": u.S}[kind]][min(lead, 1)]
    if lead == 2:
        stack = np.stack([stack, -stack[::-1], 0.5 * stack])
    return with_zeros(stack, seed=lead)


FRAMES = {"unit": geometry.UNIT, "bianchi1": BIANCHI.frame(TAU),
          "skew": geometry.Frame((1.0, 1.3, 0.8), (0.2, -0.3, 0.1))}


@pytest.mark.parametrize("frame", sorted(FRAMES))
@pytest.mark.parametrize("lead", [0, 1, 2])
@pytest.mark.parametrize("kind", ["adjoint", "higgs", "spinor"])
@pytest.mark.parametrize("name", sorted(MODELS))
def test_covariant_d_and_norms_keep_the_bits(name, kind, lead, frame):
    u = make_state(lattice.Grid(8), MODELS[name](), BIANCHI, seed=41, amplitude=0.1)
    fld, eta = field(u, kind, lead), with_zeros(u.eta, seed=7)
    frame, conn = FRAMES[frame], lattice.Connection(eta, u.model)
    for k in range(3):
        new = lattice.covariant_d(fld, k, conn, u.grid, kind, frame)
        ref = reference.covariant_d(fld, k, eta, u.model, u.grid, kind, frame)
        assert same_bits(new, ref), (k, "covariant_d")
    if lead < 2:  # the chain's levels add the leading axes
        for top in (1, 2, 3):
            new = energy.sobolev_norms(fld, top, conn, u.grid, kind, frame, 0.7)
            assert new == reference.sobolev_norms(fld, top, eta, u.model, u.grid, kind, frame,
                                                  0.7)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_fiber_kernel_keeps_the_bits(name):
    model = MODELS[name]()
    rng = np.random.default_rng(3)
    grid = (4, 4, 4)
    for terms, dim_xi, dim_x in ((model.lie.terms, model.dim_g, model.dim_g),
                                 (model.rho.terms, model.dim_g, model.dim_W),
                                 (model.chi.terms, model.dim_g, model.dim_V),
                                 (model.yukawa.terms, 2 * model.dim_W, model.dim_V)):
        xi = with_zeros(rng.standard_normal((dim_xi,) + grid), seed=1)
        x = with_zeros(rng.standard_normal((4, dim_x) + grid)
                       + 1j * rng.standard_normal((4, dim_x) + grid), seed=2)
        for args in ((xi, x[0]), (xi[:, 0, 0, 0], x[0]), (xi, x[0, :, 0, 0, 0]), (xi, x, 1)):
            assert same_bits(algebra._fiber_apply(terms, *args), reference.fiber_apply(terms, *args))
        base = with_zeros(rng.standard_normal(x.shape) + 0j, seed=4)
        added = algebra._fiber_apply(terms, xi, x, 1, out=base.copy())
        assert same_bits(added, base + reference.fiber_apply(terms, xi, x, 1))


# ---------------------------------------------------------------------------
# Peaks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def su2_n16():
    return make_state(lattice.Grid(16), algebra.su2_toy(), BIANCHI, seed=5, amplitude=0.1)


@pytest.mark.parametrize("name", ["psi", "S"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_covariant_d_allocates_at_most_half_its_output(su2_n16, name, k):
    # the connection term goes in one fiber component and leading index at a
    # time, the spin-connection term one spin row at a time; whole-field
    # terms took about twice the output beside it
    u, frame = su2_n16, geometry.Frame((1.0, 1.3, 0.8), (0.2, -0.3, 0.1))
    fld = getattr(u, name)
    conn = lattice.Connection(u.eta, u.model)
    out, peak = traced_peak(lambda: lattice.covariant_d(
        fld, k, conn, u.grid, "spinor", frame))
    assert peak - out.nbytes <= 0.5 * out.nbytes


@pytest.mark.parametrize("name, kind", [("psi", "spinor"), ("Z", "higgs")])
def test_sobolev_norms_store_no_last_level(su2_n16, name, kind):
    # beyond level 1, a k = 2 chain holds the float squares of level 2 (half
    # its bytes) and one direction's block; a stacked level 2 alone would
    # reach its full size, and its squares took half as much again
    u = su2_n16
    fld, conn = getattr(u, name), lattice.Connection(u.eta, u.model)
    _, peak = traced_peak(lambda: energy.sobolev_norms(
        fld, 2, conn, u.grid, kind, BIANCHI.frame(TAU)))
    level1, level2 = 3 * fld.nbytes, 9 * fld.nbytes
    assert peak - level1 < level2


def test_evolve_peak_holds_three_states_beside_u():
    # k and two spares, plus about 1.5 states of rhs temporaries (4.5 states
    # in all); three step buffers beside k made it 5.5
    model = algebra.su2_toy()
    u = make_state(lattice.Grid(12), model, BIANCHI, seed=9, amplitude=0.1)
    state_bytes = sum(buf.nbytes for buf in u.sectors.values())
    coup = dynamics.Couplings(model, lam=1.0)
    result, peak = traced_peak(lambda: dynamics.evolve(u, BIANCHI, coup, 0.02, 3))
    assert result is u
    assert peak < 5 * state_bytes
