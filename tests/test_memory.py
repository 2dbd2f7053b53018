"""A run holds four states, and covariant derivatives and chain tops make no
whole-field temporaries, with the bits of the code that made them.

The references below are the covariant derivative, the fiber kernel and the
Sobolev chain as they were written when the fiber terms were added as whole
fields and the chain's last level was stacked before it was summed.  The new
code must match them bit for bit, signs of zero included.  Peaks are
measured with tracemalloc, which sees numpy's data buffers.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from ymtorus import algebra, clifford, dynamics, energy, geometry, lattice
from ymtorus.errors import InputError
from conftest import make_state

MODELS = {"u1_toy": algebra.u1_toy, "su2_toy": algebra.su2_toy,
          "su3_pure": algebra.su3_pure}
BIANCHI = geometry.bianchi1(geometry.ScaleProfile("desitter", a=1.0), eps=0.2)
TAU = 0.3


# ---------------------------------------------------------------------------
# References: whole-field fiber terms and a stacked last level
# ---------------------------------------------------------------------------

def ref_fiber_apply(terms, xi, x, axis=0):
    lead = (slice(None),) * axis
    grid = np.broadcast_shapes(xi.shape[1:], x.shape[axis + 1:])
    out = np.zeros(x.shape[:axis] + (terms.dim_out,) + grid,
                   dtype=np.result_type(terms.dtype, xi, x))
    for b, c, coeffs in terms.pairs:
        (a, w), rest = coeffs[0], coeffs[1:]
        M = xi[a] if w == 1 else w * xi[a]
        for a, w in rest:
            M = M + w * xi[a]
        out[lead + (c,)] += M * x[lead + (b,)]
    return out


def ref_covariant_d(fld, k, eta, model, grid, kind, frame=geometry.UNIT):
    b, II = frame.b, frame.II
    dk = lattice.diff(fld, k, grid)
    if b[k] != 1.0:
        lattice._divide(dk, b[k])
    if not lattice.drops_connection(lattice.Connection(eta, model), kind):
        if kind not in model.terms:
            raise InputError("unknown fiber kind %r" % kind)
        dk += ref_fiber_apply(model.terms[kind], eta[k], fld, axis=fld.ndim - 4)
    if kind == "spinor" and II[k]:
        spin = clifford.gamma_apply(clifford.G0G[k], np.moveaxis(fld, -5, 0))
        spin *= 0.5 * II[k]
        dk += np.moveaxis(spin, 0, -5)
    return dk


def ref_covariant_diff(fld, eta, model, grid, kind, frame=geometry.UNIT):
    return np.stack([ref_covariant_d(fld, k, eta, model, grid, kind, frame)
                     for k in range(3)])


def ref_sobolev_norms(fld, k, eta, model, grid, kind, frame=geometry.UNIT, weight=1.0):
    if lattice.drops_connection(lattice.Connection(eta, model), kind):
        return lattice.fourier_sobolev_norms(fld, k, grid, kind, frame, weight=weight)
    cur, total = fld, lattice.sq_norm(fld)
    norms = [float(total * weight)]
    for _ in range(k):
        cur = ref_covariant_diff(cur, eta, model, grid, kind, frame)
        total += lattice.sq_norm(cur)
        norms.append(float(total * weight))
    return norms


def same_values_and_signs(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


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


def field(u, kind, lead):
    """A field of the kind with `lead` leading 1-form axes (0, 1 or 2)."""
    base = {"adjoint": u.E[0], "higgs": u.phi, "spinor": u.psi}[kind]
    stack = [base, {"adjoint": u.E, "higgs": u.Z, "spinor": u.S}[kind]][min(lead, 1)]
    if lead == 2:
        stack = np.stack([stack, -stack[::-1], 0.5 * stack])
    return with_zeros(stack, seed=lead)


# ---------------------------------------------------------------------------
# Bits
# ---------------------------------------------------------------------------

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
        ref = ref_covariant_d(fld, k, eta, u.model, u.grid, kind, frame)
        assert same_values_and_signs(new, ref), (k, "covariant_d")
    if lead < 2:  # the chain's levels add the leading axes
        for top in (1, 2, 3):
            new = energy.sobolev_norms(fld, top, conn, u.grid, kind, frame, 0.7)
            assert new == ref_sobolev_norms(fld, top, eta, u.model, u.grid, kind, frame, 0.7)


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
            assert same_values_and_signs(algebra._fiber_apply(terms, *args),
                                         ref_fiber_apply(terms, *args))
        base = with_zeros(rng.standard_normal(x.shape) + 0j, seed=4)
        added = algebra._fiber_apply(terms, xi, x, 1, out=base.copy())
        assert same_values_and_signs(added, base + ref_fiber_apply(terms, xi, x, 1))


# ---------------------------------------------------------------------------
# Peaks
# ---------------------------------------------------------------------------

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
