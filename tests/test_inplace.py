"""rhs, the RK4 step, evolve, diff and covariant_d write into buffers the
caller keeps, with the same bits as the calls that allocate their results.

Buffers are pre-filled with NaN, so an entry the buffered call forgets to
write shows up as a difference.
"""

import gc
import weakref

import numpy as np
import pytest

from ymtorus import algebra, dynamics, geometry, lattice
from ymtorus.errors import InputError
from conftest import make_state
from test_report_reuse import fresh_stage_step, states_same_bits

MODELS = {"u1_toy": algebra.u1_toy, "su2_toy": algebra.su2_toy,
          "su3_pure": algebra.su3_pure}
BACKGROUNDS = {
    "flat": lambda: geometry.static_flat(geometry.ScaleProfile("desitter", a=1.0)),
    "bianchi1": lambda: geometry.bianchi1(geometry.ScaleProfile("desitter", a=1.0), eps=0.2),
}
DTAU = 0.02


@pytest.fixture(params=[(m, b) for m in sorted(MODELS) for b in sorted(BACKGROUNDS)],
                ids=lambda p: "-".join(p))
def case(request):
    name, bg_name = request.param
    model, bg = MODELS[name](), BACKGROUNDS[bg_name]()
    u = make_state(lattice.Grid(8), model, bg, seed=31, amplitude=0.1)
    u.tau = 0.3
    return u, bg, dynamics.Couplings(model, lam=1.0)


def nan_state(u):
    buf = lattice.FieldState.zeros(u.grid, u.model, tau=-1.0)
    for name in lattice.FIELDS:
        getattr(buf, name).fill(np.nan)
    return buf


def test_rhs_into_buffer_is_bit_identical(case):
    u, bg, coup = case
    buf = nan_state(u)
    into = dynamics.rhs(u, bg, coup, out=buf)
    assert into is buf
    assert states_same_bits(into, dynamics.rhs(u, bg, coup))


def test_rhs_rejects_its_own_input(case):
    u, bg, coup = case
    with pytest.raises(InputError, match="cannot write into the state it reads"):
        dynamics.rhs(u, bg, coup, out=u)


def test_step_with_work_matches_fresh_stages(case):
    u, bg, coup = case
    before = u.copy()
    expect = fresh_stage_step(u, bg, coup, DTAU)
    work = (nan_state(u), nan_state(u), nan_state(u))
    out = dynamics.step(u, bg, coup, DTAU, work=work)
    assert out is work[0] and states_same_bits(out, expect)
    # k1 in work's own k, as evolve passes it; the buffers hold the last step
    k1 = dynamics.rhs(u, bg, coup, out=work[2])
    assert states_same_bits(dynamics.step(u, bg, coup, DTAU, k1=k1, work=work), expect)
    assert states_same_bits(u, before)


def test_evolve_reuses_buffers_without_changing_bits(case):
    u, bg, coup = case
    before = u.copy()
    seen = []

    def callback(m, state, du):
        assert states_same_bits(du, dynamics.rhs(state, bg, coup))
        seen.append(m)

    final = dynamics.evolve(u, bg, coup, DTAU, 5, callback=callback)
    assert seen == list(range(6))
    assert states_same_bits(u, before)
    expect = u
    for _ in range(5):
        expect = dynamics.step(expect, bg, coup, DTAU)
    assert states_same_bits(final, expect)
    assert states_same_bits(dynamics.evolve(u, bg, coup, DTAU, 5), expect)


def test_evolve_holds_step_buffers_only_while_stepping(monkeypatch):
    # the first and the last report run without the three step buffers, so a
    # report's temporaries never sit beside five resident states
    model, bg = MODELS["su2_toy"](), BACKGROUNDS["bianchi1"]()
    u = make_state(lattice.Grid(8), model, bg, seed=31, amplitude=0.1)
    made, zeros = [], lattice.FieldState.zeros

    def tracked(*args, **kwargs):
        state = zeros(*args, **kwargs)
        made.append(weakref.ref(state))
        return state

    monkeypatch.setattr(lattice.FieldState, "zeros", tracked)
    alive = []

    def callback(m, state, du):
        gc.collect()
        alive.append(sum(ref() is not None for ref in made))

    dynamics.evolve(u, bg, dynamics.Couplings(model, lam=1.0), DTAU, 3, callback=callback)
    assert alive == [1, 4, 4, 2]  # k; k and the three step buffers; k and the result


@pytest.mark.parametrize("kind", ["adjoint", "higgs", "spinor"])
@pytest.mark.parametrize("bvec", [None, (1.0, 1.3, 0.8)])  # b_0 = 1 skips the division
def test_diff_and_covariant_d_into_views(kind, bvec):
    model = algebra.su2_toy()
    bg = BACKGROUNDS["bianchi1"]()
    u = make_state(lattice.Grid(8), model, bg, seed=32, amplitude=0.1)
    fld = {"adjoint": u.E, "higgs": u.Z, "spinor": u.S}[kind]
    II = bg.II(0.3)
    for k in range(3):
        view = np.full((2,) + fld.shape, np.nan, dtype=fld.dtype)[1]  # contiguous view
        assert lattice.diff(fld, k, u.grid, out=view) is view
        assert np.array_equal(view, lattice.diff(fld, k, u.grid))
        view.fill(np.nan)
        lattice.covariant_d(fld, k, u.eta, model, u.grid, kind, bvec=bvec, II=II, out=view)
        assert np.array_equal(view, lattice.covariant_d(fld, k, u.eta, model, u.grid, kind,
                                                        bvec=bvec, II=II))
    strided = np.empty(fld.shape + (2,), dtype=fld.dtype)[..., 0]
    for bad in (strided, np.empty(fld.shape[1:], dtype=fld.dtype)):
        with pytest.raises(InputError, match="C-contiguous"):
            lattice.diff(fld, 0, u.grid, out=bad)
        with pytest.raises(InputError, match="C-contiguous"):
            lattice.covariant_d(fld, 0, u.eta, model, u.grid, kind, out=bad)
