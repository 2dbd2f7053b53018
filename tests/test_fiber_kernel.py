"""The sparse fiber-action kernel against the dense einsum formulas, and the
sign-folded kernel against the whole-array kernel that builds every pair's
matrix.

The dense contractions below multiply every entry of f, of the generators
and of the Yukawa blocks; they are the reference the term tables must reproduce, up to
the reassociation of the sums (rtol 1e-13 against the largest entry).  The
folded kernel, with components built per call or held by a lattice.Connection,
must give the bits of reference.fiber_apply, signs of zero included, and one
evaluation builds each direction's adjoint components once.
"""

import numpy as np
import pytest

from ymtorus import algebra, clifford, constraints, dynamics, energy, lattice
import reference
from conftest import BACKGROUNDS, make_state, same_bits, with_zeros

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

MODELS = {
    **algebra.SHIPPED_MODELS,
    "u1_mismatched_toy": algebra.u1_mismatched_toy,
    "custom_su2": lambda: algebra.custom_pure(algebra.LieData(algebra.su2().f)),
}
RTOL = 1e-13


def _assert_close(out, ref):
    assert out.shape == ref.shape
    scale = max(np.abs(ref).max(initial=0.0), 1.0)
    np.testing.assert_allclose(out, ref, rtol=RTOL, atol=RTOL * scale)


def _real(rng, shape):
    return rng.standard_normal(shape)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _on_grid(xi, grid):
    """A constant Lie vector broadcast over the grid, for the dense formulas."""
    return np.broadcast_to(xi.reshape(xi.shape + (1,) * (len(grid) + 1 - xi.ndim)),
                           xi.shape[:1] + grid)


models = st.sampled_from(sorted(MODELS))
sizes = st.integers(4, 5)
seeds = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=40, deadline=None)
@given(name=models, n=sizes, constant_xi=st.booleans(), seed=seeds)
def test_pointwise_actions_match_dense(name, n, constant_xi, seed):
    model = MODELS[name]()
    rng = np.random.default_rng(seed)
    grid = (n, n, n)
    xi = _real(rng, (model.dim_g,) + (() if constant_xi else grid))
    xg = _on_grid(xi, grid)

    Y = _real(rng, (model.dim_g,) + grid)
    _assert_close(algebra.bracket(model.lie, xi, Y),
                  np.einsum("abc,a...,b...->c...", model.lie.f, xg, Y))

    w = _complex(rng, (model.dim_W,) + grid)
    _assert_close(algebra.rho_star_apply(model.rho, xi, w),
                  np.einsum("avw,a...,w...->v...", model.rho.gen, xg, w))
    w = _complex(rng, (model.dim_W,))
    _assert_close(algebra.rho_star_apply(model.rho, xi, w),
                  np.einsum("avw,a...,w->v...", model.rho.gen, xi, w))

    psi = _complex(rng, (4, model.dim_V) + grid)
    _assert_close(algebra.chi_spinor_apply(model.chi, xi, psi),
                  np.einsum("avw,a...,sw...->sv...", model.chi.gen, xg, psi))

    for rep, shape in ((model.rho, (model.dim_W,)), (model.chi, (4, model.dim_V))):
        left = _complex(rng, shape + grid)
        right = _complex(rng, shape + grid)
        lead = "s" if len(shape) == 2 else ""
        ref = np.einsum("avw,%sv...,%sw...->a..." % (lead, lead), rep.gen, np.conj(left), right)
        _assert_close(algebra.current_pairing(rep, left, right), ref)


@settings(max_examples=40, deadline=None)
@given(name=models, n=sizes, n_lead=st.integers(0, 2), constant_xi=st.booleans(), seed=seeds)
def test_connection_action_matches_dense(name, n, n_lead, constant_xi, seed):
    model = MODELS[name]()
    rng = np.random.default_rng(seed)
    grid = (n, n, n)
    lead = (3,) * n_lead
    xi = _real(rng, (model.dim_g,) + (() if constant_xi else grid))
    xg = _on_grid(xi, grid)
    fields = {
        "adjoint": (_real(rng, lead + (model.dim_g,) + grid), model.lie.f),
        "higgs": (_complex(rng, lead + (model.dim_W,) + grid),
                  np.swapaxes(model.rho.gen, 1, 2)),
        "spinor": (_complex(rng, lead + (4, model.dim_V) + grid),
                   np.swapaxes(model.chi.gen, 1, 2)),
    }
    for kind, (fld, t) in fields.items():
        ref = np.einsum("abc,axyz,...bxyz->...cxyz", t, xg, fld)
        conn = lattice.Connection(np.stack([xi] * 3), model)
        _assert_close(lattice.connection_action(fld, conn, 0, kind), ref)


@pytest.mark.parametrize("n_lead", [0, 1, 2])
def test_abelian_and_trivial_actions_are_exact_zeros(n_lead):
    rng = np.random.default_rng(n_lead)
    grid = (4, 4, 4)
    lead = (3,) * n_lead
    u1 = algebra.u1_toy()
    assert u1.lie.terms.pairs == []
    X = _real(rng, (1,) + grid)
    assert not algebra.bracket(u1.lie, X, _real(rng, (1,) + grid)).any()
    conn = lattice.Connection(np.stack([X] * 3), u1)
    assert not lattice.connection_action(_real(rng, lead + (1,) + grid), conn, 0, "adjoint").any()

    su3 = algebra.su3_pure()
    xi = _real(rng, (8,) + grid)
    trivial = [su3.rho, su3.chi, algebra.su2_toy().chi_minus]
    for rep in trivial:
        assert rep.terms.pairs == []
        xi_rep = xi[:rep.dim_g]
        w = _complex(rng, (rep.dim_W,) + grid)
        psi = _complex(rng, (4, rep.dim_W) + grid)
        assert not algebra.rho_star_apply(rep, xi_rep, w).any()
        assert not algebra.chi_spinor_apply(rep, xi_rep, psi).any()
        assert not algebra.current_pairing(rep, psi, psi).any()
    for kind, fiber in (("higgs", (1,)), ("spinor", (4, 1))):
        fld = _complex(rng, lead + fiber + grid)
        assert not lattice.connection_action(fld, lattice.Connection(np.stack([xi] * 3), su3),
                                             0, kind).any()


def test_su3_table_keeps_only_nonzero_entries():
    lie = algebra.su3()
    entries = [(a, b, c) for b, c, coeffs in lie.terms.pairs for a, _ in coeffs]
    assert len(entries) == np.count_nonzero(lie.f) == 54
    assert all(lie.f[a, b, c] == w for b, c, coeffs in lie.terms.pairs for a, w in coeffs)


def test_list_inputs():
    e = np.eye(3)
    assert np.array_equal(algebra.bracket(algebra.su2(), [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), e[2])


# ---------------------------------------------------------------------------
# The Yukawa map on its term table
# ---------------------------------------------------------------------------

def _dense_yukawa(yuk, w):
    """Y_w = [[0, -Z_w^H], [Z_w, 0]] as a (dV, dV, *grid) array, with
    Z_w = sum_k w_k A_k + conj(w_k) B_k formed entry by entry."""
    z = (np.einsum("kvw,k...->vw...", yuk.a_lin, w)
         + np.einsum("kvw,k...->vw...", yuk.a_bar, np.conj(w)))
    dp, dm = yuk.dim_Vp, yuk.dim_Vm
    out = np.zeros((dp + dm, dp + dm) + z.shape[2:], dtype=complex)
    out[dp:, :dp] = z
    out[:dp, dp:] = -np.conj(np.swapaxes(z, 0, 1))
    return out


def _dense_current(yuk, psi):
    """(1/2) <psi, (i Y_{e_k} - Y_{i e_k}) psi> for each basis vector e_k of W."""
    eye = np.eye(yuk.dim_W)
    out = []
    for k in range(yuk.dim_W):
        op = 1j * _dense_yukawa(yuk, eye[k]) - _dense_yukawa(yuk, 1j * eye[k])
        out.append(0.5 * clifford.spin_inner(psi, np.einsum("VW,sW...->sV...", op, psi)))
    return np.stack(out)


@settings(max_examples=40, deadline=None)
@given(name=models, n=sizes, constant_w=st.booleans(), seed=seeds)
def test_yukawa_map_matches_dense(name, n, constant_w, seed):
    yuk = MODELS[name]().yukawa
    rng = np.random.default_rng(seed)
    grid = (n, n, n)
    dV = yuk.dim_Vp + yuk.dim_Vm
    w = _complex(rng, (yuk.dim_W,) + (() if constant_w else grid))
    Y = _dense_yukawa(yuk, w)
    lead = "" if constant_w else "..."

    psi = _complex(rng, (4, dV) + grid)
    _assert_close(algebra.yukawa_spinor_apply(yuk, w, psi),
                  np.einsum("VW%s,sW...->sV..." % lead, Y, psi))
    v = _complex(rng, (dV,) + grid)
    _assert_close(algebra.yukawa_apply(yuk, w, v), np.einsum("VW%s,W...->V..." % lead, Y, v))
    if constant_w:
        _assert_close(yuk.matrix(w), Y)
    _assert_close(algebra.yukawa_antilinear_current(yuk, psi), _dense_current(yuk, psi))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_yukawa_acts_by_the_empty_table_rule(name):
    model = MODELS[name]()
    dense_nonzero = bool(np.any(model.yukawa.a_lin) or np.any(model.yukawa.a_bar))
    assert model.acts["yukawa"] == bool(model.yukawa.terms.pairs) == dense_nonzero


@pytest.mark.parametrize("yuk", [algebra.su3_pure().yukawa, algebra.YukawaData.zero(2, 2, 1)],
                         ids=["su3_pure", "zero_2_2_1"])
def test_zero_yukawa_map_is_exact_zero(yuk):
    rng = np.random.default_rng(3)
    grid = (4, 4, 4)
    dV = yuk.dim_Vp + yuk.dim_Vm
    assert yuk.terms.pairs == []
    w = _complex(rng, (yuk.dim_W,) + grid)
    psi = _complex(rng, (4, dV) + grid)
    for out, shape in ((algebra.yukawa_spinor_apply(yuk, w, psi), psi.shape),
                       (algebra.yukawa_apply(yuk, w, psi[0]), psi.shape[1:]),
                       (algebra.yukawa_antilinear_current(yuk, psi), w.shape),
                       (yuk.matrix(w[:, 0, 0, 0]), (dV, dV))):
        assert out.shape == shape and not out.any()


# ---------------------------------------------------------------------------
# The sign-folded kernel against the whole-array kernel
# ---------------------------------------------------------------------------

def _tables(model, rng, grid):
    """(table, xi, fiber dimension of x) of every fiber kind of the model, the
    Yukawa map's with the complex xi = (w, conj w) of algebra._w_and_conj."""
    xi = with_zeros(_real(rng, (model.dim_g,) + grid), seed=11)
    w = with_zeros(_complex(rng, (model.dim_W,) + grid), seed=12)
    return [(model.lie.terms, xi, model.dim_g), (model.rho.terms, xi, model.dim_W),
            (model.chi.terms, xi, model.dim_V),
            (model.yukawa.terms, algebra._w_and_conj(w), model.dim_V)]


@pytest.mark.parametrize("n_lead", [0, 1, 2])
@pytest.mark.parametrize("name", ["u1_toy", "su2_toy", "su3_pure", "custom_su2"])
def test_folded_kernel_keeps_the_bits(name, n_lead):
    model, rng, grid = MODELS[name](), np.random.default_rng(n_lead), (4, 4, 4)
    lead = (3, 2)[:n_lead]
    for terms, xi, dim_x in _tables(model, rng, grid):
        for x in (with_zeros(_real(rng, lead + (dim_x,) + grid), seed=13),
                  with_zeros(_complex(rng, lead + (dim_x,) + grid), seed=14)):
            ref = reference.fiber_apply(terms, xi, x, n_lead)
            for built in (None, terms.build(xi)):
                assert same_bits(algebra._fiber_apply(terms, xi, x, n_lead, built=built), ref)
                base = with_zeros(_complex(rng, ref.shape), seed=15)
                assert same_bits(
                    algebra._fiber_apply(terms, xi, x, n_lead, out=base.copy(), built=built),
                    base + ref)


def test_a_cancelling_su3_component_keeps_the_bits():
    # su(3)'s two two-coefficient components 0.5 xi_2 +- c xi_7 each serve a
    # pair with sign +1 and one with sign -1.  Where the component is exactly
    # 0 the unfolded matrix of the second pair is +0, where -component would
    # be -0: the product's sign is lost in the sum from +0 either way
    lie = algebra.su3()
    two = [s for s in lie.terms.sums if len(s) == 2]
    assert len(lie.terms.sums) == 19 and len(two) == 2
    j = lie.terms.sums.index(two[0])
    assert sorted(sign for plan in lie.terms.plan for _, i, sign in plan if i == j) == [-1, 1]
    (a, wa), (b, wb) = two[0]
    rng = np.random.default_rng(21)
    xi = _real(rng, (8, 4, 4, 4))
    xi[a, :2], xi[b, :2] = -wb, wa  # wa (-wb) + wb wa: the same product, so exactly 0
    assert not (wa * xi[a, :2] + wb * xi[b, :2]).any()
    for fld in (with_zeros(_real(rng, (8, 4, 4, 4)), seed=22),
                with_zeros(_real(rng, (3, 8, 4, 4, 4)), seed=23)):
        axis = fld.ndim - 4
        base = with_zeros(_real(rng, fld.shape), seed=24)
        conn = lattice.Connection(np.stack([xi] * 3), algebra.su3_pure())
        ref = reference.fiber_apply(lie.terms, xi, fld, axis)
        for out, expect in ((None, ref), (base.copy(), base + ref)):
            assert same_bits(lattice.connection_action(fld, conn, 1, "adjoint", out=out), expect)


# ---------------------------------------------------------------------------
# One Connection per evaluation
# ---------------------------------------------------------------------------

def test_each_evaluation_builds_the_adjoint_components_once(monkeypatch):
    model = algebra.su3_pure()
    bg = BACKGROUNDS["bianchi1"]()
    u = make_state(lattice.Grid(8), model, bg, seed=2, amplitude=0.1)
    coup = dynamics.Couplings(model)
    du = dynamics.rhs(u, bg, coup)
    build, built = algebra.FiberTerms.build, []

    def counting_build(terms, xi, js=None):
        if terms is model.lie.terms:
            built.append([k for k in range(3) if np.shares_memory(xi, u.eta[k])])
        return build(terms, xi, js)

    monkeypatch.setattr(algebra.FiberTerms, "build", counting_build)
    for evaluate in (lambda: dynamics.rhs(u, bg, coup),
                     lambda: constraints.solve_gauss_initial(u, bg),
                     lambda: energy.energy_report(energy.Norms(u, du, bg, 2))):
        built.clear()
        evaluate()
        assert built == [[0], [1], [2]]


def test_a_connection_holds_views_of_eta_or_its_built_components():
    rng = np.random.default_rng(4)
    for model, grids in ((algebra.su2_toy(), 0), (algebra.su3_pure(), 48), (algebra.u1_toy(), 0)):
        eta = rng.standard_normal((3, model.dim_g, 4, 4, 4))
        conn = lattice.Connection(eta, model)
        components = [M for built in conn.adjoint for M in built.values()]
        assert len(components) == 3 * len(model.lie.terms.sums)
        assert sum(not np.shares_memory(M, eta) for M in components) == grids
