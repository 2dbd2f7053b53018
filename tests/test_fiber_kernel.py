"""The sparse fiber-action kernel against the dense einsum formulas.

The dense contractions below multiply every entry of f, of the generators
and of the Yukawa blocks; they are the reference the term tables must reproduce, up to
the reassociation of the sums (rtol 1e-13 against the largest entry).
"""

import numpy as np
import pytest

from ymtorus import algebra, clifford, lattice

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
        _assert_close(lattice.connection_action(fld, xi, model, kind), ref)


@pytest.mark.parametrize("n_lead", [0, 1, 2])
def test_abelian_and_trivial_actions_are_exact_zeros(n_lead):
    rng = np.random.default_rng(n_lead)
    grid = (4, 4, 4)
    lead = (3,) * n_lead
    u1 = algebra.u1_toy()
    assert u1.lie.terms.pairs == []
    X = _real(rng, (1,) + grid)
    assert not algebra.bracket(u1.lie, X, _real(rng, (1,) + grid)).any()
    assert not lattice.connection_action(_real(rng, lead + (1,) + grid), X, u1, "adjoint").any()

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
        assert not lattice.connection_action(fld, xi, su3, kind).any()


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
