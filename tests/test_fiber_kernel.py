"""The sparse fiber-action kernel against the dense einsum formulas.

The dense contractions below multiply every entry of f and of the
generators; they are the reference the term tables must reproduce, up to
the reassociation of the sums (rtol 1e-13 against the largest entry).
"""

import numpy as np
import pytest

from ymtorus import algebra, lattice

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
