"""rhs, the constraint fields and the oracles share one covariant derivative.

lattice.covariant_d is the only place that forms the frame-scaled stencil,
the fiber action of eta_k and the spin-connection term.  rhs, the curvature,
Bianchi and Gauss fields, the second covariant derivative, the wave-equation
residuals and the current divergence match the hand-written whole-array
formulas of tests/reference.py bit for bit, signs of zero included.
"""

import numpy as np
import pytest

import reference
from ymtorus import constraints, dynamics, errors, geometry, lattice, oracles
from ymtorus.clifford import G0G, gamma_apply
from ymtorus.lattice import FieldState
from conftest import MODELS, assert_same_states, make_state, same_bits, state

TAU = 0.3  # conftest.state's tau


# ---------------------------------------------------------------------------
# The kernel against the reference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(MODELS))
def test_rhs_matches_hand_written(name, bianchi_bg):
    u = state(name, "bianchi1", 21)[0]
    coup = dynamics.Couplings(u.model, lam=1.0)
    assert_same_states(dynamics.rhs(u, bianchi_bg, coup), reference.rhs(u, bianchi_bg, coup))


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("zero", [lattice.SECTORS["dirac"],
                                  lattice.SECTORS["higgs"] + lattice.SECTORS["dirac"]],
                         ids=["dirac", "matter"])
def test_rhs_skips_zero_matter(name, zero, bianchi_bg):
    # the skipped triples are written as +0, also into a buffer that held
    # something else, and the full formula gives them the same values
    u = state(name, "bianchi1", 21)[0]
    for field in zero:
        getattr(u, field)[:] = 0.0
    coup = dynamics.Couplings(u.model, lam=1.0)
    buf = FieldState.zeros(u.grid, u.model)
    for field in lattice.FIELDS:
        getattr(buf, field).fill(np.nan)
    new = dynamics.rhs(u, bianchi_bg, coup, out=buf)
    assert_same_states(new, reference.rhs(u, bianchi_bg, coup))
    full = reference.rhs(u, bianchi_bg, coup, every_row=True)
    for field in lattice.FIELDS:
        assert np.array_equal(getattr(new, field), getattr(full, field)), field
    assert not any(np.any(getattr(new, field)) for field in zero)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_rhs_skips_zero_spin_connection_term(name, desitter_bg):
    # (1/2)(dII_k - II_k^2) is 0 on desitter: adding the term changes no value
    u = state(name, "desitter", 21)[0]
    frame = desitter_bg.frame(TAU)
    assert not np.any(frame.dII - frame.II ** 2)
    assert np.any(u.psi)
    coup = dynamics.Couplings(u.model, lam=1.0)
    new, ref = dynamics.rhs(u, desitter_bg, coup), reference.rhs(u, desitter_bg, coup)
    assert same_bits(new.S, ref.S)
    for i in range(3):
        term = 0.5 * (frame.dII[i] - frame.II[i] ** 2) * gamma_apply(G0G[i], u.psi)
        assert np.array_equal(new.S[i], ref.S[i] + term)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_constraint_fields_match_hand_written(name, bianchi_bg):
    u = state(name, "bianchi1", 21)[0]
    new = constraints.constraint_fields(u, bianchi_bg)
    ref = reference.constraint_fields(u, bianchi_bg)
    assert new.keys() == ref.keys()
    # the curvature constraint has Q's shape: component m is the 2-form's (i, j),
    # (m, i, j) cyclic
    ref["curvature"] = np.stack([ref["curvature"][i, j] for i, j in ((1, 2), (2, 0), (0, 1))])
    for field in ref:
        assert same_bits(new[field], ref[field]), field


@pytest.mark.parametrize("name", sorted(MODELS))
def test_oracles_match_hand_written(name, bianchi_bg):
    u = state(name, "bianchi1", 21)[0]
    coup = dynamics.Couplings(u.model, lam=1.0)
    stack = oracles.time_stack(u, bianchi_bg, coup, 0.01)
    center = stack[2]
    frame = bianchi_bg.frame(center.tau)
    for kind, fld in (("adjoint", center.E[1]), ("higgs", center.phi),
                      ("spinor", center.psi)):
        assert same_bits(lattice.covariant_laplacian(
            fld, lattice.Connection(center.eta, center.model), center.grid, kind, frame),
            reference.covariant_laplacian(fld, center.eta, center.model, center.grid, kind,
                                          frame)), kind
    assert (oracles.em_wave_residuals(stack, bianchi_bg, coup)
            == reference.em_wave_residuals(stack, bianchi_bg, coup))
    dtau = stack[3].tau - stack[2].tau
    J0s = [-np.real(reference.fiber_pairing(u.model.rho.terms, s.phidot, s.phi))
           + 0.5 * np.imag(reference.fiber_pairing(u.model.chi.terms, s.psi, s.psi))
           for s in stack]
    div = reference.covariant_div(reference.currents(center), center.eta, center.model,
                                  center.grid, "adjoint", frame)
    ref = constraints.l2_norm(oracles._d1(J0s, dtau) - 3 * frame.H * J0s[2] - div,
                              constraints.volume_weight(center, bianchi_bg))
    assert oracles.current_divergence_residual(stack, bianchi_bg, coup) == ref


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("kind", ["adjoint", "higgs", "spinor"])
def test_stacked_kernel_is_covariant_diff(name, kind, bianchi_bg):
    u = state(name, "bianchi1", 21)[0]
    frame, conn = bianchi_bg.frame(TAU), lattice.Connection(u.eta, u.model)
    one_form = {"adjoint": u.E, "higgs": u.Z, "spinor": u.S}[kind]
    # a field, a 1-form and an iterated derivative (two leading 1-form axes)
    fields = (one_form[0], one_form,
              lattice.covariant_diff(one_form, conn, u.grid, kind, frame))
    for fld in fields:
        for connection in (conn, None):
            for fr in (frame, geometry.Frame(frame.b)):  # with and without II
                full = lattice.covariant_diff(fld, connection, u.grid, kind, fr)
                per_axis = [lattice.covariant_d(fld, k, connection, u.grid, kind, fr)
                            for k in range(3)]
                assert same_bits(full, np.stack(per_axis))
    div = lattice.covariant_div(one_form, conn, u.grid, kind, frame)
    expect = lattice.covariant_d(one_form[0], 0, conn, u.grid, kind, frame)
    for k in (1, 2):
        expect += lattice.covariant_d(one_form[k], k, conn, u.grid, kind, frame)
    assert same_bits(div, expect)


def test_unknown_fiber_kind_is_rejected(su2_model, flat_bg):
    u = make_state(lattice.Grid(8), su2_model, flat_bg)
    with pytest.raises(errors.InputError, match="unknown fiber kind"):
        lattice.covariant_d(u.phi, 0, lattice.Connection(u.eta, su2_model), u.grid, "vector")


def test_diff_calls_per_rhs_and_constraint_fields(monkeypatch, bianchi_bg):
    u = state("su2_toy", "bianchi1", 21)[0]
    calls = []
    plain = lattice.diff

    def counting_diff(*args, **kwargs):
        calls.append(1)
        return plain(*args, **kwargs)

    # every module binding of diff, so a call is seen whichever namespace makes it
    for module in (lattice, dynamics, constraints, oracles):
        if getattr(module, "diff", None) is plain:
            monkeypatch.setattr(module, "diff", counting_diff)
    dynamics.rhs(u, bianchi_bg, dynamics.Couplings(u.model, lam=1.0))
    assert len(calls) == 24
    del calls[:]
    constraints.constraint_fields(u, bianchi_bg)
    assert len(calls) == 12
