"""rhs, the constraint fields and the oracles share one covariant derivative.

lattice.covariant_d is the only place that forms the frame-scaled stencil,
the fiber action of eta_k and the spin-connection term.  The hand-written
formulas it replaced live on here as references: the rhs with its own
stencil closure and bracket loops, the curvature, Bianchi and Gauss loops of
the constraints, and the oracles' second covariant derivative, DE/DB loops
and current divergence.  Summing D_k as one term may reassociate a sum, so
the comparisons allow 1e-13 of the largest entry.
"""

import numpy as np
import pytest

from ymtorus import algebra, constraints, dynamics, errors, geometry, lattice, oracles
from ymtorus.clifford import G0G, GG, GAMMA, gamma_apply
from ymtorus.lattice import EPS, FieldState, diff, hodge_dual_B
from conftest import make_state

MODELS = {"u1_toy": algebra.u1_toy, "su2_toy": algebra.su2_toy,
          "su3_pure": algebra.su3_pure}
TAU = 0.3


@pytest.fixture(scope="module")
def bianchi_bg():
    bg = geometry.bianchi1(geometry.ScaleProfile("desitter", a=1.0), eps=0.2)
    assert np.any(bg.II(TAU))  # kappa != 0: the spin-connection term runs
    return bg


def state(name, bg, seed=21):
    u = make_state(lattice.Grid(8), MODELS[name](), bg, seed=seed, amplitude=0.1)
    u.tau = TAU
    return u


def assert_close(new, ref, what):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape, what
    scale = np.abs(ref).max(initial=0.0)
    assert np.abs(new - ref).max(initial=0.0) <= 1e-13 * scale, what


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# References: the hand-written formulas
# ---------------------------------------------------------------------------

def ref_rhs(u, bg, couplings):
    model = couplings.model
    grid = u.grid
    b, kappa, dkappa = bg.b(u.tau), bg.II(u.tau), bg.dII_dtau(u.tau)
    H, scal, lam = bg.H(u.tau), bg.scal_h(u.tau), couplings.lam
    lie, yuk = model.lie, model.yukawa

    def d(fld, k):
        return diff(fld, k, grid) / b[k]

    def chi(xi, psi):
        return algebra.chi_spinor_apply(model.chi, xi, psi)

    out = FieldState.zeros(grid, model, tau=u.tau)
    B = hodge_dual_B(u.Q)
    J = dynamics.currents(u)
    for i in range(3):
        out.eta[i] = kappa[i] * u.eta[i] + u.E[i]
        acc = 3.0 * H * u.Q[i] - kappa[i] * u.Q[i]
        for j in range(3):
            for k in range(3):
                e = EPS[i, j, k]
                if e:
                    acc = acc + e * (d(u.E[k], j) + algebra.bracket(lie, u.eta[j], u.E[k]))
        out.Q[i] = acc
        acc = 3.0 * H * u.E[i] - kappa[i] * u.E[i] + J[i]
        for k in range(3):
            if k != i:
                acc = acc + d(B[k, i], k)
            for j in range(3):
                e = EPS[j, k, i]
                if e:
                    acc = acc + e * algebra.bracket(lie, u.eta[k], u.Q[j])
        out.E[i] = acc

    out.phi[:] = u.phidot
    acc = 3.0 * H * u.phidot - (scal / 6.0) * u.phi \
        - lam * np.sum(np.abs(u.phi) ** 2, axis=0) * u.phi
    acc = acc - algebra.yukawa_antilinear_current(yuk, u.psi)
    for k in range(3):
        acc = acc + d(u.Z[k], k) + algebra.rho_star_apply(model.rho, u.eta[k], u.Z[k])
    out.phidot[:] = acc
    for i in range(3):
        out.Z[i] = (d(u.phidot, i) + algebra.rho_star_apply(model.rho, u.eta[i], u.phidot)
                    + algebra.rho_star_apply(model.rho, u.E[i], u.phi) + kappa[i] * u.Z[i])

    out.psi[:] = u.psidot
    acc = 3.0 * H * u.psidot - (scal / 4.0) * u.psi
    for k in range(3):
        acc = acc + d(u.S[k], k) + 0.5 * kappa[k] * gamma_apply(G0G[k], u.S[k])
        acc = acc + chi(u.eta[k], u.S[k])
        acc = acc + gamma_apply(G0G[k], chi(u.E[k], u.psi))
    for i in range(3):
        for j in range(3):
            if i != j:
                acc = acc - 0.5 * gamma_apply(GG[i, j], chi(B[i, j], u.psi))
    acc = acc + gamma_apply(GAMMA[0], algebra.yukawa_spinor_apply(yuk, u.phidot, u.psi))
    for k in range(3):
        acc = acc - gamma_apply(GAMMA[k + 1], algebra.yukawa_spinor_apply(yuk, u.Z[k], u.psi))
    acc = acc + algebra.yukawa_spinor_apply(yuk, u.phi,
                                            algebra.yukawa_spinor_apply(yuk, u.phi, u.psi))
    out.psidot[:] = acc
    for i in range(3):
        acc = d(u.psidot, i) + 0.5 * kappa[i] * gamma_apply(G0G[i], u.psidot)
        acc = acc + chi(u.eta[i], u.psidot)
        acc = acc + 0.5 * (dkappa[i] - kappa[i] ** 2) * gamma_apply(G0G[i], u.psi)
        acc = acc + chi(u.E[i], u.psi)
        out.S[i] = acc + kappa[i] * u.S[i]
    return out


def ref_constraint_fields(u, bg):
    grid, model, lie = u.grid, u.model, u.model.lie
    b = bg.b(u.tau)
    curv = np.zeros((3, 3) + u.eta.shape[1:])
    for i in range(3):
        for j in range(i + 1, 3):
            Bij = (diff(u.eta[j], i, grid) / b[i] - diff(u.eta[i], j, grid) / b[j]
                   + algebra.bracket(lie, u.eta[i], u.eta[j]))
            curv[i, j], curv[j, i] = Bij, -Bij
    B = hodge_dual_B(u.Q)
    bianchi = np.zeros(u.eta.shape[1:])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        bianchi += diff(B[j, k], i, grid) / b[i] + algebra.bracket(lie, u.eta[i], B[j, k])
    gauss = np.zeros(u.eta.shape[1:])
    for k in range(3):
        gauss += diff(u.E[k], k, grid) / b[k] + algebra.bracket(lie, u.eta[k], u.E[k])
    gauss += np.real(algebra.current_pairing(model.rho, u.phidot, u.phi))
    gauss -= 0.5 * np.imag(algebra.current_pairing(model.chi, u.psi, u.psi))
    return {"curvature": B - curv, "bianchi": bianchi, "gauss": gauss,
            "dirac": constraints.dirac_constraint(u, bg)}


def ref_box_spatial(fld, u, bg, kind):
    """sum_k D_k D_k fld, each D_k taken from the full three-axis derivative."""
    def covd(f):
        return lattice.covariant_diff(f, u.eta, u.model, u.grid, kind, bvec=bg.b(u.tau),
                                      II=bg.II(u.tau) if kind == "spinor" else None)

    Df = covd(fld)
    out = np.zeros_like(fld)
    for k in range(3):
        out += covd(Df[k])[k]
    return out


def ref_em_wave_residuals(stack, bg, couplings):
    u = stack[2]
    model = couplings.model
    lie = model.lie
    dtau = stack[3].tau - stack[2].tau
    kap, dk, H = bg.II(u.tau), bg.dII_dtau(u.tau), bg.H(u.tau)
    trd = float(np.sum(dk))
    B = hodge_dual_B(u.Q)
    DE = np.zeros((3, 3) + u.E.shape[1:])
    DB = np.zeros((3, 3, 3) + u.E.shape[1:])
    Bstack = [hodge_dual_B(s.Q) for s in stack]
    b = bg.b(u.tau)
    for k in range(3):
        for i in range(3):
            DE[k, i] = diff(u.E[i], k, u.grid) / b[k] + algebra.bracket(lie, u.eta[k], u.E[i])
            for j in range(3):
                if i != j:
                    DB[k, i, j] = (diff(B[i, j], k, u.grid) / b[k]
                                   + algebra.bracket(lie, u.eta[k], B[i, j]))

    def im_pairing(left, right):
        return np.imag(algebra.current_pairing(model.chi, left, right))

    def re_pairing(left, right):
        return np.real(algebra.current_pairing(model.rho, left, right))

    Es = [s.E for s in stack]
    res_E = 0.0
    boxE = -oracles._d2(Es, dtau) + 3 * H * oracles._d1(Es, dtau)
    for i in range(3):
        boxE_i = boxE[i] + ref_box_spatial(u.E[i], u, bg, "adjoint")
        rhs = (dk[i] - trd + 3 * H * kap[i] - kap[i] ** 2) * u.E[i]
        for k in range(3):
            rhs = rhs + 2.0 * algebra.bracket(lie, u.E[k], B[i, k])
            rhs = rhs - 2.0 * kap[k] * DB[k, k, i]
        rhs = rhs + im_pairing(u.psi, u.S[i])
        rhs = rhs - im_pairing(gamma_apply(G0G[i], u.psi), u.psidot)
        rhs = rhs + re_pairing(algebra.rho_star_apply(model.rho, u.E[i], u.phi), u.phi)
        rhs = rhs - 2.0 * re_pairing(u.phidot, u.Z[i])
        res_E += np.sum(np.abs(boxE_i - rhs) ** 2)
    res_E = float(np.sqrt(res_E * bg.sqrt_g(u.tau) * u.grid.cell_volume))

    res_B = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            Bser = [bs[i, j] for bs in Bstack]
            boxB = (-oracles._d2(Bser, dtau) + 3 * H * oracles._d1(Bser, dtau)
                    + ref_box_spatial(B[i, j], u, bg, "adjoint"))
            rhs = -2.0 * algebra.bracket(lie, u.E[i], u.E[j])
            for k in range(3):
                rhs = rhs + 2.0 * algebra.bracket(lie, B[k, i], B[k, j])
            rhs = rhs - 2.0 * kap[i] * DE[i, j] + 2.0 * kap[j] * DE[j, i]
            rhs = rhs + (-dk[i] - dk[j] + 3 * H * (kap[i] + kap[j])
                         - 2 * kap[i] * kap[j] - kap[i] ** 2 - kap[j] ** 2) * B[i, j]
            rhs = rhs + im_pairing(gamma_apply(G0G[i], u.psi), u.S[j])
            rhs = rhs - im_pairing(gamma_apply(G0G[j], u.psi), u.S[i])
            rhs = rhs + re_pairing(algebra.rho_star_apply(model.rho, B[i, j], u.phi), u.phi)
            rhs = rhs - 2.0 * re_pairing(u.Z[i], u.Z[j])
            res_B += np.sum(np.abs(boxB - rhs) ** 2)
    res_B = float(np.sqrt(res_B * bg.sqrt_g(u.tau) * u.grid.cell_volume))
    return res_E, res_B


def ref_current_divergence(u, bg):
    lie, b = u.model.lie, bg.b(u.tau)
    J = dynamics.currents(u)
    div = np.zeros_like(J[0])
    for k in range(3):
        div += diff(J[k], k, u.grid) / b[k] + algebra.bracket(lie, u.eta[k], J[k])
    return div


# ---------------------------------------------------------------------------
# The kernel against the references
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(MODELS))
def test_rhs_matches_hand_written(name, bianchi_bg):
    u = state(name, bianchi_bg)
    coup = dynamics.Couplings(u.model, lam=1.0)
    new, ref = dynamics.rhs(u, bianchi_bg, coup), ref_rhs(u, bianchi_bg, coup)
    for field in lattice.FIELDS:
        assert_close(getattr(new, field), getattr(ref, field), field)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_constraint_fields_match_hand_written(name, bianchi_bg):
    u = state(name, bianchi_bg)
    new = constraints.constraint_fields(u, bianchi_bg)
    ref = ref_constraint_fields(u, bianchi_bg)
    assert new.keys() == ref.keys()
    for field in ref:
        assert_close(new[field], ref[field], field)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_oracles_match_hand_written(name, bianchi_bg):
    u = state(name, bianchi_bg)
    coup = dynamics.Couplings(u.model, lam=1.0)
    stack = oracles.time_stack(u, bianchi_bg, coup, 0.01)
    center = stack[2]
    for kind, fld in (("adjoint", center.E[1]), ("higgs", center.phi),
                      ("spinor", center.psi)):
        assert_close(oracles._box_spatial(fld, center, bianchi_bg, kind),
                     ref_box_spatial(fld, center, bianchi_bg, kind), kind)
    assert_close(oracles.em_wave_residuals(stack, bianchi_bg, coup),
                 ref_em_wave_residuals(stack, bianchi_bg, coup), "em")
    dtau = stack[3].tau - stack[2].tau
    J0s = [-np.real(algebra.current_pairing(u.model.rho, s.phidot, s.phi))
           + 0.5 * np.imag(algebra.current_pairing(u.model.chi, s.psi, s.psi)) for s in stack]
    ref = oracles._l2(oracles._d1(J0s, dtau) - 3 * bianchi_bg.H(center.tau) * J0s[2]
                      - ref_current_divergence(center, bianchi_bg), center, bianchi_bg)
    assert_close(oracles.current_divergence_residual(stack, bianchi_bg, coup), ref, "div J")


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("kind", ["adjoint", "higgs", "spinor"])
def test_stacked_kernel_is_covariant_diff(name, kind, bianchi_bg):
    u = state(name, bianchi_bg)
    b, II = bianchi_bg.b(TAU), bianchi_bg.II(TAU)
    one_form = {"adjoint": u.E, "higgs": u.Z, "spinor": u.S}[kind]
    # a field, a 1-form and an iterated derivative (two leading 1-form axes)
    fields = (one_form[0], one_form,
              lattice.covariant_diff(one_form, u.eta, u.model, u.grid, kind, b, II))
    for fld in fields:
        for eta in (u.eta, None):
            for kap in (II, None):
                full = lattice.covariant_diff(fld, eta, u.model, u.grid, kind, bvec=b, II=kap)
                per_axis = [lattice.covariant_d(fld, k, eta, u.model, u.grid, kind,
                                                bvec=b, II=kap) for k in range(3)]
                assert same_bits(full, np.stack(per_axis))
    div = lattice.covariant_div(one_form, u.eta, u.model, u.grid, kind, bvec=b, II=II)
    expect = lattice.covariant_d(one_form[0], 0, u.eta, u.model, u.grid, kind, b, II)
    for k in (1, 2):
        expect += lattice.covariant_d(one_form[k], k, u.eta, u.model, u.grid, kind, b, II)
    assert same_bits(div, expect)


def test_unknown_fiber_kind_is_rejected(su2_model, flat_bg):
    u = make_state(lattice.Grid(8), su2_model, flat_bg)
    with pytest.raises(errors.InputError, match="unknown fiber kind"):
        lattice.covariant_d(u.phi, 0, u.eta, su2_model, u.grid, "vector")


def test_diff_calls_per_rhs_and_constraint_fields(monkeypatch, bianchi_bg):
    u = state("su2_toy", bianchi_bg)
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
