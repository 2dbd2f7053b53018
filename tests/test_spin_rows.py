"""Spin matrices act row by row, spinor pairings sum one spin row at a time,
and rhs forms no B = *Q: with the bits of the code that made whole copies.

The references below are that code, verbatim: a permuted copy of each
spinor for every constant spin matrix (gamma_apply), a conjugated copy of
the rotated spinor for each pairing, and the whole B = *Q in rhs and
gauge_rhs.  The new code must match them value for value and in the sign of
every zero part, on states with a fifth of their entries set to +-0.
Temporaries are measured with tracemalloc, which sees numpy's data buffers.
"""

import numpy as np
import pytest

from ymtorus import algebra, clifford, constraints, dynamics, geometry, lattice, parallel
from ymtorus.clifford import G0G, GG, GAMMA, gamma_apply
from ymtorus.lattice import EPS, Connection, FieldState, covariant_d, covariant_div, hodge_dual_B
from conftest import make_state
from test_memory import same_values_and_signs, traced_peak, with_zeros
from test_threads import force_threads

MODELS = {"u1_toy": algebra.u1_toy, "su2_toy": algebra.su2_toy,
          "su3_pure": algebra.su3_pure}
# bianchi1 has II != 0, so the spin connection runs; its b is linear in tau, so
# dII = II^2 and the S rows' (dII - II^2) g0 gi psi term is off, which the
# quadratic b of "curved" turns on
BACKGROUNDS = {
    "bianchi1": lambda: geometry.bianchi1(geometry.ScaleProfile("desitter", a=1.0), eps=0.2),
    "desitter": lambda: geometry.static_flat(geometry.ScaleProfile("desitter", a=1.0)),
    "curved": lambda: geometry.polynomial_b(geometry.ScaleProfile("desitter", a=1.0),
                                            [[1.0, 0.1, 0.3], [1.0, 0.2, 0.0], [1.0, 0.0, -0.2]]),
}


# ---------------------------------------------------------------------------
# References: whole permuted copies and the whole B
# ---------------------------------------------------------------------------

def ref_fiber_pairing(terms, left, right, first=0):
    axis = right.ndim - 4 if right.ndim >= 4 else right.ndim - 1
    lead = (slice(None),) * axis
    out = np.zeros((terms.dim_xi - first,) + right.shape[axis + 1:], dtype=complex)
    for b, c, coeffs in terms.pairs:
        coeffs = [(a - first, w) for a, w in coeffs if a >= first]
        if coeffs:
            C = np.sum(np.conj(left[lead + (c,)]) * right[lead + (b,)],
                       axis=tuple(range(axis)))
            for a, w in coeffs:
                out[a] += w * C
    return out


def ref_yukawa_antilinear_current(yuk, psi):
    left = gamma_apply(GAMMA[0], psi)
    return 1j * ref_fiber_pairing(yuk.terms, left, psi, first=yuk.dim_W)


def ref_currents(u):
    model = u.model
    J = np.zeros_like(u.E)
    for i in range(3):
        J[i] -= np.real(ref_fiber_pairing(model.rho.terms, u.Z[i], u.phi))
        if model.acts["spinor"]:
            psi_rot = gamma_apply(G0G[i], u.psi)
            J[i] += 0.5 * np.imag(ref_fiber_pairing(model.chi.terms, psi_rot, u.psi))
    return J


def ref_gauge_rhs(u, frame, couplings, out, live=None, B=None):
    kappa, H = frame.II, frame.H
    live = dynamics._live_sectors(u, couplings.model) if live is None else live
    B = hodge_dual_B(u.Q) if B is None else B
    J = ref_currents(u) if len(live) > 1 else np.zeros_like(u.E)

    def D(fld, k):
        return covariant_d(fld, k, Connection(u.eta, couplings.model), u.grid, "adjoint", frame)

    for i in range(3):
        np.add(kappa[i] * u.eta[i], u.E[i], out=out.eta[i])

        acc = np.subtract(3.0 * H * u.Q[i], kappa[i] * u.Q[i], out=out.Q[i])
        for j, k in np.argwhere(EPS[i]):
            acc += EPS[i, j, k] * D(u.E[k], j)

        acc = np.subtract(3.0 * H * u.E[i], kappa[i] * u.E[i], out=out.E[i])
        acc += J[i]
        for k in range(3):
            if k != i:
                acc += D(B[k, i], k)
    return B


def ref_rhs(u, bg, couplings):
    frame = bg.frame(u.tau)
    model, grid = couplings.model, u.grid
    out = FieldState.zeros(grid, model)
    out.tau = u.tau
    live = dynamics._live_sectors(u, model, zero=[out])
    higgs, dirac = "higgs" in live, "dirac" in live
    B = hodge_dual_B(u.Q)
    kappa, dkappa, H, scal = frame.II, frame.dII, frame.H, frame.scal
    lam, yuk = couplings.lam, model.yukawa

    def D(fld, k, kind, out=None):
        return covariant_d(fld, k, Connection(u.eta, model), grid, kind, frame, out=out)

    def div(vec, kind, out=None):
        return covariant_div(vec, Connection(u.eta, model), grid, kind, frame, out=out)

    def gauge_and_higgs_rows():
        ref_gauge_rhs(u, frame, couplings, out, live, B)
        if higgs:
            np.copyto(out.phi, u.phidot)
            acc = np.subtract(3.0 * H * u.phidot, (scal / 6.0) * u.phi, out=out.phidot)
            acc -= lam * np.sum(np.abs(u.phi) ** 2, axis=0) * u.phi
            if dirac and model.acts["yukawa"]:
                acc -= ref_yukawa_antilinear_current(yuk, u.psi)
            acc += div(u.Z, "higgs")
            for i in range(3):
                acc = D(u.phidot, i, "higgs", out=out.Z[i])
                acc += algebra.rho_star_apply(model.rho, u.E[i], u.phi)
                acc += kappa[i] * u.Z[i]

    if not dirac:
        gauge_and_higgs_rows()
        return out

    chi_acts = model.acts["spinor"]
    chi_E = chi_acts and [algebra.chi_spinor_apply(model.chi, u.E[k], u.psi) for k in range(3)]

    def S_rows():
        for i in range(3):
            acc = D(u.psidot, i, "spinor", out=out.S[i])
            if dkappa[i] != kappa[i] ** 2:
                acc += 0.5 * (dkappa[i] - kappa[i] ** 2) * gamma_apply(G0G[i], u.psi)
            if chi_acts:
                acc += chi_E[i]
            acc += kappa[i] * u.S[i]

    def psi_rows():
        np.copyto(out.psi, u.psidot)
        acc = div(u.S, "spinor", out=out.psidot)
        acc += 3.0 * H * u.psidot - (scal / 4.0) * u.psi
        if chi_acts:
            for k in range(3):
                acc += gamma_apply(G0G[k], chi_E[k])
            curv = {(i, j): 0.5 * gamma_apply(GG[i, j], algebra.chi_spinor_apply(
                model.chi, B[i, j], u.psi)) for i, j in ((0, 1), (0, 2), (1, 2))}
            for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
                acc -= curv[min(i, j), max(i, j)]
        if model.acts["yukawa"]:
            acc += gamma_apply(GAMMA[0], algebra.yukawa_spinor_apply(yuk, u.phidot, u.psi))
            for k in range(3):
                acc -= gamma_apply(GAMMA[k + 1], algebra.yukawa_spinor_apply(yuk, u.Z[k], u.psi))
            acc += algebra.yukawa_spinor_apply(
                yuk, u.phi, algebra.yukawa_spinor_apply(yuk, u.phi, u.psi))

    gauge_and_higgs_rows()
    S_rows()
    psi_rows()
    return out


def ref_dirac_operator_rhs(u):
    model = u.model
    acc = algebra.yukawa_spinor_apply(model.yukawa, u.phi, u.psi) if model.acts["yukawa"] else 0.0
    for k in range(3):
        acc = acc + gamma_apply(GAMMA[k + 1], u.S[k])
    return gamma_apply(GAMMA[0], acc)


# ---------------------------------------------------------------------------
# Bits
# ---------------------------------------------------------------------------

def state(name, bg_name, matter=True, n=8, seed=23):
    """A completed state at tau 0.3 with a fifth of every sector's entries +-0."""
    bg = BACKGROUNDS[bg_name]()
    u = make_state(lattice.Grid(n), MODELS[name](), bg, seed=seed, amplitude=0.1)
    for k, (sector, buf) in enumerate(u.sectors.items()):
        np.copyto(buf, with_zeros(buf, seed=seed + k) if matter or sector == "gauge" else 0.0)
    u.tau = 0.3
    return u, bg, dynamics.Couplings(u.model, lam=1.0)


def assert_same_states(got, ref):
    for field in lattice.FIELDS:
        assert same_values_and_signs(getattr(got, field), getattr(ref, field)), field


@pytest.mark.parametrize("matter", [True, False])
@pytest.mark.parametrize("bg_name", sorted(BACKGROUNDS))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_rows_and_pairings_keep_the_bits(name, bg_name, matter):
    u, bg, coup = state(name, bg_name, matter)
    frame = bg.frame(u.tau)
    if bg_name != "desitter":
        assert np.all(frame.II != 0) if bg_name == "curved" else np.any(frame.II)
        assert np.any(frame.dII != frame.II ** 2) == (bg_name == "curved")
    assert_same_states(dynamics.rhs(u, bg, coup), ref_rhs(u, bg, coup))

    alone, ref = FieldState.zeros(u.grid, u.model), FieldState.zeros(u.grid, u.model)
    assert dynamics.gauge_rhs(u, frame, coup, alone) is None
    ref_gauge_rhs(u, frame, coup, ref)
    assert_same_states(alone, ref)

    assert same_values_and_signs(dynamics.currents(u), ref_currents(u))
    yuk = u.model.yukawa
    assert same_values_and_signs(algebra.yukawa_antilinear_current(yuk, u.psi),
                                 ref_yukawa_antilinear_current(yuk, u.psi))
    assert same_values_and_signs(constraints.dirac_constraint(u),
                                 u.psidot - ref_dirac_operator_rhs(u))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_split_rows_keep_the_bits(monkeypatch, name):
    u, bg, coup = state(name, "bianchi1", n=20)  # the smallest grid that splits
    ref = ref_rhs(u, bg, coup)
    for count in (1, 2):
        force_threads(monkeypatch, count)
        assert parallel.threads(u.grid) == count
        assert_same_states(dynamics.rhs(u, bg, coup), ref)


def test_row_kernel_is_the_whole_product():
    # every table against its matrix: spin_row's rows are gamma_apply's, and
    # spin_add adds or subtracts them with the bits of the whole-array form
    rng = np.random.default_rng(5)
    X = with_zeros(rng.standard_normal((4, 3, 5)) + 1j * rng.standard_normal((4, 3, 5)), 1)
    acc = with_zeros(rng.standard_normal(X.shape) + 1j * rng.standard_normal(X.shape), 2)
    mats = [*GAMMA, *G0G, *GG.reshape(9, 4, 4)]
    tables = [*clifford.GAMMA_ROWS, *clifford.G0G_ROWS, *sum(clifford.GG_ROWS, [])]
    for mat, rows in zip(mats, tables):
        whole = gamma_apply(mat, X)
        for scale in (None, 0.5, -0.3):
            scaled = whole if scale is None else scale * whole
            for r in range(4):
                assert same_values_and_signs(clifford.spin_row(rows, X, r, scale), scaled[r])
            assert same_values_and_signs(clifford.spin_add(acc.copy(), rows, X, scale),
                                         acc + scaled)
            assert same_values_and_signs(
                clifford.spin_add(acc.copy(), rows, X, scale, subtract=True), acc - scaled)


# ---------------------------------------------------------------------------
# Temporaries
# ---------------------------------------------------------------------------

def test_rhs_makes_no_permuted_copies():
    # su2_toy on bianchi1 at n = 16 (one thread) into a kept buffer: the whole
    # B, the permuted spinor copies and the pairings' conjugated copies took
    # 7.78 MB of temporaries, 1.42 states; row by row it is 5.71 MB
    u, bg, coup = state("su2_toy", "bianchi1", n=16)
    out = FieldState.zeros(u.grid, u.model)
    _, peak = traced_peak(lambda: dynamics.rhs(u, bg, coup, out=out))
    assert peak < 1.2 * sum(buf.nbytes for buf in u.sectors.values())
