import numpy as np
import pytest
from scipy import interpolate

from ymtorus import geometry


def test_horizon_closed_forms():
    for a in (0.7, 1.0, 2.3):
        p = geometry.ScaleProfile("desitter", a=a)
        assert abs(p.horizon() - np.pi / 2) < 1e-9
    assert abs(geometry.ScaleProfile("exponential").horizon() - 1.0) < 1e-9
    with pytest.raises(geometry.InputError):
        geometry.ScaleProfile("constant").horizon()


def test_gaussian_time_monotone_and_zero():
    p = geometry.ScaleProfile("desitter", a=1.1)
    assert p.tau_of_t(0.0) == 0.0
    ts = np.linspace(0, 4, 15)
    taus = np.array([p.tau_of_t(t) for t in ts])
    assert np.all(np.diff(taus) > 0)
    # concave where ds/dt > 0 (second differences negative)
    assert np.all(np.diff(taus, 2) < 0)


def test_time_map_roundtrip_and_closed_forms():
    p = geometry.ScaleProfile("desitter", a=1.3)
    for t in (0.2, 1.0, 3.0):
        tau = p.tau_of_t(t)
        assert abs(tau - np.arctan(np.sinh(t / 1.3))) < 1e-10
        assert abs(p.t_of_tau(tau) - t) < 1e-9
        assert abs(p.s_of_tau(tau) - p.s(t)) < 1e-9
    q = geometry.ScaleProfile("power", s0=1.0, t0=2.0, p=2.5)
    assert abs(q.horizon() - 2.0 / 1.5) < 1e-9
    for t in (0.3, 4.0):
        assert abs(q.t_of_tau(q.tau_of_t(t)) - t) < 1e-8


def test_table_profile():
    t = np.linspace(0, 12, 200)
    s = np.cosh(t)
    p = geometry.ScaleProfile("table", t=t, s=s)
    assert abs(p.horizon() - np.pi / 2) < 1e-3
    assert abs(p.tau_of_t(2.0) - np.arctan(np.sinh(2.0))) < 1e-7
    flat = np.ones_like(t)
    with pytest.raises(geometry.InputError):
        geometry.ScaleProfile("table", t=t, s=flat)


def test_second_fundamental_form_cases():
    prof = geometry.ScaleProfile("desitter")
    # conformally static frame: II = 0
    bg = geometry.static_flat(prof)
    frame = bg.frame(0.5)
    assert np.abs(frame.II).max() == 0.0 and frame.H == 0.0 and np.abs(frame.dII).max() == 0.0
    # isotropic b: frame components II_ii = -bdot/b
    bg = geometry.polynomial_b(prof, [[1.0, 0.3]] * 3)
    tau = 0.4
    frame = bg.frame(tau)
    expect = -0.3 / (1 + 0.3 * tau)
    assert np.allclose(frame.II, expect)
    assert abs(frame.H - expect) < 1e-14
    # analytic derivative of II
    assert np.allclose(frame.dII, (0.3 / (1 + 0.3 * tau)) ** 2)
    # Bianchi-I: only the stretched axis contributes
    bgB = geometry.bianchi1(prof, eps=0.25)
    II = bgB.frame(tau).II
    assert II[0] == 0.0 and II[2] == 0.0 and II[1] != 0.0
    with pytest.raises(geometry.InputError):
        bgB.frame(bgB.T + 0.1)


def test_scalar_curvature_static_zero_and_frw():
    bg = geometry.static_flat()
    assert bg.frame(0.3).scal == 0.0
    # isotropic b(tau) = 1 + 0.2 t + 0.05 t^2: compare with the textbook flat-FRW value
    prof = geometry.ScaleProfile("desitter")
    bg = geometry.polynomial_b(prof, [[1.0, 0.2, 0.05]] * 3)
    tau = 0.6
    a, ad, add = 1 + 0.2 * tau + 0.05 * tau ** 2, 0.2 + 0.1 * tau, 0.1
    expect = 6 * (add / a + (ad / a) ** 2)
    assert abs(bg.frame(tau).scal - expect) < 1e-12


def test_scalar_curvature_finite_difference_oracle():
    # numerically differentiate II for an isotropic profile and evaluate the
    # same trace formula; agreement at O(dtau^2)
    prof = geometry.ScaleProfile("desitter")
    bg = geometry.polynomial_b(prof, [[1.0, 0.1, -0.05, 0.02]] * 3)
    tau, h = 0.5, 1e-4
    kap = bg.frame(tau).II
    dk_fd = (bg.frame(tau + h).II - bg.frame(tau - h).II) / (2 * h)
    scal_fd = -2 * np.sum(dk_fd) + np.sum(kap ** 2) + np.sum(kap) ** 2
    assert abs(scal_fd - bg.frame(tau).scal) < 1e-7


def _coordinate_riemann_oracle(bg, tau, h=1e-4):
    """Frame Riemann tensor from coordinate Christoffel symbols by FD."""
    def gmat(t):
        b = bg.b(t)
        return np.diag([-1.0, b[0] ** 2, b[1] ** 2, b[2] ** 2])

    def chris(t):
        g = gmat(t)
        ginv = np.linalg.inv(g)
        dgall = np.zeros((4, 4, 4))
        dgall[0] = (gmat(t + h) - gmat(t - h)) / (2 * h)
        Gam = np.zeros((4, 4, 4))
        for l in range(4):
            for m in range(4):
                for n in range(4):
                    Gam[l, m, n] = 0.5 * sum(
                        ginv[l, r] * (dgall[m, r, n] + dgall[n, r, m] - dgall[r, m, n])
                        for r in range(4))
        return Gam

    G = chris(tau)
    dGdt = (chris(tau + h) - chris(tau - h)) / (2 * h)
    R = np.zeros((4, 4, 4, 4))
    for r in range(4):
        for s in range(4):
            for m in range(4):
                for n in range(4):
                    term = dGdt[r, n, s] * (m == 0) - dGdt[r, m, s] * (n == 0)
                    term += sum(G[r, m, l] * G[l, n, s] - G[r, n, l] * G[l, m, s]
                                for l in range(4))
                    R[r, s, m, n] = term
    g = gmat(tau)
    Rd = np.einsum("rq,qlmn->mnlr", g, R)
    scale = np.concatenate([[1.0], np.sqrt(np.diag(g)[1:])])
    return Rd / (scale[:, None, None, None] * scale[None, :, None, None]
                 * scale[None, None, :, None] * scale[None, None, None, :])


def test_riemann_components_against_coordinate_oracle():
    rng = np.random.default_rng(42)
    prof = geometry.ScaleProfile("desitter")
    eta = np.diag([-1.0, 1, 1, 1])
    for _ in range(5):
        coeffs = np.ones((3, 4))
        coeffs[:, 1:] = 0.3 * rng.standard_normal((3, 3))
        bg = geometry.polynomial_b(prof, coeffs)
        tau = rng.uniform(0.1, 1.2)
        Rf = _coordinate_riemann_oracle(bg, tau)
        comp = geometry.riemann_components(bg, tau)
        assert np.abs(comp["R_k0i0"] - Rf[1:, 0, 1:, 0]).max() < 1e-6
        assert np.abs(comp["R_ijkl"] - Rf[1:, 1:, 1:, 1:]).max() < 1e-6
        ric = np.einsum("lr,lmnr->mn", eta, Rf)
        assert abs(ric[0, 0] - comp["ricci_00"]) < 1e-6
        assert np.abs(ric[1:, 1:] - comp["ricci_ik"]).max() < 1e-6
        assert np.abs(ric[0, 1:]).max() < 1e-6  # R_0k = 0 for homogeneous slices


def test_ricci_trace_matches_scalar_curvature_50_backgrounds():
    rng = np.random.default_rng(7)
    prof = geometry.ScaleProfile("desitter")
    count = 0
    while count < 50:
        coeffs = np.ones((3, 4))
        coeffs[:, 1:] = 0.4 * rng.standard_normal((3, 3))
        bg = geometry.polynomial_b(prof, coeffs)
        if min(bg.b(t).min() for t in np.linspace(0, 1.3, 14)) < 0.4:
            continue
        count += 1
        tau = rng.uniform(0.0, 1.3)
        comp = geometry.riemann_components(bg, tau)
        trace = -comp["ricci_00"] + np.trace(comp["ricci_ik"])
        assert abs(trace - bg.frame(tau).scal) < 1e-10
        assert abs(comp["scal"] - bg.frame(tau).scal) < 1e-10


def test_first_bianchi_identity():
    rng = np.random.default_rng(8)
    prof = geometry.ScaleProfile("desitter")
    coeffs = np.ones((3, 3))
    coeffs[:, 1:] = 0.3 * rng.standard_normal((3, 2))
    bg = geometry.polynomial_b(prof, coeffs)
    R = geometry.riemann_components(bg, 0.5)["R_ijkl"]
    total = R + np.transpose(R, (0, 2, 3, 1)) + np.transpose(R, (0, 3, 1, 2))
    assert np.abs(total).max() < 1e-13


def test_b_table_csv(tmp_path):
    prof = geometry.ScaleProfile("desitter")
    taus = np.linspace(0, 1.5, 100)
    arr = np.column_stack([taus, 1 + 0.1 * taus, np.ones_like(taus), 1 + 0.05 * taus ** 2])
    path = tmp_path / "btab.csv"
    np.savetxt(path, arr, delimiter=",")
    bg = geometry.from_b_table(prof, path)
    assert np.allclose(bg.b(0.7), [1.07, 1.0, 1 + 0.05 * 0.49], atol=1e-8)
    # C1 consistency: finite differences of II match dII/dtau at O(h^2)
    h = 1e-4
    fd = (bg.frame(0.7 + h).II - bg.frame(0.7 - h).II) / (2 * h)
    assert np.abs(fd - bg.frame(0.7).dII).max() < 1e-5


def test_extrinsic_bound_logged():
    bg = geometry.bianchi1(geometry.ScaleProfile("desitter"), eps=0.3)
    val = bg.extrinsic_bound(0.5)
    assert np.isfinite(val) and val >= 0


# The closures that built the backgrounds before b was one piecewise
# polynomial, verbatim; the frame must keep their bits.
def closure_static_flat():
    return (lambda tau: np.ones(3), lambda tau: np.zeros(3), lambda tau: np.zeros(3))


def closure_bianchi1(eps):
    def b(tau):
        return np.array([1.0, 1.0 + eps * tau, 1.0])

    def bd(tau):
        return np.array([0.0, eps, 0.0])

    def bdd(tau):
        return np.zeros(3)

    return (b, bd, bdd)


def closure_from_b_table(path):
    data = np.loadtxt(path, delimiter=",", comments="#")
    tau = data[:, 0]
    splines = [interpolate.CubicSpline(tau, data[:, 1 + i]) for i in range(3)]

    def b(t):
        return np.array([sp(t) for sp in splines])

    def bd(t):
        return np.array([sp(t, 1) for sp in splines])

    def bdd(t):
        return np.array([sp(t, 2) for sp in splines])

    return (b, bd, bdd)


def closure_frame(funcs, tau):
    """The frame formulas of Background.frame over a closure triple."""
    b = np.asarray(funcs[0](tau), dtype=float)
    bd = np.asarray(funcs[1](tau))
    bdd = np.asarray(funcs[2](tau), dtype=float)
    return b, -bd / b, -bdd / b + (bd / b) ** 2


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_frame_keeps_the_bits_of_the_background_methods(tmp_path):
    prof = geometry.ScaleProfile("desitter")
    taus = np.linspace(0, 1.5, 100)
    path = tmp_path / "btab.csv"
    np.savetxt(path, np.column_stack([taus, 1 + 0.1 * taus, np.ones_like(taus),
                                      1 + 0.05 * taus ** 2]), delimiter=",")
    cases = [(geometry.static_flat(prof), closure_static_flat()),
             (geometry.from_b_table(prof, path), closure_from_b_table(path))]
    cases += [(geometry.bianchi1(prof, eps=eps), closure_bianchi1(eps))
              for eps in (0.0, 0.2, 0.25, 0.3)]
    for bg, funcs in cases:
        for tau in np.append(np.linspace(0.0, 1.5, 61), [0.77, bg.T * (1 - 1e-12)]):
            frame = bg.frame(tau)
            b, II, dII = closure_frame(funcs, tau)
            assert same_bits(bg.b(tau), b)
            for got, want in ((frame.b, b), (frame.II, II), (frame.dII, dII)):
                assert same_bits(got, want)  # signs of zero included
            assert frame.H == float(np.sum(II)) / 3.0
            assert frame.scal == float(-2.0 * np.sum(dII) + np.sum(II ** 2) + np.sum(II) ** 2)
            assert frame.sqrt_g == float(np.prod(b))
        for tau in (bg.T, -0.1):
            with pytest.raises(geometry.InputError):
                bg.frame(tau)


def test_polynomial_b_matches_the_ascending_powers():
    prof = geometry.ScaleProfile("desitter")
    coeffs = np.array([[1.0, 0.3, -0.1], [1.0, -0.2, 0.05], [1.0, 0.0, 0.2]])
    bg = geometry.polynomial_b(prof, coeffs)
    polys = [np.polynomial.Polynomial(c) for c in coeffs]
    for tau in (0.0, 0.3, 0.77, 1.2, 1.5):  # beyond the piece [0, 1] it extrapolates
        for nu in range(3):
            want = [p.deriv(nu)(tau) for p in polys]
            assert np.allclose(bg.b(tau, nu), want, rtol=1e-15, atol=1e-15)


def test_unit_frame_is_the_static_unit_frame():
    unit = geometry.UNIT
    assert np.array_equal(unit.b, np.ones(3)) and not np.any(unit.II) and not np.any(unit.dII)
    assert unit.H == 0.0 and unit.scal == 0.0 and unit.sqrt_g == 1.0
    assert same_bits(geometry.Frame((1, 2, 3), 0.5).II, np.full(3, 0.5))
