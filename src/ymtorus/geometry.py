"""Expanding-type backgrounds: scale factor, Gaussian time, spatial metric
family, second fundamental form and curvature of the foliated spacetime.

The simulation frame is -dtau^2 + g_tau with g_tau = diag(b1^2, b2^2, b3^2)
on the flat torus; the physical spacetime is recovered through the scale
factor s(t) and lapse N via the conformal factor (N s)^-1, with the time
map dtau = dt / s(t).

In the adapted orthonormal frame the second fundamental form is diagonal,
II_ii = -bdot_i / b_i (no sum), H = Tr(II)/3, and the slices are flat
(Riem_g = 0, Scal_g = 0).  Curvature components follow the convention
R(X,Y) = [nabla_X, nabla_Y] - nabla_[X,Y], R_{mnlr} = h(R(e_m,e_n)e_l, e_r),
Ricci_mn = eta^{lr} R_{l m n r}:

    R_{k0i0}  = -(dII/dtau)_{ki} + (II^2)_{ki}
    R_{kij0}  = 0              (homogeneous slices)
    R_{ijkl}  = -II_ik II_jl + II_jk II_il
    Ricci_00  = Tr(dII/dtau) - |II|^2
    Ricci_0k  = 0
    Ricci_ik  = -(dII/dtau)_ik + 3 H II_ik
    Scal      = -2 Tr(dII/dtau) + |II|^2 + 9 H^2
"""

import numpy as np
from scipy import integrate, interpolate, optimize

from .errors import InputError


class ScaleProfile:
    """Scale factor s(t) of the physical spacetime, with 1/s integrable.

    Shipped kinds: 'desitter' (s = a cosh(t/a)), 'exponential'
    (s = s0 exp(rate t)), 'power' (s = s0 (1 + t/t0)^p, p > 1), 'table'
    (cubic spline through sampled (t, s)), 'constant' (rejected at horizon
    computation, 1/s is not integrable).
    """

    def __init__(self, kind, **params):
        self.kind = kind
        self.params = params
        if kind == "desitter":
            self.a = float(params.get("a", 1.0))
            if self.a <= 0:
                raise InputError("desitter scale parameter must be positive")
        elif kind == "exponential":
            self.s0 = float(params.get("s0", 1.0))
            self.rate = float(params.get("rate", 1.0))
            if self.s0 <= 0 or self.rate <= 0:
                raise InputError("exponential profile needs s0, rate > 0")
        elif kind == "power":
            self.s0 = float(params.get("s0", 1.0))
            self.t0 = float(params.get("t0", 1.0))
            self.p = float(params.get("p", 2.0))
            if self.p <= 1:
                raise InputError("power profile needs exponent p > 1")
        elif kind == "constant":
            self.c = float(params.get("c", 1.0))
        elif kind == "table":
            t = np.asarray(params["t"], dtype=float)
            s = np.asarray(params["s"], dtype=float)
            if t.ndim != 1 or t.size < 4 or np.any(np.diff(t) <= 0) or np.any(s <= 0):
                raise InputError("profile table needs increasing t and s > 0")
            self._spline = interpolate.CubicSpline(t, s)
            self._tmax = t[-1]
            # crude tail model: exponential fit over the last fifth of the table
            m = max(4, t.size // 5)
            slope = np.polyfit(t[-m:], np.log(s[-m:]), 1)[0]
            if slope <= 1e-12:
                raise InputError(
                    "tabulated scale factor does not grow; 1/s is not integrable"
                )
            self._tail_rate = slope
        else:
            raise InputError("unknown scale profile kind %r" % kind)

    # -- scale factor and derivative -------------------------------------
    def s(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "desitter":
            return self.a * np.cosh(t / self.a)
        if self.kind == "exponential":
            return self.s0 * np.exp(self.rate * t)
        if self.kind == "power":
            return self.s0 * (1.0 + t / self.t0) ** self.p
        if self.kind == "constant":
            return self.c * np.ones_like(t)
        return self._spline(t)

    def sdot(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "desitter":
            return np.sinh(t / self.a)
        if self.kind == "exponential":
            return self.rate * self.s(t)
        if self.kind == "power":
            return self.s0 * self.p / self.t0 * (1.0 + t / self.t0) ** (self.p - 1)
        if self.kind == "constant":
            return np.zeros_like(t)
        return self._spline(t, 1)

    # -- Gaussian time map ------------------------------------------------
    def tau_of_t(self, t):
        """tau(t) = int_0^t dt'/s(t') by adaptive quadrature."""
        if np.ndim(t) > 0:
            return np.array([self.tau_of_t(ti) for ti in np.asarray(t).ravel()]).reshape(np.shape(t))
        t = float(t)
        # a spline is smooth only between its knots: break the integral there
        knots = self._spline.x if self.kind == "table" else np.empty(0)
        knots = knots[(knots > min(0.0, t)) & (knots < max(0.0, t))]
        val, _ = integrate.quad(lambda u: 1.0 / self.s(u), 0.0, t,
                                epsabs=1e-13, epsrel=1e-12, limit=200 + knots.size,
                                points=knots if knots.size else None)
        return val

    def horizon(self):
        """T = lim_{t->inf} tau(t); raises if 1/s is not integrable."""
        if self.kind == "constant":
            raise InputError("constant scale factor: 1/s not integrable, horizon diverges")
        if self.kind == "desitter":
            tcut = 40.0 * self.a
            tail = np.pi / 2 - np.arctan(np.sinh(tcut / self.a))
        elif self.kind == "exponential":
            tcut = 40.0 / self.rate
            tail = np.exp(-self.rate * tcut) / (self.s0 * self.rate)
        elif self.kind == "power":
            tcut = self.t0 * 1e4
            tail = self.t0 / (self.s0 * (self.p - 1)) * (1 + tcut / self.t0) ** (1 - self.p)
        else:
            tcut = self._tmax
            tail = np.exp(-0.0) / (self.s(self._tmax) * self._tail_rate)
        return self.tau_of_t(tcut) + tail

    def t_of_tau(self, tau):
        """Inverse time map; closed forms for shipped kinds, bisection otherwise."""
        tau = np.asarray(tau, dtype=float)
        if self.kind == "desitter":
            return self.a * np.arcsinh(np.tan(tau))
        if self.kind == "exponential":
            return -np.log(1.0 - self.s0 * self.rate * tau) / self.rate
        if np.ndim(tau) > 0:
            return np.array([self.t_of_tau(x) for x in tau.ravel()]).reshape(tau.shape)
        if tau == 0.0:
            return 0.0
        hi = 1.0
        while self.tau_of_t(hi) < tau:
            hi *= 2.0
            if hi > 1e12:
                raise InputError("t_of_tau: target beyond horizon")
        return optimize.brentq(lambda t: self.tau_of_t(t) - float(tau), 0.0, hi, xtol=1e-13)

    def s_of_tau(self, tau):
        if self.kind == "desitter":
            return self.a / np.cos(np.asarray(tau, dtype=float))
        if self.kind == "exponential":
            return self.s0 / (1.0 - self.s0 * self.rate * np.asarray(tau, dtype=float))
        return self.s(self.t_of_tau(tau))


def gaussian_time(profile, t):
    """Quadrature Gaussian time tau(t); see ScaleProfile.tau_of_t."""
    if t < 0:
        raise InputError("gaussian_time: t must be >= 0")
    return profile.tau_of_t(t)


# ---------------------------------------------------------------------------
# Backgrounds
# ---------------------------------------------------------------------------

class Background:
    """Simulation-frame background: tau grid data for a diagonal homogeneous
    spatial metric family diag(b_i(tau)^2) plus the physical scale profile.

    b_funcs is a triple of callables (b, bdot, bddot), each mapping tau to an
    array of shape (3,).
    """

    def __init__(self, profile, b_funcs=None, lapse=1.0, name=""):
        self.profile = profile
        self.N = float(lapse)
        if self.N <= 0:
            raise InputError("lapse must be positive")
        self.name = name or profile.kind
        if b_funcs is None:
            one = np.ones(3)
            zero = np.zeros(3)
            b_funcs = (lambda tau: one.copy(), lambda tau: zero.copy(), lambda tau: zero.copy())
        self._b, self._bdot, self._bddot = b_funcs
        self.T = profile.horizon()

    # -- metric family ----------------------------------------------------
    def b(self, tau):
        return np.asarray(self._b(tau), dtype=float)

    def sqrt_g(self, tau):
        return float(np.prod(self.b(tau)))

    # -- extrinsic curvature (diagonal frame components) -------------------
    def II(self, tau):
        """Diagonal frame components II_ii = -bdot_i / b_i."""
        return -np.asarray(self._bdot(tau)) / self.b(tau)

    def H(self, tau):
        return float(np.sum(self.II(tau))) / 3.0

    def dII_dtau(self, tau):
        b = self.b(tau)
        bd = np.asarray(self._bdot(tau), dtype=float)
        bdd = np.asarray(self._bddot(tau), dtype=float)
        return -bdd / b + (bd / b) ** 2

    def scal_h(self, tau):
        """Spacetime scalar curvature; the flat slices add no Scal_g term."""
        kappa = self.II(tau)
        dk = self.dII_dtau(tau)
        return float(-2.0 * np.sum(dk) + np.sum(kappa ** 2) + np.sum(kappa) ** 2)

    def check_tau(self, tau):
        if tau < 0 or tau >= self.T:
            raise InputError("tau = %g outside [0, T = %g)" % (tau, self.T))

    def extrinsic_bound(self, tau):
        """Def-of-expanding-type diagnostic s * max|dII/dtau| (logged, not enforced)."""
        s = self.profile.s_of_tau(tau)
        return float(s * np.abs(self.dII_dtau(tau)).max())


def second_fundamental_form(bg, tau):
    """Return (II, H, dII/dtau) at tau; II and dII as diagonal 3x3 matrices."""
    bg.check_tau(tau)
    return np.diag(bg.II(tau)), bg.H(tau), np.diag(bg.dII_dtau(tau))


def scalar_curvature(bg, tau):
    return bg.scal_h(tau)


def riemann_components(bg, tau):
    """Nonzero curvature components of -dtau^2 + g_tau in the adapted frame."""
    kappa = bg.II(tau)
    dk = bg.dII_dtau(tau)
    II = np.diag(kappa)
    dII = np.diag(dk)
    H = bg.H(tau)
    R_k0i0 = -dII + II @ II
    R_kij0 = np.zeros((3, 3, 3))
    R_ijkl = (-np.einsum("ik,jl->ijkl", II, II) + np.einsum("jk,il->ijkl", II, II))
    ric_00 = np.trace(dII) - np.sum(kappa ** 2)
    ric_0k = np.zeros(3)
    ric_ik = -dII + 3.0 * H * II
    scal = -ric_00 + np.trace(ric_ik)
    return {
        "R_k0i0": R_k0i0,
        "R_kij0": R_kij0,
        "R_ijkl": R_ijkl,
        "ricci_00": ric_00,
        "ricci_0k": ric_0k,
        "ricci_ik": ric_ik,
        "scal": scal,
    }


# -- constructors ----------------------------------------------------------

def static_flat(profile=None, lapse=1.0):
    """b_i = 1: the simulation frame of any Robertson-Walker physical metric."""
    if profile is None:
        profile = ScaleProfile("desitter", a=1.0)
    return Background(profile, None, lapse, name="static_flat(%s)" % profile.kind)


def isotropic(profile, b, bdot, bddot, lapse=1.0):
    funcs = (
        lambda tau: np.full(3, b(tau)),
        lambda tau: np.full(3, bdot(tau)),
        lambda tau: np.full(3, bddot(tau)),
    )
    return Background(profile, funcs, lapse, name="isotropic")


def bianchi1(profile, eps=0.2, lapse=1.0):
    """b = (1, 1 + eps*tau, 1): one linearly stretching axis."""
    def b(tau):
        return np.array([1.0, 1.0 + eps * tau, 1.0])

    def bd(tau):
        return np.array([0.0, eps, 0.0])

    def bdd(tau):
        return np.zeros(3)

    return Background(profile, (b, bd, bdd), lapse, name="bianchi1")


def polynomial_b(profile, coeffs, lapse=1.0):
    """b_i(tau) = sum_m coeffs[i, m] tau^m (coeffs shape (3, deg+1))."""
    coeffs = np.asarray(coeffs, dtype=float)
    polys = [np.polynomial.Polynomial(coeffs[i]) for i in range(3)]
    dpolys = [p.deriv() for p in polys]
    ddpolys = [p.deriv(2) for p in polys]

    def b(tau):
        return np.array([p(tau) for p in polys])

    def bd(tau):
        return np.array([p(tau) for p in dpolys])

    def bdd(tau):
        return np.array([p(tau) for p in ddpolys])

    return Background(profile, (b, bd, bdd), lapse, name="polynomial")


def from_b_table(profile, path, lapse=1.0):
    """CSV columns tau, b1, b2, b3 -> cubic-spline background."""
    data = np.loadtxt(path, delimiter=",", comments="#")
    if data.ndim != 2 or data.shape[1] != 4:
        raise InputError("b table must have columns tau, b1, b2, b3")
    tau = data[:, 0]
    splines = [interpolate.CubicSpline(tau, data[:, 1 + i]) for i in range(3)]

    def b(t):
        return np.array([sp(t) for sp in splines])

    def bd(t):
        return np.array([sp(t, 1) for sp in splines])

    def bdd(t):
        return np.array([sp(t, 2) for sp in splines])

    return Background(profile, (b, bd, bdd), lapse, name="table:%s" % path)
