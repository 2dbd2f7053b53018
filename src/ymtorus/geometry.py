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

A Background holds the scales as one piecewise polynomial b(tau) (a single
polynomial piece or a cubic spline through a table) and reads b, bdot and
bddot from it.  The rest of the package sees a background only through
Background.frame(tau), a Frame of b, II and dII/dtau with H, Scal and
sqrt(g); UNIT is the unit frame.
"""

from dataclasses import dataclass

import numpy as np
from scipy import integrate, interpolate, optimize

from .errors import InputError


class ScaleProfile:
    """Scale factor s(t) of the physical spacetime, with 1/s integrable.

    Shipped kinds: 'desitter' (s = a cosh(t/a)), 'exponential'
    (s = s0 exp(rate t)), 'power' (s = s0 (1 + t/t0)^p, p > 1) and 'table'
    (cubic spline through sampled (t, s), then s(t_max) exp(rate (t - t_max))
    with the rate fitted to the last fifth); any other kind is rejected.
    """

    def __init__(self, kind, **params):
        self.kind = kind
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
        elif kind == "table":
            t = np.asarray(params["t"], dtype=float)
            s = np.asarray(params["s"], dtype=float)
            if t.ndim != 1 or t.size < 4 or np.any(np.diff(t) <= 0) or np.any(s <= 0):
                raise InputError("profile table needs increasing t and s > 0")
            self._spline = interpolate.CubicSpline(t, s)
            self._tmax = t[-1]
            m = max(4, t.size // 5)  # the tail's rate: a fit over the last fifth
            self._tail_rate = np.polyfit(t[-m:], np.log(s[-m:]), 1)[0]
            if self._tail_rate <= 1e-12:
                raise InputError("tabulated scale factor does not grow; 1/s is not integrable")
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
        tail = self._spline(self._tmax) * np.exp(self._tail_rate * (t - self._tmax))
        return np.where(t > self._tmax, tail, self._spline(np.minimum(t, self._tmax)))

    # -- Gaussian time map ------------------------------------------------
    def tau_of_t(self, t):
        """tau(t) = int_0^t dt'/s(t') by adaptive quadrature."""
        if np.ndim(t) > 0:
            return np.array([self.tau_of_t(ti) for ti in np.asarray(t).ravel()]).reshape(np.shape(t))
        t = float(t)
        if self.kind == "table" and t > self._tmax:  # the tail, in closed form
            return (self.tau_of_t(self._tmax) - np.expm1(-self._tail_rate * (t - self._tmax))
                    / (self.s(self._tmax) * self._tail_rate))
        # a spline is smooth only between its knots: break the integral there
        knots = self._spline.x if self.kind == "table" else np.empty(0)
        knots = knots[(knots > min(0.0, t)) & (knots < max(0.0, t))]
        val, _ = integrate.quad(lambda u: 1.0 / self.s(u), 0.0, t,
                                epsabs=1e-13, epsrel=1e-12, limit=200 + knots.size,
                                points=knots if knots.size else None)
        return val

    def horizon(self):
        """T = lim_{t->inf} tau(t), finite for every shipped kind."""
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
            tcut, tail = self._tmax, 1.0 / (self.s(self._tmax) * self._tail_rate)
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


# ---------------------------------------------------------------------------
# Backgrounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Frame:
    """The background at one tau: the scales b_i and the diagonal
    II_ii = -bdot_i / b_i and dII_ii/dtau, as read-only float arrays of shape (3,)."""

    b: np.ndarray
    II: np.ndarray = 0.0
    dII: np.ndarray = 0.0

    def __post_init__(self):  # a scalar broadcasts
        for name in ("b", "II", "dII"):
            value = np.broadcast_to(np.asarray(getattr(self, name), dtype=float), 3)
            object.__setattr__(self, name, value)

    @property
    def H(self):
        return float(np.sum(self.II)) / 3.0

    @property
    def scal(self):
        """Spacetime scalar curvature; the flat slices add no Scal_g term."""
        return float(-2.0 * np.sum(self.dII) + np.sum(self.II ** 2) + np.sum(self.II) ** 2)

    @property
    def sqrt_g(self):
        return float(np.prod(self.b))


UNIT = Frame(np.ones(3))  # the static unit frame: b = 1, II = 0


class Background:
    """Simulation-frame background: the scales b_i(tau) of the diagonal
    homogeneous spatial metric diag(b_i^2) plus the physical scale profile.

    b is one scipy.interpolate.PPoly whose values have a trailing axis of 3
    (a CubicSpline over three columns is one); b(tau, nu) is the nu-th
    tau-derivative, and bg.b(tau) the scales at tau.
    """

    def __init__(self, profile, b, lapse=1.0):
        self.profile = profile
        self.b = b
        self.N = float(lapse)
        if self.N <= 0:
            raise InputError("lapse must be positive")
        self.T = profile.horizon()

    def frame(self, tau):
        """The Frame at tau; raises InputError outside [0, T)."""
        if tau < 0 or tau >= self.T:
            raise InputError("tau = %g outside [0, T = %g)" % (tau, self.T))
        b, bd, bdd = self.b(tau), self.b(tau, 1), self.b(tau, 2)
        return Frame(b, -bd / b, -bdd / b + (bd / b) ** 2)

    def extrinsic_bound(self, tau):
        """Def-of-expanding-type diagnostic s * max|dII/dtau| (logged, not enforced)."""
        s = self.profile.s_of_tau(tau)
        return float(s * np.abs(self.frame(tau).dII).max())


def riemann_components(bg, tau):
    """Nonzero curvature components of -dtau^2 + g_tau in the adapted frame."""
    frame = bg.frame(tau)
    II, dII = np.diag(frame.II), np.diag(frame.dII)
    ric_00 = np.trace(dII) - np.sum(frame.II ** 2)
    ric_ik = -dII + 3.0 * frame.H * II
    return {
        "R_k0i0": -dII + II @ II,
        "R_kij0": np.zeros((3, 3, 3)),
        "R_ijkl": -np.einsum("ik,jl->ijkl", II, II) + np.einsum("jk,il->ijkl", II, II),
        "ricci_00": ric_00,
        "ricci_0k": np.zeros(3),
        "ricci_ik": ric_ik,
        "scal": -ric_00 + np.trace(ric_ik),
    }


# -- constructors ----------------------------------------------------------

def static_flat(profile=None, lapse=1.0):
    """b_i = 1: the simulation frame of any Robertson-Walker physical metric."""
    return polynomial_b(profile or ScaleProfile("desitter", a=1.0), [[1.0]] * 3, lapse)


def bianchi1(profile, eps=0.2, lapse=1.0):
    """b = (1, 1 + eps*tau, 1): one linearly stretching axis."""
    return polynomial_b(profile, [[1.0, 0.0], [1.0, eps], [1.0, 0.0]], lapse)


def polynomial_b(profile, coeffs, lapse=1.0):
    """b_i(tau) = sum_m coeffs[i, m] tau^m (coeffs shape (3, deg+1)): one
    polynomial piece on [0, 1] that extrapolates to every tau."""
    c = np.asarray(coeffs, dtype=float)[:, ::-1].T[:, None, :]  # PPoly's (deg+1, piece, 3)
    return Background(profile, interpolate.PPoly(c, [0.0, 1.0]), lapse)


def from_b_table(profile, path, lapse=1.0):
    """CSV columns tau, b1, b2, b3 -> cubic-spline background."""
    data = np.loadtxt(path, delimiter=",", comments="#")
    if data.ndim != 2 or data.shape[1] != 4:
        raise InputError("b table must have columns tau, b1, b2, b3")
    return Background(profile, interpolate.CubicSpline(data[:, 0], data[:, 1:]), lapse)
