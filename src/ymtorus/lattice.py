"""Periodic-lattice field storage, discrete (covariant) calculus, random
data, gauge transformations and snapshot I/O.

The grid is the cubic torus [0, L)^3 with n points per axis; derivatives
are centered stencils of order 2 or 4 with periodic wrap, so summation by
parts holds exactly and all stencils commute with lattice translations.

The plain `diff` below is the coordinate-space stencil.  This module owns
the covariant derivative: `covariant_d` is the one place that forms the
frame-scaled stencil (1/b_k) diff, the fiber action of the connection and
the spinor spin-connection term; `covariant_diff` and `covariant_div` stack
and contract it, `covariant_laplacian` composes the two, and
`fourier_sobolev_norms` applies the same rule to the symbol where the
connection drops out.  The background enters as one geometry.Frame
argument, UNIT by default, and the connection as one `Connection`, built
once per evaluation, which holds the matrices of its adjoint action.
"""

import json
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy import fft

from . import algebra, clifford
from .errors import InputError
from .geometry import UNIT


@dataclass(frozen=True)
class Grid:
    n: int
    L: float = 2.0 * np.pi
    order: int = 4

    def __post_init__(self):
        if self.n < 4:
            raise InputError("grid needs n >= 4 for the stencils")
        if self.order not in (2, 4):
            raise InputError("stencil order must be 2 or 4")
        if self.L <= 0:
            raise InputError("torus size must be positive")

    @property
    def dx(self):
        return self.L / self.n

    @property
    def shape(self):
        return (self.n, self.n, self.n)

    @property
    def cell_volume(self):
        return self.dx ** 3


# diff walks the leading axis of its rows in blocks of about this many bytes,
# so that a block's second difference is taken while the block is in cache.
# Per axis, medians of three rounds on a 2-vCPU Xeon host with 4 MB of L2: a
# level-1 psi chain (3, 4, 3, 32^3) complex took 12.1/13.2/16.4 ms in one
# pass and 11.1/12.6/13.1 ms in blocks, E at level 1 (3, 3, 3, 32^3)
# 5.0/4.6/6.2 -> 3.5/3.6/4.7 ms, and (3, 4, 3, 16^3) complex 1.3/1.6/2.1 ->
# 1.0/1.5/1.4 ms.  Blocks of 64 KB were slower at n = 16, and of 128 KB to
# 1 MB no faster than 256 KB.
_BLOCK_BYTES = 256 * 1024


def diff(f, axis, grid, out=None):
    """Centered periodic derivative along grid axis 0, 1 or 2.

    The grid axes are the trailing three axes of f.  The differences are
    taken between periodic slices of f, with no shifted copies, and every
    site gets the arithmetic of (8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2]))
    / (12 dx) (order 4) or (f[i+1] - f[i-1]) / (2 dx) (order 2), divided as
    _divide does.  Into `out` when given: C-contiguous with f's shape.  The
    rows are taken in blocks of _BLOCK_BYTES, with one block-sized scratch
    per call for the second difference of order 4.
    """
    f = np.ascontiguousarray(f)
    out = np.empty_like(f) if out is None else out
    if out.shape != f.shape or not out.flags.c_contiguous:
        raise InputError("diff writes into a C-contiguous array of shape %s" % (f.shape,))
    ax = f.ndim - 3 + axis
    rows = f.reshape(-1, f.shape[ax], math.prod(f.shape[ax + 1:]))
    out_rows = out.reshape(rows.shape)  # a view: out is contiguous
    block = max(1, _BLOCK_BYTES // (rows.shape[1] * rows.shape[2] * rows.itemsize))
    scratch = np.empty_like(rows[:block]) if grid.order == 4 else None
    for start in range(0, rows.shape[0], block):
        part = rows[start:start + block]
        dk = _centered_difference(part, 1, out_rows[start:start + block])
        if grid.order == 2:
            _divide(dk, 2.0 * grid.dx)
        else:
            dk *= 8.0
            dk -= _centered_difference(part, 2, scratch[:len(part)])
            _divide(dk, 12.0 * grid.dx)
    return out


def _divide(a, d):
    """a /= d.  numpy divides complex by real as (re + im*0) * (1/d), (im - re*0) * (1/d):
    a complex a takes that product on its float view, at a third of the cost.  The
    values are equal where finite; an inf part leaves the other part re/d, not NaN."""
    if np.iscomplexobj(a):  # an exact zero may flip sign
        np.multiply(a.view(a.real.dtype), 1.0 / d, out=a.view(a.real.dtype))
    else:  # 1/d would change bits
        a /= d


def _centered_difference(rows, s, out):
    """out[:, i] = rows[:, i+s] - rows[:, i-s] with periodic i (s <= n/2) for
    rows of shape (before, n, after).

    One subtraction over the flattened arrays covers every site whose
    neighbours i +- s lie in its own row; the 2s sites per row whose
    neighbours wrap around are then overwritten.
    """
    n, step = rows.shape[1], s * rows.shape[2]
    flat, flat_out = rows.reshape(-1), out.reshape(-1)
    np.subtract(flat[2 * step:], flat[:flat.size - 2 * step],
                out=flat_out[step:flat.size - step])
    np.subtract(rows[:, s:2 * s], rows[:, n - s:], out=out[:, :s])
    np.subtract(rows[:, :s], rows[:, n - 2 * s:n - s], out=out[:, n - s:])
    return out


def sq_norm(x):
    """sum |x|^2; a real x is squared directly (abs is exact on reals: same bits)."""
    return np.sum(np.abs(x) ** 2 if np.iscomplexobj(x) else np.square(x))


def modified_wavenumber(grid):
    """s(kappa) of the stencil at the FFT wavenumbers of one axis: diff maps
    exp(i kappa x) to i s(kappa) exp(i kappa x) (Lele, J. Comput. Phys. 103, 1992)."""
    theta = 2.0 * np.pi * fft.fftfreq(grid.n)  # kappa dx
    if grid.order == 2:
        return np.sin(theta) / grid.dx
    return (8.0 * np.sin(theta) - np.sin(2.0 * theta)) / (6.0 * grid.dx)


def fourier_sobolev_norms(fld, k, grid, kind=None, frame=UNIT, weight=1.0):
    """Squared H^l norms [H^0, ..., H^k] for covariant_d's D_k without the
    connection: (1/b_k) diff(., k), plus (1/2) II_k g0 g_k for kind 'spinor'.

    sum_k |D_k f|^2 has the Fourier symbol lambda = sum_k s(kappa_k)^2 / b_k^2,
    plus sum_k II_k^2 / 4 on spinors (g0 g_k is a Hermitian involution), so
    level j sums to sum_kappa lambda^j |f_hat|^2 / n^3: one FFT gives every
    level.  H^0 is the direct sum; a real field takes the half spectrum,
    counting mirrored modes twice.  H^l = weight * sum_{j <= l} level j.
    """
    total = sq_norm(fld)
    norms = [float(total * weight)]
    real = not np.iscomplexobj(fld)
    f_hat = (fft.rfftn if real else fft.fftn)(fld, axes=(-3, -2, -1))
    last = np.arange(f_hat.shape[-1])
    mirrored = real & (last > 0) & (2 * last != grid.n)
    parts = np.square(f_hat.view(np.float64), out=f_hat.view(np.float64))  # re^2, im^2
    parts = np.sum(parts.reshape((-1,) + f_hat.shape[-3:] + (2,)), axis=0)
    power = (parts[..., 0] + parts[..., 1]) * (np.where(mirrored, 2.0, 1.0) / grid.n ** 3)
    s2 = (modified_wavenumber(grid)[None, :] / frame.b[:, None]) ** 2
    lam = s2[0][:, None, None] + s2[1][None, :, None] + s2[2][None, None, last]
    if kind == "spinor":
        lam += 0.25 * np.sum(np.square(frame.II))
    for _ in range(k):
        power *= lam
        total += np.sum(power)
        norms.append(float(total * weight))
    return norms


# ---------------------------------------------------------------------------
# Field state
# ---------------------------------------------------------------------------

# The sectors of the energy estimate and the fields of each, in storage order.
SECTORS = {"gauge": ("eta", "Q", "E"), "higgs": ("phi", "phidot", "Z"),
           "dirac": ("psi", "psidot", "S")}
FIELDS = sum(SECTORS.values(), ())
_DTYPES = {"gauge": np.float64, "higgs": np.complex128, "dirac": np.complex128}


def _field_shapes(grid, model):
    dg, dW, dV = model.dim_g, model.dim_W, model.dim_V
    fibers = {"eta": (3, dg), "Q": (3, dg), "E": (3, dg), "phi": (dW,), "phidot": (dW,),
              "Z": (3, dW), "psi": (4, dV), "psidot": (4, dV), "S": (3, 4, dV)}
    return {name: fiber + grid.shape for name, fiber in fibers.items()}


def _field(name):
    return property(lambda u: u._fields[name],
                    lambda u, value: np.copyto(u._fields[name], value),
                    doc="view of %r into its sector buffer; assigning copies into it" % name)


class FieldState:
    """First-order state u = (eta, Q, E | phi, phidot, Z | psi, psidot, S).

    Each sector of SECTORS is one flat buffer, u.sectors[name]: float64 for
    the gauge sector, complex128 for the two matter sectors.  The nine fields
    are views into those buffers in SECTORS order, and assigning a field
    copies into its view, so no field can come apart from its buffer.
    """

    eta, Q, E, phi, phidot, Z, psi, psidot, S = (_field(name) for name in FIELDS)

    def __init__(self, grid, model, tau, sectors):
        self.grid, self.model, self.tau, self.sectors = grid, model, tau, sectors
        shapes, self._fields = _field_shapes(grid, model), {}
        for sector, names in SECTORS.items():
            ends = np.cumsum([math.prod(shapes[name]) for name in names])
            for name, start, end in zip(names, [0, *ends], ends):
                self._fields[name] = sectors[sector][start:end].reshape(shapes[name])

    @classmethod
    def zeros(cls, grid, model, tau=0.0):
        shapes = _field_shapes(grid, model)
        return cls(grid, model, tau, {
            sector: np.zeros(sum(math.prod(shapes[name]) for name in names), _DTYPES[sector])
            for sector, names in SECTORS.items()})

    def copy(self):
        return FieldState(self.grid, self.model, self.tau,
                          {name: buf.copy() for name, buf in self.sectors.items()})

    def lincomb(self, coeff_self, others):
        """self*coeff_self + sum(c*u for c, u in others), a new state at self.tau."""
        sectors = {}
        for name, buf in self.sectors.items():
            acc = coeff_self * buf
            for c, u in others:
                acc += c * u.sectors[name]
            sectors[name] = acc
        return FieldState(self.grid, self.model, self.tau, sectors)


# ---------------------------------------------------------------------------
# Covariant calculus
# ---------------------------------------------------------------------------

class Connection:
    """The connection eta (3, dim_g, *grid) of one evaluation and its model,
    with the components of each eta_k's adjoint action built here, once and
    before any thread reads them (algebra.FiberTerms.build); complex fiber
    kinds build theirs per call.  The components keep eta's values: a changed
    eta (evolve advances u in place) needs a new Connection.  None stands for
    the flat reference."""

    def __init__(self, eta, model):
        self.eta, self.model = eta, model
        self.adjoint = [model.lie.terms.build(eta_k) for eta_k in eta]


def connection_action(fld, conn, k, kind, out=None):
    """Fiber action of the component eta_k of the Connection `conn` on a
    field whose fiber axes sit directly before the three grid axes (any
    leading 1-form axes broadcast through), added into `out` when given (see
    algebra._fiber_apply):

      'adjoint'  [eta_k, x]           fiber (dim_g,)
      'higgs'    rho*(eta_k) x        fiber (dim_W,)
      'spinor'   chi*(eta_k) x        fiber (4, dim_V)
    """
    if kind not in conn.model.terms:
        raise InputError("unknown fiber kind %r" % kind)
    return algebra._fiber_apply(conn.model.terms[kind], conn.eta[k], fld, axis=fld.ndim - 4,
                                out=out, built=conn.adjoint[k] if kind == "adjoint" else None)


def drops_connection(conn, kind):
    """True where covariant_d leaves the connection term out (conn=None, the
    flat reference connection, or a kind that acts by zero): D_k then has
    constant coefficients.  An unknown kind keeps it: connection_action rejects it."""
    return conn is None or (kind in conn.model.terms and not conn.model.acts[kind])


def covariant_d(fld, k, conn, grid, kind, frame=UNIT, out=None):
    """Covariant derivative D_k along frame axis k, in this order:

      (1/b_k) diff(fld, k) + connection_action(fld, conn, k) + (1/2) II_k g0 g_k fld

    with b and II of the geometry.Frame `frame`.  kind selects the fiber action
    (see connection_action); it is left out where drops_connection holds.
    The spin-connection term enters for kind 'spinor' with II_k != 0 only.
    Leading 1-form axes of fld are carried along (flat in the adapted frame).  The
    result is written into `out` (C-contiguous, see diff) when given.

    Both fiber terms are added into the result piece by piece: the connection
    term one fiber component and leading index at a time, the spin-connection
    term one spin row at a time through g0 g_k's row table
    (clifford.spin_add).  Their largest temporaries are a few grids and one
    spin row, and each element gets the arithmetic of adding the whole terms.
    """
    dk = diff(fld, k, grid, out=out)
    if frame.b[k] != 1.0:  # dividing by one changes no value
        _divide(dk, frame.b[k])
    if not drops_connection(conn, kind):
        connection_action(fld, conn, k, kind, out=dk)
    if kind == "spinor" and frame.II[k]:  # the spin axis first
        clifford.spin_add(np.moveaxis(dk, -5, 0), clifford.G0G_ROWS[k],
                          np.moveaxis(fld, -5, 0), 0.5 * frame.II[k])
    return dk


def covariant_diff(fld, conn, grid, kind, frame=UNIT):
    """Full covariant spatial derivative (D_0, D_1, D_2) fld, one extra leading
    1-form axis; see covariant_d."""
    out = np.empty((3,) + fld.shape, dtype=fld.dtype)
    for k in range(3):
        covariant_d(fld, k, conn, grid, kind, frame, out=out[k])
    return out


def covariant_diff_sq_norm(fld, conn, grid, kind, frame=UNIT, minus=None):
    """sq_norm(covariant_diff(fld, ...) - minus) (minus=None: 0) without the
    stack: D_j fld - minus[j] is formed in one reused buffer (in place for a real
    field) and its |.|^2 written into the j-th third of one float buffer, whose
    single np.sum adds sq_norm's values in sq_norm's order."""
    squares = np.empty((3,) + fld.shape)
    block = np.empty(fld.shape, fld.dtype) if np.iscomplexobj(fld) else None
    for j in range(3):
        dj = covariant_d(fld, j, conn, grid, kind, frame,
                         out=squares[j] if block is None else block)
        if minus is not None:
            dj -= minus[j]
        if block is not None:  # sq_norm's |x| ** 2
            np.abs(dj, out=squares[j])
        np.square(squares[j], out=squares[j])
    return np.sum(squares)


def covariant_div(vec, conn, grid, kind, frame=UNIT, out=None):
    """Covariant divergence sum_k D_k vec_k of a field with a leading 1-form
    axis, summed in the order k = 0, 1, 2 (into `out` when given); see covariant_d."""
    out = covariant_d(vec[0], 0, conn, grid, kind, frame, out=out)
    for k in (1, 2):
        out += covariant_d(vec[k], k, conn, grid, kind, frame)
    return out


def covariant_laplacian(fld, conn, grid, kind, frame=UNIT):
    """sum_k D_k D_k fld = -D*D fld: covariant_div of covariant_diff."""
    return covariant_div(covariant_diff(fld, conn, grid, kind, frame), conn, grid, kind, frame)


def hodge_dual_B(Q):
    """B_{jk} = eps_{ijk} Q_i; input (3, ...) -> output (3, 3, ...)."""
    shape = Q.shape[1:]
    B = np.zeros((3, 3) + shape, dtype=Q.dtype)
    for i, j, k, sgn in _EPS_TERMS:
        B[j, k] += sgn * Q[i]
    return B


EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS[_i, _j, _k] = 1.0
    EPS[_i, _k, _j] = -1.0

_EPS_TERMS = [(i, j, k, EPS[i, j, k]) for i in range(3) for j in range(3)
              for k in range(3) if EPS[i, j, k] != 0.0]


# ---------------------------------------------------------------------------
# Random band-limited states
# ---------------------------------------------------------------------------

def _band_limited(rng, grid, shape, cutoff, complex_field):
    """Zero-mean random field with Fourier support 0 < |k_i|_inf <= cutoff.

    Coefficients are drawn in a fixed signed-mode order and attached to the
    continuum modes exp(i k.x), so a given seed produces the same smooth
    field at every resolution (only sampled on a finer grid).
    """
    n = grid.n
    spectrum = np.zeros(shape + grid.shape, dtype=complex)
    mode_scale = 1.0 / (2 * cutoff + 1) ** 1.5
    for ka in range(-cutoff, cutoff + 1):
        for kb in range(-cutoff, cutoff + 1):
            for kc in range(-cutoff, cutoff + 1):
                coeff = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                if ka == 0 and kb == 0 and kc == 0:
                    continue
                spectrum[..., ka % n, kb % n, kc % n] = coeff * mode_scale
    out = np.fft.ifftn(spectrum, axes=(-3, -2, -1)) * n ** 3
    if complex_field:
        return out
    return np.sqrt(2.0) * out.real


def random_state(grid, model, seed, amplitude, cutoff=1, sector_mask=tuple(SECTORS)):
    """Seeded band-limited random state.

    Fills the free data (eta, E, phi, phidot, psi) with independent random
    Fourier modes, zeroes masked-out sectors, projects psi onto the
    chirality-consistent fiber, and rescales so that the flat-connection k=2
    energy of the stored sectors equals amplitude**2.  The derived sectors
    (Q, Z, S, psidot) are left zero; constraints.complete_state fills them.
    """
    if amplitude < 0:
        raise InputError("amplitude must be >= 0")
    rng = np.random.default_rng(seed)
    u = FieldState.zeros(grid, model)
    # draw every sector from the stream so masked runs stay reproducible
    for name in ("eta", "E", "phi", "phidot", "psi"):
        fld = getattr(u, name)
        fld[...] = _band_limited(rng, grid, fld.shape[:-3], cutoff, np.iscomplexobj(fld))
    u.psi *= model.fer_mask[..., None, None, None]
    for sector, buf in u.sectors.items():
        if sector not in sector_mask or amplitude == 0.0:
            buf.fill(0.0)
    e0 = sum(fourier_sobolev_norms(arr, 2, grid, weight=grid.cell_volume)[2]
             for arr in (getattr(u, name) for name in FIELDS) if np.any(arr))
    if e0 > 0:
        for buf in u.sectors.values():
            buf *= amplitude / np.sqrt(e0)
    return u


# ---------------------------------------------------------------------------
# Gauge transformations
# ---------------------------------------------------------------------------

class GaugeTransform:
    """Per-site group element generated by a Lie-algebra field xi.

    The defining-representation matrices are exp(xi . basis), computed by a
    unitary eigendecomposition (exact for skew-Hermitian arguments); other
    representations exponentiate their own generators.
    """

    def __init__(self, model, xi):
        self.model = model
        self.xi = np.asarray(xi, dtype=float)

    @classmethod
    def random_smooth(cls, grid, model, seed, amplitude, cutoff=1):
        rng = np.random.default_rng(seed)
        xi = amplitude * _band_limited(rng, grid, (model.dim_g,), cutoff, False)
        return cls(model, xi)

    def matrices(self, generators):
        """exp(sum_a xi_a gen_a) as an (m, m, *grid) array."""
        A = np.einsum("avw,a...->...vw", generators, self.xi)
        H = 1j * A  # Hermitian
        w, V = np.linalg.eigh(H)
        phase = np.exp(-1j * w)
        U = np.einsum("...vk,...k,...wk->...vw", V, phase, np.conj(V))
        return np.moveaxis(U, (-2, -1), (0, 1))


def unitarity_defect(U):
    """max over sites of || U^dag U - I ||_F for (m, m, *grid) arrays."""
    m = U.shape[0]
    prod = np.einsum("ji...,jk...->ik...", np.conj(U), U)
    prod[np.diag_indices(m)[0], np.diag_indices(m)[1]] -= 1.0
    return np.sqrt(np.sum(np.abs(prod) ** 2, axis=(0, 1))).max()


def apply_gauge(u, gt, frame=UNIT):
    """Gauge-transform a state: matter rotates, eta picks up the discrete
    Maurer-Cartan term -(d_k U) U^-1 evaluated with the frame-scaled stencil."""
    model = u.model
    grid = u.grid
    b = frame.b
    out = u.copy()
    lie = model.lie
    U = gt.matrices(lie.defining)
    Uinv = np.conj(np.moveaxis(U, 0, 1))  # unitary inverse
    # adjoint rotation of Lie-valued one-forms
    def ad(Xform):
        res = np.empty_like(Xform)
        for k in range(3):
            M = lie.to_matrix(Xform[k])
            res[k] = lie.from_matrix(np.einsum("ij...,jk...,kl...->il...", U, M, Uinv))
        return res

    out.E = ad(u.E)
    out.Q = ad(u.Q)
    out.eta = ad(u.eta)
    for k in range(3):
        dU = diff(U, k, grid) / b[k]
        mc = -np.einsum("ij...,kj...->ik...", dU, np.conj(U))  # -(dU) U^dag
        out.eta[k] += lie.from_matrix(mc)
    UW = gt.matrices(model.rho.gen)
    UV = gt.matrices(model.chi.gen)
    out.phi = np.einsum("vw...,w...->v...", UW, u.phi)
    out.phidot = np.einsum("vw...,w...->v...", UW, u.phidot)
    out.Z = np.einsum("vw...,kw...->kv...", UW, u.Z)
    out.psi = np.einsum("vw...,sw...->sv...", UV, u.psi)
    out.psidot = np.einsum("vw...,sw...->sv...", UV, u.psidot)
    out.S = np.einsum("vw...,ksw...->ksv...", UV, u.S)
    return out


# ---------------------------------------------------------------------------
# Bundle automorphism from a prescribed temporal coefficient
# ---------------------------------------------------------------------------

def _polar_project(U):
    """Nearest unitary (polar factor) of an (..., m, m) matrix stack."""
    W, _, Vh = np.linalg.svd(U)
    return W @ Vh


def build_automorphism(model, alpha_fn, tau_grid):
    """Integrate gdot = -alpha(tau) g per site with RK4 and unitary
    re-projection; alpha_fn(tau) returns a Lie-valued scalar field.

    Returns (g_final, diagnostics) where diagnostics carries the maximum
    defect |(-dg/dtau) g^-1 - alpha| of the defining property (computed from
    the stored series with a fourth-order time stencil) and the worst
    unitarity defect.
    """
    lie = model.lie
    tau_grid = np.asarray(tau_grid, dtype=float)
    dtau = tau_grid[1] - tau_grid[0]

    def amat(tau):
        A = lie.to_matrix(alpha_fn(tau))      # (m, m, *grid)
        return np.moveaxis(A, (0, 1), (-2, -1))

    shape_probe = amat(tau_grid[0])
    m = shape_probe.shape[-1]
    U = np.zeros_like(shape_probe)
    U[..., np.arange(m), np.arange(m)] = 1.0

    series = [U.copy()]
    worst_unit = 0.0
    for i in range(len(tau_grid) - 1):
        t0 = tau_grid[i]
        k1 = -amat(t0) @ U
        k2 = -amat(t0 + dtau / 2) @ (U + dtau / 2 * k1)
        k3 = -amat(t0 + dtau / 2) @ (U + dtau / 2 * k2)
        k4 = -amat(t0 + dtau) @ (U + dtau * k3)
        U = U + dtau / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        U = _polar_project(U)
        series.append(U.copy())
        worst_unit = max(worst_unit, unitarity_defect(np.moveaxis(U, (-2, -1), (0, 1))))

    worst_alpha = 0.0
    for i in range(2, len(series) - 2):
        dg = (series[i - 2] - 8 * series[i - 1] + 8 * series[i + 1] - series[i + 2]) / (12 * dtau)
        temporal = -dg @ np.conj(np.swapaxes(series[i], -2, -1))
        A = amat(tau_grid[i])
        worst_alpha = max(worst_alpha, np.abs(temporal - A).max())
    return U, {"alpha_defect": worst_alpha, "unitarity_defect": worst_unit,
               "series_length": len(series)}


# ---------------------------------------------------------------------------
# Snapshot I/O: self-describing binary container + JSON sidecar
# ---------------------------------------------------------------------------

_MAGIC = b"YMT1"


def save_state(path, u, metadata=None):
    """Write a state snapshot.

    Layout: magic 'YMT1', uint64 header length, UTF-8 JSON header with grid
    data and per-sector (name, shape, dtype), then the raw little-endian
    arrays in header order.  A JSON sidecar (path + '.json') repeats the
    header plus caller metadata.
    """
    header = {
        "grid": {"n": u.grid.n, "L": u.grid.L, "order": u.grid.order},
        "tau": u.tau,
        "model": u.model.name,
        "sectors": [
            {"name": name, "shape": list(getattr(u, name).shape),
             "dtype": str(getattr(u, name).dtype)}
            for name in FIELDS
        ],
        "byteorder": "little",
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for buf in u.sectors.values():  # the fields in header order
            fh.write(buf.astype(buf.dtype.newbyteorder("<"), copy=False).data)
    side = dict(header)
    side["metadata"] = metadata or {}
    with open(str(path) + ".json", "w") as fh:
        json.dump(side, fh, indent=1)


def load_state(path, model):
    """Read a snapshot written by save_state for `model`; raises InputError
    when the header is unreadable or names another model, a sector does not
    match the model's (name, shape, dtype) in order, or the data is short or
    runs on."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise InputError("not a ymtorus snapshot: %s" % path)
        try:
            (hlen,) = struct.unpack("<Q", fh.read(8))
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except (struct.error, ValueError) as err:  # JSON and UTF-8 errors are ValueErrors
            raise InputError("snapshot %s has an unreadable header: %s" % (path, err)) from err
        u = FieldState.zeros(Grid(**header["grid"]), model, tau=header["tau"])
        want = [(name, getattr(u, name).shape, str(getattr(u, name).dtype)) for name in FIELDS]
        found = [(s["name"], tuple(s["shape"]), s["dtype"]) for s in header["sectors"]]
        bad = [] if header["model"] == model.name else ["model %r" % header["model"]]
        bad += ["%s %s %s" % sector for sector in found if sector not in want]
        if bad or found != want:
            raise InputError("snapshot %s does not fit model %r: %s" % (
                path, model.name, ", ".join(bad) or "sectors missing or out of order"))
        for buf in u.sectors.values():
            data = fh.read(buf.nbytes)
            if len(data) != buf.nbytes:
                raise InputError("snapshot %s is truncated" % path)
            buf[:] = np.frombuffer(data, dtype=buf.dtype.newbyteorder("<"))
        if fh.read(1):
            raise InputError("snapshot %s has bytes after its data" % path)
    return u
