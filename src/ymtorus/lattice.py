"""Periodic-lattice field storage, discrete (covariant) calculus, random
data, gauge transformations and snapshot I/O.

The grid is the cubic torus [0, L)^3 with n points per axis; derivatives
are centered stencils of order 2 or 4 with periodic wrap, so summation by
parts holds exactly and all stencils commute with lattice translations.

The plain `diff` below is the coordinate-space stencil.  This module owns
the covariant derivative: `covariant_d` is the one place that forms the
frame-scaled stencil (1/b_k) diff, the fiber action of the connection and
the spinor spin-connection term; `covariant_diff` and `covariant_div` stack
and contract it.
"""

import json
import math
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from . import algebra, clifford
from .errors import InputError


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


def diff(f, axis, grid):
    """Centered periodic derivative along grid axis 0, 1 or 2.

    The grid axes are the trailing three axes of f.  The differences are
    taken between periodic slices of f, with no shifted copies, and every
    site gets the arithmetic of (8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2]))
    / (12 dx) (order 4) or (f[i+1] - f[i-1]) / (2 dx) (order 2).
    """
    f = np.ascontiguousarray(f)
    ax = f.ndim - 3 + axis
    rows = f.reshape(-1, f.shape[ax], math.prod(f.shape[ax + 1:]))
    out = _centered_difference(rows, 1, np.empty_like(rows))
    if grid.order == 2:
        out /= 2.0 * grid.dx
    else:
        out *= 8.0
        out -= _centered_difference(rows, 2, np.empty_like(rows))
        out /= 12.0 * grid.dx
    return out.reshape(f.shape)


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


# ---------------------------------------------------------------------------
# Field state
# ---------------------------------------------------------------------------

FIELDS = ("eta", "Q", "E", "phi", "phidot", "Z", "psi", "psidot", "S")


@dataclass
class FieldState:
    """First-order state u = (eta, Q, E, phi, phidot, Z, psi, psidot, S)."""

    grid: Grid
    model: "algebra.GaugeModel"
    tau: float
    eta: np.ndarray
    Q: np.ndarray
    E: np.ndarray
    phi: np.ndarray
    phidot: np.ndarray
    Z: np.ndarray
    psi: np.ndarray
    psidot: np.ndarray
    S: np.ndarray

    @classmethod
    def zeros(cls, grid, model, tau=0.0):
        g = grid.shape
        dg, dW, dV = model.dim_g, model.dim_W, model.dim_V
        return cls(
            grid=grid, model=model, tau=tau,
            eta=np.zeros((3, dg) + g),
            Q=np.zeros((3, dg) + g),
            E=np.zeros((3, dg) + g),
            phi=np.zeros((dW,) + g, dtype=complex),
            phidot=np.zeros((dW,) + g, dtype=complex),
            Z=np.zeros((3, dW) + g, dtype=complex),
            psi=np.zeros((4, dV) + g, dtype=complex),
            psidot=np.zeros((4, dV) + g, dtype=complex),
            S=np.zeros((3, 4, dV) + g, dtype=complex),
        )

    def copy(self):
        kw = {name: getattr(self, name).copy() for name in FIELDS}
        return replace(self, **kw)

    def lincomb(self, coeff_self, others, out=None):
        """self*coeff_self + sum(c*u for c, u in others) at self.tau, written
        into the arrays of `out` (a state of the same shapes, returned) or
        into a new state."""
        kw = {}
        for name in FIELDS:
            acc = np.multiply(coeff_self, getattr(self, name),
                              out=None if out is None else getattr(out, name))
            for c, u in others:
                acc += c * getattr(u, name)
            kw[name] = acc
        if out is None:
            return replace(self, **kw)
        out.tau = self.tau
        return out

    def max_abs(self):
        return max(np.abs(getattr(self, name)).max() for name in FIELDS)


# ---------------------------------------------------------------------------
# Covariant calculus
# ---------------------------------------------------------------------------

def _frame_scale(bvec):
    return np.ones(3) if bvec is None else np.asarray(bvec, dtype=float)


def connection_action(fld, xi, model, kind):
    """Fiber action of one connection component xi = eta_k on a field whose
    fiber axes sit directly before the three grid axes (any leading 1-form
    axes broadcast through):

      'adjoint'  [xi, x]           fiber (dim_g,)
      'higgs'    rho*(xi) x        fiber (dim_W,)
      'spinor'   chi*(xi) x        fiber (4, dim_V)
    """
    if kind not in model.terms:
        raise InputError("unknown fiber kind %r" % kind)
    return algebra._fiber_apply(model.terms[kind], xi, fld, axis=fld.ndim - 4)


def covariant_d(fld, k, eta, model, grid, kind, bvec=None, II=None, out=None):
    """Covariant derivative D_k along frame axis k, in this order:

      (1/b_k) diff(fld, k) + connection_action(fld, eta_k) + (1/2) II_k g0 g_k fld

    kind selects the fiber action (see connection_action); it is left out for
    eta=None (the flat reference connection) and where it acts by zero
    (model.acts).  The spin-connection term enters for kind 'spinor' with
    II_k != 0 only.  bvec=None is the unit frame.  Leading 1-form axes of fld
    are carried along (they are flat in the adapted frame).  The result is
    written into `out` when given.
    """
    b = _frame_scale(bvec)
    dk = np.divide(diff(fld, k, grid), b[k], out=out)
    if eta is not None and (kind not in model.terms or model.acts[kind]):
        # an unknown kind, 'yukawa' included, reaches connection_action,
        # which rejects it
        dk += connection_action(fld, eta[k], model, kind)
    if kind == "spinor" and II is not None and II[k]:
        # gamma_apply acts on the leading axis; the spin axis is the fifth from last
        spin = clifford.gamma_apply(clifford.G0G[k], np.moveaxis(fld, -5, 0))
        spin *= 0.5 * II[k]
        dk += np.moveaxis(spin, 0, -5)
    return dk


def covariant_diff(fld, eta, model, grid, kind, bvec=None, II=None):
    """Full covariant spatial derivative (D_0, D_1, D_2) fld, one extra leading
    1-form axis; see covariant_d."""
    out = np.empty((3,) + fld.shape, dtype=fld.dtype)
    for k in range(3):
        covariant_d(fld, k, eta, model, grid, kind, bvec, II, out=out[k])
    return out


def covariant_div(vec, eta, model, grid, kind, bvec=None, II=None):
    """Covariant divergence sum_k D_k vec_k of a field with a leading 1-form
    axis, summed in the order k = 0, 1, 2; see covariant_d."""
    out = covariant_d(vec[0], 0, eta, model, grid, kind, bvec, II)
    for k in (1, 2):
        out += covariant_d(vec[k], k, eta, model, grid, kind, bvec, II)
    return out


def hodge_dual_B(Q):
    """B_{jk} = eps_{ijk} Q_i; input (3, ...) -> output (3, 3, ...)."""
    shape = Q.shape[1:]
    B = np.zeros((3, 3) + shape, dtype=Q.dtype)
    for i, j, k, sgn in _EPS_TERMS:
        B[j, k] += sgn * Q[i]
    return B


def hodge_dual_Q(B):
    """Inverse of hodge_dual_B: Q_i = (1/2) eps_{ijk} B_{jk}."""
    shape = B.shape[2:]
    Q = np.zeros((3,) + shape, dtype=B.dtype)
    for i, j, k, sgn in _EPS_TERMS:
        Q[i] += 0.5 * sgn * B[j, k]
    return Q


EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS[_i, _j, _k] = 1.0
    EPS[_i, _k, _j] = -1.0

_EPS_TERMS = [(i, j, k, EPS[i, j, k]) for i in range(3) for j in range(3)
              for k in range(3) if EPS[i, j, k] != 0.0]


# ---------------------------------------------------------------------------
# Random band-limited states
# ---------------------------------------------------------------------------

ALL_SECTORS = ("gauge", "higgs", "dirac")


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


def random_state(grid, model, seed, amplitude, cutoff=1, sector_mask=ALL_SECTORS):
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
    dg, dW, dV = model.dim_g, model.dim_W, model.dim_V
    # draw every sector from the stream so masked runs stay reproducible
    eta = _band_limited(rng, grid, (3, dg), cutoff, False)
    E = _band_limited(rng, grid, (3, dg), cutoff, False)
    phi = _band_limited(rng, grid, (dW,), cutoff, True)
    phidot = _band_limited(rng, grid, (dW,), cutoff, True)
    psi = _band_limited(rng, grid, (4, dV), cutoff, True)
    if "gauge" in sector_mask:
        u.eta[:], u.E[:] = eta, E
    if "higgs" in sector_mask:
        u.phi[:], u.phidot[:] = phi, phidot
    if "dirac" in sector_mask:
        u.psi[:] = psi * model.fer_mask[..., None, None, None]
    if amplitude == 0.0:
        for name in FIELDS:
            getattr(u, name)[:] = 0.0
        return u
    e0 = _flat_k2_energy(u)
    if e0 > 0:
        scale = amplitude / np.sqrt(e0)
        for name in FIELDS:
            arr = getattr(u, name)
            arr *= scale
    return u


def _flat_k2_energy(u):
    """Flat-connection k=2 Sobolev energy of the stored sectors (normalizer)."""
    grid = u.grid
    total = 0.0
    for name in FIELDS:
        arr = getattr(u, name)
        if not np.any(arr):
            continue
        for ell_fields in _derivative_stack(arr, grid, 2):
            total += np.sum(np.abs(ell_fields) ** 2)
    return total * grid.cell_volume


def _derivative_stack(arr, grid, k):
    yield arr
    cur = [arr]
    for _ in range(k):
        nxt = []
        for f in cur:
            for ax in range(3):
                nxt.append(diff(f, ax, grid))
        stacked = np.stack(nxt)
        yield stacked
        cur = nxt


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


def apply_gauge(u, gt, bvec=None):
    """Gauge-transform a state: matter rotates, eta picks up the discrete
    Maurer-Cartan term -(d_k U) U^-1 evaluated with the grid stencil."""
    model = u.model
    grid = u.grid
    b = _frame_scale(bvec)
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
        worst_unit = max(worst_unit, _unit_defect_stack(U))

    worst_alpha = 0.0
    for i in range(2, len(series) - 2):
        dg = (series[i - 2] - 8 * series[i - 1] + 8 * series[i + 1] - series[i + 2]) / (12 * dtau)
        temporal = -dg @ np.conj(np.swapaxes(series[i], -2, -1))
        A = amat(tau_grid[i])
        worst_alpha = max(worst_alpha, np.abs(temporal - A).max())
    return U, {"alpha_defect": worst_alpha, "unitarity_defect": worst_unit,
               "series_length": len(series)}


def _unit_defect_stack(U):
    m = U.shape[-1]
    prod = np.conj(np.swapaxes(U, -2, -1)) @ U
    prod[..., np.arange(m), np.arange(m)] -= 1.0
    return np.sqrt(np.sum(np.abs(prod) ** 2, axis=(-2, -1))).max()


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
        for name in FIELDS:
            arr = np.ascontiguousarray(getattr(u, name))
            fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    side = dict(header)
    side["metadata"] = metadata or {}
    with open(str(path) + ".json", "w") as fh:
        json.dump(side, fh, indent=1)


def load_state(path, model):
    """Read a snapshot written by save_state for `model`; raises InputError
    when the header names another model or a sector shape does not match."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise InputError("not a ymtorus snapshot: %s" % path)
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        grid = Grid(**header["grid"])
        u = FieldState.zeros(grid, model, tau=header["tau"])
        found = {s["name"]: tuple(s["shape"]) for s in header["sectors"]}
        bad = [] if header["model"] == model.name else ["model %r" % header["model"]]
        bad += ["%s %s" % (name, shape) for name, shape in found.items()
                if name not in FIELDS or shape != getattr(u, name).shape]
        if bad or len(found) != len(FIELDS):
            raise InputError("snapshot %s does not fit model %r: %s" % (
                path, model.name, ", ".join(bad) or "sectors missing"))
        for sector in header["sectors"]:
            dtype = np.dtype(sector["dtype"]).newbyteorder("<")
            count = int(np.prod(sector["shape"]))
            data = np.frombuffer(fh.read(count * dtype.itemsize), dtype=dtype)
            getattr(u, sector["name"])[:] = data.reshape(sector["shape"])
    return u
