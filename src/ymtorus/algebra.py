"""Compact Lie algebra data, unitary representations and Yukawa maps.

Lie algebras are stored through their structure constants f[a,b,c] in a
basis xi_a orthonormal for the Ad-invariant inner product, so every inner
product on Lie-algebra values is Euclidean and Ad-invariance reduces to
total antisymmetry of f.  Shipped algebras: u(1), su(2) (Pauli basis,
f = Levi-Civita), su(3) (Gell-Mann basis).

A GaugeModel bundles the algebra with the Higgs representation rho on W,
the chiral fermion representation chi = chi_+ (+) chi_- on V = V_+ (+) V_-,
and a Yukawa map stored as its (w, conj w) coefficient blocks
Z_w = sum_k w_k A_k + conj(w_k) B_k, Z_w : V_+ -> V_-.

All operations broadcast over trailing grid axes.  The fiber actions, the
Yukawa map's included, run over term tables (FiberTerms) built once per
model: zero entries cost nothing.  A lattice.Connection builds the matrices
of its adjoint action once per evaluation, one for pairs equal up to sign.
"""

import numpy as np

from . import clifford
from .errors import InputError


class FiberTerms:
    """Sparse table of the fiber action out_c = sum_{a,b} t[a,b,c] xi_a x_b:
    `pairs` lists each (b, c) with a nonzero t[:, b, c] and its nonzero (a, t[a,b,c]).

    Each pair's matrix M_bc = sum_a t[a,b,c] xi_a is sign * component j, the
    sum over the coefficient list sums[j]; `plan[c]` lists the (b, j, sign) of
    the pairs that write component c, b ascending.  Equal lists are one
    component.  A real table folds signs (a list's first coefficient is
    positive), so su(3)'s 50 pairs share 19 components; a complex table keeps
    its signs in its coefficients (sign +1)."""

    def __init__(self, t):
        self.dim_xi, _, self.dim_out = t.shape
        self.dtype = t.dtype
        self.pairs = [(b, c, [(a, t[a, b, c]) for a in np.flatnonzero(t[:, b, c]).tolist()])
                      for b, c in np.argwhere(np.any(t != 0, axis=0)).tolist()]
        self.sums, self.plan = [], [[] for _ in range(self.dim_out)]
        for b, c, coeffs in self.pairs:
            sign = -1 if np.isrealobj(t) and coeffs[0][1] < 0 else 1
            key = [(a, sign * w) for a, w in coeffs]
            self.sums += [] if key in self.sums else [key]
            self.plan[c].append((b, self.sums.index(key), sign))

    def build(self, xi, js=None):
        """{j: component j, sum_a w_a xi_a over sums[j]} for the j in js (all
        if None); a component with one unit coefficient is a view of xi."""
        built = {}
        for j in range(len(self.sums)) if js is None else js:
            (a, w), *rest = self.sums[j]
            M = xi[a] if w == 1 else w * xi[a]
            for a, w in rest:
                M = M + w * xi[a]
            built[j] = M
        return built


def _fiber_apply(terms, xi, x, axis=0, out=None, built=None):
    """out[..., c, *grid] = sum_b M_bc x[..., b, *grid] over the nonzero pairs, with
    M_bc's components from `built` (terms.build(xi)), or built from xi for each c
    and kept for the axes of x before its fiber axis `axis`; a constant (1-D) xi
    or x broadcasts over the other's grid.

    For each c and leading index, each pair's component times x_b goes into one
    product buffer of one grid, and np.add or np.subtract (its sign) sums that
    into an accumulator from +0: the result's slice, or with `out` a buffer then
    added to out.  (-m) y = -(m y), a + (-p) = a - p and the accumulator is never
    -0: the bits of adding M_bc x_b (with `out`: of out + _fiber_apply(...))."""
    grid = np.broadcast_shapes(xi.shape[1:], x.shape[axis + 1:])
    dtype = np.result_type(terms.dtype, xi, x)
    add, positions = out is not None, list(np.ndindex(x.shape[:axis]))
    out = out if add else np.zeros(x.shape[:axis] + (terms.dim_out,) + grid, dtype)
    for c, plan in enumerate(terms.plan):
        Ms = terms.build(xi, [j for _, j, _ in plan]) if built is None else built
        prod, acc = np.empty(grid, dtype), np.empty(grid, dtype) if add else None
        for pos in positions:
            total = acc if add else out[pos + (c, ...)]
            if add:
                acc.fill(0.0)
            for b, j, sign in plan:
                np.multiply(Ms[j], x[pos + (b,)], prod)  # out passed by position: less overhead
                (np.add if sign > 0 else np.subtract)(total, prod, total)
            if add:
                out[pos + (c,)] += acc
        del Ms, prod, acc  # before the next component's are built
    return out


# ---------------------------------------------------------------------------
# Lie algebra data
# ---------------------------------------------------------------------------

class LieData:
    """Structure constants plus the defining (matrix) basis.

    Parameters
    ----------
    f : (dim, dim, dim) array
        Structure constants, [xi_a, xi_b] = f[a,b,c] xi_c.
    defining : (dim, m, m) complex array or None
        Skew-Hermitian matrix basis of the defining representation, used for
        group elements in gauge transformations.  For u(1) this is [[i]].
    name : str
    """

    def __init__(self, f, defining=None, name=""):
        self.f = np.asarray(f, dtype=float)
        self.dim = self.f.shape[0]
        self.terms = FiberTerms(self.f)
        self.name = name
        self.defining = None if defining is None else np.asarray(defining, dtype=complex)
        if self.defining is not None:
            # Frobenius norms used to project matrices back onto the basis
            self._def_norm = np.real(
                np.einsum("aij,aij->a", np.conj(self.defining), self.defining)
            )

    def to_matrix(self, X):
        """Lie vector(s) -> matrix in the defining representation."""
        return np.einsum("aij,a...->ij...", self.defining, X)

    def from_matrix(self, Y):
        """Project matrices back to basis coefficients (skew part is implicit)."""
        coeff = np.einsum("aij,ij...->a...", np.conj(self.defining), Y)
        return np.real(coeff) / self._def_norm.reshape((self.dim,) + (1,) * (Y.ndim - 2))


def bracket(lie, X, Y):
    """Componentwise Lie bracket, [X, Y]_c = f[a,b,c] X_a Y_b."""
    X, Y = np.asarray(X), np.asarray(Y)
    if X.shape[0] != lie.dim or Y.shape[0] != lie.dim:
        raise InputError("bracket: vectors do not match algebra dimension %d" % lie.dim)
    return _fiber_apply(lie.terms, X, Y)


def structure_constants_from_defining(defining):
    """f[a,b,c] = <[xi_a, xi_b], xi_c> for a Frobenius-orthogonal matrix basis."""
    defining = np.asarray(defining, dtype=complex)
    dim = defining.shape[0]
    norm = np.real(np.einsum("aij,aij->a", np.conj(defining), defining))
    f = np.zeros((dim, dim, dim))
    for a in range(dim):
        for b in range(dim):
            comm = defining[a] @ defining[b] - defining[b] @ defining[a]
            f[a, b] = np.real(np.einsum("cij,ij->c", np.conj(defining), comm)) / norm
    return f


def u1():
    return LieData(np.zeros((1, 1, 1)), defining=np.array([[[1j]]]), name="u1")


def su2():
    defining = -0.5j * clifford.SIGMA
    return LieData(structure_constants_from_defining(defining), defining, name="su2")


def _gell_mann():
    lam = np.zeros((8, 3, 3), dtype=complex)
    lam[0][0, 1] = lam[0][1, 0] = 1
    lam[1][0, 1] = -1j
    lam[1][1, 0] = 1j
    lam[2][0, 0] = 1
    lam[2][1, 1] = -1
    lam[3][0, 2] = lam[3][2, 0] = 1
    lam[4][0, 2] = -1j
    lam[4][2, 0] = 1j
    lam[5][1, 2] = lam[5][2, 1] = 1
    lam[6][1, 2] = -1j
    lam[6][2, 1] = 1j
    lam[7][0, 0] = lam[7][1, 1] = 1 / np.sqrt(3.0)
    lam[7][2, 2] = -2 / np.sqrt(3.0)
    return lam


def su3():
    defining = -0.5j * _gell_mann()
    return LieData(structure_constants_from_defining(defining), defining, name="su3")


SHIPPED_ALGEBRAS = {"u1": u1, "su2": su2, "su3": su3}


def load_structure_constants(path):
    """Read structure constants from a plain-text file.

    Format: comment lines start with '#'; the first data token is the
    dimension d, followed by d^3 numbers, row-major in (a, b, c).
    """
    tokens = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.extend(line.split())
    if not tokens:
        raise InputError("empty structure-constant file %s" % path)
    dim = int(tokens[0])
    vals = np.array([float(t) for t in tokens[1:]])
    if vals.size != dim ** 3:
        raise InputError(
            "expected %d structure constants, found %d" % (dim ** 3, vals.size)
        )
    lie = LieData(vals.reshape(dim, dim, dim), name=path)
    report = check_lie(lie)
    worst = max(report.values())
    if worst > 1e-10:
        raise InputError("structure constants fail algebra checks: %r" % report)
    return lie


def check_lie(lie):
    """Residuals of antisymmetry, the Jacobi identity and Ad-invariance."""
    f = lie.f
    anti = np.abs(f + np.swapaxes(f, 0, 1)).max()
    jac = np.abs(
        np.einsum("abx,xcd->abcd", f, f)
        + np.einsum("bcx,xad->abcd", f, f)
        + np.einsum("cax,xbd->abcd", f, f)
    ).max()
    # <[xi_a, xi_b], xi_c> + <xi_b, [xi_a, xi_c]> = 0 in an orthonormal basis
    ad = np.abs(f[:, :, :] + np.swapaxes(f, 1, 2)).max()
    return {"antisymmetry": anti, "jacobi": jac, "ad_invariance": ad}


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------

class ReprData:
    """Unitary representation through its skew-Hermitian generators."""

    def __init__(self, generators, name=""):
        self.gen = np.asarray(generators, dtype=complex)
        self.terms = FiberTerms(np.swapaxes(self.gen, 1, 2))  # t[a,w,v] = gen[a,v,w]
        self.dim_g = self.gen.shape[0]
        self.dim_W = self.gen.shape[1]
        self.name = name

    def skew_residual(self):
        return np.abs(self.gen + np.conj(np.swapaxes(self.gen, 1, 2))).max()

    def homomorphism_residual(self, lie):
        comm = np.einsum("aij,bjk->abik", self.gen, self.gen)
        comm = comm - np.swapaxes(comm, 0, 1)
        target = np.einsum("abc,cik->abik", lie.f, self.gen)
        return np.abs(comm - target).max()


def rho_star_apply(repr_data, xi, w):
    """Infinitesimal action sum_a xi_a rho*(xi_a) w."""
    xi, w = np.asarray(xi), np.asarray(w)
    if xi.shape[0] != repr_data.dim_g or w.shape[0] != repr_data.dim_W:
        raise InputError("rho_star_apply: dimension mismatch")
    return _fiber_apply(repr_data.terms, xi, w)


def chi_spinor_apply(repr_data, xi, psi):
    """Infinitesimal action on the internal index of a twisted spinor field."""
    return _fiber_apply(repr_data.terms, np.asarray(xi), np.asarray(psi), axis=1)


def current_pairing(repr_data, left, right, spin=None):
    """<S left, rho*(xi_a) right> as a complex Lie-vector field.

    left and right share a shape (d, *grid) or (4, d, *grid); the fiber (and
    spin) indices are contracted, the Lie index a survives.  S is the spin
    matrix of the row table `spin` (clifford.spin_rows), the identity if None.
    """
    return _fiber_pairing(repr_data.terms, left, right, spin=spin)


def _fiber_pairing(terms, left, right, first=0, spin=None):
    """out[a - first] = <S left, T_a right> for the xi components a >= first of
    a term table (T_a = the matrix of xi_a), over the nonzero pairs only; S is
    the spin matrix of the row table `spin` on spinors (4, d, *grid), else
    the identity.  A pair's products are formed one leading index at a time
    in a grid buffer and summed from +0 in a second: the bits of the np.sum
    over the leading axes, with no (rotated) copy of left."""
    axis = right.ndim - 4 if right.ndim >= 4 else right.ndim - 1
    grid = right.shape[axis + 1:]
    out = np.zeros((terms.dim_xi - first,) + grid, dtype=complex)
    C, term = np.empty(grid, complex), np.empty(grid, complex)
    for b, c, coeffs in terms.pairs:
        coeffs = [(a - first, w) for a, w in coeffs if a >= first]
        if not coeffs:
            continue
        C.fill(0.0)
        for pos in np.ndindex(right.shape[:axis]):
            if spin is None:
                np.conj(left[pos + (c,)], out=term)
            else:
                np.conj(clifford.spin_row(spin, left[:, c], pos[0], out=term), out=term)
            C += np.multiply(term, right[pos + (b,)], out=term)
        for a, w in coeffs:
            out[a] += w * C
    return out


def direct_sum(r1, r2):
    dg = r1.dim_g
    n1, n2 = r1.dim_W, r2.dim_W
    gen = np.zeros((dg, n1 + n2, n1 + n2), dtype=complex)
    gen[:, :n1, :n1] = r1.gen
    gen[:, n1:, n1:] = r2.gen
    return ReprData(gen, name="%s(+)%s" % (r1.name, r2.name))


# ---------------------------------------------------------------------------
# Yukawa maps
# ---------------------------------------------------------------------------

class YukawaData:
    """R-linear Yukawa map Y_w = [[0, -Z_w^H], [Z_w, 0]] on V = V_+ (+) V_-, with
    Z_w = sum_k w_k A_k + conj(w_k) B_k : V_+ -> V_-.

    `terms` is its fiber table over xi = (w, conj w), built once:
    Y_w = sum_k w_k L_k + conj(w_k) R_k with L_k = [[0, -B_k^H], [A_k, 0]] and
    R_k = [[0, -A_k^H], [B_k, 0]].
    """

    def __init__(self, a_lin, a_bar, name=""):
        self.a_lin = np.asarray(a_lin, dtype=complex)   # (dim_W, dim_Vm, dim_Vp)
        self.a_bar = np.asarray(a_bar, dtype=complex)
        self.dim_W, self.dim_Vm, self.dim_Vp = self.a_lin.shape
        self.name = name
        dp, dV = self.dim_Vp, self.dim_Vp + self.dim_Vm
        blocks = np.zeros((2, self.dim_W, dV, dV), dtype=complex)
        for blk, (lower, upper) in enumerate(((self.a_lin, self.a_bar),
                                              (self.a_bar, self.a_lin))):
            blocks[blk, :, dp:, :dp] = lower
            blocks[blk, :, :dp, dp:] = -np.conj(np.swapaxes(upper, 1, 2))
        self.terms = FiberTerms(np.swapaxes(blocks.reshape(2 * self.dim_W, dV, dV), 1, 2))

    @classmethod
    def zero(cls, dim_W, dim_Vp, dim_Vm):
        z = np.zeros((dim_W, dim_Vm, dim_Vp))
        return cls(z, z, name="zero")

    def matrix(self, w):
        """Y_w as a (dV, dV) matrix for a constant W-vector w."""
        return yukawa_apply(self, w, np.eye(self.dim_Vp + self.dim_Vm))


def _w_and_conj(w):
    w = np.asarray(w)
    return np.concatenate([w, np.conj(w)])


def yukawa_apply(yuk, w, v):
    """Y_w v with v = (v_+, v_-) stacked on the first axis."""
    v = np.asarray(v)
    if v.shape[0] != yuk.dim_Vp + yuk.dim_Vm:
        raise InputError("yukawa_apply: V dimension mismatch")
    return _fiber_apply(yuk.terms, _w_and_conj(w), v)


def yukawa_spinor_apply(yuk, w, psi, out=None):
    """Y_w acting on the internal index of a twisted spinor (4, dV, ...),
    added into `out` when given (see _fiber_apply)."""
    return _fiber_apply(yuk.terms, _w_and_conj(w), np.asarray(psi), axis=1, out=out)


def yukawa_antilinear_current(yuk, psi):
    """Higgs-equation source <psi, i Y^- psi>, a W-vector field.

    Expanded in an orthonormal basis e_k of W the coefficients are
    (1/2) <psi, (i Y_{e_k} - Y_{i e_k}) psi> = i <g0 psi, R_k psi> with the
    indefinite spinor pairing, a contraction over the conj-w block of the
    table; the defining property 2 Re<w, out> = <psi, i Y_w psi> holds for
    every w.  g0 acts one spin row at a time (_fiber_pairing's `spin`).
    """
    return 1j * _fiber_pairing(yuk.terms, psi, psi, first=yuk.dim_W,
                               spin=clifford.GAMMA_ROWS[0])


def check_equivariance(repr_W, repr_V, yuk, samples=100):
    """Max residual of [chi*(xi), Y_w] - Y_{rho*(xi) w} on random inputs."""
    rng = np.random.default_rng(0)
    dV = repr_V.dim_W
    worst = 0.0
    for _ in range(samples):
        xi = rng.standard_normal(repr_W.dim_g)
        w = rng.standard_normal(yuk.dim_W) + 1j * rng.standard_normal(yuk.dim_W)
        v = rng.standard_normal(dV) + 1j * rng.standard_normal(dV)
        chi_xi = np.einsum("a,avw->vw", xi, repr_V.gen)
        yw = yuk.matrix(w)
        lhs = chi_xi @ (yw @ v) - yw @ (chi_xi @ v)
        rhs = yuk.matrix(rho_star_apply(repr_W, xi, w)) @ v
        worst = max(worst, np.abs(lhs - rhs).max())
    return worst


# ---------------------------------------------------------------------------
# Gauge models (algebra + representations + Yukawa map, bundled)
# ---------------------------------------------------------------------------

class GaugeModel:
    def __init__(self, lie, rho, chi_plus, chi_minus, yukawa, name=""):
        self.lie = lie
        self.rho = rho
        self.chi_plus = chi_plus
        self.chi_minus = chi_minus
        self.chi = direct_sum(chi_plus, chi_minus)
        self.yukawa = yukawa
        self.name = name
        self.dim_g = lie.dim
        self.dim_W = rho.dim_W
        self.dim_Vp = chi_plus.dim_W
        self.dim_Vm = chi_minus.dim_W
        self.dim_V = self.dim_Vp + self.dim_Vm
        # the term table of each connection's fiber kind, and whether each
        # table, the Yukawa map's included, acts at all: an empty table (u(1)
        # brackets, trivial representations, a zero Yukawa map) acts by zero,
        # and rhs and covariant_diff skip its terms
        self.terms = {"adjoint": lie.terms, "higgs": rho.terms, "spinor": self.chi.terms}
        self.acts = {kind: bool(terms.pairs)
                     for kind, terms in {**self.terms, "yukawa": yukawa.terms}.items()}
        # chirality-consistent fiber mask: spin rows 0,1 carry V_+, rows 2,3 V_-
        mask = np.zeros((4, self.dim_V))
        mask[:2, : self.dim_Vp] = 1.0
        mask[2:, self.dim_Vp:] = 1.0
        self.fer_mask = mask

    def validate(self):
        report = check_lie(self.lie)
        report["rho_skew"] = self.rho.skew_residual()
        report["rho_hom"] = self.rho.homomorphism_residual(self.lie)
        report["chi_skew"] = self.chi.skew_residual()
        report["chi_hom"] = self.chi.homomorphism_residual(self.lie)
        report["yukawa_equivariance"] = check_equivariance(self.rho, self.chi, self.yukawa)
        worst = max(report.values())
        if worst > 1e-12:
            raise InputError("gauge model %s fails checks: %r" % (self.name, report))
        return report


def u1_toy(q_w=1):
    """Abelian model with charges q_W, q_+ = 1 and q_- = q_W + 1 and Z_w(v) = w v."""
    lie = u1()
    rho = ReprData(1j * q_w * np.ones((1, 1, 1)), name="u1_q%g" % q_w)
    chi_p = ReprData(1j * np.ones((1, 1, 1)), name="u1_q1")
    chi_m = ReprData(1j * (q_w + 1) * np.ones((1, 1, 1)), name="u1_q%g" % (q_w + 1))
    yuk = YukawaData(np.ones((1, 1, 1)), np.zeros((1, 1, 1)), name="u1_linear")
    return GaugeModel(lie, rho, chi_p, chi_m, yuk, name="u1_toy")


def su2_toy():
    """SU(2) electroweak-style toy: W = C^2, V_+ = C^2 doublet, V_- = C singlet,
    Z_w(v) = w^dag v (antilinear in w)."""
    lie = su2()
    fund = ReprData(-0.5j * clifford.SIGMA, name="su2_fund")
    singlet = ReprData(np.zeros((3, 1, 1)), name="su2_singlet")
    a_bar = np.zeros((2, 1, 2), dtype=complex)
    a_bar[0, 0, 0] = 1.0
    a_bar[1, 0, 1] = 1.0
    yuk = YukawaData(np.zeros((2, 1, 2)), a_bar, name="su2_wdag")
    return GaugeModel(lie, fund, fund, singlet, yuk, name="su2_toy")


def u1_mismatched_toy():
    """Negative control: charges violating q_W + q_+ = q_-."""
    lie = u1()
    rho = ReprData(1j * np.ones((1, 1, 1)))
    chi_p = ReprData(1j * np.ones((1, 1, 1)))
    chi_m = ReprData(3j * np.ones((1, 1, 1)))
    yuk = YukawaData(np.ones((1, 1, 1)), np.zeros((1, 1, 1)))
    return GaugeModel(lie, rho, chi_p, chi_m, yuk, name="u1_mismatched")


def su3_pure():
    """SU(3) with trivial matter content (pure Yang-Mills runs)."""
    lie = su3()
    triv = ReprData(np.zeros((8, 1, 1)), name="su3_trivial")
    yuk = YukawaData.zero(1, 1, 1)
    return GaugeModel(lie, triv, triv, triv, yuk, name="su3_pure")


def custom_pure(lie, name="custom"):
    """Pure Yang-Mills model over a user-supplied algebra (trivial matter).

    Gauge-transformation experiments need a defining matrix basis, which a
    bare structure-constant file does not carry; evolution, constraints and
    energies only use the structure constants.
    """
    triv = ReprData(np.zeros((lie.dim, 1, 1)), name="%s_trivial" % name)
    yuk = YukawaData.zero(1, 1, 1)
    return GaugeModel(lie, triv, triv, triv, yuk, name=name)


SHIPPED_MODELS = {
    "u1_toy": u1_toy,
    "su2_toy": su2_toy,
    "su3_pure": su3_pure,
}
