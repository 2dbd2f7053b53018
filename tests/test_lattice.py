import hashlib
import re

import numpy as np
import pytest

from ymtorus import algebra, constraints, lattice
from conftest import make_state


def test_grid_validation():
    with pytest.raises(lattice.InputError):
        lattice.Grid(3)
    with pytest.raises(lattice.InputError):
        lattice.Grid(8, order=3)


def test_diff_constant_and_translation():
    grid = lattice.Grid(8)
    const = np.ones(grid.shape)
    for ax in range(3):
        assert np.abs(lattice.diff(const, ax, grid)).max() == 0.0
    rng = np.random.default_rng(0)
    f = rng.standard_normal(grid.shape)
    d = lattice.diff(f, 0, grid)
    d_shift = lattice.diff(np.roll(f, 2, 0), 0, grid)
    assert np.abs(np.roll(d, 2, 0) - d_shift).max() == 0.0


def test_diff_mode_and_order():
    errs = {}
    for n in (16, 32):
        grid = lattice.Grid(n)
        x = np.arange(n) * grid.dx
        f = np.sin(2 * x)[:, None, None] * np.ones((1, n, n))
        d = lattice.diff(f, 0, grid)
        errs[n] = np.abs(d - 2 * np.cos(2 * x)[:, None, None]).max()
    order = np.log2(errs[16] / errs[32])
    assert order > 3.8
    grid2 = lattice.Grid(16, order=2)
    x = np.arange(16) * grid2.dx
    f = np.sin(2 * x)[:, None, None] * np.ones((1, 16, 16))
    e2_16 = np.abs(lattice.diff(f, 0, grid2) - 2 * np.cos(2 * x)[:, None, None]).max()
    grid2b = lattice.Grid(32, order=2)
    x = np.arange(32) * grid2b.dx
    f = np.sin(2 * x)[:, None, None] * np.ones((1, 32, 32))
    e2_32 = np.abs(lattice.diff(f, 0, grid2b) - 2 * np.cos(2 * x)[:, None, None]).max()
    assert 1.8 < np.log2(e2_16 / e2_32) < 2.4


def test_summation_by_parts_exact():
    grid = lattice.Grid(8)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.shape)
    g = rng.standard_normal(grid.shape)
    for ax in range(3):
        val = np.sum(lattice.diff(f, ax, grid) * g + f * lattice.diff(g, ax, grid))
        assert abs(val) < 1e-12 * np.abs(f).max() * np.abs(g).max() * f.size


def test_covariant_diff_leibniz(su2_model, flat_bg, grid12):
    # d_k <phi, psi> = <D phi, psi> + <phi, D psi> at stencil order for the
    # unitary representation
    rng = np.random.default_rng(2)
    model = su2_model
    errs = {}
    for n in (12, 24):
        grid = lattice.Grid(n)
        eta = lattice._band_limited(rng_fixed(n, 2), grid, (3, 3), 1, False)
        a = lattice._band_limited(rng_fixed(n, 3), grid, (2,), 1, True)
        b = lattice._band_limited(rng_fixed(n, 4), grid, (2,), 1, True)
        conn = lattice.Connection(eta, model)
        Da = lattice.covariant_diff(a, conn, grid, "higgs")
        Db = lattice.covariant_diff(b, conn, grid, "higgs")
        inner = np.sum(np.conj(a) * b, axis=0)
        worst = 0.0
        for k in range(3):
            lhs = lattice.diff(inner, k, grid)
            rhs = np.sum(np.conj(Da[k]) * b + np.conj(a) * Db[k], axis=0)
            worst = max(worst, np.abs(lhs - rhs).max())
        errs[n] = worst
    assert np.log2(errs[12] / errs[24]) > 3.4


def rng_fixed(n, seed):
    return np.random.default_rng(seed)


def test_covariant_diff_abelian_adjoint_trivial(u1_model):
    grid = lattice.Grid(8)
    rng = np.random.default_rng(3)
    eta = rng.standard_normal((3, 1) + grid.shape)
    f = rng.standard_normal((1,) + grid.shape)
    cov = lattice.covariant_diff(f, lattice.Connection(eta, u1_model), grid, "adjoint")
    plain = lattice.covariant_diff(f, None, grid, "adjoint")
    assert np.abs(cov - plain).max() == 0.0


def test_hodge_dual():
    grid = lattice.Grid(8)
    rng = np.random.default_rng(4)
    Q = rng.standard_normal((3, 2) + grid.shape)
    B = lattice.hodge_dual_B(Q)
    # e^1 -> e^2 ^ e^3
    Q1 = np.zeros((3, 1, 2, 2, 2))
    Q1[0] = 1.0
    B1 = lattice.hodge_dual_B(Q1)
    assert B1[1, 2, 0, 0, 0, 0] == 1.0 and B1[2, 1, 0, 0, 0, 0] == -1.0
    # pointwise norm equality |Q| = |B|
    nq = np.sum(Q ** 2, axis=(0, 1))
    nb = 0.5 * np.sum(B ** 2, axis=(0, 1, 2))
    assert np.abs(nq - nb).max() < 1e-12


def test_random_state_contract(su2_model, flat_bg):
    grid = lattice.Grid(8)
    u0 = lattice.random_state(grid, su2_model, 5, 0.0)
    assert not any(buf.any() for buf in u0.sectors.values())
    a = lattice.random_state(grid, su2_model, 9, 0.02)
    b = lattice.random_state(grid, su2_model, 9, 0.02)
    for name in lattice.FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = lattice.random_state(grid, su2_model, 10, 0.02)
    assert any(not np.array_equal(getattr(a, n), getattr(c, n)) for n in lattice.FIELDS)
    # masked sectors stay zero
    m = lattice.random_state(grid, su2_model, 9, 0.02, sector_mask=("gauge",))
    assert np.abs(m.phi).max() == 0.0 and np.abs(m.psi).max() == 0.0
    assert np.abs(m.eta).max() > 0.0
    # fermion chirality mask respected
    d = lattice.random_state(grid, su2_model, 11, 0.02)
    off = d.psi * (1 - su2_model.fer_mask[..., None, None, None])
    assert np.abs(off).max() == 0.0


def test_band_limit_below_the_nyquist_mode(su2_model):
    # the same continuum field at every resolution, up to cutoff n/2 - 1
    coarse, fine = (lattice.GaugeTransform.random_smooth(lattice.Grid(n), su2_model, seed=3,
                                                         amplitude=0.1, cutoff=3).xi
                    for n in (8, 16))
    assert np.abs(coarse - fine[:, ::2, ::2, ::2]).max() < 1e-14
    with pytest.raises(lattice.InputError, match="cutoff 4"):  # mode +4 is mode -4 at n = 8
        lattice.GaugeTransform.random_smooth(lattice.Grid(8), su2_model, seed=3,
                                             amplitude=0.1, cutoff=4)
    with pytest.raises(lattice.InputError, match="cutoff 4"):
        lattice.random_state(lattice.Grid(8), su2_model, 1, 0.1, cutoff=4)


def test_apply_gauge_invariants(su2_model, flat_bg):
    grid = lattice.Grid(8)
    u = make_state(grid, su2_model, flat_bg, seed=6, amplitude=0.3)
    gt = lattice.GaugeTransform.random_smooth(grid, su2_model, seed=7, amplitude=0.4)
    ug = lattice.apply_gauge(u, gt)
    # pointwise gauge-invariant scalars
    assert np.abs(np.sum(np.abs(ug.phi) ** 2, 0) - np.sum(np.abs(u.phi) ** 2, 0)).max() < 1e-12
    assert np.abs(np.sum(np.abs(ug.psi) ** 2, (0, 1))
                  - np.sum(np.abs(u.psi) ** 2, (0, 1))).max() < 1e-12
    assert np.abs(np.sum(ug.E ** 2, (0, 1)) - np.sum(u.E ** 2, (0, 1))).max() < 1e-11
    assert np.abs(np.sum(ug.Q ** 2, (0, 1)) - np.sum(u.Q ** 2, (0, 1))).max() < 1e-11
    # identity transform
    gid = lattice.GaugeTransform(su2_model, np.zeros((3,) + grid.shape))
    uid = lattice.apply_gauge(u, gid)
    for name in lattice.FIELDS:
        assert np.abs(getattr(uid, name) - getattr(u, name)).max() < 1e-14


def test_apply_gauge_curvature_covariance(su2_model):
    # B(apply_gauge(u, g)) = Ad_g B(u) + O(dx^p) on smooth data
    errs = {}
    for n in (12, 24):
        grid = lattice.Grid(n)
        u = lattice.random_state(grid, su2_model, 8, 0.3)
        gt = lattice.GaugeTransform.random_smooth(grid, su2_model, seed=9, amplitude=0.3)
        constraints.complete_state(u, None)
        ug = lattice.apply_gauge(u, gt)
        B_of_transformed = constraints.star_curvature(ug, None)
        lie = su2_model.lie
        U = gt.matrices(lie.defining)
        Uinv = np.conj(np.moveaxis(U, 0, 1))
        B = constraints.star_curvature(u, None)
        adB = np.empty_like(B)
        for m in range(3):
            M = lie.to_matrix(B[m])
            adB[m] = lie.from_matrix(np.einsum("ab...,bc...,cd...->ad...", U, M, Uinv))
        errs[n] = np.abs(B_of_transformed - adB).max()
    assert np.log2(errs[12] / errs[24]) > 3.2


def test_gauge_transform_unitarity(su2_model):
    grid = lattice.Grid(8)
    gt = lattice.GaugeTransform.random_smooth(grid, su2_model, seed=10, amplitude=1.0)
    U = gt.matrices(su2_model.lie.defining)
    assert lattice.unitarity_defect(U) < 1e-12


def test_build_automorphism_zero_alpha(su2_model):
    grid = lattice.Grid(4)
    taus = np.linspace(0, 1, 11)
    g, diag = lattice.build_automorphism(
        su2_model, lambda tau: np.zeros((3,) + grid.shape), taus)
    eye = np.zeros_like(g)
    eye[..., 0, 0] = eye[..., 1, 1] = 1.0
    assert np.abs(g - eye).max() == 0.0
    assert diag["alpha_defect"] < 1e-14


def test_build_automorphism_u1_closed_form(u1_model):
    grid = lattice.Grid(4)
    c = 0.41
    taus = np.linspace(0, 1.2, 121)
    g, diag = lattice.build_automorphism(
        u1_model, lambda tau: c * np.ones((1,) + grid.shape), taus)
    assert np.abs(g[..., 0, 0] - np.exp(-1j * c * 1.2)).max() < 1e-10
    assert diag["alpha_defect"] < 1e-9
    assert diag["unitarity_defect"] < 1e-10


def test_snapshot_roundtrip(tmp_path, su2_model, flat_bg):
    grid = lattice.Grid(8)
    u = make_state(grid, su2_model, flat_bg, seed=12, amplitude=0.1)
    u.tau = 0.37
    path = tmp_path / "snap.ymt"
    lattice.save_state(path, u, metadata={"note": "test"})
    v = lattice.load_state(path, su2_model)
    assert v.tau == u.tau and v.grid == u.grid
    for name in lattice.FIELDS:
        assert np.array_equal(getattr(v, name), getattr(u, name))
    import json
    side = json.loads((tmp_path / "snap.ymt.json").read_text())
    assert side["metadata"]["note"] == "test"
    with pytest.raises(lattice.InputError):
        bad = tmp_path / "bad.ymt"
        bad.write_bytes(b"NOPE")
        lattice.load_state(bad, su2_model)


def test_load_state_checks_model_and_shapes(tmp_path, u1_model, flat_bg):
    grid = lattice.Grid(8)
    path = tmp_path / "u1.ymt"
    lattice.save_state(path, make_state(grid, u1_model, flat_bg, seed=2, amplitude=0.1))
    # another model name with the same sector shapes
    with pytest.raises(lattice.InputError, match="model 'u1_toy'"):
        lattice.load_state(path, algebra.u1_mismatched_toy())
    # the su2 sectors would take the u1 eta (3, 1, n, n, n) by broadcasting
    with pytest.raises(lattice.InputError, match=r"eta \(3, 1, 8, 8, 8\)"):
        lattice.load_state(path, algebra.su2_toy())
    # a model of the right name whose fibers do not match the stored shapes
    renamed = algebra.su2_toy()
    renamed.name = "u1_toy"
    with pytest.raises(lattice.InputError, match=r"^snapshot .* 'u1_toy': eta \(3, 1, 8, 8, 8\)"):
        lattice.load_state(path, renamed)
    assert lattice.load_state(path, u1_model).grid == grid


BROKEN = {  # how a good snapshot is broken -> what load_state says
    "header": (lambda data: data[:40], "has an unreadable header"),
    "short": (lambda data: data[:-8], "is truncated"),
    "long": (lambda data: data + bytes(16), "has bytes after its data"),
    "dtype": (lambda data: data.replace(b'"E", "shape": [3, 1, 8, 8, 8], "dtype": "float64"',
                                        b'"E", "shape": [3, 1, 8, 8, 8], "dtype": "float32"'),
              r"does not fit model 'u1_toy': E \(3, 1, 8, 8, 8\) float32$"),
}


@pytest.mark.parametrize("broken", sorted(BROKEN))
def test_load_state_rejects_broken_files(tmp_path, u1_model, flat_bg, broken):
    path = tmp_path / "u1.ymt"
    lattice.save_state(path, make_state(lattice.Grid(8), u1_model, flat_bg, seed=2))
    edit, message = BROKEN[broken]
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(lattice.InputError, match="^snapshot %s .*%s" % (re.escape(str(path)), message)):
        lattice.load_state(path, u1_model)


def test_snapshot_bytes_are_pinned(tmp_path, u1_model):
    # the .ymt layout: header, then each field in FIELDS order, little-endian
    u = lattice.FieldState.zeros(lattice.Grid(4), u1_model, tau=0.25)
    for i, name in enumerate(lattice.FIELDS):
        fld = getattr(u, name)
        vals = np.arange(fld.size).reshape(fld.shape) + 1000.0 * i
        fld[...] = vals * (1 - 0.5j) if np.iscomplexobj(fld) else vals
    path = tmp_path / "pinned.ymt"
    lattice.save_state(path, u)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "1658da5b2a1e9d8b8d0f73d97176135ac0bbc62a58a71dceaa3b09487a941c44")


def test_fields_tile_their_sector_buffers(su2_model):
    u = lattice.FieldState.zeros(lattice.Grid(4), su2_model)
    assert lattice.FIELDS == sum(lattice.SECTORS.values(), ())
    for sector, names in lattice.SECTORS.items():
        buf = u.sectors[sector]
        assert buf.ndim == 1 and buf.dtype == (float if sector == "gauge" else complex)
        for i, name in enumerate(names):
            assert np.shares_memory(getattr(u, name), buf)
            getattr(u, name).fill(i + 1)
        assert np.array_equal(np.concatenate([getattr(u, name).ravel() for name in names]), buf)
        assert np.all(buf != 0)  # the views cover the buffer


def test_assigning_a_field_writes_its_buffer(su2_model):
    u = lattice.FieldState.zeros(lattice.Grid(4), su2_model)
    view = u.E
    u.E = np.ones(u.E.shape)
    u.Q += 2.0
    u.psi = 1j * np.ones(u.psi.shape)
    assert u.E is view and np.all(view == 1.0)
    assert np.sum(u.sectors["gauge"]) == 3.0 * u.E.size
    assert np.sum(u.sectors["dirac"]) == 1j * u.psi.size
    with pytest.raises(ValueError):
        u.E = np.ones((2, 2))  # a field keeps its shape


def test_copy_is_independent(su2_model, flat_bg):
    u = make_state(lattice.Grid(4), su2_model, flat_bg, seed=5)
    v, phi = u.copy(), u.phi.copy()
    v.phi += 1.0
    v.sectors["gauge"][:] = 0.0
    assert not np.shares_memory(u.sectors["dirac"], v.sectors["dirac"])
    assert np.any(u.eta) and not np.any(v.eta)
    assert np.array_equal(u.phi, phi) and not np.array_equal(v.phi, phi)
