"""Complex stencils scaled on their float view and each Dirac product formed
once per rhs: the values of the code they replaced.

The stencil reference is the np.roll stencil with numpy's complex division;
complex results are compared with np.array_equal (value for value: only the
sign of an exact zero may differ), real ones bit for bit.  The Dirac rows of
rhs keep the bits of tests/reference.py, which forms every chi* product where
it is used.
"""

import numpy as np
import pytest

import reference
from ymtorus import algebra, clifford, constraints, dynamics, geometry, lattice, oracles
from ymtorus.lattice import covariant_d
from conftest import roll_diff, same_bits, state

BVEC = (1.0, 1.3, 0.8)  # b_0 = 1 skips the division


# ---------------------------------------------------------------------------
# Stencils
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [12 * 2 * np.pi / 16, 12 * 2 * np.pi / 32, 2 * 2 * np.pi / 16,
                               1.002, 3.0, 7.0, 1.0 / 3.0])
def test_complex_division_is_the_reciprocal_product_on_the_float_view(d):
    # numpy divides complex by real as (re + im*0) * (1/d), (im - re*0) * (1/d); the
    # stencils rely on it, so a numpy whose complex division differs fails here
    rng = np.random.default_rng(7)
    z = rng.standard_normal(2 * 10 ** 5) * 10.0 ** rng.integers(-300, 300, 2 * 10 ** 5)
    z[::97] = 0.0
    z[::89] = -0.0
    z = z.view(np.complex128)
    assert np.array_equal(z / d, (z.view(np.float64) * (1.0 / d)).view(np.complex128))


def test_float_view_division_differs_only_where_a_part_is_not_finite():
    # an inf imaginary part makes numpy's re + im*0 NaN; the float view keeps re/d,
    # and the inf stays, so a blow-up is still seen
    z = np.array([complex(1.5, np.inf), complex(np.inf, 2.0), complex(1.5, np.nan)])
    a = z.copy()
    lattice._divide(a, 3.0)
    with np.errstate(invalid="ignore"):
        numpy_div = z / 3.0
    assert np.isnan(numpy_div[0].real) and a[0] == complex(0.5, np.inf)
    assert np.isnan(numpy_div[1].imag) and a[1] == complex(np.inf, 2.0 / 3.0)
    assert np.isnan(numpy_div[2].real) and a[2].real == 0.5 and np.isnan(a[2].imag)
    assert not np.isfinite(a).any()


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("lead", [(), (3,), (3, 4, 2)])
@pytest.mark.parametrize("complex_field", [False, True])
def test_diff_and_covariant_d_match_roll_and_true_division(order, lead, complex_field):
    grid = lattice.Grid(8, L=1.7, order=order)
    rng = np.random.default_rng(order + len(lead))
    f = rng.standard_normal(lead + grid.shape)
    if complex_field:
        f = f + 1j * rng.standard_normal(f.shape)
    f[..., 0, 0, :] = 0.0  # exact zeros
    match = np.array_equal if complex_field else same_bits
    for k in range(3):
        assert match(lattice.diff(f, k, grid), roll_diff(f, k, grid))
        # conn=None: the connection term drops out, leaving (1/b_k) diff
        assert match(covariant_d(f, k, None, grid, "higgs", geometry.Frame(BVEC)),
                     roll_diff(f, k, grid) / BVEC[k])


# ---------------------------------------------------------------------------
# Dirac rows of rhs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["su2_toy", "u1_toy"])
def test_dirac_rows_match_products_formed_where_used(name):
    u, bg, coup = state(name, "bianchi1", 41)
    assert u.model.acts["spinor"] and u.model.acts["yukawa"] and np.any(bg.frame(u.tau).II)
    got, ref = dynamics.rhs(u, bg, coup), reference.rhs(u, bg, coup)
    for field in lattice.SECTORS["dirac"]:
        assert same_bits(getattr(got, field), getattr(ref, field)), field


def test_chi_and_gamma_calls_per_rhs(monkeypatch):
    u, bg, coup = state("su2_toy", "bianchi1", 41)
    calls = {"chi": 0, "gamma": 0}

    def counting(key, plain):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return plain(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(algebra, "chi_spinor_apply", counting("chi", algebra.chi_spinor_apply))
    for module in (clifford, constraints, oracles):  # every binding of gamma_apply
        monkeypatch.setattr(module, "gamma_apply", counting("gamma", module.gamma_apply))
    dynamics.rhs(u, bg, coup)
    # chi*(E_k) psi once for both rows, chi*(B_ij) psi once per pair i < j
    assert calls["chi"] == 6
    # the spin matrices act row by row (clifford.spin_add): no permuted copy
    assert calls["gamma"] == 0
