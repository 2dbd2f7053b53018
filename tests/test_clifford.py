import numpy as np

from ymtorus import clifford


def test_anticommutator_table_exact():
    assert clifford.anticommutator_table() <= 1e-15


def test_volume_element():
    om = clifford.OMEGA
    assert np.abs(om - np.diag([1, 1, -1, -1])).max() == 0.0
    assert np.abs(om @ om - np.eye(4)).max() == 0.0
    for mu in range(4):
        assert np.abs(om @ clifford.GAMMA[mu] + clifford.GAMMA[mu] @ om).max() == 0.0


def test_projectors():
    p, m = clifford.PROJ_PLUS, clifford.PROJ_MINUS
    assert np.abs(p @ p - p).max() == 0.0
    assert np.abs(m @ m - m).max() == 0.0
    assert np.abs(p + m - np.eye(4)).max() == 0.0
    assert np.linalg.matrix_rank(p) == 2 and np.linalg.matrix_rank(m) == 2


def test_gamma0_squares_to_identity_on_spinors():
    rng = np.random.default_rng(1)
    psi = rng.standard_normal((4, 2, 3, 3, 3)) + 1j * rng.standard_normal((4, 2, 3, 3, 3))
    e0 = np.array([1.0, 0, 0, 0])
    twice = clifford.clifford_mul(e0, clifford.clifford_mul(e0, psi))
    assert np.abs(twice - psi).max() < 1e-15


def test_clifford_symmetry_indefinite_product():
    rng = np.random.default_rng(2)
    for _ in range(50):
        X = rng.standard_normal(4)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        lhs = clifford.spin_inner(clifford.clifford_mul(X, psi), phi)
        rhs = clifford.spin_inner(psi, clifford.clifford_mul(X, phi))
        assert abs(lhs - rhs) < 1e-12


def test_chiral_subspaces_are_null():
    rng = np.random.default_rng(3)
    psi = np.zeros(4, complex)
    psi[:2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert abs(clifford.spin_inner(psi, psi)) < 1e-15
    psi2 = np.zeros(4, complex)
    psi2[2:] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert abs(clifford.spin_inner(psi2, psi2)) < 1e-15


def test_spin_inner_values():
    psi = np.array([1, 0, 1, 0], complex)
    assert clifford.spin_inner(psi, psi) == 2.0 + 0j
    rng = np.random.default_rng(4)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert abs(clifford.spin_inner(a, b) - np.conj(clifford.spin_inner(b, a))) < 1e-14


def test_spin_inner_pos():
    rng = np.random.default_rng(5)
    psi = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    val = clifford.spin_inner_pos(psi, psi)
    assert abs(val - np.sum(np.abs(psi) ** 2)) < 1e-13
    assert np.real(val) > 0
    unit = np.zeros((4, 1), complex)
    unit[0, 0] = 1.0
    assert clifford.spin_inner_pos(unit, unit) == 1.0 + 0j
    assert clifford.spin_inner_pos(0 * unit, 0 * unit) == 0.0


def test_vector_clifford_flips_chirality():
    rng = np.random.default_rng(6)
    psi = np.zeros(4, complex)
    psi[:2] = rng.standard_normal(2)
    for mu in range(4):
        X = np.zeros(4)
        X[mu] = 1.0
        rotated = clifford.clifford_mul(X, psi)
        assert np.abs(rotated[:2]).max() < 1e-15  # lands in the - chirality


def test_gamma_apply_equals_tensordot_for_every_matrix():
    rng = np.random.default_rng(12)
    psi = rng.standard_normal((4, 3, 8, 8, 8)) + 1j * rng.standard_normal((4, 3, 8, 8, 8))
    X = rng.standard_normal(4)
    mats = [*clifford.GAMMA, *clifford.G0G, *clifford.GG.reshape(9, 4, 4), clifford.OMEGA,
            clifford.PROJ_PLUS, clifford.PROJ_MINUS, clifford.MINKOWSKI,
            np.einsum("m,mab->ab", X, clifford.GAMMA)]
    for i, mat in enumerate(mats):
        out = clifford.gamma_apply(mat, psi)
        assert out.dtype == complex
        assert np.array_equal(out, np.tensordot(mat, psi, axes=(1, 0))), i
