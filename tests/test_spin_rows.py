"""Spin matrices act row by row, spinor pairings sum one spin row at a time,
and rhs forms no B = *Q: with the bits of the whole-array code.

tests/reference.py forms a permuted copy of each spinor for every constant
spin matrix (gamma_apply), a conjugated copy of the rotated spinor for each
pairing, and the whole B = *Q.  rhs, gauge_rhs, the currents and the Dirac
constraint must match it bit for bit, signs of zero included, on states with
a fifth of their entries set to +-0.  Temporaries are measured with
tracemalloc, which sees numpy's data buffers.
"""

import numpy as np
import pytest

import reference
from ymtorus import algebra, clifford, constraints, dynamics, lattice, parallel
from ymtorus.clifford import G0G, GG, GAMMA, gamma_apply
from ymtorus.lattice import FieldState
from conftest import (BACKGROUNDS, MODELS, assert_same_states, force_threads, same_bits, state,
                      traced_peak, with_zeros)


# ---------------------------------------------------------------------------
# Bits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("matter", [True, False])
@pytest.mark.parametrize("bg_name", sorted(BACKGROUNDS))
@pytest.mark.parametrize("name", sorted(MODELS))
def test_rows_and_pairings_keep_the_bits(name, bg_name, matter):
    u, bg, coup = state(name, bg_name, 23, matter=matter, zeros=True)
    frame = bg.frame(u.tau)
    if bg_name != "desitter":
        assert np.all(frame.II != 0) if bg_name == "curved" else np.any(frame.II)
        assert np.any(frame.dII != frame.II ** 2) == (bg_name == "curved")
    ref = reference.rhs(u, bg, coup)
    assert_same_states(dynamics.rhs(u, bg, coup), ref)

    alone = FieldState.zeros(u.grid, u.model)
    assert dynamics.gauge_rhs(u, frame, coup, alone) is None
    for field in lattice.SECTORS["gauge"]:
        assert same_bits(getattr(alone, field), getattr(ref, field)), field
    for sector in ("higgs", "dirac"):  # not written
        assert same_bits(alone.sectors[sector], np.zeros_like(alone.sectors[sector]))

    assert same_bits(dynamics.currents(u), reference.currents(u))
    yuk = u.model.yukawa
    assert same_bits(algebra.yukawa_antilinear_current(yuk, u.psi),
                     reference.yukawa_antilinear_current(yuk, u.psi))
    assert same_bits(constraints.dirac_constraint(u), reference.dirac_constraint(u))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_split_rows_keep_the_bits(monkeypatch, name):
    u, bg, coup = state(name, "bianchi1", 23, n=20, zeros=True)  # the smallest grid that splits
    ref = reference.rhs(u, bg, coup)
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
                assert same_bits(clifford.spin_row(rows, X, r, scale), scaled[r])
            assert same_bits(clifford.spin_add(acc.copy(), rows, X, scale),
                                         acc + scaled)
            assert same_bits(
                clifford.spin_add(acc.copy(), rows, X, scale, subtract=True), acc - scaled)


# ---------------------------------------------------------------------------
# Temporaries
# ---------------------------------------------------------------------------

def test_rhs_makes_no_permuted_copies():
    # su2_toy on bianchi1 at n = 16 (one thread) into a kept buffer: the whole
    # B, the permuted spinor copies and the pairings' conjugated copies took
    # 7.78 MB of temporaries, 1.42 states; row by row it is 5.71 MB
    u, bg, coup = state("su2_toy", "bianchi1", 23, n=16, zeros=True)
    out = FieldState.zeros(u.grid, u.model)
    _, peak = traced_peak(lambda: dynamics.rhs(u, bg, coup, out=out))
    assert peak < 1.2 * sum(buf.nbytes for buf in u.sectors.values())
