"""save_state / load_state round-trip every state exactly, as a property over
random models, grid sizes, field values and tau.  Skipped without hypothesis.
"""

import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ymtorus import lattice  # noqa: E402
from conftest import MODELS  # noqa: E402


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(MODELS)),
       n=st.integers(4, 8),
       tau=st.floats(allow_nan=False, allow_infinity=False),
       scale=st.floats(1e-300, 1e300),
       seed=st.integers(0, 2 ** 32 - 1))
def test_snapshot_round_trip_is_exact(name, n, tau, scale, seed):
    model = MODELS[name]()
    u = lattice.FieldState.zeros(lattice.Grid(n), model, tau=tau)
    rng = np.random.default_rng(seed)
    for buf in u.sectors.values():
        buf[:] = scale * rng.standard_normal(buf.size)
        if np.iscomplexobj(buf):
            buf += 1j * scale * rng.standard_normal(buf.size)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "u.ymt")
        lattice.save_state(path, u)
        v = lattice.load_state(path, model)
    assert (v.grid, v.tau) == (u.grid, u.tau)
    for sector, buf in u.sectors.items():
        assert v.sectors[sector].tobytes() == buf.tobytes()
