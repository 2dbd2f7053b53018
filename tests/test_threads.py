"""The second thread changes no bit, and the pool survives a fork.

Each comparison forces the thread count through the CPU affinity that
parallel.threads reads, so it runs the split and the serial path on any
host.  Under `taskset -c 0` the unforced tests see the one-core path.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from ymtorus import algebra, driver, dynamics, geometry, lattice, parallel

from conftest import make_state


def force_threads(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_threads_follow_grid_size_and_affinity(monkeypatch):
    cpus = min(2, len(os.sched_getaffinity(0)))
    assert parallel.threads(lattice.Grid(16)) == 1
    assert parallel.threads(lattice.Grid(20)) == cpus
    force_threads(monkeypatch, 1)
    assert parallel.threads(lattice.Grid(32)) == 1
    force_threads(monkeypatch, 4)
    assert parallel.threads(lattice.Grid(32)) == 2
    assert parallel.threads(lattice.Grid(16)) == 1
    # rhs and step split only while the Dirac triple is live
    u = lattice.FieldState.zeros(lattice.Grid(32), algebra.su2_toy())
    assert dynamics.threads(u) == 1
    u.psi[0, 0, 0, 0, 0] = 1.0
    assert dynamics.threads(u) == 2


def test_split_runs_second_in_the_worker_and_raises_its_errors(monkeypatch):
    force_threads(monkeypatch, 2)
    grid = lattice.Grid(32)
    here = threading.get_ident()
    first, second = parallel.split(grid, threading.get_ident, threading.get_ident)
    assert first == here and second != here
    done = []

    def slow_then_fail():
        time.sleep(0.05)
        done.append(True)
        raise ValueError("second")

    with pytest.raises(ValueError, match="second"):
        parallel.split(grid, lambda: None, slow_then_fail)
    assert done  # split waited for it
    force_threads(monkeypatch, 1)
    assert parallel.split(grid, threading.get_ident, threading.get_ident) == (here, here)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_can_use_the_pool(monkeypatch):
    force_threads(monkeypatch, 2)
    grid = lattice.Grid(32)
    assert parallel.split(grid, lambda: 1, lambda: 2) == (1, 2)  # the parent's worker runs
    pid = os.fork()
    if pid == 0:  # child: exit with 0 only if the split completes
        code = 1
        try:
            signal.alarm(20)  # a hung child ends itself
            code = 0 if parallel.split(grid, lambda: 1, lambda: 2) == (1, 2) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        time.sleep(0.05)
    else:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's split did not finish")
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


@pytest.mark.parametrize("model_fn", [algebra.u1_toy, algebra.su2_toy, algebra.su3_pure])
def test_rhs_and_step_are_bit_identical_split(monkeypatch, model_fn):
    grid, model = lattice.Grid(20), model_fn()  # the smallest grid that splits
    bg = geometry.bianchi1(geometry.ScaleProfile("desitter", a=1.0), eps=0.2)
    u = make_state(grid, model, bg, seed=5, amplitude=0.1)
    u.tau = 0.2
    coup = dynamics.Couplings(model, lam=1.0)
    results = []
    for count in (1, 2):
        force_threads(monkeypatch, count)
        du = dynamics.rhs(u, bg, coup)
        results.append((du, dynamics.step(u, bg, coup, 1e-3, k1=du)))
    (du1, u1), (du2, u2) = results
    for name in lattice.SECTORS:
        for a, b in ((du1, du2), (u1, u2)):
            assert np.array_equal(a.sectors[name].view(np.uint64), b.sectors[name].view(np.uint64))


def test_run_is_byte_identical_with_one_and_two_threads(tmp_path, monkeypatch):
    raw = driver.preset_config("bianchi1_su2").as_dict()
    raw["grid"]["n"] = "32"
    raw["initial"]["amplitude"] = "0.003"
    raw["background"]["tau_end_fraction"] = "0.025"
    raw["numerics"]["report_every"] = "1000"
    names = []
    for count in (1, 2):
        force_threads(monkeypatch, count)
        raw["outputs"] = {"directory": str(tmp_path / str(count)), "plot": "false",
                          "snapshots": "2"}
        summary = driver.run_experiment(driver.validate_config(raw))
        assert summary["threads"] == count
        names.append(sorted(p.name for p in (tmp_path / str(count)).iterdir()
                            if p.name.endswith((".csv", ".ymt"))))
    assert names[0] == names[1] and len(names[0]) == 4  # two CSVs, two snapshots
    for name in names[0]:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
