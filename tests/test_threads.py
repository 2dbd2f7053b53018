"""The second thread changes no bit, the pool survives a fork, a split
called in the worker raises, balance runs each block in the list its rule
names and raises only after both lists, once forms its product once for both
threads, an error in set-up's Gauss block is raised only after its matter
block has finished, freed memory stays in the process, and diff's blocks
change no bit.

Each comparison forces the thread count through the CPU affinity that
parallel.threads reads, so it runs the split and the serial path on any
host.  Under `taskset -c 0` the unforced tests see the one-core path.
"""

import math
import os
import resource
import signal
import sys
import threading
import time

import numpy as np
import pytest

from ymtorus import algebra, constraints, driver, dynamics, energy, lattice, parallel
from ymtorus.errors import SolverError

from conftest import BACKGROUNDS, force_threads, make_state


def test_threads_follow_grid_size_and_affinity(monkeypatch):
    cpus = min(2, len(os.sched_getaffinity(0)))
    assert parallel.threads(lattice.Grid(16)) == 1
    assert parallel.threads(lattice.Grid(20)) == cpus
    force_threads(monkeypatch, 1)
    assert parallel.threads(lattice.Grid(32)) == 1
    force_threads(monkeypatch, 4)
    assert parallel.threads(lattice.Grid(32)) == 2
    assert parallel.threads(lattice.Grid(16)) == 1


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


def test_split_called_in_the_worker_raises(monkeypatch):
    force_threads(monkeypatch, 2)
    grid = lattice.Grid(32)
    # a thread named as the worker stands in for it: a split there that submitted
    # to the pool would return instead of waiting for itself, and fail below
    name = parallel._executor().submit(lambda: threading.current_thread().name).result(30)
    raised = []

    def nested():
        try:
            parallel.split(grid, lambda: 1, lambda: 2)
        except RuntimeError as error:
            raised.append(str(error))

    caller = threading.Thread(target=nested, name=name, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert raised == ["parallel.split called in the worker thread"]
    assert parallel.split(grid, lambda: 1, lambda: 2) == (1, 2)


@pytest.mark.parametrize("count", [1, 2])
def test_balance_runs_each_block_in_the_lighter_list(monkeypatch, count):
    force_threads(monkeypatch, count)
    ran = []  # (block, thread) in the order the blocks ran

    def block(i):
        return lambda: ran.append((i, threading.get_ident())) or 10 * i

    # largest first, ties in block order, each into the lighter list (the
    # first on a tie): loads (5, 0), (5, 5), (9, 5), (9, 8), (9, 10), (10, 10)
    costs = [3, 5, 1, 5, 2, 4]
    results = parallel.balance(lattice.Grid(32), [(c, block(i)) for i, c in enumerate(costs)])
    assert results == [0, 10, 20, 30, 40, 50]
    here = threading.get_ident()
    if count == 1:
        assert ran == [(i, here) for i in (1, 5, 2, 3, 0, 4)]
    else:
        assert [i for i, t in ran if t == here] == [1, 5, 2]
        assert [i for i, t in ran if t != here] == [3, 0, 4]


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("failing", [0, 1])
def test_balance_raises_after_both_lists(monkeypatch, count, failing):
    force_threads(monkeypatch, count)
    done = []

    def slow():
        time.sleep(0.05)
        done.append(True)

    def fail():
        raise ValueError("block")

    # the cost-2 block runs in list 0, the cost-1 block in list 1
    blocks = [(2, fail), (1, slow)] if failing == 0 else [(2, slow), (1, fail)]
    with pytest.raises(ValueError, match="block"):
        parallel.balance(lattice.Grid(32), blocks)
    assert done == [True]


@pytest.mark.parametrize("count", [1, 2])
def test_once_forms_its_product_once_for_both_threads(monkeypatch, count):
    force_threads(monkeypatch, count)
    calls = []

    def product():
        calls.append(threading.get_ident())
        time.sleep(0.05)  # the other thread asks while it is formed
        return object()

    shared = parallel.once(product)
    first, second = parallel.split(lattice.Grid(32), shared, shared)
    assert first is second and len(calls) == 1
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for _ in range(200):
            calls.clear()
            shared = parallel.once(lambda: calls.append(1) or object())
            first, second = parallel.split(lattice.Grid(32), shared, shared)
            assert first is second and len(calls) == 1
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("count", [1, 2])
def test_rhs_forms_chi_E_psi_once(monkeypatch, count):
    force_threads(monkeypatch, count)
    grid, model = lattice.Grid(20), algebra.su2_toy()
    bg = BACKGROUNDS["bianchi1"]()
    u = make_state(grid, model, bg, seed=5, amplitude=0.1)
    chi_apply, on_E = algebra.chi_spinor_apply, []

    def counted(chi, xi, psi):
        if np.shares_memory(xi, u.E):
            on_E.append(threading.get_ident())
        return chi_apply(chi, xi, psi)

    monkeypatch.setattr(algebra, "chi_spinor_apply", counted)
    dynamics.rhs(u, bg, dynamics.Couplings(model, lam=1.0))
    assert len(on_E) == 3 and len(set(on_E)) == 1


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
    bg = BACKGROUNDS["bianchi1"]()
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


def balanced_norms(u, du, bg, k, connections):
    """An energy.Norms whose entries on `connections` ran in one
    parallel.balance, as the driver runs them."""
    norms = energy.Norms(u, du, bg, k)
    parallel.balance(u.grid, norms.blocks(connections))
    return norms


@pytest.mark.parametrize("model_fn", [algebra.u1_toy, algebra.su2_toy, algebra.su3_pure])
def test_energies_and_set_up_are_bit_identical_split(monkeypatch, model_fn):
    model = model_fn()
    cfg = driver.validate_config({
        "grid": {"n": "20"}, "gauge": {"model": model.name},
        "background": {"b_kind": "bianchi1", "tau_end_fraction": "0.05"},
        "initial": {"amplitude": "0.02", "seed": "4"}})
    grid, model, bg, coup = driver.build_run(cfg)
    u = make_state(grid, model, bg, seed=5, amplitude=0.1)
    u.tau = 0.2
    du = dynamics.rhs(u, bg, coup)
    results = []
    for count in (1, 2):
        force_threads(monkeypatch, count)
        measured = {}  # set-up splits each pass into its Gauss and matter blocks
        state, info = driver.prepare_initial_state(cfg, grid, model, bg, coup, measured=measured)
        results.append((balanced_norms(u, du, bg, 2, ("omega",)).total(),
                        energy.energy_report(balanced_norms(u, du, bg, 2, ("omega", "reference")))
                        .as_row(),
                        state, info, measured))
    (e1, row1, s1, i1, m1), (e2, row2, s2, i2, m2) = results
    assert e1 == e2 and row1 == row2 and i1 == i2
    assert list(m1) and sorted(m1) == sorted(m2)
    for key in m1:
        assert np.array(m1[key]).tobytes() == np.array(m2[key]).tobytes(), key
    for name in lattice.SECTORS:
        assert np.array_equal(s1.sectors[name].view(np.uint64), s2.sectors[name].view(np.uint64))


@pytest.mark.parametrize("count", [1, 2])
def test_a_failed_gauss_block_is_raised_after_the_matter_block(monkeypatch, count):
    force_threads(monkeypatch, count)
    cfg = driver.validate_config({
        "grid": {"n": "20"}, "gauge": {"model": "su2_toy"},
        "background": {"tau_end_fraction": "0.05"}, "initial": {"amplitude": "0.02"}})
    grid, model, bg, coup = driver.build_run(cfg)
    solve, complete, done = constraints.solve_gauss_initial, constraints.complete_S_psidot, []

    def failing(*args, **kwargs):
        raise SolverError("the Gauss block failed")

    def slow_complete(*args, **kwargs):
        time.sleep(0.2)  # the Gauss block has failed long before
        complete(*args, **kwargs)
        done.append(threading.current_thread().name)

    monkeypatch.setattr(constraints, "solve_gauss_initial", failing)
    monkeypatch.setattr(constraints, "complete_S_psidot", slow_complete)
    measured = {}
    with pytest.raises(SolverError, match="the Gauss block failed"):
        driver.prepare_initial_state(cfg, grid, model, bg, coup, measured=measured)
    assert len(done) == 1  # the matter block had finished, its H^l entries too
    assert sorted(name for _, _, name in measured) == ["phi", "phidot", "psi", "psidot"]
    assert done[0].startswith(parallel._WORKER_NAME) == (count == 2)
    monkeypatch.setattr(constraints, "solve_gauss_initial", solve)
    _, info = driver.prepare_initial_state(cfg, grid, model, bg, coup)  # splits again
    assert info["converged"] is True and len(done) > 1 and set(done) == {done[0]}


@pytest.mark.parametrize("model_fn", [algebra.su2_toy, algebra.su3_pure])
def test_gauge_only_states_are_bit_identical_split(monkeypatch, model_fn):
    # with matter zeroed rhs runs in one block, but set-up's and the reports'
    # energy chains still split, and both threads read one lattice.Connection
    cfg = driver.validate_config({
        "grid": {"n": "20"}, "gauge": {"model": model_fn().name},
        "background": {"b_kind": "bianchi1", "tau_end_fraction": "0.05"},
        "initial": {"amplitude": "0.02", "seed": "4", "sectors": "gauge"}})
    grid, model, bg, coup = driver.build_run(cfg)
    u = make_state(grid, model, bg, seed=6, amplitude=0.1)
    u.sectors["higgs"].fill(0.0)
    u.sectors["dirac"].fill(0.0)
    u.tau = 0.2
    results = []
    for count in (1, 2):
        force_threads(monkeypatch, count)
        du = dynamics.rhs(u, bg, coup)
        state, info = driver.prepare_initial_state(cfg, grid, model, bg, coup)
        results.append((du, dynamics.step(u, bg, coup, 1e-3, k1=du), state,
                        (balanced_norms(u, du, bg, 2, ("omega",)).total(), info["energy"],
                         energy.energy_report(balanced_norms(u, du, bg, 3,
                                                             ("omega", "reference"))).as_row())))
    (*states1, values1), (*states2, values2) = results
    assert values1 == values2
    for a, b in zip(states1, states2):
        for name in lattice.SECTORS:
            assert np.array_equal(a.sectors[name].view(np.uint64), b.sectors[name].view(np.uint64))


@pytest.mark.skipif(not parallel.ALLOCATOR_POLICY, reason="mallopt cannot be looked up")
def test_freed_memory_stays_in_the_process():
    assert parallel.ALLOCATOR_POLICY == {"M_ARENA_MAX": 1, "M_MMAP_THRESHOLD": 1,
                                         "M_TRIM_THRESHOLD": 1}

    def cycle():  # 64 MB: above glibc's dynamic mmap ceiling of 32 MB
        np.empty(8 << 20).fill(1.0)

    cycle()  # the warm-up faults the pages in once
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        cycle()
    # a fresh mapping per cycle would fault 512-16384 pages each (huge pages or not)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


@pytest.mark.skipif(not parallel.ALLOCATOR_POLICY, reason="mallopt cannot be looked up")
def test_a_freed_heap_top_over_256_mb_stays_in_the_process():
    # a finished run frees its heap top at once; a trim threshold of 256 MB gave
    # these 320 MB back to the kernel, and the next run faulted them in again
    def cycle():  # five 64 MB blocks from the heap (below the mmap threshold)
        for block in [np.empty(8 << 20) for _ in range(5)]:
            block.fill(1.0)

    cycle()  # the warm-up faults the pages in once
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    cycle()
    # a trimmed top would fault 160-81920 pages (huge pages or not)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50


def diff_in_one_pass(f, axis, grid, out=None):
    """lattice.diff as it was before it took its rows in blocks."""
    f = np.ascontiguousarray(f)
    out = np.empty_like(f) if out is None else out
    ax = f.ndim - 3 + axis
    rows = f.reshape(-1, f.shape[ax], math.prod(f.shape[ax + 1:]))
    dk = lattice._centered_difference(rows, 1, out.reshape(rows.shape))
    if grid.order == 2:
        lattice._divide(dk, 2.0 * grid.dx)
    else:
        dk *= 8.0
        dk -= lattice._centered_difference(rows, 2, np.empty_like(rows))
        lattice._divide(dk, 12.0 * grid.dx)
    return out


@pytest.mark.parametrize("block_bytes", [lattice._BLOCK_BYTES, 3000])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_blocked_diff_equals_the_one_pass_stencil(monkeypatch, block_bytes, order, dtype):
    monkeypatch.setattr(lattice, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng(order)
    # (3, 4, 3, 16^3) spans 4 to 9 blocks of 256 KB on each axis; 3000 bytes
    # leaves a part-filled last block on the 12^3 grid
    for n, lead in ((16, (3, 4, 3)), (12, (5,)), (12, ())):
        grid = lattice.Grid(n, order=order)
        f = rng.standard_normal(lead + grid.shape)
        if dtype is np.complex128:
            f = f + 1j * rng.standard_normal(f.shape)
        f[..., 0, :, :] = 0.0  # exact zeros, whose sign may differ
        for axis in range(3):
            got, want = lattice.diff(f, axis, grid), diff_in_one_pass(f, axis, grid)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.view(np.float64)),
                                  np.signbit(want.view(np.float64)))
