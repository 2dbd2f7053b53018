"""Tests for the benchmark harness.

    python3 -m pytest perfbench/tests -q

They import the harness modules from perfbench/ and ymtorus from src/ (see
conftest.py).
"""

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import spec
from tracer import LAYER_TARGETS, Tracer

from ymtorus import driver, lattice

STEPS = 2


def tiny_config(out_dir, seed=5):
    """n = 8, two RK4 steps, every artifact written."""
    raw = driver.preset_config("desitter_u1_small").as_dict()
    raw["grid"]["n"] = "8"
    raw["initial"].update({"seed": str(seed), "cutoff": "1"})
    raw["background"]["tau_end_fraction"] = "0.1"
    raw["numerics"]["dtau"] = "0.08"
    raw["outputs"].update({"plot": "true", "snapshots": "2", "directory": out_dir})
    return driver.validate_config(raw)


def bindings():
    """Every attribute of every ymtorus module, plus FieldState's methods."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "ymtorus" or name.startswith("ymtorus."):
            out.update({(name, k): v for k, v in vars(mod).items()})
    out.update({("FieldState", k): v for k, v in vars(lattice.FieldState).items()})
    return out


def traced_counts(tracer, cfg, out_dir):
    tracer.new_run()
    with tracer.span(run.ROOT_SPAN):
        summary = driver.run_experiment(cfg, out_dir=out_dir)
    times = tracer.self_times(tracer.run_id)
    counts = {name: calls for name, (calls, _) in times.items()}
    counts.update(tracer.extras.get(tracer.run_id, {}))
    return summary, counts, times


def test_traced_counts_are_exact_and_repeat(tmp_path):
    cfg = tiny_config(str(tmp_path / "a"))
    tracer = Tracer(LAYER_TARGETS)
    with tracer:
        summary, first, times = traced_counts(tracer, cfg, str(tmp_path / "a"))
        _, second, _ = traced_counts(tracer, cfg, str(tmp_path / "b"))
    assert first == second
    assert summary["n_steps"] == STEPS
    reports = STEPS + 1  # report_every = 1
    fixups = first["constraints.solve_gauss_initial"]
    assert first["dynamics.step"] == STEPS
    assert first["lattice.FieldState.lincomb"] == 4 * STEPS
    # four stages per step, one per report, one per normalisation pass
    assert first["dynamics.rhs"] == 4 * STEPS + reports + fixups
    assert first["dynamics.currents"] == first["dynamics.rhs"]
    assert first["energy.energy_report"] == reports + fixups
    # the Gauss solve ends with its own constraint_report
    assert first["constraints.constraint_report"] == reports + fixups
    assert first["constraints.constraint_fields"] == reports + 1
    assert first["constraints.complete_state"] == fixups
    assert first["driver.prepare_initial_state"] == 1
    assert first["lattice.save_state"] == 2
    last_solve = summary["initial_data"]["gauss"]["iterations"]
    if fixups == 1:
        assert first["constraints.solve_gauss_initial.iterations"] == last_solve
    assert first["constraints.solve_gauss_initial.iterations"] >= last_solve
    assert first["lattice.save_state.bytes"] == sum(
        os.path.getsize(str(p)) for p in (tmp_path / "b").glob("snapshot_*"))
    for name in ("driver.write_energy_csv", "driver.write_constraints_csv",
                 "driver.replot", "conformal.decay_report"):
        assert first[name] == 1
    # every diff call is seen, whichever module namespace made it
    assert first["lattice.diff"] > first["lattice.covariant_diff"] * 3
    # self times partition the root span
    root = tracer.first(run.ROOT_SPAN, 1)
    assert sum(t for _, t in times.values()) == pytest.approx(root[3] - root[2], rel=1e-9)


def test_tracer_restores_every_binding(tmp_path):
    before = bindings()
    tracer = Tracer(LAYER_TARGETS)
    with tracer:
        from ymtorus import constraints, dynamics, energy

        assert dynamics.diff is not before[("ymtorus.lattice", "diff")]
        assert constraints.gamma_apply is not before[("ymtorus.clifford", "gamma_apply")]
        assert energy.covariant_diff is not before[("ymtorus.lattice", "covariant_diff")]
        assert dynamics.diff is lattice.diff
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_threshold_checks_pass_on_other_seed():
    runner = run.Runner(driver, "u1_report_n16", seed=11)
    try:
        summary = runner.run_once(Tracer(()))
    finally:
        shutil.rmtree(runner.run_dir, ignore_errors=True)
    assert summary is not None and runner.failed == 0, runner.log
    names = {name for name, _, _ in runner.log[0]["checks"]}
    assert {"constraint_ratio", "energy_monitor", "artifacts", "decay_windows"} <= names
    assert not any(n.startswith("golden") for n in names)


def copy_golden(workload, tmp_path):
    gold = os.path.join(checks.GOLDEN_DIR, workload)
    for name in checks.GOLDEN_FILES:
        shutil.copyfile(os.path.join(gold, name), str(tmp_path / name))
    return gold


def rewrite(tmp_path, gold, name, column, change):
    """Write ``name`` into tmp_path with ``change`` applied to one golden column."""
    header, data = checks.read_csv(os.path.join(gold, name))
    data[:, header.index(column)] = change(data[:, header.index(column)])
    np.savetxt(str(tmp_path / name), data, delimiter=",", fmt="%.17g",
               header=",".join(header), comments="")
    return checks.golden_compare(os.path.basename(gold), str(tmp_path))[name]


def test_golden_compare_tolerance(tmp_path):
    gold = copy_golden("u1_report_n16", tmp_path)
    res = checks.golden_compare("u1_report_n16", str(tmp_path))
    assert all(ok and identical for ok, identical, _ in res.values())

    def scale_row(factor):
        return lambda col: np.where(np.arange(len(col)) == 5, col * factor, col)

    ok, identical, _ = rewrite(tmp_path, gold, "energy.csv", "E_total", scale_row(1 + 1e-12))
    assert ok and not identical  # a reassociated sum
    ok, _, detail = rewrite(tmp_path, gold, "energy.csv", "E_total", scale_row(1 + 1e-6))
    assert not ok and "E_total row 5" in detail


@pytest.mark.parametrize("column", ["dirac", "drift_bianchi", "gauss", "bianchi"])
def test_golden_compare_catches_doubled_small_columns(tmp_path, column):
    """Columns far below any fixed absolute floor still have to match."""
    gold = copy_golden("su2_bianchi_n32", tmp_path)
    ok, _, detail = rewrite(tmp_path, gold, "constraints.csv", column, lambda col: 2 * col)
    assert not ok and column in detail


def test_golden_floors_cover_every_column():
    for workload in spec.WORKLOADS:
        gold = os.path.join(checks.GOLDEN_DIR, workload)
        with open(os.path.join(gold, "floors.json")) as fh:
            floors = json.load(fh)
        for name in checks.GOLDEN_FILES:
            header, _ = checks.read_csv(os.path.join(gold, name))
            assert list(floors[name]) == header


def test_traced_measurement_makes_pairs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    runner = run.Runner(driver, "u1_report_n16", seed=5)
    runner.cfg = tiny_config(runner.run_dir)
    _, result = run.measure_traced(runner, seconds=0)
    tracing = result["tracing"]
    assert runner.attempted == 2 * run.MIN_TRACED_PAIRS
    assert [e["traced"] for e in runner.log] == [False, True] * run.MIN_TRACED_PAIRS
    assert tracing["pairs"] == tracing["traced_runs"] == run.MIN_TRACED_PAIRS
    assert tracing["counts_repeat"]
    assert result["metrics"]["dynamics.step.calls"] == STEPS
    assert result["metrics"]["trace.overhead_s"] == statistics.median(tracing["overheads_s"])


def test_speed_probe_correction():
    ref = spec.PROBE_REF_S
    probe = run.SpeedProbe()
    # every 0.1 s, at half the reference speed for 2 s, then at full speed
    probe.probes = [(0.1 * i, 0.1 * i + (2 if i < 20 else 1) * ref) for i in range(40)]
    assert probe.corrected(0.0, 2.0) == pytest.approx((2.0 - 20 * 2 * ref) * 0.5)
    # too few probes inside: the speed of the PROBE_MIN nearest ones
    assert spec.PROBE_MIN <= 10
    assert probe.corrected(3.0, 3.05) == pytest.approx(0.05 - ref)


def test_untraced_measurement(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(spec, "SET_UP_SHARE", 0.5)
    runner = run.Runner(driver, "u1_report_n16", seed=5)
    runner.cfg = tiny_config(runner.run_dir)
    prepare = driver.prepare_initial_state
    handler = signal.getsignal(signal.SIGALRM)
    _, result = run.measure_untraced(runner, seconds=0)
    assert driver.prepare_initial_state is prepare
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert runner.failed == 0
    full = [e for e in runner.log if not e["set_up_only"]]
    assert len(full) == spec.MIN_REPEATS
    assert len(full) < len(runner.log) == runner.attempted
    assert result["probes"]["count"] > 0
    for entry in runner.log:
        names = {"setup_s"} if entry["set_up_only"] else {"setup_s", "wall_s", "evolve_s"}
        assert set(entry["times"]["unscaled"]) == names
        assert all(entry["times"][name] > 0 for name in names)
    samples = result["samples"]
    assert len(samples["setup_s"]) == len(runner.log)
    assert result["metrics"]["steps_per_s"] == statistics.median(
        e["n_steps"] / e["times"]["evolve_s"] for e in full)


def test_git_state(tmp_path, monkeypatch):
    commit, dirty = run.git_state()
    if commit is not None:  # a git checkout
        assert len(commit) == 40 and isinstance(dirty, bool)
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.git_state() == (None, None)


def test_benchmark_json_matches_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == spec.benchmark_json()


def test_exits_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(run.HERE, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copyfile(os.path.join(run.ROOT, "BENCHMARK.json"), str(tmp_path / "BENCHMARK.json"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "u1_report_n16", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
