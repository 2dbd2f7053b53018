import json
import os

import numpy as np
import pytest

from ymtorus import __version__, algebra, constraints, driver, geometry, lattice, plots
from ymtorus.errors import SolverError


def test_presets_parse_and_validate():
    for name in driver.preset_names():
        cfg = driver.preset_config(name)
        assert cfg["gauge", "model"] in ("u1_toy", "su2_toy", "su3_pure")


def test_unknown_keys_listed():
    with pytest.raises(driver.ConfigError) as err:
        driver.parse_config_text("[grid]\nn = 8\nbogus = 1\n[nosuch]\nx = 2\n")
    msg = str(err.value)
    assert "grid.bogus" in msg and "[nosuch]" in msg


def test_physical_violations_collected():
    with pytest.raises(driver.ConfigError) as err:
        driver.parse_config_text(
            "[grid]\nn = 2\n[background]\ntau_end_fraction = 1.2\n"
            "[gauge]\nmodel = nope\n[numerics]\ncfl = 7\n")
    msg = str(err.value)
    assert "n must be >= 4" in msg
    assert "tau_end_fraction" in msg
    assert "shipped models" in msg
    assert "cfl" in msg


def _numerics_violations(text):
    with pytest.raises(driver.ConfigError) as err:
        driver.parse_config_text("[numerics]\n" + text)
    return err.value.violations


@pytest.mark.parametrize("value", ["0", "-3"])
def test_report_every_must_be_positive(value):
    assert _numerics_violations("report_every = %s\n" % value) == [
        "numerics.report_every must be >= 1"]


@pytest.mark.parametrize("value", ["0", "-0.01", "nan"])
def test_dtau_must_be_positive_when_set(value):
    assert _numerics_violations("dtau = %s\n" % value) == [
        "numerics.dtau must be positive when set"]
    assert driver.parse_config_text("[numerics]\ndtau = 0.01\n")["numerics", "dtau"] == "0.01"


@pytest.mark.parametrize("value", ["0", "-1"])
def test_max_steps_must_be_positive(value):
    assert _numerics_violations("max_steps = %s\n" % value) == [
        "numerics.max_steps must be >= 1"]


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf"])
def test_cg_tol_must_be_finite_and_positive(value):
    # 0 ran 10 n^3 CG iterations, -1 ran as 1 (the target squares it), NaN made none
    assert _numerics_violations("cg_tol = %s\n" % value) == [
        "numerics.cg_tol must be finite and > 0"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_amplitude_must_be_finite(value):
    # NaN passed amp < 0 and the run failed with BlowUpError at its first step
    with pytest.raises(driver.ConfigError) as err:
        driver.parse_config_text("[initial]\namplitude = %s\n" % value)
    assert err.value.violations == ["initial.amplitude must be finite"]


def test_numerics_violations_listed_together():
    violations = _numerics_violations("report_every = 0\ndtau = -1\nmax_steps = 0\n")
    assert len(violations) == 3


@pytest.mark.parametrize("value", [",", "", " , "])
def test_empty_sectors_rejected_with_positive_amplitude(value):
    # all-zero initial data cannot be scaled to amplitude**2 (it divided by zero mid-run)
    with pytest.raises(driver.ConfigError) as err:
        driver.parse_config_text("[initial]\namplitude = 0.01\nsectors = %s\n"
                                 "[numerics]\nreport_every = 0\n" % value)
    assert err.value.violations == ["initial.sectors is empty but initial.amplitude > 0",
                                    "numerics.report_every must be >= 1"]
    cfg = driver.parse_config_text("[initial]\namplitude = 0\nsectors = %s\n" % value)
    assert cfg["initial", "amplitude"] == "0"
    # a negative amplitude is its own violation, not an empty-sectors one
    with pytest.raises(driver.ConfigError) as err:
        driver.parse_config_text("[initial]\namplitude = -0.01\nsectors = %s\n" % value)
    assert err.value.violations == ["initial.amplitude must be >= 0"]


def test_unknown_group_lists_known():
    with pytest.raises(driver.ConfigError) as err:
        driver.parse_config_text("[gauge]\nmodel = e8_toy\n")
    assert "su2_toy" in str(err.value)


def _tiny_config(tmp_path, amplitude="0.0", model="u1_toy", seed="1"):
    return driver.parse_config_text(f"""
[grid]
n = 8
[background]
profile = desitter
tau_end_fraction = 0.2
[gauge]
model = {model}
[initial]
seed = {seed}
amplitude = {amplitude}
[numerics]
cfl = 0.4
dtau = 0.01
report_every = 1
[outputs]
directory = {tmp_path}/out
plot = true
snapshots = 2
""")


def test_zero_amplitude_run_all_zero(tmp_path):
    cfg = _tiny_config(tmp_path)
    summary = driver.run_experiment(cfg, quiet=True)
    assert summary["energy_monitor"]["max_energy"] == 0.0
    e = driver.read_csv(os.path.join(str(tmp_path), "out", "energy.csv"))
    assert np.all(e["E_total"] == 0.0)
    c = driver.read_csv(os.path.join(str(tmp_path), "out", "constraints.csv"))
    for name in ("curvature", "bianchi", "gauss", "dirac"):
        assert np.all(c[name] == 0.0)
    assert summary["decay"]["phi"]["undefined"]
    # zero data takes one set-up pass: no CG iteration, energy 0
    init = summary["initial_data"]
    assert init["gauss"]["iterations"] == 0 and init["gauss"]["residual"] == 0.0
    assert init["gauss"]["converged"] is True and init["converged"] is True
    assert init["energy"] == 0.0


def test_run_determinism_bit_identical(tmp_path):
    cfg1 = _tiny_config(tmp_path / "a", amplitude="0.01")
    cfg2 = _tiny_config(tmp_path / "b", amplitude="0.01")
    driver.run_experiment(cfg1, quiet=True)
    driver.run_experiment(cfg2, quiet=True)
    for fname in ("energy.csv", "constraints.csv"):
        a = (tmp_path / "a" / "out" / fname).read_text()
        b = (tmp_path / "b" / "out" / fname).read_text()
        assert a == b


def test_artifacts_and_replot(tmp_path):
    cfg = _tiny_config(tmp_path, amplitude="0.01")
    summary = driver.run_experiment(cfg, quiet=True)
    out = tmp_path / "out"
    for fname in ("energy.csv", "constraints.csv", "decay.json", "metadata.json",
                  "energy.svg", "constraints.svg"):
        assert (out / fname).exists(), fname
    # snapshots loadable
    snaps = sorted(out.glob("snapshot_*.ymt"))
    assert snaps
    model = driver.build_model(cfg)
    st = lattice.load_state(snaps[0], model)
    assert st.grid.n == 8
    # metadata reproduces the config
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["grid"]["n"] == "8"
    assert meta["initial_data"]["gauss"]["converged"] is True
    assert "version" in meta
    # replot regenerates SVGs from the CSVs alone
    (out / "energy.svg").unlink()
    driver.replot(str(out))
    assert (out / "energy.svg").exists()


def test_energy_normalization_contract(tmp_path):
    cfg = _tiny_config(tmp_path, amplitude="0.01", model="su2_toy", seed="3")
    summary = driver.run_experiment(cfg, quiet=True)
    e0 = summary["initial_data"]["energy"]
    assert abs(e0 - 1e-4) <= 1e-10 + 1e-9 * 1e-4


def test_cli_verbs(tmp_path, capsys):
    from ymtorus.__main__ import main

    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "desitter_u1_small" in out
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text("[grid]\nn = 8\n[background]\ntau_end_fraction = 0.1\n"
                        "[initial]\namplitude = 0.0\n[numerics]\ncfl = 0.4\n"
                        f"[outputs]\ndirectory = {tmp_path}/cli_out\nplot = false\n")
    assert main(["validate", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path)]) == 0
    assert main(["replot", str(tmp_path / "cli_out")]) == 0
    assert main(["validate", "nonexistent.ini"]) == 1


def test_gauge_experiment_hooks(tmp_path):
    cfg = driver.parse_config_text(f"""
[grid]
n = 8
[background]
tau_end_fraction = 0.2
[gauge]
model = su2_toy
[initial]
seed = 2
amplitude = 0.01
[numerics]
cfl = 0.4
[outputs]
directory = {tmp_path}/gexp
plot = false
[gauge_experiment]
kind = automorphism
alpha_amplitude = 0.2
alpha_steps = 40
""")
    summary = driver.run_experiment(cfg, quiet=True)
    assert summary["gauge_experiment"]["kind"] == "automorphism"
    assert summary["gauge_experiment"]["alpha_defect"] < 1e-6


def test_bianchi_preset_short_run(tmp_path):
    raw = driver.preset_config("bianchi1_su2").as_dict()
    raw["background"]["tau_end_fraction"] = "0.35"
    raw["outputs"] = {"directory": str(tmp_path / "bianchi"), "plot": "false",
                      "snapshots": "0"}
    summary = driver.run_experiment(driver.validate_config(raw), quiet=True)
    # anisotropic background: extrinsic terms active, run stays healthy
    assert summary["energy_monitor"]["max_energy"] < 1.0
    cg_tol = float(summary["config"]["numerics"]["cg_tol"])
    floor = max(max(summary["constraint_initial"].values()), cg_tol)
    assert max(summary["constraint_max"].values()) <= 10 * floor
    assert max(summary["extrinsic_bound_samples"]) > 0.0


def test_tabulated_background_config(tmp_path):
    taus = np.linspace(0, 1.6, 80)
    barr = np.column_stack([taus, 1 + 0.1 * taus, np.ones_like(taus),
                            1 + 0.02 * taus ** 2])
    bpath = tmp_path / "b.csv"
    np.savetxt(bpath, barr, delimiter=",")
    cfg = driver.parse_config_text(f"""
[grid]
n = 8
[background]
profile = desitter
tau_end_fraction = 0.2
b_kind = table
b_table = {bpath}
[initial]
seed = 3
amplitude = 0.005
[numerics]
cfl = 0.3
[outputs]
directory = {tmp_path}/tab
plot = false
""")
    summary = driver.run_experiment(cfg, quiet=True)
    assert summary["energy_monitor"]["max_energy"] > 0
    with pytest.raises(driver.ConfigError):
        driver.parse_config_text("[background]\nb_kind = table\n")


def test_custom_structure_constants_config(tmp_path):
    from ymtorus import algebra
    lie = algebra.su2()
    fpath = tmp_path / "f.txt"
    with open(fpath, "w") as fh:
        fh.write("3\n")
        for a in range(3):
            for b in range(3):
                fh.write(" ".join("%.17g" % lie.f[a, b, c] for c in range(3)) + "\n")
    cfg = driver.parse_config_text(f"""
[grid]
n = 8
[background]
tau_end_fraction = 0.15
[gauge]
structure_file = {fpath}
[initial]
seed = 2
amplitude = 0.01
sectors = gauge
[numerics]
cfl = 0.3
[outputs]
directory = {tmp_path}/custom
plot = false
""")
    model = driver.build_model(cfg)
    assert model.lie.dim == 3 and model.name.startswith("custom:")
    summary = driver.run_experiment(cfg, quiet=True)
    assert summary["energy_monitor"]["max_energy"] > 0


def test_replot_after_tabulated_profile_run(tmp_path):
    # replot draws the decay figure only when the fits exist, and they need
    # 10 reports in the last 40% of the run: about 25 steps
    t = np.linspace(0.0, 6.0, 40)
    table = tmp_path / "s.csv"
    np.savetxt(table, np.column_stack([t, np.cosh(t)]), delimiter=",")
    cfg = driver.parse_config_text(f"""
[grid]
n = 8
[background]
profile = table
s_table = {table}
tau_end_fraction = 0.05
[initial]
seed = 2
amplitude = 0.01
[numerics]
cfl = 0.4
dtau = 0.003
[outputs]
directory = {tmp_path}/table_run
plot = true
""")
    summary = driver.run_experiment(cfg, quiet=True)
    assert summary["n_steps"] >= 25
    assert "error" not in summary["decay"]
    out = tmp_path / "table_run"
    (out / "decay.svg").unlink()
    driver.replot(str(out))
    assert (out / "decay.svg").exists()


@pytest.mark.parametrize("key, value, message", [
    ("a", "0", "background.a must be positive"),
    ("s0", "-1", "background.s0 must be positive"),
    ("rate", "0", "background.rate must be positive"),
    ("t0", "-2", "background.t0 must be positive"),
    ("lapse", "0", "background.lapse must be positive"),
    ("p", "1", "background.p must be > 1"),
])
def test_background_parameters_checked(key, value, message):
    with pytest.raises(driver.ConfigError) as err:
        driver.parse_config_text("[background]\n%s = %s\n" % (key, value))
    assert err.value.violations == [message]


def test_snapshots_must_not_be_negative():
    with pytest.raises(driver.ConfigError) as err:
        driver.parse_config_text("[outputs]\nsnapshots = -1\n")
    assert err.value.violations == ["outputs.snapshots must be >= 0"]


def test_background_violations_listed_together():
    with pytest.raises(driver.ConfigError) as err:
        driver.parse_config_text("[background]\nprofile = power\ns0 = 0\nt0 = 0\np = 0.5\n"
                                 "[outputs]\nsnapshots = -2\n")
    assert len(err.value.violations) == 4


def test_unconverged_gauss_solve_is_a_warning(tmp_path, monkeypatch):
    from ymtorus import constraints

    solve = constraints.solve_gauss_initial

    def stalled(*args, **kwargs):
        info = solve(*args, **kwargs)
        info["converged"] = False
        return info

    monkeypatch.setattr(constraints, "solve_gauss_initial", stalled)
    cfg = _tiny_config(tmp_path, amplitude="0.01")
    summary = driver.run_experiment(cfg, quiet=True)
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["initial_data"]["gauss"]["converged"] is False
    assert len(meta["warnings"]) == 1 and "Gauss CG" in meta["warnings"][0]
    assert summary["warnings"] == meta["warnings"]
    monkeypatch.setattr(constraints, "solve_gauss_initial", solve)
    assert driver.run_experiment(cfg, quiet=True)["warnings"] == []


@pytest.mark.parametrize("lines, message", [
    ("kind = automorphsm", "gauge_experiment.kind 'automorphsm' unknown (static, automorphism)"),
    ("kind = static\nseed = x", "gauge_experiment.seed is not a valid int"),
    ("kind = static\namplitude = abc", "gauge_experiment.amplitude is not a valid float"),
    ("kind = static\ncutoff = 0", "gauge_experiment.cutoff must be >= 1"),
    ("kind = automorphism\nalpha_amplitude = big",
     "gauge_experiment.alpha_amplitude is not a valid float"),
    ("kind = automorphism\nalpha_steps = 3", "gauge_experiment.alpha_steps must be >= 4"),
    ("kind = automorphism\nalpha_steps = 0", "gauge_experiment.alpha_steps must be >= 4"),
])
def test_gauge_experiment_keys_checked(lines, message):
    with pytest.raises(driver.ConfigError) as err:
        driver.parse_config_text("[gauge_experiment]\n%s\n" % lines)
    assert err.value.violations == [message]


def test_static_gauge_experiment_prepares_the_state_once(tmp_path, monkeypatch):
    raw = driver.preset_config("gauge_invariance").as_dict()
    raw["grid"]["n"] = "8"
    raw["background"]["tau_end_fraction"] = "0.05"
    raw["outputs"] = {"directory": str(tmp_path / "gi"), "plot": "false", "snapshots": "0"}
    cfg = driver.validate_config(raw)
    prepare, equivariance = driver.prepare_initial_state, algebra.check_equivariance
    calls = {"prepare": 0, "equivariance": 0}

    def counting(*args, **kwargs):
        calls["prepare"] += 1
        return prepare(*args, **kwargs)

    def counting_equivariance(*args, **kwargs):
        calls["equivariance"] += 1
        return equivariance(*args, **kwargs)

    monkeypatch.setattr(driver, "prepare_initial_state", counting)
    monkeypatch.setattr(algebra, "check_equivariance", counting_equivariance)
    summary = driver.run_experiment(cfg, quiet=True)
    # the experiment reuses the run's state, model and background
    assert calls == {"prepare": 1, "equivariance": 1}
    # evolve advances the run's state in place, so the experiment gets a copy
    # of the initial state: it sees the data of a fresh preparation
    grid, model, bg, couplings = driver.build_run(cfg)
    u0, _ = prepare(cfg, grid, model, bg, couplings, k=2)
    fresh = driver.run_gauge_invariance(cfg, u0, bg, couplings)["worst_relative_mismatch"]
    assert summary["gauge_experiment"]["worst_relative_mismatch"] == fresh


def test_gauge_experiment_cutoff_bounded_by_grid():
    text = ("[grid]\nn = 8\n[initial]\ncutoff = 1\n"
            "[gauge_experiment]\nkind = static\nseed = x\ncutoff = %d\n")
    with pytest.raises(driver.ConfigError) as err:
        driver.parse_config_text(text % 4)
    assert err.value.violations == ["gauge_experiment.seed is not a valid int",
                                    driver.CUTOFF_BOUND % "gauge_experiment"]
    assert "4*gauge_experiment.cutoff" in err.value.violations[1]
    with pytest.raises(driver.ConfigError) as err:
        driver.parse_config_text(text.replace("n = 8", "n = 17") % 4)
    assert err.value.violations == ["gauge_experiment.seed is not a valid int"]


def test_failed_run_keeps_its_rows(tmp_path, monkeypatch):
    from ymtorus import dynamics
    from ymtorus.errors import BlowUpError

    step, calls = dynamics.step, []

    def failing_third(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise BlowUpError("non-finite E at index [0, 0, 0, 0, 0], tau = 0.030000")
        return step(*args, **kwargs)

    monkeypatch.setattr(dynamics, "step", failing_third)
    cfg = _tiny_config(tmp_path, amplitude="0.01")
    with pytest.raises(BlowUpError):
        driver.run_experiment(cfg, quiet=True)
    out = tmp_path / "out"
    # steps 0, 1 and 2 were reported before the third step failed
    for fname in ("energy.csv", "constraints.csv"):
        assert len(driver.read_csv(str(out / fname))["tau"]) == 3, fname
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["error"] == {"type": "BlowUpError", "message":
                             "non-finite E at index [0, 0, 0, 0, 0], tau = 0.030000"}
    assert meta["last_reported_step"] == 2 and meta["n_steps"] > 3
    assert meta["config"] == cfg.as_dict() and meta["warnings"] == []
    assert meta["initial_data"]["converged"] is True and "version" in meta


def test_failed_snapshot_write_keeps_its_rows(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(lattice, "save_state", failing)
    cfg = _tiny_config(tmp_path, amplitude="0.01")
    with pytest.raises(OSError):
        driver.run_experiment(cfg, quiet=True)
    out = tmp_path / "out"
    # the write of step 0's snapshot failed after its report's rows were formed
    for fname in ("energy.csv", "constraints.csv"):
        assert len(driver.read_csv(str(out / fname))["tau"]) == 1, fname
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["error"] == {"type": "OSError", "message": "[Errno 28] No space left on device"}
    assert meta["last_reported_step"] == 0


def test_failed_gauge_experiment_leaves_a_record(tmp_path, monkeypatch):
    from ymtorus.errors import BlowUpError

    def failing(*args, **kwargs):
        raise BlowUpError("non-finite E at index [0, 0, 0, 0, 0], tau = 0.010000")

    monkeypatch.setattr(driver, "run_gauge_invariance", failing)
    raw = driver.preset_config("gauge_invariance").as_dict()
    raw["grid"]["n"] = "8"
    raw["background"]["tau_end_fraction"] = "0.05"
    raw["outputs"] = {"directory": str(tmp_path / "gi"), "plot": "false", "snapshots": "0"}
    cfg = driver.validate_config(raw)
    with pytest.raises(BlowUpError):
        driver.run_experiment(cfg, quiet=True)
    out = tmp_path / "gi"
    assert sorted(p.name for p in out.iterdir()) == [
        "constraints.csv", "decay.json", "energy.csv", "metadata.json"]
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["error"] == {"type": "BlowUpError", "message":
                             "non-finite E at index [0, 0, 0, 0, 0], tau = 0.010000"}
    assert meta["last_reported_step"] == meta["n_steps"]
    assert len(driver.read_csv(str(out / "energy.csv"))["tau"]) == meta["n_steps"] + 1
    assert meta["config"] == cfg.as_dict() and meta["initial_data"]["converged"] is True


def test_failed_set_up_leaves_a_record(tmp_path, monkeypatch):
    message = "Gauss CG did not converge: |r| = 1.000e-03 after 5120 iterations"

    def failing(*args, **kwargs):
        raise SolverError(message)

    monkeypatch.setattr(constraints, "solve_gauss_initial", failing)
    cfg = _tiny_config(tmp_path, amplitude="0.01")
    with pytest.raises(SolverError, match="did not converge"):
        driver.run_experiment(cfg, quiet=True)
    out = tmp_path / "out"
    assert [p.name for p in out.iterdir()] == ["metadata.json"]
    assert json.loads((out / "metadata.json").read_text()) == {
        "config": cfg.as_dict(), "version": __version__, "warnings": [],
        "error": {"type": "SolverError", "message": message}}


@pytest.mark.parametrize("writer", ["write_energy_csv", "write_constraints_csv"])
def test_failed_csv_write_leaves_a_record(tmp_path, monkeypatch, writer):
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(driver, writer, failing)
    cfg = _tiny_config(tmp_path, amplitude="0.01")
    with pytest.raises(OSError):
        driver.run_experiment(cfg, quiet=True)
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["error"] == {"type": "OSError", "message": "[Errno 28] No space left on device"}
    assert meta["last_reported_step"] == meta["n_steps"] > 0
    assert meta["config"] == cfg.as_dict() and meta["initial_data"]["converged"] is True
    assert len(calls) == 1


def test_decay_figure_draws_the_fitted_series(tmp_path, monkeypatch):
    # with lapse N = 2 the physical sups are the simulation-frame ones over
    # (N s) for phi and E and over (N s)^1.5 for psi, as decay.json fits them
    curves, line_plot = {}, plots.line_plot

    def capture(path, x, series, **kwargs):
        curves[os.path.basename(path)] = x, series
        line_plot(path, x, series, **kwargs)

    monkeypatch.setattr(plots, "line_plot", capture)
    cfg = driver.parse_config_text(f"""
[grid]
n = 8
[background]
lapse = 2
tau_end_fraction = 0.2
[initial]
seed = 2
amplitude = 0.01
[numerics]
cfl = 0.4
dtau = 0.01
[outputs]
directory = {tmp_path}/lapse2
""")
    summary = driver.run_experiment(cfg, quiet=True)
    assert not summary["decay"]["phi"]["undefined"] and not summary["decay"]["psi"]["undefined"]
    e = driver.read_csv(str(tmp_path / "lapse2" / "energy.csv"))
    bg = driver.build_background(cfg)
    s = np.array([bg.profile.s_of_tau(t) for t in e["tau"]])
    x, series = curves["decay.svg"]
    assert np.array_equal(x, s)
    for name, power in (("phi", 1.0), ("E", 1.0), ("psi", 1.5)):
        np.testing.assert_allclose(series[name], e["sup_" + name] / (2.0 * s) ** power,
                                   rtol=1e-13, atol=0.0)
        window = e["tau"] >= summary["decay"][name]["window"][0]
        assert series[name + " fit"][window][0] == series[name][window][0]


@pytest.mark.parametrize("keys, profile", [
    ("profile = desitter\na = 1.7", lambda: geometry.ScaleProfile("desitter", a=1.7)),
    ("profile = exponential\ns0 = 0.8\nrate = 1.3",
     lambda: geometry.ScaleProfile("exponential", s0=0.8, rate=1.3)),
    ("profile = power\ns0 = 0.9\nt0 = 1.4\np = 2.5",
     lambda: geometry.ScaleProfile("power", s0=0.9, t0=1.4, p=2.5)),
], ids=["desitter", "exponential", "power"])
def test_background_of_each_profile_kind_keeps_its_bits(keys, profile):
    # the reference is the profile built with each key by name, as
    # build_background did with one branch per kind
    cfg = driver.parse_config_text("[background]\n%s\nb_kind = bianchi1\nb_eps = 0.3\n" % keys)
    bg, want = driver.build_background(cfg), geometry.bianchi1(profile(), eps=0.3)
    ts = np.linspace(0.0, 2.0, 7)
    taus = np.linspace(0.0, 0.95 * want.T, 7)
    assert bg.T == want.T
    for got, ref in ((bg.profile.s(ts), want.profile.s(ts)),
                     (bg.profile.tau_of_t(ts), want.profile.tau_of_t(ts)),
                     (bg.b(taus), want.b(taus)), (bg.b(taus, 1), want.b(taus, 1))):
        assert got.tobytes() == ref.tobytes()
