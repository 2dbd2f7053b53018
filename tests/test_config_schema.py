"""The config schema: every key has a value that validate_config rejects by
name, path keys are checked for existence, table files must build the
background, structure files must parse to a Lie algebra, dropped keys are
unknown, the README lists the schema's keys, and a config whose steps break
the CFL bound or numerics.max_steps fails validation, and stops a run before
it writes anything."""

import math
import pathlib
import re

import numpy as np
import pytest

from ymtorus import algebra, driver, lattice
from ymtorus.errors import ConfigError, InputError

ROOT = pathlib.Path(__file__).resolve().parents[1]

# one invalid value per schema key; the comments mark values that passed
# validate_config before the schema and then ran or failed mid-run
INVALID = {
    ("grid", "n"): "3",
    ("grid", "length"): "nan",  # was accepted
    ("grid", "stencil_order"): "3",
    ("background", "profile"): "table",  # no s_table: was a KeyError in build_background
    ("background", "a"): "0",
    ("background", "s0"): "-1",
    ("background", "rate"): "0",
    ("background", "t0"): "inf",
    ("background", "p"): "1",
    ("background", "s_table"): "/nonexistent/s.csv",  # was accepted
    ("background", "lapse"): "inf",  # was accepted
    ("background", "tau_end_fraction"): "1",
    ("background", "b_kind"): "twisted",
    ("background", "b_eps"): "nan",  # was accepted with b_kind = bianchi1
    ("background", "b_table"): "/nonexistent/b.csv",
    ("gauge", "model"): "e8_toy",
    ("gauge", "lambda"): "nan",  # was accepted
    ("gauge", "structure_file"): "/nonexistent/f.txt",  # was a FileNotFoundError in build_run
    ("initial", "seed"): "-3",  # was accepted
    ("initial", "amplitude"): "-inf",
    ("initial", "cutoff"): "2",  # 4 * cutoff reaches grid.n = 8
    ("initial", "sectors"): "gauge,gravity",
    ("numerics", "cfl"): "2",
    ("numerics", "dtau"): "inf",  # was accepted
    ("numerics", "cg_tol"): "0",
    ("numerics", "report_every"): "0",
    ("numerics", "energy_k"): "5",
    ("numerics", "max_steps"): "1.5",
    ("outputs", "directory"): "",
    ("outputs", "plot"): "maybe",  # was read as false
    ("outputs", "snapshots"): "-1",
    ("gauge_experiment", "kind"): "dynamic",
    ("gauge_experiment", "seed"): "-1",
    ("gauge_experiment", "amplitude"): "nan",
    ("gauge_experiment", "cutoff"): "2",
    ("gauge_experiment", "alpha_amplitude"): "nan",  # was accepted
    ("gauge_experiment", "alpha_steps"): "3",
}


def base_raw(sec):
    raw = {"grid": {"n": "8"}}
    if sec == "gauge_experiment":
        raw[sec] = {"kind": "static"}
    elif sec == "background":
        raw[sec] = {"b_kind": "bianchi1"}
    return raw


def test_invalid_table_covers_the_schema():
    assert set(INVALID) == set(driver.SCHEMA)


@pytest.mark.parametrize("sec, key", sorted(INVALID))
def test_invalid_value_is_named(sec, key):
    driver.validate_config(base_raw(sec))
    raw = base_raw(sec)
    raw.setdefault(sec, {})[key] = INVALID[sec, key]
    with pytest.raises(ConfigError) as err:
        driver.validate_config(raw)
    assert any("%s.%s" % (sec, key) in v for v in err.value.violations), err.value.violations


@pytest.mark.parametrize("key", ["q_w", "q_plus", "q_minus"])
def test_dropped_charge_keys_are_unknown(key):
    with pytest.raises(ConfigError) as err:
        driver.parse_config_text("[gauge]\n%s = 2\n" % key)
    assert err.value.violations == ["unknown key gauge.%s" % key]


@pytest.mark.parametrize("sec, key, lines", [
    ("gauge", "structure_file", ""),
    ("background", "s_table", "profile = table\n"),
    ("background", "b_table", "b_kind = table\n"),
])
def test_missing_path_is_a_violation(tmp_path, sec, key, lines):
    missing = tmp_path / "missing.csv"
    with pytest.raises(ConfigError) as err:
        driver.parse_config_text("[%s]\n%s%s = %s\n" % (sec, lines, key, missing))
    assert err.value.violations == ["%s.%s names no file %r" % (sec, key, str(missing))]
    # columns t, s(t) for s_table and tau, b1, b2, b3 for b_table; the su(2)
    # structure constants for structure_file
    missing.write_text(structure_text(algebra.su2().f) if key == "structure_file" else
                       "".join("%g,%r,%r,%r\n" % ((0.5 * i,) + (math.exp(0.5 * i),) * 3)
                               for i in range(7)))
    cfg = driver.parse_config_text("[%s]\n%s%s = %s\n" % (sec, lines, key, missing))
    assert cfg.value(sec, key) == str(missing)


def structure_text(f):
    """A structure-constant file of f (algebra.load_structure_constants)."""
    return "%d\n" % len(f) + "".join(" ".join("%.17g" % x for x in row) + "\n"
                                     for row in f.reshape(-1, len(f)))


@pytest.mark.parametrize("text, reason", [
    ("3\n0 0 x\n", "could not convert string to float: 'x'"),  # was a ValueError in build_run
    ("2\n0 1 2\n", "expected 8 structure constants, found 3"),  # was an InputError there
    (structure_text(np.ones((2, 2, 2))), "structure constants fail algebra checks"),
])
def test_malformed_structure_file_is_a_violation(tmp_path, text, reason):
    path = tmp_path / "f.txt"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        driver.parse_config_text("[gauge]\nstructure_file = %s\n" % path)
    [violation] = err.value.violations
    assert violation.startswith("gauge.structure_file %r is no Lie algebra: " % str(path))
    assert reason in violation


@pytest.mark.parametrize("lines, key", [("profile = table\n", "s_table"),
                                        ("b_kind = table\n", "b_table")])
def test_table_that_builds_no_background_is_a_violation(tmp_path, lines, key):
    table = tmp_path / "one_row.csv"
    table.write_text("0,1\n")
    with pytest.raises(ConfigError) as err:
        driver.parse_config_text("[background]\n%s%s = %s\n" % (lines, key, table))
    assert len(err.value.violations) == 1
    assert err.value.violations[0].startswith("the background cannot be built: ")


@pytest.mark.parametrize("b2, rows", [
    (lambda tau: tau, 17), (lambda tau: 1 - 2 * tau, 17),
    (lambda tau: 1 - 1.5 * np.exp(-((tau - 0.022) / 0.005) ** 2), 321)],
    ids=["tau", "1-2tau", "narrow_dip"])
def test_b_table_that_reaches_zero_is_a_violation(tmp_path, b2, rows):
    # b2 = tau was an OverflowError in cfl_steps, 1 - 2 tau a negative CFL bound;
    # the narrow dip lies between the 33 taus at which b was once sampled
    taus = np.linspace(0.0, 1.6, rows)
    table = tmp_path / "b.csv"
    np.savetxt(table, np.column_stack([taus, np.ones_like(taus), b2(taus), np.ones_like(taus)]),
               delimiter=",")
    with pytest.raises(ConfigError) as err:
        driver.parse_config_text("[background]\nb_kind = table\nb_table = %s\n" % table)
    [violation] = err.value.violations
    assert re.fullmatch(r"b must stay positive on \[0, \S+\]: min b = \S+", violation), violation


def test_table_profile_needs_its_table():
    with pytest.raises(ConfigError) as err:
        driver.parse_config_text("[background]\nprofile = table\n")
    assert err.value.violations == ["background.profile = table needs background.s_table"]


def test_values_are_typed_and_the_text_is_kept():
    cfg = driver.parse_config_text("[grid]\nn = 8\n[initial]\nsectors = gauge, higgs\n"
                                   "[outputs]\nplot = no\n")
    assert cfg.value("grid", "n") == 8 and cfg["grid", "n"] == "8"
    assert cfg.value("initial", "sectors") == ("gauge", "higgs")
    assert cfg.value("outputs", "plot") is False
    assert cfg.value("numerics", "dtau") is None
    # a default that only a branch reads is typed but left out of as_dict()
    assert cfg.value("background", "p") == 2.0
    assert "p" not in cfg.as_dict()["background"] and "gauge_experiment" not in cfg.as_dict()


def readme_keys():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^\| `(\w+)` +\| `(\w+)` +\|", text, flags=re.M)


def test_readme_lists_the_schema_keys():
    keys = readme_keys()
    assert len(keys) == len(set(keys))
    assert set(keys) == set(driver.SCHEMA)


CFL_TEXT = ("[grid]\nn = 8\n[initial]\ncutoff = 1\n[background]\ntau_end_fraction = 0.2\n"
            "[numerics]\ncfl = 0.2\ndtau = 0.5\n")


def test_steps_over_the_cfl_bound_or_max_steps_fail_validation():
    with pytest.raises(ConfigError) as err:
        driver.parse_config_text(CFL_TEXT)
    grid = lattice.Grid(8)
    bound = 0.2 * grid.dx  # the static frame has b = 1
    [violation] = err.value.violations
    assert re.fullmatch(r"dtau = \S+ violates CFL bound %g" % bound, violation), violation
    with pytest.raises(ConfigError) as err:
        driver.parse_config_text("[grid]\nn = 8\n[numerics]\nmax_steps = 3\n")
    assert re.fullmatch(r"run needs \d+ steps > numerics.max_steps", err.value.violations[0])


def test_dtau_over_the_cfl_bound_stops_before_set_up(tmp_path, monkeypatch):
    def set_up(*args, **kwargs):
        raise AssertionError("set-up ran")

    monkeypatch.setattr(driver, "prepare_initial_state", set_up)
    out = tmp_path / "out"
    cfg = driver.parse_config_text(CFL_TEXT.replace("dtau = 0.5\n", "") +
                                   "[outputs]\ndirectory = %s\nplot = false\n" % out)
    cfg.values["numerics", "dtau"] = 0.5  # a config that bypassed validation
    grid, _, bg, _ = driver.build_run(cfg)
    bound = 0.2 * grid.dx * min(bg.b(0.0))
    with pytest.raises(InputError, match="violates CFL bound %g$" % bound):
        driver.run_experiment(cfg)
    assert not out.exists()
