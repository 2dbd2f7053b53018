"""Configs drawn from the schema's valid values run to the end, or stop only
with BlowUpError after writing the rows they reported and the error.
Skipped without hypothesis."""

import json
import shutil

import pytest

from ymtorus import algebra, driver
from ymtorus.errors import BlowUpError

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402


def text(values):
    return values.map(repr)


background = st.one_of(
    st.fixed_dictionaries({"profile": st.just("desitter"), "a": text(st.floats(0.5, 2.0))}),
    st.fixed_dictionaries({"profile": st.just("exponential"), "s0": text(st.floats(0.5, 2.0)),
                           "rate": text(st.floats(0.5, 2.0))}),
    st.fixed_dictionaries({"profile": st.just("power"), "s0": text(st.floats(0.5, 2.0)),
                           "t0": text(st.floats(0.5, 2.0)), "p": text(st.floats(1.5, 3.0))}),
).flatmap(lambda bg: st.fixed_dictionaries({
    **{key: st.just(value) for key, value in bg.items()},
    "lapse": text(st.floats(0.5, 2.0)),
    "tau_end_fraction": text(st.floats(0.005, 0.03)),
    "b_kind": st.sampled_from(["flat", "bianchi1"]),
    "b_eps": text(st.floats(0.0, 1.0)),
}))

configs = st.fixed_dictionaries({
    "grid": st.fixed_dictionaries({"n": st.just("8"), "stencil_order": st.sampled_from(["2", "4"])}),
    "background": background,
    "gauge": st.fixed_dictionaries({"model": st.sampled_from(sorted(algebra.SHIPPED_MODELS)),
                                    "lambda": text(st.floats(0.0, 2.0))}),
    "initial": st.fixed_dictionaries({
        "seed": text(st.integers(0, 2 ** 32)),
        "amplitude": text(st.floats(0.0, 0.05)),
        "sectors": st.sets(st.sampled_from(["gauge", "higgs", "dirac"]), min_size=1).map(",".join),
    }),
    "numerics": st.fixed_dictionaries({
        "cfl": text(st.floats(0.05, 1.5)),
        "cg_tol": text(st.floats(1e-12, 1e-6)),
        "report_every": text(st.integers(1, 3)),
        "energy_k": text(st.integers(0, 4)),
    }),
    "outputs": st.fixed_dictionaries({"plot": st.sampled_from(["true", "false"]),
                                      "snapshots": text(st.integers(0, 2))}),
}, optional={"gauge_experiment": st.fixed_dictionaries({  # static: tests/test_driver.py
    "kind": st.just("automorphism"), "alpha_amplitude": text(st.floats(-1.0, 1.0)),
    "alpha_steps": text(st.integers(4, 40))})})


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=configs)
def test_valid_config_runs_or_blows_up_with_its_rows(tmp_path, raw):
    out = tmp_path / "run"
    shutil.rmtree(out, ignore_errors=True)
    cfg = driver.validate_config(raw)
    try:
        summary = driver.run_experiment(cfg, out_dir=str(out))
    except BlowUpError:
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["error"]["type"] == "BlowUpError"
        assert len(driver.read_csv(str(out / "energy.csv"))["tau"]) >= 1
        assert len(driver.read_csv(str(out / "constraints.csv"))["tau"]) >= 1
        return
    assert summary["n_steps"] >= 1 and (out / "decay.json").exists()
    assert json.loads((out / "metadata.json").read_text())["config"] == cfg.as_dict()
