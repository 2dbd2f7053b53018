"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from this file:

    python3 perfbench/spec.py        # rewrites BENCHMARK.json

Each workload is a shipped preset with overrides.  The benchmark's
``--seed`` is added to the preset's own ``initial.seed``, so seed 0 runs the
preset data exactly (the golden files in ``perfbench/golden/`` are made from
it) and every other seed draws fresh band-limited initial data.
"""

import json
import os

from tracer import EXTRAS, LAYER_TARGETS

DEFAULT_SEED = 0
RUN_SECONDS = 30
# Every run repeats run_experiment at least MIN_REPEATS times and has at
# least MIN_SET_UPS set-up samples; the shorter workloads repeat more often
# within RUN_SECONDS.  After each full run, set-up-only runs are added while
# they have taken less than SET_UP_SHARE of the measured time: about ten more
# set-up samples for u1_report_n16 and one to three for su3_pure_n16.
MIN_REPEATS = 2
MIN_SET_UPS = 3
SET_UP_SHARE = 0.1

# The speed probe (run.SpeedProbe) times a pure-Python loop of PROBE_LOOPS
# passes, about a millisecond, every PROBE_EVERY_S seconds: 1% of the time.
# PROBE_REF_S is its median time on the 2-vCPU host on which the benchmark
# was set up; times are scaled to that probe time.  A time spanning fewer
# than PROBE_MIN probes is scaled by the PROBE_MIN probes nearest to it.
PROBE_LOOPS = 10000
PROBE_EVERY_S = 0.1
PROBE_MIN = 10
PROBE_REF_S = 0.0010

# Before timing, each run makes one run_experiment on its workload shrunk to
# this size: imports and lazy set-up that only a process's first run pays
# (matplotlib for the plots, for one) are then not in the first timed sample.
WARM_UP = {"grid": {"n": "8"}, "initial": {"cutoff": "1"},
           "background": {"tau_end_fraction": "0.02"}}

# prepare_initial_state rescales the data until the k = 2 energy is within
# 1e-10 + 1e-9 * amplitude**2 of amplitude**2.  The second pass misses the
# target by a relative 1e-7 to 3e-6 that grows with the amplitude, so at the
# presets' amplitude 0.01 the su2 and su3 data need a third pass for some
# seeds and not others (6 s against 10 s of set-up at n = 32).  Those two
# workloads use an amplitude at which every seed needs two passes, so that a
# change of seed changes the data but not the amount of work.
WORKLOADS = {
    "u1_report_n16": {
        "why": "shipped desitter_u1_small physics with a report every step: "
               "reporting costs about as much as stepping, brackets compute zeros, "
               "and the run is long enough for the decay fits",
        "preset": "desitter_u1_small",
        "overrides": {"outputs": {"snapshots": "1"}},
    },
    "su3_pure_n16": {
        "why": "su(3) pure Yang-Mills at n = 16 with sparse reports: the bracket "
               "dominates and the identically zero matter sectors are still computed",
        "preset": "desitter_u1_small",
        "overrides": {"gauge": {"model": "su3_pure"},
                      "initial": {"amplitude": "0.005"},
                      "background": {"tau_end_fraction": "0.3"},
                      "numerics": {"report_every": "6"},
                      "outputs": {"snapshots": "1"}},
    },
    "su2_bianchi_n32": {
        "why": "su2_toy with matter on the anisotropic bianchi1 background at n = 32: "
               "stepping dominates, the working set exceeds L2, set-up is heavy and "
               "two 44 MB snapshots are written",
        "preset": "bianchi1_su2",
        "overrides": {"grid": {"n": "32"},
                      "initial": {"amplitude": "0.003"},
                      "background": {"tau_end_fraction": "0.035"},
                      "numerics": {"report_every": "100000"},
                      "outputs": {"snapshots": "2"}},
    },
}

END_TO_END = (
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
)

# Per-layer metrics that are not a (calls, self_s) pair of a traced function.
TRACE_METRICS = (
    {"name": "dynamics.rhs.per_step", "unit": "count", "better": "lower"},
    {"name": "driver.run_experiment.self_s", "unit": "s", "better": "lower"},
    {"name": "trace.wall_s", "unit": "s", "better": "lower"},
    {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
)

EXTRA_UNITS = {"iterations": "count", "bytes": "bytes"}


def layer_names():
    return ["%s.%s" % pair for pair in LAYER_TARGETS]


def per_layer():
    metrics = []
    for name in layer_names():
        metrics.append({"name": name + ".calls", "unit": "count", "better": "lower"})
        metrics.append({"name": name + ".self_s", "unit": "s", "better": "lower"})
        if name in EXTRAS:
            extra = EXTRAS[name][0]
            metrics.append({"name": "%s.%s" % (name, extra), "unit": EXTRA_UNITS[extra],
                            "better": "lower"})
    return metrics + list(TRACE_METRICS)


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": list(END_TO_END),
        "per_layer": per_layer(),
    }


def raw_config(driver, workload, seed, out_dir, warm_up=False):
    """The workload's config as a dict of dicts, ready for validate_config;
    shrunk by WARM_UP if ``warm_up``."""
    spec = WORKLOADS[workload]
    raw = driver.preset_config(spec["preset"]).as_dict()
    for overrides in (spec["overrides"], WARM_UP if warm_up else {}):
        for section, values in overrides.items():
            raw.setdefault(section, {}).update(values)
    raw["initial"]["seed"] = str(int(raw["initial"]["seed"]) + seed)
    raw["outputs"]["plot"] = "true"
    raw["outputs"]["directory"] = out_dir
    return raw


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), "w") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
