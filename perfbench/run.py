"""ymtorus benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload u1_report_n16 --seed 0 --seconds 30 --trace 0

Runs ``driver.run_experiment`` on the workload's config (see spec.py) again
and again for about ``--seconds`` (at least spec.MIN_REPEATS times), after
one untimed warm-up run on a shrunken config, checks every run's outputs
(checks.py), and prints one metric per line followed by a last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
runs.  Set-up-only runs (run_experiment stopped when prepare_initial_state
returns) are mixed in to add set-up samples where set-up is cheap.  With
``--trace 1`` untraced runs alternate with runs that have every layer
function of tracer.LAYER_TARGETS wrapped, and the metrics are the per-layer
call counts and self times of the traced runs.  Outputs, spans and a run
record with the machine metadata go to ``perfbench/out/<workload>/``.

The end-to-end times are wall-clock times (``time.perf_counter``) scaled to
a reference speed of the host.  On a shared host the speed this process
gets changes by 20-40% within a second and drifts over minutes, from steal
time and from other guests on the same core and caches; process CPU time
changes with it.  So while the runs are measured, a speed probe (a fixed
pure-Python loop of about a millisecond) runs every spec.PROBE_EVERY_S
seconds from a SIGALRM timer, sampling the speed uniformly in time.  Each
time is taken without the probes that fell inside it and multiplied by
spec.PROBE_REF_S times the mean speed (1 / probe time) of those probes, and
reads as seconds on a host on which the probe always takes PROBE_REF_S.
The program's times follow the probe's, so most of the host's drift cancels
out.  The unscaled times are in the run record.

BLAS and OpenMP threads are pinned to one before numpy is imported.
"""

import os

THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import checks  # noqa: E402
import spec  # noqa: E402
from tracer import LAYER_TARGETS, PHASE_TARGETS, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
ROOT_SPAN = "driver.run_experiment"
# A traced measurement makes at least this many (untraced, traced) pairs, so
# that the call counts can be compared between two traced runs.
MIN_TRACED_PAIRS = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import ymtorus from the checkout's src/; None if it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ymtorus", "__init__.py")):
        return None
    sys.path.insert(0, src)
    from ymtorus import driver

    return driver


def git_state():
    """(commit, dirty) of the checkout; (None, None) where it is not a git work
    tree or git is missing.  Git does not look above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args):
        return subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)

    try:
        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain")
    except (OSError, subprocess.SubprocessError):
        return None, None
    if head.returncode != 0 or status.returncode != 0:
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def host_steal_s():
    """CPU time the hypervisor gave to others, summed over this machine's CPUs
    (field 8 of /proc/stat); None where it cannot be read."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def machine_metadata():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit, dirty = git_state()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "git_commit": commit,
        "git_dirty": dirty,
    }


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


class SetUpDone(Exception):
    """Stops a set-up-only run once prepare_initial_state has returned."""


class SpeedProbe:
    """Samples the speed that the host gives this process.

    While entered, an interval timer raises SIGALRM every spec.PROBE_EVERY_S
    seconds of wall time, and the handler times one pass of a fixed
    pure-Python loop.  The loop touches no arrays, so its time follows the
    CPU and not the program's use of the caches.  Python runs the handler
    between two bytecodes of the main thread, so a probe never splits a
    numpy call, and system calls that the signal interrupts are restarted.
    """

    def __init__(self):
        self.probes = []  # (start, end) of each probe

    def _probe(self, signum, frame):
        started = time.perf_counter()
        total = 0
        for i in range(spec.PROBE_LOOPS):
            total += i * i % 7
        self.probes.append((started, time.perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, spec.PROBE_EVERY_S, spec.PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def corrected(self, start, end):
        """The time from ``start`` to ``end`` without the probes that started
        in it, times spec.PROBE_REF_S and the mean speed (1 / probe time) of
        those probes.  When fewer than spec.PROBE_MIN probes started in it,
        the speed is that of the PROBE_MIN probes that started nearest to its
        middle."""
        within = [(s, e) for s, e in self.probes if start <= s < end]
        busy = end - start - sum(e - s for s, e in within)
        if len(within) < spec.PROBE_MIN:
            middle = 0.5 * (start + end)
            within = sorted(self.probes, key=lambda p: abs(p[0] - middle))[:spec.PROBE_MIN]
        return busy * spec.PROBE_REF_S * statistics.mean(1.0 / (e - s) for s, e in within)


class Runner:
    """Runs one workload repeatedly and checks each run's outputs."""

    def __init__(self, driver, workload, seed):
        self.driver = driver
        self.workload = workload
        self.seed = seed
        self.run_dir = os.path.join(OUT, workload, "run")
        self.cfg = driver.validate_config(
            spec.raw_config(driver, workload, seed, self.run_dir))
        self.attempted = 0
        self.failed = 0
        self.log = []  # one dict per run
        self.last_s = 0.0  # duration of the latest run, checks included

    def warm_up(self):
        """One untimed, unchecked run of the workload shrunk by spec.WARM_UP;
        a failure here shows up again in the timed runs."""
        raw = spec.raw_config(self.driver, self.workload, self.seed, self.run_dir,
                              warm_up=True)
        try:
            cfg = self.driver.validate_config(raw)
            self.driver.run_experiment(cfg, out_dir=self.run_dir)
        except Exception:  # noqa: BLE001
            pass
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def keep_going(self, deadline, runs, min_runs):
        """Start another run while fewer than ``min_runs`` were made, or while
        it is expected to end nearer to ``deadline`` than stopping now."""
        if runs < min_runs:
            return True
        return time.perf_counter() + 0.5 * self.last_s < deadline

    def run_once(self, tracer, set_up_only=False):
        """One run_experiment inside a root span; returns the summary or None."""
        started = time.perf_counter()
        try:
            return self._run_once(tracer, set_up_only)
        finally:
            self.last_s = time.perf_counter() - started

    def set_up_once(self, tracer):
        """run_experiment stopped as soon as prepare_initial_state returns.
        Its set-up is not checked: the full runs check the state that the
        same set-up hands on."""
        current = self.driver.prepare_initial_state

        def stop(*args, **kwargs):
            current(*args, **kwargs)
            raise SetUpDone

        self.driver.prepare_initial_state = stop
        try:
            self.run_once(tracer, set_up_only=True)
        finally:
            self.driver.prepare_initial_state = current

    def _run_once(self, tracer, set_up_only):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.attempted += 1
        entry = {"run": tracer.new_run(), "traced": tracer.targets == LAYER_TARGETS,
                 "set_up_only": set_up_only}
        self.log.append(entry)
        try:
            with tracer.span(ROOT_SPAN):
                summary = self.driver.run_experiment(self.cfg, out_dir=self.run_dir)
        except SetUpDone:
            summary = {}
        except Exception:  # a failed run is counted, not fatal
            entry["error"] = traceback.format_exc()
            self.failed += 1
            return None
        root = tracer.first(ROOT_SPAN, entry["run"])
        entry["wall_s"] = root[3] - root[2]
        if set_up_only:
            return summary
        entry["n_steps"] = summary["n_steps"]
        entry["checks"] = self.check(summary)
        if any(ok is False for _, ok, _ in entry["checks"]):
            self.failed += 1
        return summary

    def check(self, summary):
        default = self.seed == spec.DEFAULT_SEED
        out = checks.threshold_checks(summary, self.run_dir, self.cfg, enforce_decay=default)
        if default:
            for name, (ok, identical, detail) in checks.golden_compare(
                    self.workload, self.run_dir).items():
                out.append(("golden:" + name, ok, detail))
                out.append(("byte_identical:" + name, None, str(identical)))
        return out


def run_times(tracer, probe, run_id):
    """Corrected times (SpeedProbe.corrected) of one run: set-up, from the
    start of the run until prepare_initial_state returns, and for a full run
    the wall time and the time in evolve; with the uncorrected ones."""
    root = tracer.first(ROOT_SPAN, run_id)
    set_up_end = tracer.first("driver.prepare_initial_state", run_id)[3]
    spans = {"setup_s": (root[2], set_up_end)}
    evolve = tracer.first("dynamics.evolve", run_id)
    if evolve is not None:
        spans.update(wall_s=(root[2], root[3]), evolve_s=(evolve[2], evolve[3]))
    times = {name: probe.corrected(start, end) for name, (start, end) in spans.items()}
    times["unscaled"] = {name: end - start for name, (start, end) in spans.items()}
    return times


def measure_untraced(runner, seconds):
    """Full runs for about ``seconds``, at least spec.MIN_REPEATS of them.
    After each, set-up-only runs are made while the time they took stays
    below spec.SET_UP_SHARE of the time measured so far, and at the end
    until there are spec.MIN_SET_UPS set-up samples.  The metrics are medians
    over the runs of the corrected times."""
    tracer, probe = Tracer(PHASE_TARGETS), SpeedProbe()
    started = time.perf_counter()
    deadline = started + seconds
    full, set_up_only_s = 0, 0.0
    with tracer, probe:
        while runner.keep_going(deadline, full, spec.MIN_REPEATS):
            runner.run_once(tracer)
            full += 1
            while "error" not in runner.log[-1]:
                run = runner.log[-1]["run"]
                root = tracer.first(ROOT_SPAN, run)
                set_up = tracer.first("driver.prepare_initial_state", run)[3] - root[2]
                if set_up_only_s + set_up > spec.SET_UP_SHARE * (time.perf_counter() - started):
                    break
                runner.set_up_once(tracer)
                set_up_only_s += runner.last_s
        while len(runner.log) < spec.MIN_SET_UPS and "error" not in runner.log[-1]:
            runner.set_up_once(tracer)
    for entry in runner.log:
        if "error" not in entry:
            entry["times"] = run_times(tracer, probe, entry["run"])
    full_runs = [e for e in runner.log if "times" in e and not e["set_up_only"]]
    if not full_runs:
        return None, {}
    set_ups = [e["times"] for e in runner.log if "times" in e]
    samples = {"wall_s": [e["times"]["wall_s"] for e in full_runs],
               "setup_s": [t["setup_s"] for t in set_ups],
               "steps_per_s": [e["n_steps"] / e["times"]["evolve_s"] for e in full_runs]}
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    unscaled = {"wall_s": [e["times"]["unscaled"]["wall_s"] for e in full_runs],
                "setup_s": [t["unscaled"]["setup_s"] for t in set_ups]}
    probe_s = [end - start for start, end in probe.probes]
    return tracer, {"metrics": metrics, "samples": samples,
                    "unscaled_medians": {k: statistics.median(v) for k, v in unscaled.items()},
                    "probes": {"count": len(probe_s), "median_s": statistics.median(probe_s)}}


def measure_traced(runner, seconds):
    """Pairs of one untraced and one traced run, at least MIN_TRACED_PAIRS of
    them.  The overhead is the median of the per-pair differences, so that a
    drift of the host's speed over the run cancels out of it."""
    deadline = time.perf_counter() + seconds
    plain, tracer = Tracer(()), Tracer(LAYER_TARGETS)
    pairs, overheads, pair_s = 0, [], 0.0
    while pairs < MIN_TRACED_PAIRS or time.perf_counter() + 0.5 * pair_s < deadline:
        started = time.perf_counter()
        runner.run_once(plain)
        with tracer:
            runner.run_once(tracer)
        pair_s = time.perf_counter() - started
        pairs += 1
        base, traced = runner.log[-2:]
        if "error" not in base and "error" not in traced:
            overheads.append(traced["wall_s"] - base["wall_s"])
    runs = [e["run"] for e in runner.log if e["traced"] and "error" not in e]
    if not overheads:
        return None, {}
    per_run = [tracer.self_times(run) for run in runs]
    extras = [tracer.extras.get(run, {}) for run in runs]
    counts = [{name: v[0] for name, v in pr.items()} for pr in per_run]
    repeat = len(runs) >= MIN_TRACED_PAIRS and all(c == counts[0] for c in counts) \
        and all(e == extras[0] for e in extras)

    metrics = {}
    for name in spec.layer_names():
        metrics[name + ".calls"] = counts[0].get(name, 0)
        metrics[name + ".self_s"] = statistics.median(pr.get(name, (0, 0.0))[1]
                                                      for pr in per_run)
    metrics.update(extras[0])
    steps = counts[0].get("dynamics.step", 0)
    metrics["dynamics.rhs.per_step"] = counts[0].get("dynamics.rhs", 0) / max(steps, 1)
    metrics[ROOT_SPAN + ".self_s"] = statistics.median(pr[ROOT_SPAN][1] for pr in per_run)
    metrics["trace.wall_s"] = statistics.median(e["wall_s"] for e in runner.log
                                                if e["traced"] and "error" not in e)
    metrics["trace.overhead_s"] = statistics.median(overheads)
    # share of the traced wall time spent inside the traced layers
    layer_share = statistics.median(1.0 - pr[ROOT_SPAN][1] / sum(v[1] for v in pr.values())
                                    for pr in per_run)
    detail = {"counts_repeat": repeat, "traced_runs": len(runs), "pairs": len(overheads),
              "overheads_s": overheads, "layer_share": layer_share}
    return tracer, {"metrics": metrics, "tracing": detail}


def main(argv=None):
    args = parse_args(argv)
    driver = import_program()
    if driver is None:
        print("perfbench: no ymtorus sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    steal_start = host_steal_s()
    runner = Runner(driver, args.workload, args.seed)
    runner.warm_up()
    measure = measure_traced if args.trace else measure_untraced
    tracer, result = measure(runner, args.seconds)
    if tracer is None:
        for entry in runner.log:
            print(entry.get("error", ""), file=sys.stderr)
        print("perfbench: no run of %s completed" % args.workload, file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec.END_TO_END + tuple(spec.per_layer())}
    correct = runner.failed == 0 and result.get("tracing", {}).get("counts_repeat", True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_metadata(),
        "host_steal_s": None if steal_start is None else host_steal_s() - steal_start,
        "attempted": runner.attempted, "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "correct": correct, "runs": runner.log, **result,
    }
    if "samples" in result:
        record["quartiles"] = {k: quartiles(v) for k, v in result["samples"].items()}
    os.makedirs(os.path.join(OUT, args.workload), exist_ok=True)
    stem = os.path.join(OUT, args.workload, "seed%d-trace%d" % (args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.write(stem + ".spans.jsonl")

    report(record, units)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


def report(record, units):
    """Human-readable lines: metadata, failures, checks of the last run, metrics."""
    m = record["machine"]
    steal = record["host_steal_s"]
    print("perfbench %s seed %d trace %d: %d runs, %d failed (failed_frac %.3g)"
          % (record["workload"], record["seed"], record["trace"], record["attempted"],
             record["failed"], record["failed_frac"]))
    print("  nproc %s, python %s, numpy %s, scipy %s, %s, threads %s, commit %s%s, "
          "host steal %s s"
          % (m["nproc"], m["python"], m["numpy"], m["scipy"], m["blas"],
             ",".join("%s=%s" % kv for kv in m["thread_env"].items()), m["git_commit"],
             " (dirty)" if m["git_dirty"] else "",
             "n/a" if steal is None else "%.2f" % steal))
    last = None
    for i, entry in enumerate(record["runs"]):
        if "error" in entry:
            print("  run %d FAILED:\n%s" % (i, entry["error"]))
            continue
        if entry["set_up_only"]:
            continue
        last = entry
        for name, ok, detail in entry["checks"]:
            if ok is False:
                print("  run %d check %s FAILED: %s" % (i, name, detail))
    for name, ok, detail in last["checks"] if last else ():
        state = {True: "ok", False: "FAIL", None: "info"}[ok]
        print("  check %-28s %-4s %s" % (name, state, detail))
    if "tracing" in record:
        print("  tracing: %s" % json.dumps(record["tracing"]))
    if "unscaled_medians" in record:
        print("  unscaled medians: %s; %d probes, median %.4g s" % (
            ", ".join("%s %.6g s" % kv for kv in record["unscaled_medians"].items()),
            record["probes"]["count"], record["probes"]["median_s"]))
    for name, value in record["metrics"].items():
        q = record.get("quartiles", {}).get(name)
        spread = "  (q1 %.6g, q3 %.6g, n %d)" % (q[0], q[2], len(record["samples"][name])) \
            if q else ""
        print("  %-44s %.6g %s%s" % (name, value, units[name], spread))


if __name__ == "__main__":
    sys.exit(main())
