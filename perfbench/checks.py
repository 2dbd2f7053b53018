"""Output checks applied to every benchmark run.

Threshold checks use the acceptance gate's bounds (tests/test_acceptance.py):

- criterion 3: max constraint norm over the run / floor <= 10, with floor the
  largest initial constraint norm or ``numerics.cg_tol``, whichever is larger;
- criterion 4: the energy monitor is bounded, the total energy never exceeds
  1, and the fitted growth constant C <= 20;
- criterion 5: the fitted physical-frame decay slopes lie in their windows.
  The gate certifies them on the preset seed, and on n = 16 within 0.9 T the
  fit's own 95% half-width (0.04-0.15) is comparable to the +-0.15 window, so
  fresh seeds miss a window now and then (seeds 1, 3 and 4 of the first 13
  did).  The windows are therefore enforced on the default seed and recorded,
  not enforced, on other seeds.

On the default seed the run's ``energy.csv`` and ``constraints.csv`` are also
compared with the golden files in ``perfbench/golden/<workload>/``: every
value must satisfy ``|new - golden| <= RTOL * |golden| + floor[column]``.
The per-column absolute floors in ``floors.json`` are measured by
make_golden.py: ten times the largest change that a few-ulp change of the
initial amplitude makes to the column.  They cover the columns at round-off
level (zero brackets, constraint norms near 1e-19) that a reassociated sum
legitimately changes, and stay far below the columns that carry physics.
Whether the files are byte-identical is reported as a separate flag.
"""

import json
import os

import numpy as np

RATIO_MAX = 10.0
C_MAX = 20.0
DECAY_WINDOWS = {"phi": (-1.15, -0.85), "E": (-1.15, -0.85), "psi": (-1.65, -1.35)}

RTOL = 1e-8
GOLDEN_FILES = ("energy.csv", "constraints.csv")

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def expected_files(n_steps, cfg):
    files = ["energy.csv", "constraints.csv", "decay.json", "metadata.json",
             "energy.svg", "constraints.svg"]
    n_snap = int(cfg["outputs", "snapshots"])
    if n_snap > 0:
        steps = sorted({int(round(x)) for x in np.linspace(0, n_steps, n_snap)})
        files += ["snapshot_%05d.ymt" % m for m in steps]
    return files


def n_reports(n_steps, report_every):
    return sum(1 for m in range(n_steps + 1) if m % report_every == 0 or m == n_steps)


def threshold_checks(summary, out_dir, cfg, enforce_decay):
    """List of (name, ok, detail); ``ok`` is None for a recorded-only check."""
    out = []
    cg_tol = float(summary["config"]["numerics"]["cg_tol"])
    floor = max(max(summary["constraint_initial"].values()), cg_tol)
    ratio = max(v / floor for v in summary["constraint_max"].values())
    out.append(("constraint_ratio", bool(ratio <= RATIO_MAX),
                "max/floor %.3g (<= %g)" % (ratio, RATIO_MAX)))

    mon = summary["energy_monitor"]
    ok = bool(mon["bounded"] and not mon["exceeded_unity"] and mon["fitted_C"] <= C_MAX)
    out.append(("energy_monitor", ok, "bounded %s, max %.3g (<= 1), C %.3g (<= %g)"
                % (mon["bounded"], mon["max_energy"], mon["fitted_C"], C_MAX)))

    decay = summary["decay"]
    if "error" not in decay:
        slopes = {s: decay[s]["slope"] for s in DECAY_WINDOWS if not decay[s]["undefined"]}
        inside = all(bool(lo <= slopes[s] <= hi) for s, (lo, hi) in DECAY_WINDOWS.items()
                     if s in slopes)
        detail = " ".join("%s %+.3f" % kv for kv in slopes.items())
        out.append(("decay_windows", inside if enforce_decay else None, detail))

    n_steps = summary["n_steps"]
    missing = [f for f in expected_files(n_steps, cfg)
               if not os.path.isfile(os.path.join(out_dir, f))]
    out.append(("artifacts", not missing, "missing %s" % missing if missing else "all present"))

    rows = n_reports(n_steps, int(cfg["numerics", "report_every"]))
    for name in GOLDEN_FILES:
        got = -1
        if os.path.isfile(os.path.join(out_dir, name)):
            with open(os.path.join(out_dir, name)) as fh:
                got = sum(1 for _ in fh) - 1
        out.append(("rows:" + name, got == rows, "%d rows (expected %d)" % (got, rows)))
    return out


def read_csv(path):
    """(header, rows as a 2-D array) of one of the run's CSV files."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def golden_compare(workload, out_dir):
    """Per file: (within tolerance, byte-identical, worst excess detail)."""
    with open(os.path.join(GOLDEN_DIR, workload, "floors.json")) as fh:
        floors = json.load(fh)
    result = {}
    for name in GOLDEN_FILES:
        gold = os.path.join(GOLDEN_DIR, workload, name)
        new = os.path.join(out_dir, name)
        with open(gold, "rb") as fa, open(new, "rb") as fb:
            identical = fa.read() == fb.read()
        g_head, g = read_csv(gold)
        n_head, n = read_csv(new)
        if g_head != n_head or g.shape != n.shape:
            result[name] = (False, identical, "header or shape differs")
            continue
        err = np.abs(n - g)
        allowed = RTOL * np.abs(g) + np.array([floors[name][c] for c in g_head])
        # err / allowed, with 0/0 read as 0 and x/0 as infinite
        excess = np.divide(err, allowed, out=np.where(err > 0, np.inf, 0.0), where=allowed > 0)
        worst = np.unravel_index(np.argmax(excess), err.shape)
        detail = "worst %s row %d: |diff| %.3g, allowed %.3g" % (
            g_head[worst[1]], worst[0], err[worst], allowed[worst])
        result[name] = (bool(np.all(err <= allowed)), identical, detail)
    return result
