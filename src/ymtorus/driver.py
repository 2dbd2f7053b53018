"""Run driver: configuration parsing, presets, the full pipeline and
artifact emission (CSV / JSON / SVG).

Configs are flat INI files (UTF-8) with sections [grid], [background],
[gauge], [initial], [numerics], [outputs] and optional [gauge_experiment];
every key is validated against the module preconditions before anything is
allocated, and all violations are reported together.  The exact parsed
configuration is serialized into metadata.json so every artifact can be
reproduced from the run directory alone.
"""

import configparser
import json
import os
import time

import numpy as np

from . import algebra, conformal, constraints, dynamics, energy, geometry
from . import lattice, plots
from .errors import ConfigError
from .version import VERSION


KNOWN_KEYS = {
    "grid": {"n", "length", "stencil_order"},
    "background": {"profile", "a", "s0", "rate", "t0", "p", "lapse",
                   "tau_end_fraction", "b_kind", "b_eps", "b_table", "s_table"},
    "gauge": {"model", "lambda", "q_w", "q_plus", "q_minus", "structure_file"},
    "initial": {"seed", "amplitude", "cutoff", "sectors"},
    "numerics": {"cfl", "dtau", "cg_tol", "report_every", "energy_k", "max_steps"},
    "outputs": {"directory", "plot", "snapshots"},
    "gauge_experiment": {"kind", "seed", "amplitude", "cutoff", "alpha_amplitude",
                         "alpha_steps"},
}

DEFAULTS = {
    "grid": {"n": "16", "length": str(2 * np.pi), "stencil_order": "4"},
    "background": {"profile": "desitter", "a": "1.0", "lapse": "1.0",
                   "tau_end_fraction": "0.9", "b_kind": "flat", "b_eps": "0.2"},
    "gauge": {"model": "u1_toy", "lambda": "1.0"},
    "initial": {"seed": "1", "amplitude": "0.01", "cutoff": "1",
                "sectors": "gauge,higgs,dirac"},
    "numerics": {"cfl": "0.5", "cg_tol": "1e-10", "report_every": "1",
                 "energy_k": "2", "max_steps": "100000"},
    "outputs": {"directory": "runs/out", "plot": "true", "snapshots": "0"},
}

CUTOFF_BOUND = ("grid.n must exceed 4*%s.cutoff: quadratic densities of band-limited "
                "data reach mode 2*cutoff, and the centered stencils cannot see the "
                "Nyquist mode the Gauss solve would need")


class RunConfig:
    """Validated run configuration (attribute bag; see KNOWN_KEYS)."""

    def __init__(self, raw):
        self.raw = raw  # dict of dicts of strings, fully merged

    def __getitem__(self, pair):
        sec, key = pair
        return self.raw[sec][key]

    def get(self, sec, key, default=None):
        return self.raw.get(sec, {}).get(key, default)

    def as_dict(self):
        return {s: dict(kv) for s, kv in self.raw.items()}


def _merge_defaults(raw):
    merged = {s: dict(kv) for s, kv in DEFAULTS.items()}
    for sec, kv in raw.items():
        merged.setdefault(sec, {})
        merged[sec].update(kv)
    return merged


def parse_config_text(text):
    cp = configparser.ConfigParser()
    cp.read_string(text)
    raw = {sec: dict(cp.items(sec)) for sec in cp.sections()}
    return validate_config(raw)


def parse_config(path):
    """Parse and validate an INI config file; raises ConfigError listing all
    violations (unknown keys, physical bounds, unknown names)."""
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def validate_config(raw):
    violations = []
    for sec, kv in raw.items():
        if sec not in KNOWN_KEYS:
            violations.append("unknown section [%s]" % sec)
            continue
        for key in kv:
            if key not in KNOWN_KEYS[sec]:
                violations.append("unknown key %s.%s" % (sec, key))
    merged = _merge_defaults(raw)

    def num(sec, key, conv=float):
        try:
            return conv(merged[sec][key])
        except (KeyError, ValueError):
            violations.append("%s.%s is not a valid %s" % (sec, key, conv.__name__))
            return None

    n = num("grid", "n", int)
    if n is not None and n < 4:
        violations.append("grid.n must be >= 4")
    L = num("grid", "length")
    if L is not None and L <= 0:
        violations.append("grid.length must be positive")
    order = num("grid", "stencil_order", int)
    if order is not None and order not in (2, 4):
        violations.append("grid.stencil_order must be 2 or 4")

    prof = merged["background"]["profile"]
    if prof not in ("desitter", "exponential", "power", "table"):
        violations.append("background.profile %r unknown (desitter, exponential, power, table)" % prof)
    frac = num("background", "tau_end_fraction")
    if frac is not None and not (0 < frac < 1):
        violations.append("background.tau_end_fraction must lie in (0, 1): "
                          "the run must end before the conformal horizon")
    for key in ("a", "s0", "rate", "t0", "lapse"):
        if key in merged["background"]:
            val = num("background", key)
            if val is not None and not val > 0:
                violations.append("background.%s must be positive" % key)
    if "p" in merged["background"]:
        p = num("background", "p")
        if p is not None and not p > 1:
            violations.append("background.p must be > 1")
    b_kind = merged["background"]["b_kind"]
    if b_kind not in ("flat", "bianchi1", "table"):
        violations.append("background.b_kind %r unknown (flat, bianchi1, table)" % b_kind)
    if b_kind == "table" and "b_table" not in merged["background"]:
        violations.append("background.b_kind = table needs background.b_table")

    model_name = merged["gauge"]["model"]
    if model_name not in algebra.SHIPPED_MODELS:
        violations.append("gauge.model %r unknown; shipped models: %s"
                          % (model_name, ", ".join(sorted(algebra.SHIPPED_MODELS))))
    num("gauge", "lambda")

    amp = num("initial", "amplitude")
    if amp is not None and not np.isfinite(amp):  # NaN passes amp < 0
        violations.append("initial.amplitude must be finite")
    elif amp is not None and amp < 0:
        violations.append("initial.amplitude must be >= 0")
    cutoff = num("initial", "cutoff", int)
    if cutoff is not None and cutoff < 1:
        violations.append("initial.cutoff must be >= 1")
    if cutoff is not None and n is not None and n <= 4 * cutoff:
        violations.append(CUTOFF_BOUND % "initial")
    sectors = [s.strip() for s in merged["initial"]["sectors"].split(",") if s.strip()]
    for s in sectors:
        if s not in lattice.SECTORS:
            violations.append("initial.sectors entry %r unknown" % s)
    if not sectors and amp is not None and amp > 0:  # zero data cannot reach amplitude**2
        violations.append("initial.sectors is empty but initial.amplitude > 0")

    cfl = num("numerics", "cfl")
    if cfl is not None and not (0 < cfl <= 1.5):
        violations.append("numerics.cfl must lie in (0, 1.5]")
    k = num("numerics", "energy_k", int)
    if k is not None and not (0 <= k <= 4):
        violations.append("numerics.energy_k must lie in [0, 4]")
    cg_tol = num("numerics", "cg_tol")
    if cg_tol is not None and not 0 < cg_tol < np.inf:
        violations.append("numerics.cg_tol must be finite and > 0")
    report_every = num("numerics", "report_every", int)
    if report_every is not None and report_every < 1:
        violations.append("numerics.report_every must be >= 1")
    if merged["numerics"].get("dtau"):
        dtau = num("numerics", "dtau")
        if dtau is not None and not dtau > 0:
            violations.append("numerics.dtau must be positive when set")
    max_steps = num("numerics", "max_steps", int)
    if max_steps is not None and max_steps < 1:
        violations.append("numerics.max_steps must be >= 1")
    snapshots = num("outputs", "snapshots", int)
    if snapshots is not None and snapshots < 0:
        violations.append("outputs.snapshots must be >= 0")

    if "gauge_experiment" in merged:
        exp = merged["gauge_experiment"]
        if exp.get("kind") not in ("static", "automorphism"):
            violations.append("gauge_experiment.kind %r unknown (static, automorphism)"
                              % exp.get("kind"))
        # alpha_steps >= 4: the 4th-order check of the automorphism needs 5 samples
        for key, conv, low in (("seed", int, None), ("amplitude", float, 0),
                               ("cutoff", int, 1), ("alpha_amplitude", float, None),
                               ("alpha_steps", int, 4)):
            if key in exp:
                val = num("gauge_experiment", key, conv)
                if val is not None and low is not None and not val >= low:
                    violations.append("gauge_experiment.%s must be >= %d" % (key, low))
                elif key == "cutoff" and val is not None and n is not None and n <= 4 * val:
                    violations.append(CUTOFF_BOUND % "gauge_experiment")

    if violations:
        raise ConfigError(violations)
    return RunConfig(merged)


# ---------------------------------------------------------------------------
# Construction from a config
# ---------------------------------------------------------------------------

def build_model(cfg):
    structure_file = cfg.get("gauge", "structure_file")
    if structure_file:
        lie = algebra.load_structure_constants(structure_file)
        return algebra.custom_pure(lie, name="custom:%s" % structure_file)
    name = cfg["gauge", "model"]
    factory = algebra.SHIPPED_MODELS[name]
    if name == "u1_toy":
        kw = {}
        for key, attr in (("q_w", "q_w"), ("q_plus", "q_plus"), ("q_minus", "q_minus")):
            val = cfg.get("gauge", key)
            if val is not None:
                kw[attr] = float(val)
        model = factory(**kw)
    else:
        model = factory()
    model.validate()
    return model


def build_background(cfg):
    prof_name = cfg["background", "profile"]
    if prof_name == "desitter":
        profile = geometry.ScaleProfile("desitter", a=float(cfg["background", "a"]))
    elif prof_name == "exponential":
        profile = geometry.ScaleProfile("exponential",
                                        s0=float(cfg.get("background", "s0", "1.0")),
                                        rate=float(cfg.get("background", "rate", "1.0")))
    elif prof_name == "power":
        profile = geometry.ScaleProfile("power",
                                        s0=float(cfg.get("background", "s0", "1.0")),
                                        t0=float(cfg.get("background", "t0", "1.0")),
                                        p=float(cfg.get("background", "p", "2.0")))
    else:
        data = np.loadtxt(cfg["background", "s_table"], delimiter=",", comments="#")
        profile = geometry.ScaleProfile("table", t=data[:, 0], s=data[:, 1])
    lapse = float(cfg["background", "lapse"])
    b_kind = cfg["background", "b_kind"]
    if b_kind == "bianchi1":
        return geometry.bianchi1(profile, eps=float(cfg["background", "b_eps"]), lapse=lapse)
    if b_kind == "table":
        return geometry.from_b_table(profile, cfg["background", "b_table"], lapse=lapse)
    return geometry.static_flat(profile, lapse=lapse)


def build_grid(cfg):
    return lattice.Grid(n=int(cfg["grid", "n"]), L=float(cfg["grid", "length"]),
                        order=int(cfg["grid", "stencil_order"]))


def build_run(cfg):
    """(grid, model, background, couplings) of a validated config."""
    model = build_model(cfg)
    return (build_grid(cfg), model, build_background(cfg),
            dynamics.Couplings(model, lam=float(cfg["gauge", "lambda"])))


def prepare_initial_state(cfg, grid, model, bg, couplings, k=2):
    """Random data -> derived sectors -> Gauss solve -> energy normalization.

    Iterates the rescale (at most six passes) because the derived sectors and
    the Gauss projection are nonlinear in the free data; converges in a couple
    of passes at small amplitude.  Each pass evaluates only what the k-th
    total energy reads: the gauge rows of the rhs (dynamics.gauge_rhs) and
    energy.total_energy.  The returned state is the last one measured, so
    info["energy"] is its energy; info["converged"] says whether that is
    amplitude**2 within 1e-10 + 1e-9 amplitude**2.  Returns (state, info).
    """
    seed = int(cfg["initial", "seed"])
    amplitude = float(cfg["initial", "amplitude"])
    cutoff = int(cfg["initial", "cutoff"])
    sectors = tuple(s.strip() for s in cfg["initial", "sectors"].split(",") if s.strip())
    cg_tol = float(cfg["numerics", "cg_tol"])

    u = lattice.random_state(grid, model, seed, amplitude, cutoff, sectors)
    info = {}
    if amplitude == 0.0:
        constraints.complete_state(u, bg)
        info["gauss"] = {"iterations": 0, "residual": 0.0, "removed_mean_norm": 0.0,
                         "converged": True}
        info["energy"] = 0.0
        info["converged"] = True
        return u, info

    target = amplitude ** 2
    du = lattice.FieldState.zeros(grid, model)
    for attempt in range(6):
        if attempt:  # rescale a measured miss; the last pass stays as measured
            for buf in u.sectors.values():
                buf *= np.sqrt(target / e)
        constraints.complete_state(u, bg)
        info["gauss"] = constraints.solve_gauss_initial(u, bg, cg_tol=cg_tol)
        dynamics.gauge_rhs(u, bg, couplings, du)
        e = info["energy"] = energy.total_energy(u, du, bg, k=k)
        info["converged"] = abs(e - target) <= 1e-10 + 1e-9 * target
        if info["converged"]:
            break
    return u, info


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

def run_experiment(cfg, out_dir=None, quiet=True):
    """Execute the full pipeline and write artifacts; returns a summary dict."""
    t_wall = time.time()
    out_dir = out_dir or cfg["outputs", "directory"]
    os.makedirs(out_dir, exist_ok=True)

    grid, model, bg, couplings = build_run(cfg)
    k = int(cfg["numerics", "energy_k"])

    tau_end = float(cfg["background", "tau_end_fraction"]) * bg.T
    cfl = float(cfg["numerics", "cfl"])
    dtau_cfg = cfg.get("numerics", "dtau")
    bmin = min(bg.b(t).min() for t in np.linspace(0, tau_end, 33))
    dtau_max = cfl * grid.dx * bmin
    dtau = float(dtau_cfg) if dtau_cfg else dtau_max
    n_steps = max(1, int(np.ceil(tau_end / dtau - 1e-12)))
    dtau = tau_end / n_steps
    control = dynamics.StepControl(dtau=dtau, cfl=cfl, tau_end=tau_end,
                                   max_steps=int(cfg["numerics", "max_steps"]))
    control.validate(grid, bg)
    if n_steps > control.max_steps:
        raise ConfigError(["run needs %d steps > numerics.max_steps" % n_steps])

    u, init_info = prepare_initial_state(cfg, grid, model, bg, couplings, k=k)
    warnings = []
    if not init_info["gauss"]["converged"]:
        warnings.append("Gauss CG stopped before its residual target (iterations %d, "
                        "residual %.3e)" % (init_info["gauss"]["iterations"],
                                            init_info["gauss"]["residual"]))
    if not init_info["converged"]:
        warnings.append("initial energy %.6e missed initial.amplitude**2 = %.6e after six "
                        "rescaling passes" % (init_info["energy"],
                                              float(cfg["initial", "amplitude"]) ** 2))

    report_every = int(cfg["numerics", "report_every"])
    n_snapshots = int(cfg["outputs", "snapshots"])
    snap_steps = set()
    if n_snapshots > 0:
        snap_steps = {int(round(x)) for x in np.linspace(0, n_steps, n_snapshots)}

    energy_rows = []
    constraint_rows = []
    initial_cfields = constraints.constraint_fields(u, bg)
    drift_rows = []
    reported = []  # the step of each row; a report appends its three rows together

    def report(m, state, du):
        """Rows for a reported step; du is rhs(state), which evolve evaluated."""
        if m % report_every and m != n_steps:
            return
        erep = energy.energy_report(state, du, bg, k=k)
        cf = initial_cfields if m == 0 else constraints.constraint_fields(state, bg)
        crep = constraints.constraint_report(state, bg, fields=cf)
        w = constraints.volume_weight(state, bg)
        drift = {name: constraints.l2_norm(cf[name] - initial_cfields[name], w,
                                           two_form=(name == "curvature")) for name in cf}
        energy_rows.append(erep)
        constraint_rows.append(crep)
        drift_rows.append({"tau": state.tau, **drift})
        reported.append(m)
        if m in snap_steps:
            lattice.save_state(os.path.join(out_dir, "snapshot_%05d.ymt" % m), state,
                               metadata={"step": m, "tau": state.tau})
        if not quiet:
            print("step %5d  tau %.5f  E %.3e  gauss %.3e"
                  % (m, state.tau, erep.total, crep.gauss))

    def write_rows():
        write_energy_csv(os.path.join(out_dir, "energy.csv"), energy_rows)
        write_constraints_csv(os.path.join(out_dir, "constraints.csv"),
                              constraint_rows, drift_rows)

    try:
        dynamics.evolve(u, bg, couplings, dtau, n_steps, callback=report)
    except Exception as err:  # keep what was computed, record the error, re-raise
        if energy_rows:
            write_rows()
        with open(os.path.join(out_dir, "metadata.json"), "w") as fh:
            json.dump({"config": cfg.as_dict(), "version": VERSION, "n_steps": n_steps,
                       "last_reported_step": reported[-1] if reported else None,
                       "initial_data": init_info, "warnings": warnings,
                       "error": {"type": type(err).__name__, "message": str(err)}},
                      fh, indent=1, default=float)
        raise

    # post-processing
    taus = [r.tau for r in energy_rows]
    totals = [r.total for r in energy_rows]
    verdict = energy.estimate_monitor(taus, totals)
    fmap = conformal.FrameMap(bg.profile, N=bg.N)
    sup_series = {name: np.array([r.sup[name] for r in energy_rows])
                  for name in ("phi", "E", "psi")}
    decay = {}
    try:
        fits = conformal.decay_report(taus, sup_series, fmap)
        decay = {name: fit.as_dict() for name, fit in fits.items()}
        # diagnostic L2 slopes: physical-frame L2 norms pick up the sqrt(g)
        # volume growth (s^3) on top of the field rescaling
        l2 = {}
        for name, sector, vol_pow in (("phi", "higgs", 1.0), ("E", "yangmills", 1.0),
                                      ("psi", "dirac", 0.0)):
            series = np.array([max(r.as_row()["E_%s_k0" % sector.replace("yangmills", "ym")], 0.0)
                               for r in energy_rows])
            svals = np.array([fmap.s_at_tau(t) for t in taus])
            phys = np.sqrt(series * svals ** vol_pow)
            fit = conformal.decay_fit(taus, phys, fmap, rescale=0.0)
            l2[name] = fit.as_dict()
        decay["l2_diagnostic"] = l2
    except ValueError as err:
        decay = {"error": str(err)}

    write_rows()
    with open(os.path.join(out_dir, "decay.json"), "w") as fh:
        json.dump(decay, fh, indent=1)

    monitor = constraints.propagation_monitor(constraint_rows)
    gauge_experiment = None
    exp_kind = cfg.get("gauge_experiment", "kind")
    if exp_kind == "static":
        res = run_gauge_invariance(cfg, u, bg, couplings)  # evolve left u untouched
        gauge_experiment = {"kind": "static",
                            "worst_relative_mismatch": res["worst_relative_mismatch"],
                            "unitarity_defect": res["unitarity_defect"]}
    elif exp_kind == "automorphism":
        gauge_experiment = {"kind": "automorphism", **run_automorphism_check(cfg)}

    summary = {
        "config": cfg.as_dict(),
        "version": VERSION,
        "gauge_experiment": gauge_experiment,
        "grid": {"n": grid.n, "L": grid.L, "order": grid.order, "dx": grid.dx},
        "dtau": dtau,
        "n_steps": n_steps,
        "horizon": bg.T,
        "tau_end": tau_end,
        "initial_data": init_info,
        "warnings": warnings,
        "energy_monitor": verdict.as_dict(),
        "constraint_initial": monitor["initial"],
        "constraint_max": monitor["max"],
        "terminal_drift": drift_rows[-1],
        "decay": decay,
        "extrinsic_bound_samples": [bg.extrinsic_bound(t)
                                    for t in np.linspace(0, tau_end * 0.999, 5)],
        "threads": dynamics.threads(u),
        "wall_seconds": time.time() - t_wall,
    }
    with open(os.path.join(out_dir, "metadata.json"), "w") as fh:
        json.dump(summary, fh, indent=1, default=float)

    if cfg["outputs", "plot"].lower() in ("1", "true", "yes"):
        replot(out_dir)
    return summary


def _fmt(x):
    return "%.17g" % x


def write_energy_csv(path, rows):
    cols = list(rows[0].as_row().keys())
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for r in rows:
            d = r.as_row()
            fh.write(",".join(_fmt(d[c]) for c in cols) + "\n")


def write_constraints_csv(path, rows, drift_rows):
    cols = ["tau", "curvature", "bianchi", "gauss", "dirac", "s_consistency"]
    dcols = ["drift_curvature", "drift_bianchi", "drift_gauss", "drift_dirac"]
    with open(path, "w") as fh:
        fh.write(",".join(cols + dcols) + "\n")
        for r, dr in zip(rows, drift_rows):
            d = r.as_dict()
            vals = [_fmt(d[c]) for c in cols]
            vals += [_fmt(dr[c.replace("drift_", "")]) for c in dcols]
            fh.write(",".join(vals) + "\n")


def read_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def replot(out_dir):
    """Regenerate the SVG figures from the CSV artifacts alone."""
    e = read_csv(os.path.join(out_dir, "energy.csv"))
    c = read_csv(os.path.join(out_dir, "constraints.csv"))
    plots.line_plot(
        os.path.join(out_dir, "energy.svg"),
        e["tau"], {"total": e["E_total"], "reference": e["E_reference"]},
        xlabel="tau", ylabel="energy", logy=True, title="total energy",
    )
    plots.line_plot(
        os.path.join(out_dir, "constraints.svg"),
        c["tau"], {name: c[name] for name in ("curvature", "bianchi", "gauss", "dirac")},
        xlabel="tau", ylabel="L2 norm", logy=True, title="constraint norms",
    )
    meta_path = os.path.join(out_dir, "metadata.json")
    if os.path.exists(meta_path):
        with open(meta_path) as fh:
            meta = json.load(fh)
        decay = meta.get("decay", {})
        if decay and "error" not in decay:
            bg = build_background(RunConfig(meta["config"]))
            fmap = conformal.FrameMap(bg.profile, N=bg.N)
            svals = np.array([fmap.s_at_tau(t) for t in e["tau"]])
            series = {}
            for name in ("phi", "E", "psi"):
                phys = e["sup_" + name] * svals ** conformal.RESCALING_EXPONENTS[name]
                series[name] = phys
                fit = decay.get(name, {})
                if fit and not fit.get("undefined", True):
                    # fitted power law anchored at the window start
                    sel = e["tau"] >= fit["window"][0]
                    if sel.any():
                        s0 = svals[sel][0]
                        c0 = phys[sel][0]
                        series[name + " fit"] = np.where(
                            sel, c0 * (svals / s0) ** fit["slope"], np.nan)
            plots.line_plot(
                os.path.join(out_dir, "decay.svg"), svals, series,
                xlabel="s(t)", ylabel="sup norm (physical frame)",
                logx=True, logy=True, title="physical-frame decay",
            )


# ---------------------------------------------------------------------------
# Gauge experiments (driven by the optional [gauge_experiment] block)
# ---------------------------------------------------------------------------

def run_gauge_invariance(cfg, u0, bg, couplings):
    """Evolve the initial data u0 of cfg (from prepare_initial_state) and its
    gauge transform, 12 steps each, with the run's background and couplings;
    return the worst relative sector-energy mismatch over the run."""
    grid, model = u0.grid, u0.model
    k = int(cfg["numerics", "energy_k"])
    gt = lattice.GaugeTransform.random_smooth(
        grid, model, seed=int(cfg.get("gauge_experiment", "seed", "77")),
        amplitude=float(cfg.get("gauge_experiment", "amplitude", "1e-2")),
        cutoff=int(cfg.get("gauge_experiment", "cutoff", "1")))
    ug = lattice.apply_gauge(u0, gt, bvec=bg.b(u0.tau))

    tau_end = float(cfg["background", "tau_end_fraction"]) * bg.T
    n_steps = 12
    dtau = tau_end / n_steps
    dynamics.StepControl(dtau=dtau, cfl=1.2, tau_end=tau_end).validate(grid, bg)

    sectors = ("yangmills", "higgs", "dirac")
    series = []  # per run: (tau, sector energies) of every state

    def record(m, state, du):
        series[-1].append((state.tau, [energy.sector_energy(state, sector, k, du, bg)
                                       for sector in sectors]))

    for start in (u0, ug):
        series.append([])
        dynamics.evolve(start, bg, couplings, dtau, n_steps, callback=record)
    rows = [{"tau": tau, **{s: abs(ea - eb) / max(ea, 1e-300) for s, ea, eb in zip(sectors, a, b)}}
            for (tau, a), (_, b) in zip(*series)]
    worst = max(row[s] for row in rows for s in sectors)
    defect = lattice.unitarity_defect(gt.matrices(model.lie.defining))
    return {"worst_relative_mismatch": worst, "rows": rows,
            "unitarity_defect": defect}


def run_automorphism_check(cfg):
    """Build the bundle automorphism for a prescribed smooth temporal
    coefficient and verify its defining property and unitarity."""
    grid, model, bg, _ = build_run(cfg)
    amp = float(cfg.get("gauge_experiment", "alpha_amplitude", "0.3"))
    n_steps = int(cfg.get("gauge_experiment", "alpha_steps", "320"))
    tau_end = float(cfg["background", "tau_end_fraction"]) * bg.T
    x = np.arange(grid.n) * grid.dx
    X, Y, Z = np.meshgrid(x, x, x, indexing="ij")
    dg = model.dim_g
    waves = [np.sin(2 * np.pi * X / grid.L), np.cos(2 * np.pi * Y / grid.L + 0.4),
             np.sin(2 * np.pi * Z / grid.L + 1.1)]

    def alpha_fn(tau):
        a = np.zeros((dg,) + grid.shape)
        for comp in range(dg):
            a[comp] = amp * waves[comp % 3] * np.cos((0.7 + 0.2 * comp) * tau)
        return a

    taus = np.linspace(0.0, tau_end, n_steps + 1)
    _, diag = lattice.build_automorphism(model, alpha_fn, taus)
    return diag


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

PRESETS = {
    "desitter_u1_small": """
[grid]
n = 16
[background]
profile = desitter
a = 1.0
tau_end_fraction = 0.9
[gauge]
model = u1_toy
lambda = 1.0
[initial]
seed = 20260808
amplitude = 0.01
cutoff = 2
[numerics]
cfl = 0.1
cg_tol = 1e-10
energy_k = 2
[outputs]
directory = runs/desitter_u1_small
""",
    "desitter_su2_small": """
[grid]
n = 16
[background]
profile = desitter
a = 1.0
tau_end_fraction = 0.9
[gauge]
model = su2_toy
lambda = 1.0
[initial]
seed = 1001
amplitude = 0.01
cutoff = 2
[numerics]
cfl = 0.1
cg_tol = 1e-10
energy_k = 2
[outputs]
directory = runs/desitter_su2_small
""",
    "bianchi1_su2": """
[grid]
n = 16
[background]
profile = desitter
a = 1.0
tau_end_fraction = 0.9
b_kind = bianchi1
b_eps = 0.2
[gauge]
model = su2_toy
lambda = 1.0
[initial]
seed = 99
amplitude = 0.01
cutoff = 1
[numerics]
cfl = 0.1
cg_tol = 1e-10
energy_k = 2
[outputs]
directory = runs/bianchi1_su2
""",
    "gauge_invariance": """
[grid]
n = 16
[background]
profile = desitter
a = 1.0
tau_end_fraction = 0.9
[gauge]
model = su2_toy
lambda = 1.0
[initial]
seed = 5150
amplitude = 0.01
cutoff = 1
[numerics]
cfl = 0.1
cg_tol = 1e-10
energy_k = 2
[outputs]
directory = runs/gauge_invariance
[gauge_experiment]
kind = static
seed = 77
amplitude = 3e-4
cutoff = 1
""",
    "automorphism_check": """
[grid]
n = 12
[background]
profile = desitter
a = 1.0
tau_end_fraction = 0.9
[gauge]
model = su2_toy
[initial]
seed = 4
amplitude = 0.0
[numerics]
cfl = 0.1
[outputs]
directory = runs/automorphism_check
[gauge_experiment]
kind = automorphism
alpha_amplitude = 0.3
alpha_steps = 320
""",
    "convergence_study": """
[grid]
n = 16
[background]
profile = desitter
a = 1.0
tau_end_fraction = 0.9
[gauge]
model = u1_toy
lambda = 1.0
[initial]
seed = 1234
amplitude = 0.25
cutoff = 1
[numerics]
cfl = 0.1
cg_tol = 1e-12
energy_k = 2
[outputs]
directory = runs/convergence_study
""",
}


def preset_config(name):
    if name not in PRESETS:
        raise ConfigError(["unknown preset %r; shipped presets: %s"
                           % (name, ", ".join(sorted(PRESETS)))])
    return parse_config_text(PRESETS[name])


def preset_names():
    return sorted(PRESETS)
