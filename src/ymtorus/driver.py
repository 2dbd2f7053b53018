"""Run driver: configuration parsing, presets, the full pipeline and
artifact emission (CSV / JSON / SVG).

Configs are flat INI files (UTF-8) with sections [grid], [background],
[gauge], [initial], [numerics], [outputs] and optional [gauge_experiment].
SCHEMA gives every key its type, default and rules; validate_config checks a
config against it before anything is allocated and reports all violations
together.  The exact parsed configuration is serialized into metadata.json so
every artifact can be reproduced from the run directory alone.
"""

import configparser
import dataclasses
import json
import os
import time

import numpy as np

from . import __version__, algebra, conformal, constraints, dynamics, energy, geometry
from . import lattice, plots
from .errors import ConfigError, InputError


CUTOFF_BOUND = ("grid.n must exceed 4*%s.cutoff: quadratic densities of band-limited "
                "data reach mode 2*cutoff, and the centered stencils cannot see the "
                "Nyquist mode the Gauss solve would need")


class Key:
    """One config key: `parse` makes the typed value of its text (raising
    ValueError or KeyError if it cannot); `default` is the text of an omitted
    key (None: the value is None); `shown` puts the default into as_dict(),
    which a default read by one branch only is not.  A rule is (test(x, values),
    message): values maps every (section, key) to its value, and the message is
    formatted with x and key="section.key".  The first rule that fails is
    reported, and a float must also be finite."""

    def __init__(self, parse, default, *rules, shown=True):
        self.parse, self.default, self.rules, self.shown = parse, default, rules, shown


def boolean(text):
    return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]


def _sectors(text):
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _at_least(low):
    return (lambda x, v: x >= low, "{key} must be >= %d" % low)


def _one_of(*names):
    return (lambda x, v: x in names, "{key} {!r} unknown (%s)" % ", ".join(names))


def _table_needs(key):
    return (lambda x, v: x != "table" or v["background", key] is not None,
            "{key} = table needs background.%s" % key)


def _cutoff_bound(sec):
    return (lambda x, v: v["grid", "n"] > 4 * x, CUTOFF_BOUND % sec)


_POSITIVE = (lambda x, v: x > 0, "{key} must be positive")
_FINITE = (lambda x, v: x is None or np.isfinite(x), "{key} must be finite")
_FILE = (lambda x, v: x is None or os.path.isfile(x), "{key} names no file {!r}")

SCHEMA = {
    ("grid", "n"): Key(int, "16", _at_least(4)),
    ("grid", "length"): Key(float, str(2 * np.pi), _POSITIVE),
    ("grid", "stencil_order"): Key(int, "4", (lambda x, v: x in (2, 4), "{key} must be 2 or 4")),
    ("background", "profile"): Key(str, "desitter", _one_of("desitter", "exponential", "power",
                                                            "table"), _table_needs("s_table")),
    ("background", "a"): Key(float, "1.0", _POSITIVE),
    ("background", "s0"): Key(float, "1.0", _POSITIVE, shown=False),
    ("background", "rate"): Key(float, "1.0", _POSITIVE, shown=False),
    ("background", "t0"): Key(float, "1.0", _POSITIVE, shown=False),
    ("background", "p"): Key(float, "2.0", (lambda x, v: x > 1, "{key} must be > 1"), shown=False),
    ("background", "s_table"): Key(str, None, _FILE),
    ("background", "lapse"): Key(float, "1.0", _POSITIVE),
    ("background", "tau_end_fraction"): Key(float, "0.9", (
        lambda x, v: 0 < x < 1,
        "{key} must lie in (0, 1): the run must end before the conformal horizon")),
    ("background", "b_kind"): Key(str, "flat", _one_of("flat", "bianchi1", "table"),
                                  _table_needs("b_table")),
    ("background", "b_eps"): Key(float, "0.2", _at_least(0)),  # b_2 = 1 + eps tau stays >= 1
    ("background", "b_table"): Key(str, None, _FILE),
    ("gauge", "model"): Key(str, "u1_toy", (
        lambda x, v: x in algebra.SHIPPED_MODELS,
        "{key} {!r} unknown; shipped models: " + ", ".join(sorted(algebra.SHIPPED_MODELS)))),
    ("gauge", "lambda"): Key(float, "1.0"),
    ("gauge", "structure_file"): Key(str, None, _FILE),
    ("initial", "seed"): Key(int, "1", _at_least(0)),
    ("initial", "amplitude"): Key(float, "0.01", _FINITE, _at_least(0)),
    ("initial", "cutoff"): Key(int, "1", _at_least(1), _cutoff_bound("initial")),
    ("initial", "sectors"): Key(_sectors, "gauge,higgs,dirac", (
        lambda x, v: set(x) <= set(lattice.SECTORS),
        "{key} {!r} names a sector outside " + ", ".join(lattice.SECTORS)), (
        lambda x, v: x or not v["initial", "amplitude"] > 0,  # zero data cannot be rescaled
        "{key} is empty but initial.amplitude > 0")),
    ("numerics", "cfl"): Key(float, "0.5", (lambda x, v: 0 < x <= 1.5, "{key} must lie in (0, 1.5]")),
    ("numerics", "dtau"): Key(float, None, (lambda x, v: x is None or x > 0,
                                            "{key} must be positive when set")),
    ("numerics", "cg_tol"): Key(float, "1e-10", (lambda x, v: 0 < x < np.inf,
                                                 "{key} must be finite and > 0")),
    ("numerics", "report_every"): Key(int, "1", _at_least(1)),
    ("numerics", "energy_k"): Key(int, "2", (lambda x, v: 0 <= x <= 4, "{key} must lie in [0, 4]")),
    ("numerics", "max_steps"): Key(int, "100000", _at_least(1)),
    ("outputs", "directory"): Key(str, "runs/out", (lambda x, v: x and not os.path.isfile(x),
                                                    "{key} {!r} cannot be a directory")),
    ("outputs", "plot"): Key(boolean, "true"),
    ("outputs", "snapshots"): Key(int, "0", _at_least(0)),
    ("gauge_experiment", "kind"): Key(str, None, _one_of("static", "automorphism")),
    ("gauge_experiment", "seed"): Key(int, "77", _at_least(0), shown=False),
    ("gauge_experiment", "amplitude"): Key(float, "1e-2", _at_least(0), shown=False),
    ("gauge_experiment", "cutoff"): Key(int, "1", _at_least(1), _cutoff_bound("gauge_experiment"),
                                        shown=False),
    ("gauge_experiment", "alpha_amplitude"): Key(float, "0.3", shown=False),
    # the 4th-order check of the automorphism needs 5 samples
    ("gauge_experiment", "alpha_steps"): Key(int, "320", _at_least(4), shown=False),
}


class RunConfig:
    """A validated config: cfg.value(section, key) is the typed value (None for
    an optional key left out) and cfg[section, key] the text it was read from."""

    def __init__(self, text, values):
        self.text = text  # {section: {key: text}}: the config and the shown defaults
        self.values = values  # {(section, key): value} for every SCHEMA key

    def __getitem__(self, pair):
        sec, key = pair
        return self.text[sec][key]

    def value(self, sec, key):
        return self.values[sec, key]

    def as_dict(self):
        return {s: dict(kv) for s, kv in self.text.items()}


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
    """RunConfig of raw ({section: {key: text}}) and the SCHEMA defaults.  A
    section without shown defaults ([gauge_experiment]) is checked only when
    raw has it; every violation is listed in one ConfigError, a structure
    file that algebra.load_structure_constants rejects among them.  A config
    whose keys are valid then has its background built, from its table files
    if it names them, and its steps checked (run_steps)."""
    violations = []
    text = {}
    for (sec, key), entry in SCHEMA.items():
        if entry.shown and entry.default is not None:
            text.setdefault(sec, {})[key] = entry.default
    sections = {sec for sec, _ in SCHEMA}
    for sec, kv in raw.items():
        if sec not in sections:
            violations.append("unknown section [%s]" % sec)
            continue
        violations += ["unknown key %s.%s" % (sec, key) for key in kv if (sec, key) not in SCHEMA]
        text.setdefault(sec, {}).update(kv)

    values = {}
    for (sec, key), entry in SCHEMA.items():
        given = text.get(sec, {}).get(key, entry.default)
        try:
            values[sec, key] = None if given is None else entry.parse(given)
        except (ValueError, KeyError):
            violations.append("%s.%s is not a valid %s" % (sec, key, entry.parse.__name__))
    for (sec, key), x in values.items():
        if sec not in text:  # an optional section the config leaves out
            continue
        entry = SCHEMA[sec, key]
        for test, message in entry.rules + ((_FINITE,) if entry.parse is float else ()):
            try:
                broken = not test(x, values)
            except KeyError:  # the rule reads a key that did not parse
                broken = False
            if broken:
                violations.append(message.format(x, key="%s.%s" % (sec, key)))
                break
    structure_file = values.get(("gauge", "structure_file"))
    if structure_file and os.path.isfile(structure_file):  # parse it and check the algebra
        try:
            algebra.load_structure_constants(structure_file)
        except (InputError, ValueError) as err:
            violations.append("gauge.structure_file %r is no Lie algebra: %s"
                              % (structure_file, err))

    if violations:
        raise ConfigError(violations)
    cfg = RunConfig(text, values)
    try:
        bg = build_background(cfg)
    except (ValueError, IndexError, OSError) as err:  # a table file that does not parse
        raise ConfigError(["the background cannot be built: %s" % err]) from None
    run_steps(cfg, build_grid(cfg), bg)
    return cfg


# ---------------------------------------------------------------------------
# Construction from a config
# ---------------------------------------------------------------------------

def build_model(cfg):
    structure_file = cfg.value("gauge", "structure_file")
    if structure_file:
        lie = algebra.load_structure_constants(structure_file)
        return algebra.custom_pure(lie, name="custom:%s" % structure_file)
    model = algebra.SHIPPED_MODELS[cfg.value("gauge", "model")]()
    model.validate()
    return model


def build_background(cfg):
    prof_name = cfg.value("background", "profile")
    if prof_name == "desitter":
        profile = geometry.ScaleProfile("desitter", a=cfg.value("background", "a"))
    elif prof_name == "exponential":
        profile = geometry.ScaleProfile("exponential", s0=cfg.value("background", "s0"),
                                        rate=cfg.value("background", "rate"))
    elif prof_name == "power":
        profile = geometry.ScaleProfile("power", s0=cfg.value("background", "s0"),
                                        t0=cfg.value("background", "t0"),
                                        p=cfg.value("background", "p"))
    else:
        data = np.loadtxt(cfg.value("background", "s_table"), delimiter=",", comments="#")
        profile = geometry.ScaleProfile("table", t=data[:, 0], s=data[:, 1])
    lapse = cfg.value("background", "lapse")
    b_kind = cfg.value("background", "b_kind")
    if b_kind == "bianchi1":
        return geometry.bianchi1(profile, eps=cfg.value("background", "b_eps"), lapse=lapse)
    if b_kind == "table":
        return geometry.from_b_table(profile, cfg.value("background", "b_table"), lapse=lapse)
    return geometry.static_flat(profile, lapse=lapse)


def build_grid(cfg):
    return lattice.Grid(n=cfg.value("grid", "n"), L=cfg.value("grid", "length"),
                        order=cfg.value("grid", "stencil_order"))


def run_steps(cfg, grid, bg):
    """(tau_end, dtau, n_steps) of the run (dynamics.cfl_steps); a ConfigError
    names a step over the CFL bound or a step count over numerics.max_steps."""
    tau_end = cfg.value("background", "tau_end_fraction") * bg.T
    try:
        dtau, n_steps = dynamics.cfl_steps(grid, bg, tau_end, cfg.value("numerics", "cfl"),
                                           dtau=cfg.value("numerics", "dtau"))
    except InputError as err:
        raise ConfigError([str(err)]) from None
    if n_steps > cfg.value("numerics", "max_steps"):
        raise ConfigError(["run needs %d steps > numerics.max_steps" % n_steps])
    return tau_end, dtau, n_steps


def build_run(cfg):
    """(grid, model, background, couplings) of a validated config."""
    model = build_model(cfg)
    return (build_grid(cfg), model, build_background(cfg),
            dynamics.Couplings(model, lam=cfg.value("gauge", "lambda")))


def prepare_initial_state(cfg, grid, model, bg, couplings, k=2, measured=None):
    """Random data -> derived sectors -> Gauss solve -> energy normalization.

    Iterates the rescale (at most six passes) because the derived sectors and
    the Gauss projection are nonlinear in the free data; converges in a couple
    of passes at small amplitude.  Each pass evaluates only what the k-th
    total energy reads: the gauge rows of the rhs (dynamics.gauge_rhs) and
    energy.total_energy.  The returned state is the last one measured, so
    info["energy"] is its energy; info["converged"] says whether that is
    amplitude**2 within 1e-10 + 1e-9 amplitude**2.  A dict `measured` is
    left holding the H^l table of the last pass (see energy.total_energy),
    which the report of the returned state can read.  Returns (state, info).
    """
    amplitude = cfg.value("initial", "amplitude")
    u = lattice.random_state(grid, model, cfg.value("initial", "seed"), amplitude,
                             cfg.value("initial", "cutoff"), cfg.value("initial", "sectors"))
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
        info["gauss"] = constraints.solve_gauss_initial(
            u, bg, cg_tol=cfg.value("numerics", "cg_tol"))
        dynamics.gauge_rhs(u, bg.frame(u.tau), couplings, du)
        e = info["energy"] = energy.total_energy(u, du, bg, k=k, table=measured)
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
    grid, model, bg, couplings = build_run(cfg)
    tau_end, dtau, n_steps = run_steps(cfg, grid, bg)  # before anything is written
    k = cfg.value("numerics", "energy_k")
    out_dir = out_dir or cfg.value("outputs", "directory")
    os.makedirs(out_dir, exist_ok=True)

    measured = {}  # set-up's last H^l table, read by the step-0 report
    u, init_info = prepare_initial_state(cfg, grid, model, bg, couplings, k=k,
                                         measured=measured)
    warnings = []
    if not init_info["gauss"]["converged"]:
        warnings.append("Gauss CG stopped before its residual target (iterations %d, "
                        "residual %.3e)" % (init_info["gauss"]["iterations"],
                                            init_info["gauss"]["residual"]))
    if not init_info["converged"]:
        warnings.append("initial energy %.6e missed initial.amplitude**2 = %.6e after six "
                        "rescaling passes" % (init_info["energy"],
                                              cfg.value("initial", "amplitude") ** 2))

    report_every = cfg.value("numerics", "report_every")
    n_snapshots = cfg.value("outputs", "snapshots")
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
        erep = energy.energy_report(state, du, bg, k=k, measured=measured if m == 0 else None)
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

    threads = dynamics.threads(u)
    exp_kind = cfg.value("gauge_experiment", "kind")
    u0 = u.copy() if exp_kind == "static" else None  # evolve advances u in place
    try:
        dynamics.evolve(u, bg, couplings, dtau, n_steps, callback=report)
    except Exception as err:  # keep what was computed, record the error, re-raise
        if energy_rows:
            write_rows()
        with open(os.path.join(out_dir, "metadata.json"), "w") as fh:
            json.dump({"config": cfg.as_dict(), "version": __version__, "n_steps": n_steps,
                       "last_reported_step": reported[-1] if reported else None,
                       "initial_data": init_info, "warnings": warnings,
                       "error": {"type": type(err).__name__, "message": str(err)}},
                      fh, indent=1, default=float)
        raise

    # post-processing
    taus = [r.tau for r in energy_rows]
    totals = [r.total for r in energy_rows]
    verdict = energy.estimate_monitor(taus, totals)
    sup_series = {name: np.array([r.sup[name] for r in energy_rows])
                  for name in ("phi", "E", "psi")}
    try:
        fits = conformal.decay_report(taus, sup_series, bg)
        decay = {name: dataclasses.asdict(fit) for name, fit in fits.items()}
        # diagnostic L2 slopes: physical-frame L2 norms pick up the sqrt(g)
        # volume growth (s^3) on top of the field rescaling
        l2 = {}
        svals = np.array([bg.profile.s_of_tau(t) for t in taus])
        for name, sector, vol_pow in (("phi", "higgs", 1.0), ("E", "yangmills", 1.0),
                                      ("psi", "dirac", 0.0)):
            series = np.array([max(getattr(r, sector)[0], 0.0) for r in energy_rows])
            phys = np.sqrt(series * svals ** vol_pow)
            l2[name] = dataclasses.asdict(conformal.decay_fit(taus, phys, bg, rescale=0.0))
        decay["l2_diagnostic"] = l2
    except ValueError as err:
        decay = {"error": str(err)}

    write_rows()
    with open(os.path.join(out_dir, "decay.json"), "w") as fh:
        json.dump(decay, fh, indent=1)

    monitor = constraints.propagation_monitor(constraint_rows)
    gauge_experiment = None
    if exp_kind == "static":
        res = run_gauge_invariance(cfg, u0, bg, couplings)
        gauge_experiment = {"kind": "static",
                            "worst_relative_mismatch": res["worst_relative_mismatch"],
                            "unitarity_defect": res["unitarity_defect"]}
    elif exp_kind == "automorphism":
        gauge_experiment = {"kind": "automorphism", **run_automorphism_check(cfg)}

    summary = {
        "config": cfg.as_dict(),
        "version": __version__,
        "gauge_experiment": gauge_experiment,
        "grid": {"n": grid.n, "L": grid.L, "order": grid.order, "dx": grid.dx},
        "dtau": dtau,
        "n_steps": n_steps,
        "horizon": bg.T,
        "tau_end": tau_end,
        "initial_data": init_info,
        "warnings": warnings,
        "energy_monitor": dataclasses.asdict(verdict),
        "constraint_initial": monitor["initial"],
        "constraint_max": monitor["max"],
        "terminal_drift": drift_rows[-1],
        "decay": decay,
        "extrinsic_bound_samples": [bg.extrinsic_bound(t)
                                    for t in np.linspace(0, tau_end * 0.999, 5)],
        "threads": threads,
        "wall_seconds": time.time() - t_wall,
    }
    with open(os.path.join(out_dir, "metadata.json"), "w") as fh:
        json.dump(summary, fh, indent=1, default=float)

    if cfg.value("outputs", "plot"):
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
            d = dataclasses.asdict(r)
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
            bg = build_background(validate_config(meta["config"]))
            svals = np.array([bg.profile.s_of_tau(t) for t in e["tau"]])
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
    return the worst relative sector-energy mismatch over the run.  u0 is
    consumed: dynamics.evolve advances it in place."""
    grid, model = u0.grid, u0.model
    k = cfg.value("numerics", "energy_k")
    gt = lattice.GaugeTransform.random_smooth(
        grid, model, seed=cfg.value("gauge_experiment", "seed"),
        amplitude=cfg.value("gauge_experiment", "amplitude"),
        cutoff=cfg.value("gauge_experiment", "cutoff"))
    ug = lattice.apply_gauge(u0, gt, bg.frame(u0.tau))

    tau_end = cfg.value("background", "tau_end_fraction") * bg.T
    dtau, n_steps = dynamics.cfl_steps(grid, bg, tau_end, 1.2, dtau=tau_end / 12)

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
    amp = cfg.value("gauge_experiment", "alpha_amplitude")
    n_steps = cfg.value("gauge_experiment", "alpha_steps")
    tau_end = cfg.value("background", "tau_end_fraction") * bg.T
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

# a preset gives its grid, profile and model; the keys it leaves out take
# their SCHEMA defaults
PRESETS = {
    "desitter_u1_small": """
[grid]
n = 16
[background]
profile = desitter
[gauge]
model = u1_toy
[initial]
seed = 20260808
cutoff = 2
[numerics]
cfl = 0.1
[outputs]
directory = runs/desitter_u1_small
""",
    "desitter_su2_small": """
[grid]
n = 16
[background]
profile = desitter
[gauge]
model = su2_toy
[initial]
seed = 1001
cutoff = 2
[numerics]
cfl = 0.1
[outputs]
directory = runs/desitter_su2_small
""",
    "bianchi1_su2": """
[grid]
n = 16
[background]
profile = desitter
b_kind = bianchi1
b_eps = 0.2
[gauge]
model = su2_toy
[initial]
seed = 99
cutoff = 1
[numerics]
cfl = 0.1
[outputs]
directory = runs/bianchi1_su2
""",
    "gauge_invariance": """
[grid]
n = 16
[background]
profile = desitter
[gauge]
model = su2_toy
[initial]
seed = 5150
cutoff = 1
[numerics]
cfl = 0.1
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
[gauge]
model = u1_toy
[initial]
seed = 1234
amplitude = 0.25
cutoff = 1
[numerics]
cfl = 0.1
cg_tol = 1e-12
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
