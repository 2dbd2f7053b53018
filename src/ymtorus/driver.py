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
from . import lattice, parallel, plots
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


# the [background] keys of each analytic profile kind, passed on by name
PROFILE_KEYS = {"desitter": ("a",), "exponential": ("s0", "rate"), "power": ("s0", "t0", "p")}


def build_background(cfg):
    kind = cfg.value("background", "profile")
    if kind == "table":
        data = np.loadtxt(cfg.value("background", "s_table"), delimiter=",", comments="#")
        params = {"t": data[:, 0], "s": data[:, 1]}
    else:
        params = {key: cfg.value("background", key) for key in PROFILE_KEYS[kind]}
    profile = geometry.ScaleProfile(kind, **params)
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
    of passes at small amplitude, and in one on zero data (no CG iteration,
    energy 0).  Each pass reads one lattice.Connection and one energy.Norms
    and evaluates only what the k-th total energy and the report of the state
    read, first in two blocks (parallel.split): Q, Z and the Gauss solve,
    which writes only E, beside S, psidot and the Higgs and Dirac entries,
    which read none of E, Q and Z; then the gauge rows of the rhs
    (dynamics.gauge_rhs) and the Yang-Mills entries (Norms.blocks, one
    parallel.balance).  The returned state is the last one measured, so
    info["energy"] is its energy; info["converged"] says whether that is
    amplitude**2 within 1e-10 + 1e-9 amplitude**2.  A dict `measured` is
    left holding the H^l table of the last pass (Norms' `table`), which the
    report of the returned state reads.  Returns (state, info).
    """
    amplitude = cfg.value("initial", "amplitude")
    u = lattice.random_state(grid, model, cfg.value("initial", "seed"), amplitude,
                             cfg.value("initial", "cutoff"), cfg.value("initial", "sectors"))
    info, target = {}, amplitude ** 2
    du = lattice.FieldState.zeros(grid, model)
    table = {} if measured is None else measured
    for attempt in range(6):
        if attempt:  # rescale a measured miss; the last pass stays as measured
            for buf in u.sectors.values():
                buf *= np.sqrt(target / e)
        table.clear()
        conn = lattice.Connection(u.eta, model)
        norms = energy.Norms(u, du, bg, k, table, conn)

        def gauss():
            constraints.complete_Q_Z(u, bg, conn)
            return constraints.solve_gauss_initial(u, bg, cfg.value("numerics", "cg_tol"), conn)

        def matter():  # in the worker, where a split raises: the entries fill lazily
            constraints.complete_S_psidot(u, bg, conn)
            norms.energy("higgs", norms.top)
            norms.energy("dirac", norms.top)

        info["gauss"], _ = parallel.split(grid, gauss, matter)
        dynamics.gauge_rhs(u, bg.frame(u.tau), couplings, du, conn=conn)
        parallel.balance(grid, norms.blocks(("omega",)))
        e = info["energy"] = norms.total()
        info["converged"] = abs(e - target) <= 1e-10 + 1e-9 * target
        if info["converged"]:
            break
    return u, info


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

# Report blocks' costs per state element (four per complex one) in units of
# energy.Norms.blocks, 4.5-4.8 ns on su2_toy, bianchi1, n = 32, one core: there the
# constraint fields, constraint_report and drift took 53 ms, a snapshot 39-42 ms.
CONSTRAINT_COST, SNAPSHOT_COST = 1.15, 0.9


def run_experiment(cfg, out_dir=None, quiet=True):
    """Execute the full pipeline and write artifacts; returns the run record.
    The record starts as the config, version and warnings; set-up, each report,
    post-processing and the end add to it.  write_record writes every file of
    the run from it once the run ends, also when the run raises: metadata.json
    then records the error."""
    t_wall = time.time()
    grid, model, bg, couplings = build_run(cfg)
    tau_end, dtau, n_steps = run_steps(cfg, grid, bg)  # before anything is written
    k = cfg.value("numerics", "energy_k")
    out_dir = out_dir or cfg.value("outputs", "directory")
    os.makedirs(out_dir, exist_ok=True)

    record = {"config": cfg.as_dict(), "version": __version__, "warnings": []}
    measured = {}  # set-up's last H^l table, read by the step-0 report
    snap_steps = {int(round(x))
                  for x in np.linspace(0, n_steps, cfg.value("outputs", "snapshots"))}
    energy_rows, constraint_rows = [], []  # EnergyReport and ConstraintReport rows
    initial_cfields = {}  # the step-0 report's constraint fields, kept for the drift

    def report(m, state, du):
        """Rows for a reported step (every report_every-th, the last and each
        snapshot step); du is rhs(state), which evolve evaluated.  One
        parallel.balance runs the missing H^l entries (energy.Norms.blocks),
        the constraints and the snapshot write; energy_report then sums."""
        if m % cfg.value("numerics", "report_every") and m != n_steps and m not in snap_steps:
            return
        conn, rows = lattice.Connection(state.eta, model), {}
        size = sum(b.size * (4 if np.iscomplexobj(b) else 1) for b in state.sectors.values())

        def constraint_block():  # after step 0 only scalars leave it: its fields are freed here
            cf = constraints.constraint_fields(state, bg, conn)
            if m == 0:
                initial_cfields.update(cf)
            rows["constraints"] = constraints.constraint_report(state, bg, fields=cf, conn=conn,
                                                                initial=initial_cfields)

        def snapshot_block():
            try:
                lattice.save_state(os.path.join(out_dir, "snapshot_%05d.ymt" % m), state,
                                   metadata={"step": m, "tau": state.tau})
            except Exception as err:  # raised below, after the rows
                rows["error"] = err

        norms = energy.Norms(state, du, bg, k, measured if m == 0 else None, conn)
        blocks = [(CONSTRAINT_COST * size, constraint_block)]
        if m in snap_steps:
            blocks.append((SNAPSHOT_COST * size, snapshot_block))
        parallel.balance(grid, norms.blocks(("omega", "reference")) + blocks)
        erep = energy.energy_report(norms)
        energy_rows.append(erep)
        constraint_rows.append(rows["constraints"])
        record["last_reported_step"] = m
        if "error" in rows:
            raise rows["error"]
        if not quiet:
            print("step %5d  tau %.5f  E %.3e  gauss %.3e"
                  % (m, state.tau, erep.total, rows["constraints"].gauss))

    exp_kind = cfg.value("gauge_experiment", "kind")
    error = None  # the run's exception, for write_record
    try:
        u, init_info = prepare_initial_state(cfg, grid, model, bg, couplings, k=k,
                                             measured=measured)
        record.update(n_steps=n_steps, last_reported_step=None, initial_data=init_info)
        warnings = record["warnings"]
        if not init_info["gauss"]["converged"]:
            warnings.append("Gauss CG stopped before its residual target (iterations %d, "
                            "residual %.3e)" % (init_info["gauss"]["iterations"],
                                                init_info["gauss"]["residual"]))
        if not init_info["converged"]:
            warnings.append("initial energy %.6e missed initial.amplitude**2 = %.6e after six "
                            "rescaling passes" % (init_info["energy"],
                                                  cfg.value("initial", "amplitude") ** 2))
        u0 = u.copy() if exp_kind == "static" else None  # evolve advances u in place
        dynamics.evolve(u, bg, couplings, dtau, n_steps, callback=report)

        record.update(post_process(energy_rows, constraint_rows, bg))

        gauge_experiment = None
        if exp_kind == "static":
            res = run_gauge_invariance(cfg, u0, bg, couplings)
            gauge_experiment = {"kind": "static", **{key: res[key] for key in (
                "worst_relative_mismatch", "unitarity_defect")}}
        elif exp_kind == "automorphism":
            gauge_experiment = {"kind": "automorphism",
                                **run_automorphism_check(cfg, grid, model, bg)}
        record.update(
            gauge_experiment=gauge_experiment,
            grid={"n": grid.n, "L": grid.L, "order": grid.order, "dx": grid.dx},
            dtau=dtau, horizon=bg.T, tau_end=tau_end,
            extrinsic_bound_samples=[bg.extrinsic_bound(t)
                                     for t in np.linspace(0, tau_end * 0.999, 5)],
            threads=parallel.threads(grid), wall_seconds=time.time() - t_wall)
    except BaseException as err:  # recorded by write_record, then raised on
        error = err
        raise
    finally:
        write_record(out_dir, record, energy_rows, constraint_rows, error)

    if cfg.value("outputs", "plot"):
        replot(out_dir)
    return record


def post_process(energy_rows, constraint_rows, bg):
    """The record's entries that the rows make: decay.json of the energy rows
    read as energy.csv's columns (conformal.decay_report), the energy-estimate
    verdict, each constraint's initial and maximum norm, and the drift of the
    last row."""
    table = [r.as_row() for r in energy_rows]
    e = {name: np.array([row[name] for row in table]) for name in table[0]}
    norms = {name: np.array([getattr(r, name) for r in constraint_rows])
             for name in ("curvature", "bianchi", "gauss", "dirac")}
    last = constraint_rows[-1]
    return {
        "decay": conformal.decay_report(e, bg),
        "energy_monitor": dataclasses.asdict(energy.estimate_monitor(e["tau"], e["E_total"])),
        "constraint_initial": {name: x[0] for name, x in norms.items()},
        "constraint_max": {name: x.max() for name, x in norms.items()},
        "terminal_drift": {"tau": last.tau, **{n: getattr(last, "drift_" + n) for n in norms}},
    }


def write_record(out_dir, record, energy_rows, constraint_rows, error):
    """Every file of a run but its snapshots and figures: energy.csv and
    constraints.csv when there are rows, decay.json once the record holds the
    fits, and last, always, the record as metadata.json, with `error` (the run's
    exception, or else the first one of these writes, which is then raised)."""
    failed = error
    try:
        if energy_rows:
            write_energy_csv(os.path.join(out_dir, "energy.csv"), energy_rows)
            write_constraints_csv(os.path.join(out_dir, "constraints.csv"), constraint_rows)
        if "decay" in record:
            with open(os.path.join(out_dir, "decay.json"), "w") as fh:
                json.dump(record["decay"], fh, indent=1)
    except Exception as err:
        failed = failed or err
    if failed is not None:
        record["error"] = {"type": type(failed).__name__, "message": str(failed)}
    with open(os.path.join(out_dir, "metadata.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    if failed is not error:
        raise failed


def _fmt(x):
    return "%.17g" % x


def write_csv(path, rows):
    """One CSV row per dict of rows, the first row's keys as the header."""
    with open(path, "w") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row.values()) + "\n")


def write_energy_csv(path, rows):
    write_csv(path, [r.as_row() for r in rows])


def write_constraints_csv(path, rows):
    write_csv(path, [dataclasses.asdict(r) for r in rows])


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
            s, phys = conformal.physical_series(e, bg)
            series = {}
            for name, y in phys.items():
                series[name] = y
                fit = decay[name]
                if not fit["undefined"]:
                    # fitted power law anchored at the window start
                    sel = e["tau"] >= fit["window"][0]
                    s0, c0 = s[sel][0], y[sel][0]
                    series[name + " fit"] = np.where(sel, c0 * (s / s0) ** fit["slope"], np.nan)
            plots.line_plot(
                os.path.join(out_dir, "decay.svg"), s, series,
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
        norms = energy.Norms(state, du, bg, k)
        series[-1].append((state.tau, [norms.energy(sector, k) for sector in sectors]))

    for start in (u0, ug):
        series.append([])
        dynamics.evolve(start, bg, couplings, dtau, n_steps, callback=record)
    rows = [{"tau": tau, **{s: abs(ea - eb) / max(ea, 1e-300) for s, ea, eb in zip(sectors, a, b)}}
            for (tau, a), (_, b) in zip(*series)]
    worst = max(row[s] for row in rows for s in sectors)
    defect = lattice.unitarity_defect(gt.matrices(model.lie.defining))
    return {"worst_relative_mismatch": worst, "rows": rows,
            "unitarity_defect": defect}


def run_automorphism_check(cfg, grid, model, bg):
    """Build the bundle automorphism for a prescribed smooth temporal
    coefficient on the run's grid, model and background, and verify its
    defining property and unitarity."""
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
