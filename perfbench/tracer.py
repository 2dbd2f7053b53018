"""In-memory span tracer for the public functions of ``ymtorus``.

A ``Tracer`` replaces each target function by a timing wrapper in *every*
module namespace that holds it: ``from .lattice import diff`` binds ``diff``
in ``dynamics``, ``constraints``, ``conformal`` and ``oracles`` as well, and a
wrapper installed only on ``lattice.diff`` would miss those calls.  Methods
are wrapped on their class.  ``uninstall`` puts every original back.

A span is ``(span_id, name, start, end, parent_id, run_id)`` with
``time.perf_counter`` stamps.  The code is single-threaded, so children nest
strictly inside their parent and a span's self time is its duration minus
the summed durations of its direct children.
"""

import functools
import json
import os
import sys
import time


# (module, attribute path inside the module); the metric prefix is
# "<module>.<path>", e.g. "lattice.FieldState.lincomb".
LAYER_TARGETS = (
    ("lattice", "diff"),
    ("lattice", "covariant_diff"),
    ("lattice", "FieldState.lincomb"),
    ("algebra", "bracket"),
    ("algebra", "chi_spinor_apply"),
    ("algebra", "rho_star_apply"),
    ("algebra", "yukawa_spinor_apply"),
    ("algebra", "current_pairing"),
    ("algebra", "yukawa_antilinear_current"),
    ("clifford", "gamma_apply"),
    ("dynamics", "rhs"),
    ("dynamics", "step"),
    ("dynamics", "currents"),
    ("energy", "energy_report"),
    ("energy", "sobolev_norm"),
    ("constraints", "constraint_report"),
    ("constraints", "constraint_fields"),
    ("constraints", "solve_gauss_initial"),
    ("constraints", "complete_state"),
    ("driver", "prepare_initial_state"),
    ("lattice", "save_state"),
    ("driver", "write_energy_csv"),
    ("driver", "write_constraints_csv"),
    ("driver", "replot"),
    ("conformal", "decay_report"),
)

# The two phase boundaries the untraced run times: set-up ends when
# prepare_initial_state returns, and stepping is the whole of evolve.
PHASE_TARGETS = (
    ("driver", "prepare_initial_state"),
    ("dynamics", "evolve"),
)

PACKAGE = "ymtorus"


def _gauss_iterations(args, kwargs, result):
    return result["iterations"]


def _snapshot_bytes(args, kwargs, result):
    path = str(args[0] if args else kwargs["path"])
    return os.path.getsize(path) + os.path.getsize(path + ".json")


# name -> (extra counter name, function of (args, kwargs, result))
EXTRAS = {
    "constraints.solve_gauss_initial": ("iterations", _gauss_iterations),
    "lattice.save_state": ("bytes", _snapshot_bytes),
}


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Wraps ``targets`` (pairs as in LAYER_TARGETS) while installed."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        self.spans = []
        self.extras = {}  # run_id -> {"<span name>.<extra>": summed value}
        self._stack = []
        self._next_id = 1
        self._restore = []
        self.run_id = 0

    # -- installation ------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
        for mod_name, path in self.targets:
            owner = by_name[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapper = self._wrap(original, "%s.%s" % (mod_name, path))
            if outer:  # a method: the class is the only binding
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, name, original, wrapper)
        return self

    def _rebind(self, namespace, name, original, wrapper):
        setattr(namespace, name, wrapper)
        self._restore.append((namespace, name, original))

    def uninstall(self):
        while self._restore:
            namespace, name, original = self._restore.pop()
            setattr(namespace, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name):
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if extra is not None:
                counts = self.extras.setdefault(self.run_id, {})
                key = "%s.%s" % (name, extra[0])
                counts[key] = counts.get(key, 0) + extra[1](args, kwargs, result)
            return result

        return wrapper

    def span(self, name):
        return _Span(self, name)

    def new_run(self):
        self.run_id += 1
        return self.run_id

    # -- summaries ---------------------------------------------------------

    def self_times(self, run_id):
        """{name: (calls, self seconds)} for one run."""
        spans = [s for s in self.spans if s[5] == run_id]
        child = {}
        for sid, _, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out = {}
        for sid, name, start, end, _, _ in spans:
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child.get(sid, 0.0))
        return out

    def first(self, name, run_id):
        """The first span named ``name`` in one run, or None."""
        for span in self.spans:
            if span[1] == name and span[5] == run_id:
                return span
        return None

    def write(self, path):
        """Write every span as one JSON line with named fields."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "sid", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._next_id
        tr._next_id += 1
        tr._stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._stack.pop()
        parent = tr._stack[-1] if tr._stack else None
        tr.spans.append((self.sid, self.name, self.start, end, parent, tr.run_id))
        return False
