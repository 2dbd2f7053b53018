"""Static checks over the package and its tests.

An imported name that the module never uses is an error, except on a line
marked `# noqa: F401` (a binding kept on purpose) or when the module lists
the name in `__all__`.  So is a module-level UPPER_CASE constant of the
package that no code of the repository reads, a function, class or
method of the package that no code of the repository loads by name (or
that the benchmark's tracer names in a string), a config key of
driver.SCHEMA that the package never reads, and a float(), int() or
.split() applied to a config read in the package: the schema is the one
place where config text becomes values.  A definition that only tests
load is listed in TEST_ONLY with the criterion or paper identity it checks.
An optional parameter of the package that no call outside the tests sets is
listed in TEST_KNOBS with the criterion it serves; any other is a constant.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "ymtorus").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"  # names its targets in strings


def unused_imports(path):
    """(line, name) of every import binding in `path` that nothing reads."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= {elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_scan_sees_the_package_and_the_tests():
    names = {path.name for path in SOURCES}
    assert {"lattice.py", "energy.py", "conftest.py", "test_hygiene.py"} <= names


def test_every_import_is_used():
    found = ["%s:%d %s" % (path.relative_to(ROOT), line, name)
             for path in SOURCES for line, name in unused_imports(path)]
    assert found == []


def loads(readers=READERS, strings=False):
    """Every name that a Name or an attribute in `readers` loads, plus with
    `strings` each dot-separated part of every string constant of TRACER."""
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (strings and path == TRACER and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                read.update(node.value.split("."))
    return read


def unread_constants():
    """module.NAME of every module-level UPPER_CASE assignment in the package
    that no Name or attribute in READERS loads."""
    defined = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id):
                    defined.append((target.id, "%s.%s" % (path.stem, target.id)))
    read = loads()
    return sorted(where for name, where in defined if name not in read)


def definitions(package=PACKAGE):
    """(name, where) of every module-level function and class of the package,
    where = module.name, and of every method but the dunders (Python calls
    those), where = module.Class.name."""
    found = []
    for path in package:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.append((node.name, "%s.%s" % (path.stem, node.name)))
            if isinstance(node, ast.ClassDef):
                found += [(item.name, "%s.%s.%s" % (path.stem, node.name, item.name))
                          for item in node.body if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("__")]
    return found


def unread_definitions(package=PACKAGE, readers=READERS):
    """where of every definition of `package` that no Name or attribute in
    `readers` loads and no string constant of TRACER names."""
    read = loads(readers, strings=True)
    return sorted(where for name, where in definitions(package) if name not in read)


# Definitions that only tests load, each with the acceptance criterion (C1-C10)
# or the paper identity that its test checks.
TEST_ONLY = {
    "algebra.u1_mismatched_toy": "equivariance",  # its negative control
    "clifford.anticommutator_table": "C1",
    "clifford.clifford_mul": "Clifford-symmetry",
    "clifford.spin_inner": "C1",
    "clifford.spin_inner_pos": "positivity",
    "conformal.conformal_residual_check": "C9",
    "constraints.observed_order": "C3",
    "constraints.operator_symmetry_defect": "C3",  # the Gauss solve's operator
    "dynamics.principal_symbol": "C2",
    "dynamics.principal_symbol_dtau": "C2",
    "energy.norm_evolution_ratio": "C4",
    "geometry.riemann_components": "C10",
    "lattice.load_state": "snapshots",  # the model check of a saved state
}


def test_scan_sees_the_constants():
    names = {path.name for path in READERS}
    assert {"lattice.py", "test_hygiene.py", "demo_maxwell_waves.py", "tracer.py",
            "test_perfbench.py"} <= names


def test_every_constant_is_read():
    assert unread_constants() == []


def test_definition_scan_sees_methods_and_tracer_targets():
    found = definitions()
    assert {("frame", "geometry.Background.frame"), ("Frame", "geometry.Frame"),
            ("rhs", "dynamics.rhs")} <= set(found)
    assert not any(name.startswith("__") for name, _ in found)
    assert {"FieldState", "lincomb", "prepare_initial_state", "evolve"} <= loads(strings=True)


def test_every_definition_is_read():
    assert unread_definitions() == []


def test_a_name_in_a_string_outside_the_tracer_is_unread(tmp_path):
    module, reader = tmp_path / "module.py", tmp_path / "reader.py"
    module.write_text("def only_named(): pass\n\ndef called(): pass\n")
    reader.write_text('NAME = "module.only_named"\ncalled()\n')
    assert unread_definitions([module], [module, reader]) == ["module.only_named"]


def test_only_the_listed_definitions_are_read_by_tests_alone():
    tests = ROOT / "tests"
    assert unread_definitions(readers=[path for path in READERS
                                       if tests not in path.parents]) == sorted(TEST_ONLY)


def signatures(package=PACKAGE):
    """(called name, where, positional names, optional names) of every
    module-level function and method of the package, where =
    module.[Class.]name; a class is called through its __init__, and a
    method's self (or cls) is bound."""
    found = []
    for path in package:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            defs = [(node.name, node.name, node, 0)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                defs += [(node.name if item.name == "__init__" else item.name,
                          "%s.%s" % (node.name, item.name), item, 1)
                         for item in node.body if isinstance(item, ast.FunctionDef)]
            for called, where, fn, bound in defs:
                params = [p.arg for p in fn.args.posonlyargs + fn.args.args]
                optional = params[len(params) - len(fn.args.defaults):]
                optional += [p.arg for p, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                             if default is not None]
                found.append((called, "%s.%s" % (path.stem, where), params[bound:], optional))
    return found


def unset_parameters(package=PACKAGE, callers=READERS):
    """where.param of every optional parameter of `package` that no call in
    `callers` sets, by keyword or by position, to a function or class of
    that name; a call with *args or **kwargs sets them all."""
    calls = [node for path in callers
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call)]
    unset = []
    for called, where, positional, optional in signatures(package):
        set_here = set()
        for call in calls:
            if (getattr(call.func, "id", None) or getattr(call.func, "attr", None)) != called:
                continue
            if (any(isinstance(arg, ast.Starred) for arg in call.args)
                    or any(kw.arg is None for kw in call.keywords)):
                set_here |= set(optional)
            set_here |= set(positional[:len(call.args)]) | {kw.arg for kw in call.keywords}
        unset += ["%s.%s" % (where, name) for name in optional if name not in set_here]
    return sorted(unset)


def test_parameter_scan_sees_positions_keywords_and_methods(tmp_path):
    module, caller = tmp_path / "module.py", tmp_path / "caller.py"
    module.write_text("def f(a, b=1, c=2, *, d=3): pass\n\nclass K:\n"
                      "    def __init__(self, x=0): pass\n\n    def m(self, y=0, z=1): pass\n")
    caller.write_text("f(0, 1)\nf(0, d=4)\nK().m(1)\n")
    assert unset_parameters([module], [caller]) == ["module.K.__init__.x", "module.K.m.z",
                                                    "module.f.c"]
    caller.write_text("f(*args)\nK(**kw)\n")
    assert unset_parameters([module], [caller]) == ["module.K.m.y", "module.K.m.z"]


# Optional parameters that only tests set, each with the acceptance criterion
# (C1-C10) or the check that sets it; every other optional parameter of the
# package is set by some caller outside the tests.
TEST_KNOBS = {
    "__main__.main.argv": "CLI",  # sys.argv when None
    "algebra.check_equivariance.samples": "C1",
    "algebra.u1_toy.q_w": "abelian-current",  # J_i = -q |phi|^2 at charge q
    "conformal.conformal_residual_check.phi_weight": "C9",  # the wrong-weight control
    "conformal.conformal_residual_check.seed": "C9",
    "constraints.operator_symmetry_defect.bg": "C3",
    "energy.sector_energy.connection": "C4",  # the reference-connection energy
}


def test_every_optional_parameter_is_set_outside_the_tests():
    tests = ROOT / "tests"
    assert unset_parameters(callers=[path for path in READERS
                                     if tests not in path.parents]) == sorted(TEST_KNOBS)


def config_reads(tree):
    """(node, (section, key)) of every cfg[section, key], cfg.get(section, key)
    and cfg.value(section, key) in `tree`; the pair is None where it is not
    spelled as two string constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "cfg":
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else []
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and getattr(node.func.value, "id", None) == "cfg"
              and node.func.attr in ("get", "value")):
            args = node.args
        else:
            continue
        pair = tuple(a.value for a in args[:2] if isinstance(a, ast.Constant))
        yield node, pair if len(pair) == 2 else None


def conversions(tree):
    """Line of every float(), int() or .split() applied to a config read."""
    reads = dict(config_reads(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if getattr(node.func, "id", None) in ("float", "int"):
                subjects = node.args[:1]
            elif getattr(node.func, "attr", None) == "split":
                subjects = [node.func.value]
            else:
                continue
            if any(subject in reads for subject in subjects):
                yield node.lineno


def config_scan():
    """(the (section, key) pairs the package reads, "file:line" of every
    conversion of a config read)."""
    read, converted = set(), []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= {pair for _, pair in config_reads(tree) if pair}
        converted += ["%s:%d" % (path.relative_to(ROOT), line) for line in conversions(tree)]
    return read, converted


def test_config_scan_sees_reads_and_conversions():
    tree = ast.parse('n = int(cfg["grid", "n"])\ns = cfg.get("initial", "sectors").split(",")\n'
                     'x = float(cfg.value("numerics", "cfl"))\ny = float(other["a", "b"])\n'
                     'z = cfg.value("numerics", "dtau")\n')
    assert {pair for _, pair in config_reads(tree)} == {
        ("grid", "n"), ("initial", "sectors"), ("numerics", "cfl"), ("numerics", "dtau")}
    assert sorted(conversions(tree)) == [1, 2, 3]


def test_every_config_key_is_read():
    from ymtorus import driver

    read, _ = config_scan()
    assert sorted(set(driver.SCHEMA) - read) == []


def test_no_config_value_is_converted_outside_the_schema():
    _, converted = config_scan()
    assert converted == []
