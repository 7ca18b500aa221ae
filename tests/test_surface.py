"""Every public module-level name of the package is used by the program,
every dataclass field is read by it, every config field is set by it and
has a default only if some program construction leaves it out, every
defaulted parameter is both supplied and left out by it, and every
exception class is caught by it or builds its own message.

A function, class or constant that only tests reach is surface to keep in
step for nothing. A name counts as used when some module in src/, demos/ or
perfbench/ refers to it in code (a name, an attribute or an import, not a
string or a comment). The package's __init__ does not count: a re-export
there is not a use. Likewise a field of a config class that only tests set
is a knob that no workload turns, a field that the program never reads is
data carried for nothing, and so is a defaulted parameter of a
function or method that no call in the program supplies. A default that
every call in the program overrides is a call form that only tests use. An
exception class that adds no __init__ and that the program never names in an
except clause or an isinstance call only renames its base class.
"""

import ast
import builtins
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Names kept although no program module refers to them, each with its reason.
ALLOWED = {
    "droplet_stream": "the reference that tests compare arena._walk's streams against",
    "face_grid": "the one-face call, which perfbench/tracer.py patches by name and tests use",
    "predict_many": "the reference that tests compare landscape.face_grid against",
    "run_replicate": "perfbench/tracer.py patches it by name",
    # Dataclass fields, keyed by class: see test_every_dataclass_field_is_read_by_the_program.
    "DetectionFrame.frame_index": "DetectionRecord's per-frame view serves only perfbench's "
                                  "tracer, until it reads the program's trace (ROADMAP item 2)",
    "Trajectory.droplet_id": "TrajectorySet's per-droplet view serves only perfbench's tracer, "
                             "until it reads the program's trace (ROADMAP item 2)",
    "Trajectory.samples": "TrajectorySet's per-droplet view serves only perfbench's tracer, "
                          "until it reads the program's trace (ROADMAP item 2)",
    "OilProperties.density": "a column of oils.json, whose rows OilProperties(**row) takes whole",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _defined(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def _referenced(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _program_paths() -> list:
    return [p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")
            if p != ROOT / "src" / "dropevo" / "__init__.py"]


def _program_references() -> set:
    return {name for path in _program_paths() for name in _referenced(_parse(path))}


def test_every_public_name_is_used_by_the_program():
    used = _program_references()
    public = {f"{path.stem}.{name}"
              for path in sorted((ROOT / "src" / "dropevo").glob("*.py"))
              for name in _defined(_parse(path)) if not name.startswith("_")}
    assert public, "no public names found"
    unused = sorted(q for q in public
                    if q.split(".", 1)[1] not in used and q.split(".", 1)[1] not in ALLOWED)
    assert unused == [], f"public names that only tests reach: {unused}"
    # An allowed name that the program has come to use needs no entry.
    assert sorted(used & ALLOWED.keys()) == []


def _dataclass_fields(tree: ast.Module):
    """(class, field) of each field of the module's dataclasses, but for a
    class that serializes itself with asdict(self), which reads them all."""
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and any(
                _name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
                for d in node.decorator_list)):
            continue
        if any(isinstance(n, ast.Call) and _name(n.func) == "asdict"
               and [_name(a) for a in n.args] == ["self"] for n in ast.walk(node)):
            continue
        yield from ((node.name, n.target.id) for n in node.body
                    if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name))


def test_every_dataclass_field_is_read_by_the_program():
    # A field counts as read when some program module reads it as an
    # attribute, or when a string constant of its own module names it, as
    # the config classes' checks do through getattr(self, name).
    read = {node.attr for p in _program_paths() for node in ast.walk(_parse(p))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in sorted((ROOT / "src" / "dropevo").glob("*.py")):
        tree = _parse(path)
        named = {n.value for n in ast.walk(tree)
                 if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        unread += [f"{cls}.{field}" for cls, field in _dataclass_fields(tree)
                   if field not in read | named]
    flagged = sorted(set(unread) - ALLOWED.keys())
    assert flagged == [], f"dataclass fields that the program never reads: {flagged}"
    # An allowed field that the program has come to read needs no entry.
    assert sorted(k for k in ALLOWED if "." in k and k not in unread) == []


# The config classes that `evolve --config` builds, by defining module.
CONFIG_CLASSES = {"ga": "GAConfig", "arena": "ArenaConfig", "evaluators": "ExperimentSetup"}


def _fields(tree: ast.Module, cls: str):
    """(name, whether it has a default) of each field of the class `cls`."""
    (node,) = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    return [(n.target.id, n.value is not None) for n in node.body
            if isinstance(n, ast.AnnAssign)]


def _set_by_name(tree: ast.Module):
    """The keyword arguments and string dict keys of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.Dict):
            yield from (k.value for k in node.keys
                        if isinstance(k, ast.Constant) and isinstance(k.value, str))


def test_every_config_field_is_set_by_the_program():
    unset = []
    for module, cls in CONFIG_CLASSES.items():
        path = ROOT / "src" / "dropevo" / f"{module}.py"
        set_names = {name for p in _program_paths() if p != path
                     for name in _set_by_name(_parse(p))}
        unset += [f"{cls}.{name}" for name, _ in _fields(_parse(path), cls)
                  if name not in set_names]
    assert unset == [], f"config fields that only tests set: {unset}"


def test_no_config_default_that_every_program_construction_overrides():
    # A default of a field that `evolve` sets itself (a keyword of its
    # `_build` call for the class) and that every other construction in the
    # program supplies (by position, by keyword or through `**`) is a call
    # form that only tests use.
    trees = [_parse(p) for p in _program_paths()]
    (evolve,) = (n for n in _parse(ROOT / "src" / "dropevo" / "cli.py").body
                 if isinstance(n, ast.FunctionDef) and n.name == "cmd_evolve")
    always = []
    for module, cls in CONFIG_CLASSES.items():
        fields = _fields(_parse(ROOT / "src" / "dropevo" / f"{module}.py"), cls)
        (build,) = (n for n in ast.walk(evolve) if isinstance(n, ast.Call)
                    and _name(n.func) == "_build" and _name(n.args[0]) == cls)
        supplied = [{name for name, _ in fields[:len(call.args)]}
                    | {k.arg for k in call.keywords}
                    for tree in trees for call in ast.walk(tree)
                    if isinstance(call, ast.Call) and _name(call.func) == cls]
        always += [f"{cls}.{name}" for name, default in fields
                   if default and name in {k.arg for k in build.keywords}
                   and all({name, None} & names for names in supplied)]
    assert always == [], f"config defaults that every program construction overrides: {always}"


def _defaulted(tree: ast.Module):
    """(call name, parameter, argument position or None if keyword-only) of
    each defaulted parameter of the module's functions and methods; a
    class's __init__ is called by the class's name."""
    def params(fn, name, offset):
        a = fn.args
        pos = a.posonlyargs + a.args
        first = len(pos) - len(a.defaults)
        yield from ((name, arg.arg, k - offset) for k, arg in enumerate(pos) if k >= first)
        yield from ((name, arg.arg, None)
                    for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default)
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from params(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield from params(fn, node.name if fn.name == "__init__" else fn.name, 1)


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _calls(trees: list) -> dict:
    """Call name -> [(explicit positional arguments, whether one is starred,
    keyword names)] over every call in `trees`; a `**` argument is the
    keyword name None. A call through a module-level dict of functions, as
    FITNESS_FUNCTIONS[objective](...), calls each of them."""
    tables = {target.id: [_name(v) for v in node.value.values]
              for tree in trees for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              for target in node.targets if isinstance(target, ast.Name)}
    calls = {}
    for tree in trees:
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            func = call.func
            callees = (tables.get(_name(func.value), []) if isinstance(func, ast.Subscript)
                       else [_name(func)])
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            explicit = sum(not isinstance(arg, ast.Starred) for arg in call.args)
            for callee in callees:
                calls.setdefault(callee, []).append(
                    (explicit, starred, {k.arg for k in call.keywords}))
    return calls


def _parameter_calls():
    """(name(param), whether some program call supplies it, whether some
    program call may omit it) for each defaulted parameter of the package.
    A starred call may supply every positional parameter and may omit the
    ones after its explicit arguments; a `**` call supplies every parameter
    and omits none."""
    calls = _calls([_parse(p) for p in _program_paths()])
    for path in sorted((ROOT / "src" / "dropevo").glob("*.py")):
        for name, param, position in _defaulted(_parse(path)):
            supplied = omitted = False
            for explicit, starred, keywords in calls.get(name, []):
                if {param, None} & keywords:
                    supplied = True
                elif position is not None and (starred or explicit > position):
                    supplied = True
                if not {param, None} & keywords and (position is None or explicit <= position):
                    omitted = True
            yield f"{name}({param})", supplied, omitted


def test_every_defaulted_parameter_is_supplied_by_the_program():
    unsupplied = [key for key, supplied, _ in _parameter_calls() if not supplied]
    assert sorted(set(unsupplied) - ALLOWED.keys()) == [], \
        f"defaulted parameters that only tests supply: {unsupplied}"
    # An allowed parameter that the program has come to supply needs no entry.
    assert sorted(k for k in ALLOWED if "(" in k and k not in unsupplied) == []


def test_every_defaulted_parameter_is_omitted_by_the_program():
    # A default that every program call overrides is a second call form
    # that only tests use.
    always = sorted(key for key, _, omitted in _parameter_calls() if not omitted)
    assert always == [], f"defaulted parameters that every program call supplies: {always}"


def _exception_classes():
    """(name, whether it defines __init__) of each exception class of the
    package: a class whose base is a builtin exception or one of these."""
    classes = [node for path in sorted((ROOT / "src" / "dropevo").glob("*.py"))
               for node in _parse(path).body if isinstance(node, ast.ClassDef)]
    builtin = {name for name, value in vars(builtins).items()
               if isinstance(value, type) and issubclass(value, BaseException)}
    found = {}
    while True:
        new = {node.name: any(isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
                              for fn in node.body)
               for node in classes if node.name not in found
               and {_name(base) for base in node.bases} & (builtin | found.keys())}
        if not new:
            return found
        found.update(new)


def _caught(tree: ast.Module):
    """The names of the classes that the module's except clauses and
    isinstance calls test for."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            tested = node.type
        elif (isinstance(node, ast.Call) and _name(node.func) == "isinstance"
              and len(node.args) == 2):
            tested = node.args[1]
        else:
            continue
        yield from map(_name, tested.elts if isinstance(tested, ast.Tuple) else [tested])


def test_every_exception_class_is_caught_or_builds_its_message():
    classes = _exception_classes()
    assert classes, "no exception classes found"
    caught = {name for p in _program_paths() for name in _caught(_parse(p))}
    renames = sorted(name for name, has_init in classes.items()
                     if not has_init and name not in caught)
    assert renames == [], f"exception classes that only rename their base: {renames}"
