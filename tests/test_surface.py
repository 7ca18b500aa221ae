"""Every public module-level name of the package is used by the program,
and every config field is set by it.

A function, class or constant that only tests reach is surface to keep in
step for nothing. A name counts as used when some module in src/, demos/ or
perfbench/ refers to it in code (a name, an attribute or an import, not a
string or a comment). The package's __init__ does not count: a re-export
there is not a use. Likewise a field of a config class that only tests set
is a knob that no workload turns.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Names kept although no program module refers to them, each with its reason.
ALLOWED = {
    "droplet_stream": "the reference that tests compare arena._walk's streams against",
    "face_grid": "the one-face call, which perfbench/tracer.py patches by name and tests use",
    "predict_many": "the reference that tests compare landscape.face_grid against",
    "run_replicate": "perfbench/tracer.py patches it by name",
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


# The config classes that `evolve --config` builds, by defining module.
CONFIG_CLASSES = {"ga": "GAConfig", "arena": "ArenaConfig", "evaluators": "ExperimentSetup"}


def _fields(tree: ast.Module, cls: str):
    (node,) = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls)
    return [n.target.id for n in node.body if isinstance(n, ast.AnnAssign)]


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
        unset += [f"{cls}.{name}" for name in _fields(_parse(path), cls)
                  if name not in set_names]
    assert unset == [], f"config fields that only tests set: {unset}"
