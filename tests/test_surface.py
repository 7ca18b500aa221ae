"""Every public module-level name of the package is used by the program.

A function, class or constant that only tests reach is surface to keep in
step for nothing. A name counts as used when some module in src/, demos/ or
perfbench/ refers to it in code (a name, an attribute or an import, not a
string or a comment). The package's __init__ does not count: a re-export
there is not a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Names kept although no program module refers to them, each with its reason.
ALLOWED = {
    "droplet_stream": "the reference that tests compare arena._walk's streams against",
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


def _program_references() -> set:
    paths = [p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")
             if p != ROOT / "src" / "dropevo" / "__init__.py"]
    return {name for path in paths for name in _referenced(_parse(path))}


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
