"""Every public name of the program has a user: each name in a module's
`__all__`, and each public method of a class there, is referenced in src/
outside its own definition, or in bench/ (by import, attribute or the
tracer's entry-point strings), or in the acceptance suite.  The sources
are read with ast; nothing is imported."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "frontalforge"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _names(node):
    """The identifiers node refers to: names, attributes, imported names,
    and the parts of dotted strings such as "match.connecting_map"."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
                and re.fullmatch(r"[\w.]+", n.value)):
            out.update(n.value.split("."))
    return out


def _public(tree):
    return next(ast.literal_eval(n.value) for n in tree.body if _is_all(n))


MODULES = {p.stem: _parse(p) for p in sorted(SRC.glob("*.py"))}
PUBLIC = {m: _public(t) for m, t in MODULES.items()
          if any(_is_all(n) for n in t.body)}

# (module, top-level definition or None) -> the names its code refers to,
# a class's methods each under (module, "Class.method"); the __all__ lists
# themselves are left out
SRC_REFS = {}
for _mod, _tree in MODULES.items():
    for _node in _tree.body:
        if _is_all(_node):
            continue
        _owner = getattr(_node, "name", None) if isinstance(
            _node, (ast.FunctionDef, ast.ClassDef)) else None
        _parts = [(_owner, _node)]
        if isinstance(_node, ast.ClassDef):
            _parts = [(f"{_owner}.{n.name}" if isinstance(n, ast.FunctionDef)
                       else _owner, n)
                      for n in ast.iter_child_nodes(_node)]
        for _key, _part in _parts:
            SRC_REFS.setdefault((_mod, _key), set()).update(_names(_part))

OUTSIDE = set().union(
    *(_names(_parse(p)) for p in sorted((ROOT / "bench").glob("*.py"))),
    _names(_parse(ROOT / "tests" / "test_acceptance.py")))


def _unused(module, names):
    """The names, each "name" or "Class.method", that nothing outside
    their own definition in module refers to."""
    return [name for name in names
            if name.rsplit(".", 1)[-1] not in OUTSIDE
            and not any(name.rsplit(".", 1)[-1] in refs for (mod, owner), refs
                        in SRC_REFS.items()
                        if mod != module or owner is None
                        or not (owner + ".").startswith(name + "."))]


def _public_methods(module):
    return [f"{node.name}.{n.name}" for node in MODULES[module].body
            if isinstance(node, ast.ClassDef) and node.name in PUBLIC[module]
            for n in node.body
            if isinstance(n, ast.FunctionDef) and not n.name.startswith("_")]


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_every_public_name_has_a_user(module):
    assert _unused(module, PUBLIC[module]) == []


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_every_public_method_has_a_user(module):
    assert _unused(module, _public_methods(module)) == []
