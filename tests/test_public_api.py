"""Every public name of the program has a user: each name in a module's
`__all__` is referenced in src/ outside its own definition, or in bench/
(by import, attribute or the tracer's entry-point strings), or in the
acceptance suite.  The sources are read with ast; nothing is imported."""
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

# (module, top-level definition or None) -> the names its code refers to;
# the __all__ lists themselves are left out
SRC_REFS = {}
for _mod, _tree in MODULES.items():
    for _node in _tree.body:
        if _is_all(_node):
            continue
        _owner = getattr(_node, "name", None) if isinstance(
            _node, (ast.FunctionDef, ast.ClassDef)) else None
        SRC_REFS.setdefault((_mod, _owner), set()).update(_names(_node))

OUTSIDE = set().union(
    *(_names(_parse(p)) for p in sorted((ROOT / "bench").glob("*.py"))),
    _names(_parse(ROOT / "tests" / "test_acceptance.py")))


def _unused(module):
    return [name for name in PUBLIC[module]
            if name not in OUTSIDE
            and not any(name in refs for (mod, owner), refs
                        in SRC_REFS.items()
                        if (mod, owner) != (module, name))]


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_every_public_name_has_a_user(module):
    assert _unused(module) == []
