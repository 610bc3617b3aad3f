"""No module of the package imports a name it never uses.

No linter runs on this repository, so this test is what catches an import
left behind when the code that used it moves or goes.  It parses each
module of src/fplocal except __init__.py, which re-exports, and counts a
name as used when it is read anywhere in the module, appears in a string
annotation, or is listed in __all__.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fplocal"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """{bound name: line} for every import outside __future__."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "_Divisors"; other strings parse
            # to nothing or to names that no import binds
            try:
                used |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def test_a_stale_import_is_caught():
    tree = ast.parse("from typing import Optional, Tuple\n\ndef f(x: Optional[int]): ...\n")
    assert set(imported_names(tree)) - used_names(tree) == {"Tuple"}
    tree = ast.parse("from .groebner import _Divisors\n\ndef f() -> '_Divisors': ...\n")
    assert set(imported_names(tree)) <= used_names(tree)
