"""No module of the package imports a name it never uses, no private
function or class of the package goes unread, and no public name goes
unread by the program.

No linter runs on this repository, so these tests are what catch an
import left behind when the code that used it moves or goes, and a
private helper whose last caller went.  The import check parses each
module of src/fplocal except __init__.py, which re-exports, and counts a
name as used when it is read anywhere in the module, appears in a string
annotation, or is listed in __all__.  The private check counts a
top-level _name as read when some module of the package loads it as a
name or an attribute outside its own definition; an import alone is no
read.  The public check asks the same of each name in a module's
__all__, and also counts a load or an import in bench/*.py, a load in
the acceptance suite, and a span target of bench/layers.py; tests other
than the acceptance suite do not count, and a name that no program
reads yet stays only on KEEP, with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "fplocal"
BENCH = TESTS.parent / "bench"
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


def loads(tree):
    """Counter of the names and attributes loaded in `tree`."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def unread_private(trees):
    """module.name of each top-level _name function or class of `trees`
    ({module: tree}) that no tree loads outside its own definition."""
    total = sum((loads(t) for t in trees.values()), Counter())
    return {
        f"{mod}.{node.name}"
        for mod, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and total[node.name] == loads(node)[node.name]
    }


def test_every_private_definition_is_read():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SRC.glob("*.py")}
    assert not unread_private(trees)


def test_an_unread_private_definition_is_caught():
    trees = {
        "a": ast.parse("def _used(): ...\ndef _dead(): return _dead()\ndef f(): return _used()\n"),
        "b": ast.parse("from .a import _dead\nclass _Kept: ...\nx = b._Kept\n"),
    }
    assert unread_private(trees) == {"a._dead"}


# public names that nothing reads yet, each with the reason it stays
KEEP = {
    "finite_length_data": "the length of a presented module, which ROADMAP "
                          "items 13 and 6 are to read",
}


def unread_public(trees, outside):
    """module.name of each __all__ name of `trees` ({module: tree}) that
    no tree loads outside its own top-level definition and that is not
    in `outside`."""
    total = sum((loads(t) for t in trees.values()), Counter())
    out = set()
    for mod, tree in trees.items():
        own = Counter()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own[node.name] += loads(node)[node.name]
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                out |= {
                    f"{mod}.{e.value}" for e in node.value.elts
                    if total[e.value] == own[e.value] and e.value not in outside
                }
    return out


def bench_reads(tree):
    """The names a bench script loads or imports."""
    return set(loads(tree)) | set(imported_names(tree))


def span_targets(tree):
    """The first name of each attribute in the SPANS table of `tree`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets
        ):
            return {attr.split(".")[0] for _, attr, _ in ast.literal_eval(node.value)}
    return set()


def test_every_public_name_is_read():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    bench = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(BENCH.glob("*.py"))]
    outside = set().union(*map(bench_reads, bench), *map(span_targets, bench))
    outside |= set(loads(ast.parse((TESTS / "test_acceptance.py").read_text())))
    assert unread_public(trees, outside | set(KEEP)) == set()


def test_an_unread_public_name_is_caught():
    trees = {
        "a": ast.parse(
            '__all__ = ["used", "dead", "imported", "spanned", "K"]\n'
            "def used(): ...\ndef dead(): return dead()\n"
            "def imported(): ...\ndef spanned(): ...\nK = 1\n"
        ),
        "b": ast.parse("from .a import dead\ndef f(): return used()\n"),
    }
    bench = ast.parse(
        "from fplocal.a import imported\n"
        'SPANS = (("a", "spanned.attr", "a.spanned"),)\n'
    )
    outside = bench_reads(bench) | span_targets(bench)
    assert unread_public(trees, outside) == {"a.dead", "a.K"}
    assert unread_public(trees, outside | {"K"}) == {"a.dead"}
