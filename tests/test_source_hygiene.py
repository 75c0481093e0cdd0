"""Source hygiene of the package, checked through its syntax trees: no
module outside ``__init__.py`` imports a name it never uses, no line is
longer than 98 characters, no line holds two statements, every private
module-level name is read somewhere in the package, and only ``ir`` makes a
``PrimOp``, so its op table stays the one path to an op."""

import ast
import pathlib

import pytest

import dlagraph

MAX_LINE = 98
ROOT = pathlib.Path(dlagraph.__file__).parent
SOURCES = sorted(ROOT.rglob("*.py"))


def _each(paths):
    return [pytest.param(p, id=str(p.relative_to(ROOT))) for p in paths]


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree):
    """Name bound by each import, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", _each(p for p in SOURCES if p.name != "__init__.py"))
def test_no_unused_import(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = ["%s (line %d)" % (name, line) for name, line in _imported(tree)
              if name not in used]
    assert not unused, "imported but unused: %s" % ", ".join(unused)


@pytest.mark.parametrize("path", _each(SOURCES))
def test_no_long_line(path):
    long_lines = [i for i, line in enumerate(path.read_text().splitlines(), 1)
                  if len(line) > MAX_LINE]
    assert not long_lines, "lines over %d characters: %s" % (MAX_LINE, long_lines)


@pytest.mark.parametrize("path", _each(SOURCES))
def test_one_statement_per_line(path):
    starts = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.stmt)]
    shared = sorted({line for line in starts if starts.count(line) > 1})
    assert not shared, "lines holding two statements: %s" % shared


def _module_level_private_names(tree):
    """Private names (``_x``, not dunder) that a module binds at top level,
    with their lines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [(t.id, node.lineno) for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        for name, line in bound:
            if name.startswith("_") and not name.startswith("__"):
                yield name, line


def _references(tree):
    """Every name a tree reads: loaded names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


@pytest.mark.parametrize("path", _each(SOURCES))
def test_every_private_module_level_name_is_referenced(path):
    # A leftover after a cut (a constant or helper nothing reads) fails here.
    referenced = {name for source in SOURCES for name in _references(_tree(source))}
    unused = ["%s (line %d)" % (name, line)
              for name, line in _module_level_private_names(_tree(path))
              if name not in referenced]
    assert not unused, "private module-level names never referenced: %s" % ", ".join(unused)


@pytest.mark.parametrize("path", _each(p for p in SOURCES if p != ROOT / "ir.py"))
def test_only_ir_makes_a_prim_op(path):
    calls = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Call)
             and "PrimOp" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert not calls, "PrimOp made outside ir.py, not through its op table: lines %s" % calls
