"""Outside ``linalg.py`` the library builds a LinMap whole, from its rows or
its integer columns: no module fills a ``zero_map`` or writes into the
``rows`` of a map it holds.  Only ``linalg.py`` and ``presentation.py`` (which
reads a file's rows and writes a map's) call the ``LinMap`` constructor or
read ``.rows``, apart from the dense oracle ``algebra.convolve``, kept apart
from the integer kernel on purpose; every other module builds maps through
linalg's builders, from integer columns.  No module but ``linalg.py`` reads
or writes a LinMap's private state."""
import ast
import glob
import os

import weakhopf
from weakhopf.linalg import LinMap

SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(weakhopf.__file__), "*.py")))


def _writes_rows(target) -> bool:
    """Is ``target`` an item of ``<x>.rows``, at any depth of subscripts?"""
    while isinstance(target, ast.Subscript):
        target = target.value
        if isinstance(target, ast.Attribute) and target.attr == "rows":
            return True
    return False


def _fills(path) -> list:
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")) == "zero_map":
                found.append(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(_writes_rows(t) for t in targets):
                found.append(node)
    return [f"{os.path.basename(path)}:{node.lineno}" for node in found]


def test_only_linalg_fills_a_linmap():
    found = [where for path in SOURCES if os.path.basename(path) != "linalg.py"
             for where in _fills(path)]
    assert found == []


# Where a map may be built from, or read as, rows of field scalars.
ROW_MODULES = {"linalg.py", "presentation.py"}
ORACLE = ("algebra.py", "convolve")


def _outside_row_modules(predicate) -> list:
    """file:line of each node satisfying ``predicate`` outside ``ROW_MODULES``
    and the oracle's body."""
    found = []
    for path in SOURCES:
        module = os.path.basename(path)
        if module in ROW_MODULES:
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        oracle = {id(n) for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                  and (module, node.name) == ORACLE for n in ast.walk(node)}
        found += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                  if id(node) not in oracle and predicate(node)]
    return found


def test_only_the_row_modules_call_the_linmap_constructor():
    assert _outside_row_modules(lambda node: isinstance(node, ast.Call)
                                and isinstance(node.func, ast.Name)
                                and node.func.id == "LinMap") == []


def test_only_the_row_modules_read_rows():
    assert _outside_row_modules(lambda node: isinstance(node, ast.Attribute)
                                and node.attr == "rows") == []


# A LinMap's private state: every slot but its field and words.
PRIVATE = {name for name in LinMap.__slots__ if name.startswith("_")}


def test_only_linalg_touches_a_linmaps_private_state():
    found = []
    for path in SOURCES:
        module = os.path.basename(path)
        if module == "linalg.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr in PRIVATE)
                  or (isinstance(node, ast.Constant) and node.value in PRIVATE)]
    assert PRIVATE and found == []
