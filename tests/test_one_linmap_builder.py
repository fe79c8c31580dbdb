"""Outside ``linalg.py`` the library builds a LinMap whole, from its rows or
its integer columns: no module fills a ``zero_map`` or writes into the
``rows`` of a map it holds."""
import ast
import glob
import os

import weakhopf

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
