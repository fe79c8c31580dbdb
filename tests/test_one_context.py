"""Every structure builds its context one way: as a child of its parent's
kept context binding its own maps (``Env.child``), with checks in a new
child of it.  Only ``ir.py`` constructs an ``Env``, and no module merges
binding dicts of its own to pass down a chain of wrappers."""
import ast
import glob
import os

import weakhopf

SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(weakhopf.__file__), "*.py")))


def _calls(path):
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def _where(path, node) -> str:
    return f"{os.path.basename(path)}:{node.lineno}"


def _name(func) -> str:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def test_only_ir_constructs_an_env():
    found = [_where(path, call) for path in SOURCES if os.path.basename(path) != "ir.py"
             for call in _calls(path) if _name(call.func) == "Env"]
    assert found == []


def test_no_module_merges_extra_bindings():
    found = [_where(path, call) for path in SOURCES for call in _calls(path)
             if _name(call.func) == "update"
             and any(isinstance(arg, ast.Name) and arg.id == "extra" for arg in call.args)]
    assert found == []
