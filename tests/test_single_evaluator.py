"""The theory modules check every law through the identity tables on the
integer kernel.  The dense constructors stay in ``linalg`` and ``algebra``
as public API and as the tests' independent oracle, but these modules must
not reach for them, and neither may the convolution-inverse solver."""
import ast
import os

import pytest

import weakhopf

DENSE = {"compose", "tensor_product", "convolve"}
THEORY = ("bialgebra.py", "crossed.py", "cleft.py", "equivalence.py")


@pytest.mark.parametrize("module", THEORY)
def test_theory_module_uses_no_dense_route(module):
    path = os.path.join(os.path.dirname(weakhopf.__file__), module)
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    assert not used & DENSE, f"{module} uses {sorted(used & DENSE)}"


SOLVER = ("conv_inverse", "_conv_solve", "_conv_operator_rows", "_power_delta")


def _functions(*modules):
    """Module-level functions of the given package modules, by name."""
    defs = {}
    for module in modules:
        path = os.path.join(os.path.dirname(weakhopf.__file__), module)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        defs.update((n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef))
    return defs


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Name):
            yield sub.id


@pytest.mark.parametrize("root", SOLVER)
def test_convolution_solver_reaches_no_dense_route(root):
    # Follows calls through the module-level functions of algebra and linalg.
    defs = _functions("algebra.py", "linalg.py")
    seen, todo, used = set(), [root], set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        names = set(_names(defs[name]))
        used |= names
        todo.extend(n for n in names if n in defs and n != name)
    assert not used & DENSE, f"{root} reaches {sorted(used & DENSE)} through {sorted(seen)}"
