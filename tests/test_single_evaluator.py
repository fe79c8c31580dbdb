"""The theory modules check every law through the identity tables on the
integer kernel.  The dense constructors stay in ``linalg`` and ``algebra``
as public API and as the tests' independent oracle, but these modules must
not reach for them."""
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
