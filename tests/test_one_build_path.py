"""The command line builds through one ladder: in ``cli.py`` each builder of
the chain from a presentation to its cleft extension is named in exactly one
function, and the file is read only through that ladder.  Outside the
solver's own module, the convolution solver is called from one place: the
cocycle's kept inverse; and a decomposition is built in one place: the
cleaving's kept one."""
import ast
import os

import pytest

import weakhopf

BUILDERS = (
    "build_crossed_product",
    "crossed_to_cleft",
    "decode_presentation",
    "gamma_inverse",
)
NEVER = {"load_presentation", "sha256_file", "environ"}


SRC = os.path.dirname(weakhopf.__file__)


def _tree(module: str):
    with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _cli_tree():
    return _tree("cli")


def _scopes_naming(tree, module: str = "cli") -> dict:
    """Each name read in ``tree`` -> the qualified names of the innermost
    functions (or classes, or the module) whose own code reads it."""
    found: dict = {}

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Name):
                found.setdefault(child.id, set()).add(scope)
            elif isinstance(child, ast.Attribute):
                found.setdefault(child.attr, set()).add(scope)
            walk(child, scope)

    walk(tree, module)
    return found


@pytest.mark.parametrize("name", BUILDERS)
def test_cli_names_each_builder_in_one_function(name):
    scopes = _scopes_naming(_cli_tree()).get(name, set())
    assert len(scopes) == 1, f"cli.py names {name} in {sorted(scopes)}"


def test_cli_reads_files_only_through_the_ladder():
    tree = _cli_tree()
    names = set(_scopes_naming(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert not names & NEVER, f"cli.py uses {sorted(names & NEVER)}"


def test_only_the_cocycle_solves_its_inverse():
    # Imports are not names read, so a module importing the solver is fine.
    modules = sorted(name[:-3] for name in os.listdir(SRC)
                     if name.endswith(".py") and name != "algebra.py")
    scopes = set()
    for module in modules:
        scopes |= _scopes_naming(_tree(module), module).get("conv_inverse", set())
    assert scopes == {"crossed.CocycleData.inverse"}


def _scopes_calling(tree, module: str, name: str) -> list:
    """The qualified names of the innermost functions (or classes, or the
    module) whose own code calls ``name``, once per call."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", None) == name or getattr(func, "attr", None) == name:
                    found.append(scope)
            walk(child, scope)

    walk(tree, module)
    return found


def test_only_the_cleaving_builds_its_decomposition():
    # Calls, not names: annotations and imports may name the class.
    modules = sorted(name[:-3] for name in os.listdir(SRC) if name.endswith(".py"))
    callers = []
    for module in modules:
        callers += _scopes_calling(_tree(module), module, "Decomposition")
    assert callers == ["cleft.CleavingData.decomposition"]
