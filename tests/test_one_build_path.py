"""The command line builds through one ladder: in ``cli.py`` each builder of
the chain from a presentation to its cleft extension is named in exactly one
function, and the file is read only through that ladder."""
import ast
import os

import pytest

import weakhopf

BUILDERS = (
    "build_crossed_product",
    "cocycle_inverse",
    "build_gamma_inverse",
    "crossed_to_cleft",
    "decode_presentation",
)
NEVER = {"load_presentation", "sha256_file", "environ"}


def _cli_tree():
    with open(os.path.join(os.path.dirname(weakhopf.__file__), "cli.py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _scopes_naming(tree) -> dict:
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

    walk(tree, "cli")
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
