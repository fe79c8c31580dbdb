"""A plan is decided by its node and the shapes of the names it uses: each
node keeps its own plans (``node.plans``), so the only module-level tables
are the ones named here, and compiling reads nothing from its caller.  A
later change that adds a registry says so here."""
import inspect

from weakhopf import ir, syntax


def _dicts(module) -> list:
    return sorted(name for name, value in vars(module).items()
                  if isinstance(value, dict) and not name.startswith("__"))


def test_the_module_tables_are_the_shared_ones():
    assert _dicts(ir) == ["_GENS", "_PERMS"]  # generator shapes, permutation index tables
    assert _dicts(syntax) == ["_NODES", "_PARSED"]  # the parse memo and its node table


def test_compiling_reads_only_the_node_and_its_context():
    assert list(inspect.signature(ir._plan).parameters) == ["e", "env"]
    assert list(inspect.signature(ir._compile).parameters) == ["e", "env", "key"]
