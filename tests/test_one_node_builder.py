"""The parser builds every AST node through ``syntax._node``, which interns
it as it is built: no parsed node is built a second time, and no other code
in the parser builds one.  A later change that builds nodes elsewhere in
``syntax`` says so here."""
import ast
import inspect

from weakhopf import syntax

_NODE_CLASSES = {"Gen", "Id", "SwapE", "Seq", "Par"}


def test_the_parser_builds_nodes_only_through_the_interning_function():
    tree = ast.parse(inspect.getsource(syntax))
    interned = {id(call.args[0]) for call in ast.walk(tree)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "_node" and call.args}
    builder = next(f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_node")
    inside = {id(n) for n in ast.walk(builder)}
    parser = [f for f in tree.body if isinstance(f, (ast.FunctionDef, ast.ClassDef))
              and f.name in ("parse_expr", "_Parser")]
    assert len(parser) == 2
    for scope in parser:
        for n in ast.walk(scope):
            if isinstance(n, ast.Name) and n.id in _NODE_CLASSES:
                assert id(n) in interned, f"{n.id} at line {n.lineno} is not built by _node"
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id in _NODE_CLASSES:
            assert id(call) in inside, f"{call.func.id}(...) at line {call.lineno} is built outside _node"


def test_the_character_loop_and_the_second_interning_pass_are_gone():
    for name in ("_Tokenizer", "_interned", "_parse_seq", "_parse_term", "_parse_word", "_parse_factor"):
        assert not hasattr(syntax, name), name
