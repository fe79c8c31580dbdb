"""The benchmark's tracer wraps library functions by name, and a traced run
aborts when one of them is gone.  These tests make the tracer's own lookups,
reading only ``bench/tracer.py``, so a refactor that drops or renames a
traced function fails here first."""
import importlib
import importlib.util
import os
import sys

import pytest

import weakhopf.cli  # noqa: F401  (loads every weakhopf submodule)

TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("weakhopf_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracer = _load_tracer()
TARGETS = [(mod, attr) for mod, attr, _ in _tracer.SPAN_TARGETS + _tracer.COUNT_TARGETS]


@pytest.mark.parametrize("mod,attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_traced_name_is_bound(mod, attr):
    owner = importlib.import_module("weakhopf." + mod)
    for part in attr.split("."):
        assert hasattr(owner, part), f"weakhopf.{mod} has no {attr}"
        owner = getattr(owner, part)
    if "." in attr:
        return  # methods are patched on their class
    namespaces = [
        name
        for name, module in list(sys.modules.items())
        if (name == "weakhopf" or name.startswith("weakhopf."))
        and any(value is owner for value in vars(module).values())
    ]
    assert namespaces, f"weakhopf.{mod}.{attr} is bound in no weakhopf namespace"


def test_typed_width_reads_the_ast():
    # A traced run calls this after every evaluate; it reads infer_type and
    # the Seq/Par fields, which no wrapper covers.
    from weakhopf import ir

    sig = ir.Signature(
        objects={"H": 2, "A": 3},
        generators={"Delta": (("H",), ("H", "H")), "rho": (("H", "A"), ("A",))},
    )
    e = ir.parse_expr("Delta * id(A) ; id(H) * swap(H,A) ; rho * id(H)", sig)
    assert _tracer._typed_width(e, sig, ir) == (("H", "A"), ("A", "H"), 3)


def test_post_evaluate_reads_a_real_evaluate_result():
    # A traced run calls this hook after every evaluate, with evaluate's
    # arguments and its result; it reads the result's ncols and nrows.
    from weakhopf import ir
    from weakhopf.fields import QQ
    from weakhopf.linalg import LinMap, from_rows

    modules = {name: importlib.import_module("weakhopf." + name) for name in ("ir", "identities")}
    tracer = _tracer.Tracer(modules)
    sig = ir.Signature(objects={"H": 2}, generators={"mu": (("H", "H"), ("H",))})
    mu = from_rows(QQ, sig.word_of(("H", "H")), sig.word_of(("H",)), [[1, 0, 0, 1], [0, 1, 1, 0]])
    env = ir.Env(sig, QQ, {"mu": mu})
    e = ir.parse_expr("id(H) * mu ; mu", sig)
    out = ir.evaluate(e, env)
    assert isinstance(out, LinMap)
    tracer._post_evaluate((e, env), {}, out, "ir.evaluate", 0)
    tracer._post_evaluate((), {"e": e, "env": env}, out, "ir.evaluate", 0)
    assert (out.ncols, out.nrows) == (8, 2)
    assert tracer.extra["ir.evaluate.columns"] == 16
    assert tracer.extra["ir.evaluate.cells"] == 32
    assert tracer.max_word == 3


def test_post_rref_reads_real_rref_calls(monkeypatch):
    # A traced run calls this hook after every rref, with rref's arguments
    # as the library passes them: rows, then ncols.  Each caller of rref is
    # run once here, so a change to how they call it fails here first.
    from fractions import Fraction

    from weakhopf import linalg
    from weakhopf.fields import QQ

    calls = []
    rref = linalg.rref

    def recorded(*args, **kwargs):
        out = rref(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    monkeypatch.setattr(linalg, "rref", recorded)
    X = (linalg.Obj("X", 2),)
    m = linalg.from_rows(QQ, X, X, [[Fraction(1, 2), 1], [0, 3]])
    e = linalg.from_rows(QQ, X, X, [[1, 1], [0, 0]])
    assert linalg.column_rank(m) == 2
    assert linalg.invert(m) is not None
    assert linalg.factor_through(m, m) == linalg.identity(QQ, X)
    assert linalg.split_idempotent(e)[0] == 1
    modules = {name: importlib.import_module("weakhopf." + name) for name in ("ir", "identities")}
    tracer = _tracer.Tracer(modules)
    for args, kwargs, out in calls:
        tracer._post_rref(args, kwargs, out, "linalg.rref", 0)
    # 2 rows each: 2, 4 (m | id), 4 (m | m) and 2 columns.
    assert tracer.extra["linalg.rref.cells"] == 2 * (2 + 4 + 4 + 2)
