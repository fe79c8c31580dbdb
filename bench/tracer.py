"""Outside-in tracer for weakhopf.

The tracer edits nothing under ``src/``.  At run time it replaces public
functions and methods of the ``weakhopf`` modules with thin wrappers.  A
function is replaced in every ``weakhopf.*`` namespace that binds it, so a
name imported with ``from .ir import evaluate`` is traced as well.

Each wrapped call records one span ``[name, start, end, parent, item, label]``
in memory; nothing is written until the run ends.  Field scalar methods are
far too hot for spans and only count calls.
"""
from __future__ import annotations

import itertools
import sys
import time
from collections import Counter

# (module, attribute, span name).  "Class.method" patches the class.
SPAN_TARGETS = [
    ("linalg", "compose", "linalg.compose"),
    ("linalg", "tensor_product", "linalg.tensor_product"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "LinMap.first_difference", "linalg.first_difference"),
    ("linalg", "split_idempotent", "linalg.split_idempotent"),
    ("linalg", "factor_through", "linalg.factor_through"),
    ("ir", "parse_expr", "ir.parse_expr"),
    ("ir", "evaluate", "ir.evaluate"),
    ("ir", "check_identity", "ir.check_identity"),
    ("ir", "Env.__init__", "ir.env"),
    ("ir", "run_identity_table", None),  # named after the table it runs
    ("algebra", "convolve", "algebra.convolve"),
    ("algebra", "conv_inverse", "algebra.conv_inverse"),
    ("groupoid", "groupoid_algebra", "groupoid.groupoid_algebra"),
    ("bialgebra", "check_bialgebra_axioms", "bialgebra.check_bialgebra_axioms"),
    ("bialgebra", "check_antipode", "bialgebra.check_antipode"),
    ("bialgebra", "projection_identity_suite", "bialgebra.projection_identity_suite"),
    ("bialgebra", "WeakBialgebra.base_env", "bialgebra.base_env"),
    ("bialgebra", "build_env", "bialgebra.build_env"),
    ("crossed", "check_weak_module_algebra", "crossed.check_weak_module_algebra"),
    ("crossed", "twisting", "crossed.twisting"),
    ("crossed", "cocycle_report", "crossed.cocycle_report"),
    ("crossed", "build_crossed_product", "crossed.build_crossed_product"),
    ("crossed", "crossed_product_law_suite", "crossed.crossed_product_law_suite"),
    ("crossed", "module_algebra_suite", "crossed.module_algebra_suite"),
    ("crossed", "invert_cocycle", "crossed.invert_cocycle"),
    ("crossed", "gamma_inverse", "crossed.gamma_inverse"),
    ("cleft", "crossed_to_cleft", "cleft.crossed_to_cleft"),
    ("cleft", "full_reconstruction", "cleft.full_reconstruction"),
    ("cleft", "decomposition", "cleft.decomposition"),
    ("cleft", "reconstruct", "cleft.reconstruct"),
    ("equivalence", "equivalence_from_phi", "equivalence.equivalence_from_phi"),
    ("presentation", "load_presentation", "presentation.load_presentation"),
    ("presentation", "dump_json", "presentation.dump_json"),
    ("cli", "cmd_validate", "cli.validate"),
    ("cli", "cmd_build", "cli.build"),
    ("cli", "cmd_cleft", "cli.cleft"),
    ("cli", "cmd_reconstruct", "cli.reconstruct"),
    ("cli", "cmd_equiv", "cli.equiv"),
    ("cli", "cmd_eval", "cli.eval"),
    ("cli", "main", "cli.main"),  # argument parsing around the commands
]

# Counted, never spanned: (module, Class.method, counter name).
COUNT_TARGETS = [
    ("fields", "RationalField.normalize", "fields.normalize"),
    ("fields", "PrimeField.normalize", "fields.normalize"),
    ("fields", "RationalField.inv", "fields.inv"),
    ("fields", "PrimeField.inv", "fields.inv"),
]

INLINE_TABLE = "identities.inline"


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps short names ("ir", "linalg", ...) to the loaded
        ``weakhopf`` submodules."""
        self.modules = modules
        self.spans: list = []
        self.stack: list = []
        self.item = -1
        self.counters: dict = {}
        self.extra: Counter = Counter()  # work counts measured at span boundaries
        self.max_word = 0
        self.span_names = {name for _, _, name in SPAN_TARGETS if name}
        ids = modules["identities"]
        self.tables = {
            id(value): "identities." + attr.lower()
            for attr, value in vars(ids).items()
            if attr.isupper() and isinstance(value, list)
        }
        self.span_names.update(self.tables.values())
        self.span_names.add(INLINE_TABLE)

    # -- installation -----------------------------------------------------

    def install(self):
        for mod, attr, name in SPAN_TARGETS:
            orig = self._lookup(mod, attr)
            self._replace(mod, attr, orig, self._span_wrapper(orig, name, attr))
        for mod, attr, name in COUNT_TARGETS:
            orig = self._lookup(mod, attr)
            counter = self.counters.setdefault(name, [])
            tick = itertools.count()
            counter.append(tick)
            self._replace(mod, attr, orig, _count_wrapper(orig, tick))

    def _lookup(self, mod, attr):
        owner = self.modules[mod]
        for part in attr.split("."):
            owner = getattr(owner, part)
        return owner

    def _replace(self, mod, attr, orig, wrapper):
        if "." in attr:
            cls_name, meth = attr.split(".")
            setattr(getattr(self.modules[mod], cls_name), meth, wrapper)
            return
        rebound = 0
        for modname, module in list(sys.modules.items()):
            if modname != "weakhopf" and not modname.startswith("weakhopf."):
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)
                    rebound += 1
        if not rebound:
            raise RuntimeError(f"{mod}.{attr} is bound nowhere")

    def _span_wrapper(self, fn, name, attr):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        tracer = self
        is_table = attr == "run_identity_table"
        post = {
            "evaluate": self._post_evaluate,
            "rref": self._post_rref,
            "run_identity_table": self._post_table,
        }.get(attr)

        def wrapper(*args, **kwargs):
            label = None
            if is_table:
                name_now = label = tracer._table_name(args, kwargs)
                report = args[2] if len(args) > 2 else kwargs.get("report")
                before = 0 if report is None else len(report)
            else:
                name_now, before = name, 0
                if attr == "check_identity":
                    label = args[3] if len(args) > 3 else kwargs.get("check_id", "identity")
            rec = [name_now, 0.0, 0.0, stack[-1] if stack else -1, tracer.item, label]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post:
                post(args, kwargs, out, name_now, before)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-call work counts --------------------------------------------

    def _table_name(self, args, kwargs):
        table = args[0] if args else kwargs["table"]
        return self.tables.get(id(table), INLINE_TABLE)

    def _post_table(self, args, kwargs, out, span_name, before):
        self.extra[span_name + ".checks"] += len(out) - before

    def _post_rref(self, args, kwargs, out, span_name, before):
        rows = args[0] if args else kwargs["rows"]
        ncols = args[1] if len(args) > 1 else kwargs["ncols"]
        self.extra["linalg.rref.cells"] += len(rows) * ncols

    def _post_evaluate(self, args, kwargs, out, span_name, before):
        expr = args[0] if args else kwargs["e"]
        env = args[1] if len(args) > 1 else kwargs["env"]
        self.extra["ir.evaluate.columns"] += out.ncols
        self.extra["ir.evaluate.cells"] += out.ncols * out.nrows
        self.max_word = max(self.max_word, _typed_width(expr, env.sig, self.modules["ir"])[2])

    # -- aggregation --------------------------------------------------------

    def aggregate(self) -> dict:
        """calls, busy_s (outermost calls only) and self_s per span name,
        plus the counters.  Every name the tracer can produce is present.
        Call it once: reading a call counter advances it."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        out = {}
        for name in self.span_names:
            out[name + ".calls"] = 0
            out[name + ".busy_s"] = 0.0
            out[name + ".self_s"] = 0.0
            if name.startswith("identities."):
                out[name + ".checks"] = 0
        for i, rec in enumerate(spans):
            name, dur = rec[0], rec[2] - rec[1]
            out[name + ".calls"] += 1
            out[name + ".self_s"] += dur - child_time[i]
            if not _inside_same(spans, rec):
                out[name + ".busy_s"] += dur
        for name, ticks in self.counters.items():
            out[name + ".calls"] = sum(_count_value(t) for t in ticks)
        for name in ("ir.evaluate.columns", "ir.evaluate.cells", "linalg.rref.cells"):
            out[name] = 0
        out.update(self.extra)
        out["ir.evaluate.max_word"] = self.max_word
        out["ir.env.builds"] = out["ir.env.calls"]
        return out

    def top_level_time(self) -> float:
        return sum(rec[2] - rec[1] for rec in self.spans if rec[3] < 0)

    def top_checks(self, item_labels: list, n: int = 10) -> list:
        """The n check ids with the most ir.check_identity time.  A check
        run without an id (the CLI's ``eval``) is named after its item."""
        cost: Counter = Counter()
        for rec in self.spans:
            if rec[0] == "ir.check_identity":
                label = rec[5]
                if label == "identity" and 0 <= rec[4] < len(item_labels):
                    label = item_labels[rec[4]]
                cost[label] += rec[2] - rec[1]
        return cost.most_common(n)


def _count_wrapper(fn, tick):
    tock = next

    def wrapper(*args):
        tock(tick)
        return fn(*args)

    wrapper.__wrapped__ = fn
    return wrapper


def _count_value(tick) -> int:
    # itertools.count yields its current value next; that value is the
    # number of calls counted so far.
    return next(tick)


def _typed_width(e, sig, ir):
    """(dom, cod, most tensor factors on any edge of the expression tree)."""
    if isinstance(e, ir.Seq):
        d1, _, w1 = _typed_width(e.first, sig, ir)
        _, c2, w2 = _typed_width(e.then, sig, ir)
        return d1, c2, max(w1, w2)
    if isinstance(e, ir.Par):
        d1, c1, w1 = _typed_width(e.left, sig, ir)
        d2, c2, w2 = _typed_width(e.right, sig, ir)
        dom, cod = d1 + d2, c1 + c2
        return dom, cod, max(w1, w2, len(dom), len(cod))
    dom, cod = ir.infer_type(e, sig)
    return dom, cod, max(len(dom), len(cod))


def _inside_same(spans, rec) -> bool:
    parent = rec[3]
    while parent >= 0:
        if spans[parent][0] == rec[0]:
            return True
        parent = spans[parent][3]
    return False
