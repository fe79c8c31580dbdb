"""The three benchmark workloads and their known-answer oracles.

A workload's ``setup(wh, seed, workdir)`` builds its inputs from the seed and
returns a state; ``plan(state, pass_dir)`` returns the items of one pass and
the oracle that checks what they returned.  Items call the library through
module attributes (``wh.crossed.invert_cocycle``), so a tracer installed
after set-up sees every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Item:
    label: str
    run: Callable
    tag: Optional[str] = None  # "Q" or "F7": paired items of the two fields
    # Counted in the latency percentiles.  Seeded counterexamples are not:
    # their size changes with the seed, and would move the percentiles with it.
    latency: bool = True


@dataclass
class Plan:
    items: list
    verify: Callable  # values returned by the items, by index -> Outcome


@dataclass
class Outcome:
    mismatches: list = field(default_factory=list)
    failed: set = field(default_factory=set)
    checks: int = 0
    notes: list = field(default_factory=list)  # extra lines for the text output

    def mismatch(self, index: int, message: str):
        self.mismatches.append(message)
        self.failed.add(index)


def _raised(outcome: Outcome, values: list, items: list) -> None:
    for i, v in enumerate(values):
        if isinstance(v, Exception):
            where = traceback.extract_tb(v.__traceback__)[-1]
            outcome.mismatch(i, f"{items[i].label}: raised {type(v).__name__}: {v}"
                                f" ({where.filename}:{where.lineno})")


def _statuses(report) -> list:
    return [(v.check_id, v.status) for v in report]


# --------------------------------------------------------------------------
# universe: enumerate_groupoids(3, 9) over Q and F_7, plus counterexamples
# --------------------------------------------------------------------------

COUNTEREXAMPLES = 8


def universe_setup(wh, seed: int, workdir: str):
    universe = wh.groupoid.enumerate_groupoids(3, 9)
    fields = (wh.fields.QQ, wh.fields.GF(7))
    rng = random.Random(seed)
    counterexamples = []
    for _ in range(COUNTEREXAMPLES):
        name, G = universe[rng.randrange(len(universe))]
        fld = fields[rng.randrange(len(fields))]
        units = sorted(G.morphisms.index(G.identity[x]) for x in G.objects)
        n = len(G.morphisms)
        e, h, k = rng.choice(units), rng.randrange(n), rng.randrange(n)
        counterexamples.append((name, G, fld, e, h, k))
    return {"wh": wh, "universe": universe, "fields": fields, "counterexamples": counterexamples}


def _positive_item(wh, G, fld):
    def run():
        H = wh.groupoid.groupoid_algebra(G, fld)
        return (
            wh.bialgebra.check_bialgebra_axioms(H),
            wh.bialgebra.check_antipode(H),
            wh.bialgebra.projection_identity_suite(H),
        )

    return run


def _counterexample_item(wh, G, fld, e, h, k):
    """Add one to mu[k][(e, h)] for an identity morphism e.  Only column h of
    ``eta * id(H) ; mu`` changes, and only in row k, so ``unit_left`` must
    fail at (row k, col h)."""

    def run():
        H = wh.groupoid.groupoid_algebra(G, fld)
        n = H.dim
        rows = [list(r) for r in H.mu.rows]
        rows[k][e * n + h] = fld.normalize(rows[k][e * n + h] + 1)
        mu = wh.linalg.LinMap(fld, H.mu.dom, H.mu.cod, rows)
        bad = wh.bialgebra.WeakHopfAlgebra.unchecked(fld, H.obj, mu, H.eta, H.delta, H.eps, H.antipode)
        return wh.bialgebra.check_bialgebra_axioms(bad)

    return run


def universe_plan(state, pass_dir: str) -> Plan:
    wh = state["wh"]
    items = []
    for name, G in state["universe"]:
        for fld, tag in zip(state["fields"], ("Q", "F7")):
            items.append(Item(f"{name}/{fld!r}", _positive_item(wh, G, fld), tag))
    n_positive = len(items)
    for name, G, fld, e, h, k in state["counterexamples"]:
        items.append(Item(f"counterexample {name}/{fld!r} e={e} h={h} k={k}",
                          _counterexample_item(wh, G, fld, e, h, k), latency=False))

    def verify(values):
        out = Outcome()
        _raised(out, values, items)
        for i, v in enumerate(values):
            if not isinstance(v, Exception):
                out.checks += sum(len(r) for r in (v if i < n_positive else (v,)))
        for i in range(0, n_positive, 2):
            q, f7 = values[i], values[i + 1]
            for j, reports in ((i, q), (i + 1, f7)):
                if not isinstance(reports, Exception) and not all(r.all_pass for r in reports):
                    out.mismatch(j, f"{items[j].label}: a law failed on a groupoid algebra")
            if isinstance(q, Exception) or isinstance(f7, Exception):
                continue
            if [_statuses(r) for r in q] != [_statuses(r) for r in f7]:
                out.mismatch(i, f"{items[i].label}: Q and F_7 reports disagree")
        for j, (name, G, fld, e, h, k) in enumerate(state["counterexamples"], start=n_positive):
            report = values[j]
            if isinstance(report, Exception):
                continue
            v = report.get("unit_left")
            delta = fld.one if k == h else fld.zero
            w = v.witness
            caught = (
                v.status == "fail" and w is not None and (w.row, w.col) == (k, h)
                and w.lhs == fld.normalize(delta + 1) and w.rhs == delta and w.lhs != w.rhs
            )
            if not caught:
                out.mismatch(j, f"{items[j].label}: unit_left gave {v.status} {w}")
        return out

    return Plan(items, verify)


# --------------------------------------------------------------------------
# pipeline: the paper's full pipeline on dual S3 / F_7 and pair(3) / Q
# --------------------------------------------------------------------------

def dual_group_hopf(wh, group, fld):
    """Function algebra on a finite group: pointwise product, coproduct dual
    to the group law; non-cocommutative for a nonabelian group.  The same
    construction as the test suite's helper, kept here so that the benchmark
    imports no test code."""
    zero_map = wh.linalg.zero_map
    els = list(group.elements)
    n = len(els)
    idx = {x: i for i, x in enumerate(els)}
    ob = wh.linalg.Obj("H", n)
    mu = zero_map(fld, (ob, ob), (ob,))
    eta = zero_map(fld, (), (ob,))
    antipode = zero_map(fld, (ob,), (ob,))
    for i, x in enumerate(els):
        mu.rows[i][i * n + i] = fld.one
        eta.rows[i][0] = fld.one
        antipode.rows[idx[group.inverse[x]]][i] = fld.one
    delta = zero_map(fld, (ob,), (ob, ob))
    for x in els:
        for y in els:
            delta.rows[idx[x] * n + idx[y]][idx[group.mult[(x, y)]]] = fld.one
    eps = zero_map(fld, (ob,), ())
    neutral = group.mult[(els[0], group.inverse[els[0]])]
    eps.rows[0][idx[neutral]] = fld.one
    return wh.bialgebra.WeakHopfAlgebra.checked(fld, ob, mu, eta, delta, eps, antipode)


def pipeline_setup(wh, seed: int, workdir: str):
    s3, pair3 = wh.groupoid.dihedral(3), wh.groupoid.pair_groupoid(3)
    instances = [
        ("dual_s3_f7", lambda: dual_group_hopf(wh, s3, wh.fields.GF(7)),
         lambda H: wh.crossed.trivial_measure(H),
         lambda m: wh.crossed.CocycleData(m, m.u(2))),
        ("pair3_q", lambda: wh.groupoid.groupoid_algebra(pair3, wh.fields.QQ),
         lambda H: wh.crossed.base_action_measure(H),
         lambda m: wh.crossed.smash_cocycle(m)),
    ]
    random.Random(seed).shuffle(instances)
    return {"wh": wh, "instances": instances}


def _pipeline_item(wh, build, measure, cocycle):
    """One instance through every stage.  Returns its reports per stage, the
    stage times, and the few small maps the oracle compares; the structures
    and their evaluation memos are dropped when the item ends."""
    cr, bi, cl = wh.crossed, wh.bialgebra, wh.cleft

    def run():
        clock = time.perf_counter
        reports, stage_s = [], []
        t = clock()

        def stage(name, *produced):
            nonlocal t
            now = clock()
            stage_s.append((name, now - t))
            reports.extend((name, r) for r in produced)
            t = clock()

        H = build()
        stage("construct")
        stage("validate", bi.check_bialgebra_axioms(H), bi.check_antipode(H), bi.projection_identity_suite(H))
        m = measure(H)
        stage("measure")
        stage("wma_twisting", cr.check_weak_module_algebra(m), cr.twisting(m)[1])
        c = cocycle(m)
        stage("cocycle_laws", cr.cocycle_report(m, c))
        E = cr.build_crossed_product(m, c)
        stage("build")
        stage("law_suites", cr.crossed_product_law_suite(E), cr.module_algebra_suite(E))
        finv, inv_report = cr.invert_cocycle(m, c)
        stage("invert_cocycle", inv_report)
        gaminv, gi_report = cr.gamma_inverse(E, finv)
        stage("gamma_inverse", gi_report)
        X, cleaving = cl.crossed_to_cleft(E, gaminv)
        recon, finv2, _, rec_report = cl.full_reconstruction(X, cleaving)
        stage("reconstruction", rec_report)
        return {
            "reports": reports, "stage_s": stage_s,
            "dims": (H.dim, E.E_dim), "rho": (m.rho, recon.rho), "f": (c.f, recon.f),
            "finv": (finv, finv2),
        }

    return run


def pipeline_plan(state, pass_dir: str) -> Plan:
    wh = state["wh"]
    items = [Item(name, _pipeline_item(wh, *fns)) for name, *fns in state["instances"]]

    def verify(values):
        out = Outcome()
        _raised(out, values, items)
        for i, v in enumerate(values):
            if isinstance(v, Exception):
                continue
            name = items[i].label
            out.checks += sum(len(r) for _, r in v["reports"])
            for stage, r in v["reports"]:
                if not r.all_pass:
                    out.mismatch(i, f"{name}/{stage}: {[x.check_id for x in r.failures()]} failed")
            (dim_h, dim_e), (rho, rho2), (f, f2), (finv, finv2) = v["dims"], v["rho"], v["f"], v["finv"]
            for ok, what in (
                (rho2 == rho, "recovered rho differs"),
                (f2 == f, "recovered cocycle differs"),
                (finv is not None and finv2 == finv, "factorization inverse differs"),
                (dim_e == dim_h, "E_dim differs from dim H"),
            ):
                if not ok:
                    out.mismatch(i, f"{name}: {what}")
            out.notes.append(f"{name} stages (raw): "
                             + " ".join(f"{stage} {sec:.3f}s" for stage, sec in v["stage_s"]))
        return out

    return Plan(items, verify)


# --------------------------------------------------------------------------
# cli: weakhopf.cli.main on the bundled corpus, in process
# --------------------------------------------------------------------------

CLI_FILES = ("pair_groupoid_smash.json", "z2_trivial_smash.json", "identities.json")
CLI_VARIANTS = (
    ("pair_q", "pair_groupoid_smash.json", [], "Q"),
    ("pair_f7", "pair_groupoid_smash.json", ["--field", "prime:7"], "F7"),
    ("z2_q", "z2_trivial_smash.json", [], None),
)
CLI_COMMANDS = ("validate", "build", "build_again", "cleft", "reconstruct", "equiv")


def cli_setup(wh, seed: int, workdir: str):
    corpus = os.path.join(workdir, "corpus")
    os.makedirs(corpus)
    package_corpus = os.path.join(os.path.dirname(wh.cli.__file__), "corpus")
    for name in CLI_FILES:
        shutil.copy(os.path.join(package_corpus, name), corpus)
    with open(os.path.join(corpus, "identities.json"), encoding="utf-8") as fh:
        keys = [k for block in json.load(fh)["contexts"].values() for k in block]
    rng = random.Random(seed)
    orders = {}
    for variant, *_ in CLI_VARIANTS:
        orders[variant] = list(keys)
        rng.shuffle(orders[variant])
    # cmd_eval --key reads identities.json from here, never from src/.
    os.environ["WEAKHOPF_CORPUS"] = corpus
    return {"wh": wh, "corpus": corpus, "keys": orders}


def _cli_call(wh, argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = wh.cli.main(argv)
        return code, buf.getvalue()

    return run


def cli_plan(state, pass_dir: str) -> Plan:
    wh = state["wh"]
    os.makedirs(pass_dir)
    items, reports, builds = [], {}, []
    for variant, fname, extra, tag in CLI_VARIANTS:
        path = os.path.join(state["corpus"], fname)
        for cmd in CLI_COMMANDS:
            report = os.path.join(pass_dir, f"{variant}.{cmd}.report.json")
            argv = [cmd.replace("_again", ""), path, "--report", report, *extra]
            if cmd.startswith("build"):
                argv += ["--out", os.path.join(pass_dir, f"{variant}.{cmd}.built.json")]
            reports[len(items)] = report
            items.append(Item(f"{variant}/{cmd}", _cli_call(wh, argv), tag))
        builds.append((len(items) - 4, variant))  # index of build_again
        for key in state["keys"][variant]:
            items.append(Item(f"{variant}/eval {key}",
                              _cli_call(wh, ["eval", "--sig", path, "--key", key, *extra]), tag))

    def verify(values):
        out = Outcome()
        _raised(out, values, items)
        for i, v in enumerate(values):
            if isinstance(v, Exception):
                continue
            code, text = v
            if code != 0:
                out.mismatch(i, f"{items[i].label}: exit {code}: {text.strip()[:200]}")
            if i in reports:
                if os.path.exists(reports[i]):  # exit 2 writes no report
                    with open(reports[i], encoding="utf-8") as fh:
                        out.checks += len(json.load(fh)["entries"])
            else:
                out.checks += 1
                if "IDENTITY: pass" not in text:
                    out.mismatch(i, f"{items[i].label}: {text.strip()[:200]}")
        for b, variant in builds:
            for kind in ("built", "report"):
                pa = os.path.join(pass_dir, f"{variant}.build.{kind}.json")
                pb = os.path.join(pass_dir, f"{variant}.build_again.{kind}.json")
                if not (os.path.exists(pa) and os.path.exists(pb)):
                    continue
                with open(pa, "rb") as fa, open(pb, "rb") as fb:
                    if fa.read() != fb.read():
                        out.mismatch(b, f"{variant}: two builds wrote different {kind} files")
        return out

    return Plan(items, verify)


WORKLOADS = {
    "universe": (universe_setup, universe_plan),
    "pipeline": (pipeline_setup, pipeline_plan),
    "cli": (cli_setup, cli_plan),
}
