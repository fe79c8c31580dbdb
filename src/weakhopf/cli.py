"""Batch front end: validate presentations, build products, run the cleft
reconstruction, check equivalences and evaluate expressions.

Exit codes: 0 when every report entry passes, 1 when a check fails, 2 on
parse/shape errors.  Reports are deterministic: the timing field is written
as 0 unless --timing is given, so identical inputs give identical bytes.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from typing import Optional

from .algebra import StructureError
from .bialgebra import (
    build_env,
    check_antipode,
    check_bialgebra_axioms,
    projection_identity_suite,
)
from .cleft import (
    FactorizationFailed,
    build_decomposition,
    cleaving_check,
    comodule_algebra_report,
    crossed_to_cleft,
    extension_check,
    full_reconstruction,
    sigma_env,
)
from .crossed import (
    HypothesisFailed,
    PreconditionFailed,
    build_crossed_product,
    build_gamma_inverse,
    check_weak_module_algebra,
    cocycle_inverse,
    cocycle_report,
    crossed_product_law_suite,
    gamma_inverse,
    invert_cocycle,
    module_algebra_suite,
    twisting,
)
from .equivalence import NotAnEquivalence, _pair_env, equivalence_from_phi, phi_from_iso
from .ir import (
    Env,
    ParseError,
    RebindingError,
    SideMismatchError,
    UnknownNameError,
    WordTypeError,
    check_identity_text,
    evaluate,
    parse_expr,
)
from .linalg import ShapeError
from .presentation import (
    PresentationError,
    PresentationFile,
    decode_presentation,
    dump_json,
    linmap_to_json,
    load_presentation,
    presentation_to_json,
    read_presentation,
    report_to_json,
    sha256_file,
)
from .report import VerdictReport

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def corpus_dir() -> str:
    override = os.environ.get("WEAKHOPF_CORPUS")
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "corpus")


def load_corpus_identities() -> dict:
    """The corpus identity contexts; the file is read again only when its
    path, mtime or size changes.  Callers must not edit the result."""
    path = os.path.join(corpus_dir(), "identities.json")
    st = os.stat(path)
    return _read_identities(path, st.st_mtime_ns, st.st_size)


@functools.lru_cache(maxsize=1)
def _read_identities(path: str, mtime_ns: int, size: int) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)["contexts"]


def _write_report(args, path: str, report: VerdictReport, pres: PresentationFile, started: float):
    millis = int((time.monotonic() - started) * 1000) if args.timing else 0
    out = report_to_json(report, pres.field, sha256_file(path), millis)
    target = args.report or (path + ".report.json")
    dump_json(out, target)
    return target


def _finish(args, path, report, pres, started) -> int:
    target = _write_report(args, path, report, pres, started)
    print(report.summary())
    for v in report.failures():
        print(f"  FAIL {v.check_id}" + (f" at (row {v.witness.row}, col {v.witness.col})" if v.witness else ""))
    print(f"report: {target}")
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def cmd_validate(args) -> int:
    started = time.monotonic()
    pres = load_presentation(args.path, args.field)
    H = pres.bialgebra()
    report = VerdictReport("validate")
    report.extend(check_bialgebra_axioms(H), prefix="axiom.")
    if H.antipode is not None:
        report.extend(check_antipode(H), prefix="antipode.")
    report.extend(projection_identity_suite(H), prefix="projection.")
    return _finish(args, args.path, report, pres, started)


def _build_product(pres: PresentationFile, args):
    m = pres.measure(getattr(args, "measure", None))
    data = pres.cocycle(m, getattr(args, "cocycle", None))
    return m, data


def cmd_build(args) -> int:
    started = time.monotonic()
    pres = load_presentation(args.path, args.field)
    m, data = _build_product(pres, args)
    report = VerdictReport("build")
    report.extend(check_weak_module_algebra(m), prefix="wma.")
    _, tw = twisting(m)
    report.extend(tw, prefix="twisting.")
    report.extend(cocycle_report(m, data), prefix="cocycle.")
    try:
        E = build_crossed_product(m, data)
    except HypothesisFailed as exc:
        report.add_fail("build." + exc.check_id, witness=exc.witness)
        _finish(args, args.path, report, pres, started)
        print(f"hypothesis failed: {exc.check_id}")
        return EXIT_CHECK_FAILED
    report.add_pass("build.completed", note=f"E_dim {E.E_dim}")
    report.extend(crossed_product_law_suite(E), prefix="law.")
    report.extend(module_algebra_suite(E), prefix="module.")
    out_path = args.out or (args.path + ".built.json")
    gens = {
        "iE": E.i,
        "pE": E.p,
        "muE": E.mu_E,
        "etaE": E.eta_E,
        "nu": E.nu,
        "jnu": E.j_nu,
        "gam": E.gamma,
        "dE": E.delta_E,
    }
    dump_json(presentation_to_json(pres.field, gens, roles={"built": {"E_dim": E.E_dim}}), out_path)
    code = _finish(args, args.path, report, pres, started)
    print(f"product: {out_path}")
    return code


def cmd_cleft(args) -> int:
    started = time.monotonic()
    pres = load_presentation(args.path, args.field)
    report = VerdictReport("cleft")
    if pres.has_role("extension") and pres.has_role("cleaving"):
        X = pres.extension()
        c = pres.cleaving()
        report.extend(comodule_algebra_report(X.comodule), prefix="comodule.")
        report.extend(extension_check(X), prefix="extension.")
        report.extend(cleaving_check(X, c), prefix="cleaving.")
    else:
        m, data = _build_product(pres, args)
        try:
            E = build_crossed_product(m, data)
        except HypothesisFailed as exc:
            report.add_fail("build." + exc.check_id, witness=exc.witness)
            return _finish(args, args.path, report, pres, started)
        finv, inv_report = invert_cocycle(m, data)
        report.extend(inv_report, prefix="inverse.")
        if finv is None:
            return _finish(args, args.path, report, pres, started)
        _, gi_report = gamma_inverse(E, finv)
        report.extend(gi_report, prefix="integral.")
    return _finish(args, args.path, report, pres, started)


def cmd_reconstruct(args) -> int:
    started = time.monotonic()
    pres = load_presentation(args.path, args.field)
    report = VerdictReport("reconstruct")
    original = None
    if pres.has_role("extension") and pres.has_role("cleaving"):
        X = pres.extension()
        c = pres.cleaving()
    else:
        m, data = _build_product(pres, args)
        original = (m.rho, data.f)
        try:
            E = build_crossed_product(m, data)
        except HypothesisFailed as exc:
            report.add_fail("build." + exc.check_id, witness=exc.witness)
            return _finish(args, args.path, report, pres, started)
        finv = cocycle_inverse(data)
        if finv is None:
            report.add_fail("inverse.cocycle_invertible", note="convolution system has no solution")
            return _finish(args, args.path, report, pres, started)
        X, c = crossed_to_cleft(E, build_gamma_inverse(E, finv))
    try:
        recon, _, _, rec_report = full_reconstruction(X, c)
    except FactorizationFailed as exc:
        report.add_fail("factorization", note=str(exc))
        return _finish(args, args.path, report, pres, started)
    report.extend(rec_report)
    if original is not None:
        report.add_equality("recovered_rho_matches", recon.rho, original[0])
        report.add_equality("recovered_f_matches", recon.f, original[1])
    return _finish(args, args.path, report, pres, started)


def cmd_equiv(args) -> int:
    started = time.monotonic()
    pres = load_presentation(args.path, args.field)
    m, data = _build_product(pres, args)
    try:
        E = build_crossed_product(m, data)
    except HypothesisFailed as exc:
        report = VerdictReport("equiv")
        report.add_fail("build." + exc.check_id, witness=exc.witness)
        return _finish(args, args.path, report, pres, started)
    phi = pres.phi(args.phi)
    Phi, report = equivalence_from_phi(E, E, phi)
    if Phi is not None:
        try:
            back = phi_from_iso(E, E, Phi)
            report.add_equality("phi_round_trip", back, phi)
        except NotAnEquivalence as exc:
            report.add_fail("phi_round_trip", note=exc.check_id)
    return _finish(args, args.path, report, pres, started)


_CONTEXT_LEVEL = {
    "bialgebra": "bialgebra",
    "hopf": "bialgebra",
    "measure": "measure",
    "cocycle": "cocycle",
    "equivalence": "crossed",
    "crossed": "crossed",
    "crossed_inverse": "crossed_inverse",
    "cleft": "cleft",
}


_LEVELS = ("raw", "bialgebra", "measure", "cocycle", "crossed", "crossed_inverse", "cleft")


def _build_rung(pres: PresentationFile, level: str, below):
    """The structures ``level`` adds, built on those of the level below by the
    library's own builders, and a function returning the level's derived
    context (None at "raw").

    The bialgebra level adds the projections, the measure level the twisting
    data, the cocycle level the unit powers, the crossed level the built
    product (plus primed/phi data when present), the inverse level the
    cocycle and integral inverses, and the cleft level the reconstruction
    maps.
    """
    if level == "raw":
        return None, lambda: None
    if level == "bialgebra":
        H = pres.bialgebra()
        return H, H.base_env
    if level == "measure":
        m = pres.measure()
        return m, m.derived_env
    if level == "cocycle":
        data = pres.cocycle(below)
        return data, data.env
    if level == "crossed":
        E = build_crossed_product(below.measure, below)
        if pres.has_role("phi"):
            return E, lambda: _pair_env(E, E, pres.phi())
        return E, E.env
    if level == "crossed_inverse":
        finv = cocycle_inverse(below.cocycle)
        if finv is None:
            raise PresentationError("the cocycle is not invertible; no inverse context")
        gaminv = build_gamma_inverse(below, finv)
        return (below, gaminv), lambda: below.env(extra={"finv": finv, "gaminv": gaminv})
    X, c = crossed_to_cleft(*below)
    return (X, c), lambda: sigma_env(X, c, build_decomposition(X, c))


class _Ladder:
    """The eval context ladder of one presentation, from "raw" up to "cleft".

    Each level is built from the level below the first time a call needs
    it, and kept: its structures (H, the measure, the cocycle data, E, the
    inverses, X) and its merged context, with the plans compiled in building
    them.  A level whose build raises is not kept: asking again raises again.
    Threads may share a ladder without a lock: two threads may build the
    same level, and each is published in one assignment.
    """

    def __init__(self, pres: PresentationFile):
        self.pres = pres
        self._rungs: dict = {}     # level -> (its structures, derived context builder)
        self._contexts: dict = {}  # level -> derived context plus the generators

    def _rung(self, level: str):
        rung = self._rungs.get(level)
        if rung is None:
            i = _LEVELS.index(level)
            below = self._rung(_LEVELS[i - 1])[0] if i else None
            rung = self._rungs[level] = _build_rung(self.pres, level, below)
        return rung

    def context(self, level: str) -> Env:
        """A new child of the level's merged context.  Checks compile in the
        child, so that their plans do not live as long as the ladder.
        Raises RebindingError when a generator clashes with a derived name."""
        env = self._contexts.get(level)
        if env is None:
            env = self._contexts[level] = self._merge(level)
        return Env(env.sig, env.field, {}, parent=env)

    def _merge(self, level: str) -> Env:
        """The ladder's one merge point: the presentation's generators join
        the level's derived context as its child.  A generator may reuse a
        derived name only when it binds the same matrix."""
        pres, derived = self.pres, self._rung(level)[1]()
        if derived is None:
            objects = {name: ob.dim for name, ob in pres.objects.items()}
            return build_env(pres.field, objects, pres.generators)
        return derived.extend(pres.generators)


@functools.lru_cache(maxsize=1)
def _ladder_of(raw: bytes, path: str, field: Optional[str]) -> _Ladder:
    """The ladder of the presentation read from ``path`` as ``raw``, kept
    while eval reads the same bytes with the same field override: a run
    checks many identities against one file, then moves on."""
    return _Ladder(decode_presentation(raw, path, field))


def _eval_env(ladder: _Ladder, level: Optional[str], texts: list) -> Env:
    """The context at the given ladder level; with no level, the lowest
    context in which every name of ``texts`` resolves."""
    if level is not None:
        return ladder.context(level)
    err = None
    for lv in _LEVELS:
        try:
            env = ladder.context(lv)
        except PresentationError:
            break  # the presentation supports no higher level
        try:
            for text in texts:
                parse_expr(text, env.sig)
        except UnknownNameError as exc:
            err = exc
            continue
        return env
    raise err if err is not None else PresentationError("no usable context")


def cmd_eval(args) -> int:
    ladder = _ladder_of(read_presentation(args.sig), args.sig, args.field)
    level = None
    if args.key:
        contexts = load_corpus_identities()
        found = None
        for context, block in contexts.items():
            if args.key in block:
                found = block[args.key]
                level = _CONTEXT_LEVEL.get(context, "raw")
                break
        if found is None:
            print(f"unknown corpus identity {args.key!r}", file=sys.stderr)
            return EXIT_BAD_INPUT
        lhs, rhs = found["lhs"], found["rhs"]
    else:
        lhs, rhs = args.lhs, args.rhs
    try:
        env = _eval_env(ladder, level, [text for text in (lhs, rhs, args.expr) if text])
    except RebindingError as exc:
        raise PresentationError(
            f"generator {exc.name!r} differs from the derived map of that name"
        ) from None
    if lhs and rhs:
        verdict = check_identity_text(lhs, rhs, env)
        if verdict.passed:
            print("IDENTITY: pass")
            return EXIT_OK
        w, field = verdict.witness, ladder.pres.field
        print(
            f"IDENTITY: fail at (row {w.row}, col {w.col}):"
            f" {field.format(w.lhs)} != {field.format(w.rhs)}"
        )
        return EXIT_CHECK_FAILED
    m = evaluate(parse_expr(args.expr, env.sig), env)
    print(json.dumps(linmap_to_json(m), indent=2))
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="weakhopf",
        description="exact verification of weak bialgebra, crossed product and cleft extension laws",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_path=True):
        if with_path:
            p.add_argument("path", help="presentation file (JSON)")
        p.add_argument("--field", help="override the field: rational | prime:P")
        p.add_argument("--report", help="report output path")
        p.add_argument("--timing", action="store_true", help="record real timing in the report")

    p = sub.add_parser("validate", help="check bialgebra/antipode/projection laws")
    common(p)

    p = sub.add_parser("build", help="build the crossed product and run its law suites")
    common(p)
    p.add_argument("--measure", help="generator name of the measure (default from roles)")
    p.add_argument("--cocycle", help="generator name of the cocycle (default from roles)")
    p.add_argument("--out", help="output path for the built product")

    p = sub.add_parser("cleft", help="verify cleftness (of a file or of a built product)")
    common(p)
    p.add_argument("--measure", help="generator name of the measure")
    p.add_argument("--cocycle", help="generator name of the cocycle")

    p = sub.add_parser("reconstruct", help="recover measure and cocycle from cleft data")
    common(p)
    p.add_argument("--measure", help="generator name of the measure")
    p.add_argument("--cocycle", help="generator name of the cocycle")

    p = sub.add_parser("equiv", help="check an equivalence datum phi")
    common(p)
    p.add_argument("--measure", help="generator name of the measure")
    p.add_argument("--cocycle", help="generator name of the cocycle")
    p.add_argument("--phi", help="generator name of phi (default from roles)")

    p = sub.add_parser("eval", help="evaluate an expression or check an identity")
    p.add_argument("--sig", required=True, help="presentation file supplying the generators")
    p.add_argument("--expr", help="expression to evaluate")
    p.add_argument("--lhs", help="left side of an identity")
    p.add_argument("--rhs", help="right side of an identity")
    p.add_argument("--key", help="corpus identity id to check")
    p.add_argument("--field", help="override the field: rational | prime:P")
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    # Looked up per call, not bound into the cached parser, so that a
    # wrapper installed on a command later (say, by a tracer) still runs.
    command = globals()["cmd_" + args.command]
    try:
        return command(args)
    except (PresentationError, ParseError, UnknownNameError, WordTypeError,
            SideMismatchError, ShapeError, StructureError, NotAnEquivalence,
            FactorizationFailed, PreconditionFailed, HypothesisFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
