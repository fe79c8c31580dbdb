"""Batch front end: validate presentations, build products, run the cleft
reconstruction, check equivalences and evaluate expressions.

Exit codes: 0 when every report entry passes, 1 when a check fails, 2 on
parse/shape errors.  Reports are deterministic: the timing field is written
as 0 unless --timing is given, so identical inputs give identical bytes.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
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
    cleaving_check,
    comodule_algebra_report,
    crossed_to_cleft,
    extension_check,
    full_reconstruction,
)
from .crossed import (
    HypothesisFailed,
    PreconditionFailed,
    build_crossed_product,
    check_weak_module_algebra,
    cocycle_report,
    crossed_product_law_suite,
    gamma_inverse,
    invert_cocycle,
    module_algebra_suite,
    twisting,
)
from .equivalence import NotAnEquivalence, ProductPair, equivalence_from_phi, phi_from_iso
from .identities import identity_corpus
from .ir import (
    Env,
    RebindingError,
    SideMismatchError,
    WordTypeError,
    check_identity_text,
    evaluate,
)
from .linalg import ShapeError
from .presentation import (
    PresentationError,
    PresentationFile,
    decode_presentation,
    dump_json,
    linmap_to_json,
    presentation_to_json,
    read_presentation,
    report_to_json,
)
from .report import VerdictReport
from .syntax import ParseError, UnknownNameError, parse_expr

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


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


class _NoInverse(PresentationError):
    """The cocycle has no convolution inverse, so no level above "crossed"."""


class _Ladder:
    """The structures and eval contexts of one presentation, from "raw" up to
    "cleft": the one place the command line builds anything.

    Each level above "raw" is the library's structure at that rung, built by
    its own builder from the level below the first time a command needs it,
    and kept with its merged eval context and the values kept in
    building them; E's integral inverse keeps its verdicts too, and a
    declared cleft extension is the cleft level.  A level whose build raises
    is not kept: asking again raises again.  Threads may share a ladder
    without a lock: each level and each context is published in one
    assignment.
    """

    def __init__(self, pres: PresentationFile, measure: Optional[str] = None,
                 cocycle: Optional[str] = None):
        self.pres = pres
        self.measure_name, self.cocycle_name = measure, cocycle  # from --measure, --cocycle
        self._contexts: dict = {}  # level -> its derived context plus the generators

    @functools.cached_property
    def bialgebra(self):
        return self.pres.bialgebra()

    @functools.cached_property
    def measure(self):
        return self.pres.measure(self.bialgebra, self.measure_name)

    @functools.cached_property
    def cocycle(self):
        return self.pres.cocycle(self.measure, self.cocycle_name)

    @functools.cached_property
    def crossed(self):
        return build_crossed_product(self.measure, self.cocycle)

    @functools.cached_property
    def crossed_inverse(self) -> tuple:
        """(gaminv, report): the integral's convolution inverse and its
        verdicts, built on the crossed product from the cocycle's inverse."""
        E = self.crossed
        if E.cocycle.inverse is None:
            raise _NoInverse("the cocycle is not invertible; no inverse context")
        return gamma_inverse(E, E.cocycle.inverse)

    @functools.cached_property
    def declared_cleft(self) -> Optional[tuple]:
        """(X, c): the cleft extension and cleaving the file declares, over
        the ladder's H; None when it declares none."""
        pres = self.pres
        if not (pres.has_role("extension") and pres.has_role("cleaving")):
            return None
        X = pres.extension(self.bialgebra)
        return X, pres.cleaving(X)

    @functools.cached_property
    def cleft(self) -> tuple:
        """(X, c): the declared cleft extension, else E viewed as one."""
        return self.declared_cleft or crossed_to_cleft(self.crossed, self.crossed_inverse[0])

    def _derived(self, level: str) -> Optional[Env]:
        """The kept context of the level's structure; None at "raw".  The
        crossed level is the context of the pair (E, E) plus phi when the
        file declares phi, the inverse level adds finv and gaminv, and the
        cleft level is the cleaving's decomposition's context with sigma and
        its inverse."""
        if level == "raw":
            return None
        if level == "bialgebra":
            return self.bialgebra.base_env()
        if level == "crossed" and self.pres.has_role("phi"):
            return ProductPair(self.crossed, self.crossed).with_phi(self.pres.phi())
        if level == "crossed_inverse":
            E = self.crossed
            return E.context.child({"finv": E.cocycle.inverse, "gaminv": self.crossed_inverse[0]})
        if level == "cleft":
            return self.cleft[1].decomposition.sigma_context
        return getattr(self, level).context

    def context(self, level: str) -> Env:
        """A new child of the level's merged context.  Checks run in the
        child, so that the values they keep do not live as long as the ladder.
        Raises RebindingError when a generator clashes with a derived name."""
        env = self._contexts.get(level)
        if env is None:
            env = self._contexts[level] = self._merge(level)
        return env.child()

    def _merge(self, level: str) -> Env:
        """The ladder's one merge point: the presentation's generators join
        the level's derived context as its child.  A generator may reuse a
        derived name only when it binds the same matrix."""
        pres, derived = self.pres, self._derived(level)
        if derived is None:
            objects = {name: ob.dim for name, ob in pres.objects.items()}
            return build_env(pres.field, objects, pres.generators)
        return derived.child(pres.generators)


@functools.lru_cache(maxsize=1)
def _ladder_of(raw: bytes, path: str, field: Optional[str], measure: Optional[str],
               cocycle: Optional[str]) -> _Ladder:
    """The ladder of the presentation read from ``path`` as ``raw``, kept
    while commands read the same bytes with the same --field, --measure and
    --cocycle: a run checks many things against one file, then moves on."""
    return _Ladder(decode_presentation(raw, path, field), measure, cocycle)


def _read(args, path: str) -> tuple:
    """The bytes of ``path`` and the ladder of what they hold."""
    raw = read_presentation(path)
    ladder = _ladder_of(raw, path, args.field, getattr(args, "measure", None),
                        getattr(args, "cocycle", None))
    return raw, ladder


def _default_output(path: str, suffix: str) -> str:
    """Where an output goes without ``--report``/``--out``: the working
    directory, under the input's base name, so that a run on a bundled file
    writes nothing into the package."""
    return os.path.basename(path) + suffix


class _Run:
    """One report command: its file read once, the ladder of what it read,
    and the report written at the end."""

    def __init__(self, args, title: str):
        self.args, self.started = args, time.monotonic()
        self.raw, self.ladder = _read(args, args.path)
        self.report = VerdictReport(title)

    def level(self, level: str):
        """The structure of a ladder level, or None when a build hypothesis
        fails or the cocycle has no inverse; the report records which."""
        try:
            return getattr(self.ladder, level)
        except HypothesisFailed as exc:
            self.report.add_fail("build." + exc.check_id, witness=exc.witness)
        except _NoInverse:
            self.report.add_fail("inverse.cocycle_invertible",
                                 note="convolution system has no solution")
        return None

    def finish(self) -> int:
        """Write the report, print its summary and return the exit code."""
        args, report = self.args, self.report
        millis = int((time.monotonic() - self.started) * 1000) if args.timing else 0
        digest = hashlib.sha256(self.raw).hexdigest()
        target = args.report or _default_output(args.path, ".report.json")
        dump_json(report_to_json(report, self.ladder.pres.field, digest, millis), target)
        print(report.summary())
        for v in report.failures():
            print(f"  FAIL {v.check_id}" + (f" at (row {v.witness.row}, col {v.witness.col})" if v.witness else ""))
        print(f"report: {target}")
        return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def cmd_validate(args) -> int:
    run = _Run(args, "validate")
    report, H = run.report, run.ladder.bialgebra
    report.extend(check_bialgebra_axioms(H), prefix="axiom.")
    if H.antipode is not None:
        report.extend(check_antipode(H), prefix="antipode.")
    report.extend(projection_identity_suite(H), prefix="projection.")
    return run.finish()


def cmd_build(args) -> int:
    run = _Run(args, "build")
    report, data = run.report, run.ladder.cocycle
    m = data.measure
    report.extend(check_weak_module_algebra(m), prefix="wma.")
    report.extend(twisting(m)[1], prefix="twisting.")
    report.extend(cocycle_report(m, data), prefix="cocycle.")
    E = run.level("crossed")
    if E is None:
        code = run.finish()
        print(f"hypothesis failed: {next(reversed(report)).check_id.removeprefix('build.')}")
        return code
    report.add_pass("build.completed", note=f"E_dim {E.E_dim}")
    report.extend(crossed_product_law_suite(E), prefix="law.")
    report.extend(module_algebra_suite(E), prefix="module.")
    out_path = args.out or _default_output(args.path, ".built.json")
    gens = dict(iE=E.i, pE=E.p, muE=E.mu_E, etaE=E.eta_E, nu=E.nu, jnu=E.j_nu, gam=E.gamma,
                dE=E.delta_E)
    field = run.ladder.pres.field
    dump_json(presentation_to_json(field, gens, roles={"built": {"E_dim": E.E_dim}}), out_path)
    code = run.finish()
    print(f"product: {out_path}")
    return code


def cmd_cleft(args) -> int:
    run = _Run(args, "cleft")
    report, declared = run.report, run.ladder.declared_cleft
    if declared is not None:
        X, c = declared
        report.extend(comodule_algebra_report(X.comodule), prefix="comodule.")
        report.extend(extension_check(X), prefix="extension.")
        report.extend(cleaving_check(X, c), prefix="cleaving.")
        return run.finish()
    integral = run.level("crossed_inverse")
    if integral is not None:
        E = run.ladder.crossed
        report.extend(invert_cocycle(E.measure, E.cocycle)[1], prefix="inverse.")
        report.extend(integral[1], prefix="integral.")
    return run.finish()


def cmd_reconstruct(args) -> int:
    run = _Run(args, "reconstruct")
    report, cleft = run.report, run.level("cleft")
    if cleft is None:
        return run.finish()
    try:
        recon, _, _, rec_report = full_reconstruction(*cleft)
    except FactorizationFailed as exc:
        report.add_fail("factorization", note=str(exc))
        return run.finish()
    report.extend(rec_report)
    if run.ladder.declared_cleft is None:
        E = run.ladder.crossed
        report.add_equality("recovered_rho_matches", recon.rho, E.measure.rho)
        report.add_equality("recovered_f_matches", recon.f, E.cocycle.f)
    return run.finish()


def cmd_equiv(args) -> int:
    run = _Run(args, "equiv")
    E = run.level("crossed")
    if E is not None:
        phi = run.ladder.pres.phi(args.phi)
        Phi, run.report = equivalence_from_phi(E, E, phi)
        if Phi is not None:
            try:
                back = phi_from_iso(E, E, Phi)
                run.report.add_equality("phi_round_trip", back, phi)
            except NotAnEquivalence as exc:
                run.report.add_fail("phi_round_trip", note=exc.check_id)
    return run.finish()


@functools.cache
def _corpus_keys() -> dict:
    """Each corpus identity id -> (its ladder level, lhs, rhs).  An id that
    sits in two contexts takes the first."""
    keys: dict = {}
    for context, block in identity_corpus().items():
        for key, row in block.items():
            keys.setdefault(key, (_CONTEXT_LEVEL[context], row["lhs"], row["rhs"]))
    return keys


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
            continue  # the presentation declares no structure at this level
        try:
            for text in texts:
                parse_expr(text, env.sig)
        except UnknownNameError as exc:
            err = exc
            continue
        return env
    raise err if err is not None else PresentationError("no usable context")


def cmd_eval(args) -> int:
    given = [name for name in ("key", "expr", "lhs", "rhs") if getattr(args, name) is not None]
    if given not in (["key"], ["expr"], ["lhs", "rhs"]):
        print("error: give exactly one of --key, --expr, or --lhs with --rhs", file=sys.stderr)
        return EXIT_BAD_INPUT
    ladder = _read(args, args.sig)[1]
    level = None
    if args.key is not None:
        if args.key not in _corpus_keys():
            print(f"error: unknown corpus identity {args.key!r}", file=sys.stderr)
            return EXIT_BAD_INPUT
        level, lhs, rhs = _corpus_keys()[args.key]
    else:
        lhs, rhs = args.lhs, args.rhs
    try:
        env = _eval_env(ladder, level, [text for text in (lhs, rhs, args.expr) if text])
    except RebindingError as exc:
        raise PresentationError(
            f"generator {exc.name!r} differs from the derived map of that name"
        ) from None
    if args.expr is None:
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

    def common(p):
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
