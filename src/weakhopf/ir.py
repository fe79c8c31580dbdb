"""A term language for morphisms in a strict symmetric monoidal category.

Grammar (ASCII, whitespace insignificant)::

    expr   := term (";" term)*
    term   := factor ("*" factor)*
    factor := IDENT | "id(" word ")" | "swap(" word "," word ")" | "(" expr ")"
    word   := IDENT ("," IDENT)*
    IDENT  := [A-Za-z_][A-Za-z0-9_]*

``f ; g`` means f first (diagrams read top to bottom), i.e. the composite
g . f.  In ``swap(...)`` the first word is the single identifier before the
first comma; larger left blocks are written as composites of such swaps.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .fields import Field
from .linalg import LinMap, Obj, Word, wdim
from .report import Verdict, VerdictReport, Witness


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class UnknownNameError(ValueError):
    pass


class WordTypeError(TypeError):
    def __init__(self, expected, found, path: str):
        super().__init__(
            f"type mismatch at {path}: expected {','.join(expected) or 'K'},"
            f" found {','.join(found) or 'K'}"
        )
        self.expected = expected
        self.found = found
        self.path = path


class SideMismatchError(TypeError):
    pass


class RebindingError(ValueError):
    def __init__(self, name: str):
        super().__init__(f"generator {name!r} is already bound to a different matrix")
        self.name = name


# --------------------------------------------------------------------------
# Signature and AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    """Declared objects (name -> dimension) and typed generator names."""

    objects: dict  # name -> dim
    generators: dict  # name -> (dom: tuple[str], cod: tuple[str])

    def __post_init__(self):
        clash = set(self.objects) & set(self.generators)
        if clash:
            raise ValueError(f"names used both as object and generator: {sorted(clash)}")
        for gname, (dom, cod) in self.generators.items():
            for ob in (*dom, *cod):
                if ob not in self.objects:
                    raise UnknownNameError(f"generator {gname} uses undeclared object {ob}")

    def word_of(self, names) -> Word:
        return tuple(Obj(n, self.objects[n]) for n in names)

    @classmethod
    def of_bindings(cls, objects: dict, bindings: dict, generators: Optional[dict] = None) -> "Signature":
        """``objects`` (name -> dim) and ``generators`` (name -> (dom, cod))
        plus the generator types and objects read off name -> LinMap
        bindings."""
        objects = dict(objects)
        gens = dict(generators or {})
        for name, m in bindings.items():
            gens[name] = (tuple(ob.name for ob in m.dom), tuple(ob.name for ob in m.cod))
            for ob in (*m.dom, *m.cod):
                objects.setdefault(ob.name, ob.dim)
        return cls(objects=objects, generators=gens)


@dataclass(frozen=True)
class Gen:
    name: str


@dataclass(frozen=True)
class Id:
    word: tuple  # tuple[str, ...]


@dataclass(frozen=True)
class SwapE:
    left: tuple
    right: tuple


@dataclass(frozen=True)
class Seq:
    first: "MorExpr"
    then: "MorExpr"


@dataclass(frozen=True)
class Par:
    left: "MorExpr"
    right: "MorExpr"


MorExpr = Union[Gen, Id, SwapE, Seq, Par]


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list[tuple[str, str, int, int]] = []
        self._scan()
        self.index = 0

    def _scan(self):
        text = self.text
        i = 0
        line, col = 1, 1
        n = len(text)
        while i < n:
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch.isspace():
                i += 1
                col += 1
                continue
            if ch.isalpha() or ch == "_":
                start = i
                scol = col
                while i < n and (text[i].isalnum() or text[i] == "_"):
                    i += 1
                    col += 1
                self.tokens.append(("ident", text[start:i], line, scol))
                continue
            if ch in ";*(),":
                self.tokens.append((ch, ch, line, col))
                i += 1
                col += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", line, col)
        self.tokens.append(("eof", "", line, col))

    def peek(self):
        return self.tokens[self.index]

    def next(self):
        tok = self.tokens[self.index]
        if tok[0] != "eof":
            self.index += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1] or 'end of input'!r}", tok[2], tok[3])
        return self.next()


# text -> (AST, generator names, object names) of every text parsed so far.
# A full memo is emptied, not grown.
_PARSED: dict = {}
_PARSED_MAX = 4096


def parse_expr(text: str, sig: Signature) -> MorExpr:
    """Parse the grammar above, checking all names against the signature.

    Each text is parsed once: a later call returns the same AST once the
    names it uses are checked against ``sig``.  A text that fails to parse,
    or names one that ``sig`` lacks, goes through the parser again, so the
    error and its position are always the parser's own.
    """
    hit = _PARSED.get(text)
    if hit is not None and sig.generators.keys() >= hit[1] and sig.objects.keys() >= hit[2]:
        return hit[0]
    tz = _Tokenizer(text)
    expr = _parse_seq(tz, sig)
    tok = tz.peek()
    if tok[0] != "eof":
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])
    gens, objs = set(), set()
    _collect_names(expr, gens, objs)
    if len(_PARSED) >= _PARSED_MAX:
        _PARSED.clear()
    _PARSED[text] = (expr, frozenset(gens), frozenset(objs))
    return expr


def _collect_names(e: MorExpr, gens: set, objs: set) -> None:
    if isinstance(e, Seq):
        _collect_names(e.first, gens, objs)
        _collect_names(e.then, gens, objs)
    elif isinstance(e, Par):
        _collect_names(e.left, gens, objs)
        _collect_names(e.right, gens, objs)
    elif isinstance(e, Gen):
        gens.add(e.name)
    elif isinstance(e, Id):
        objs.update(e.word)
    else:
        objs.update(e.left + e.right)


def _parse_seq(tz: _Tokenizer, sig: Signature) -> MorExpr:
    e = _parse_term(tz, sig)
    while tz.peek()[0] == ";":
        tz.next()
        e = Seq(e, _parse_term(tz, sig))
    return e


def _parse_term(tz: _Tokenizer, sig: Signature) -> MorExpr:
    e = _parse_factor(tz, sig)
    while tz.peek()[0] == "*":
        tz.next()
        e = Par(e, _parse_factor(tz, sig))
    return e


def _parse_word(tz: _Tokenizer, sig: Signature) -> tuple:
    names = []
    while True:
        tok = tz.expect("ident")
        if tok[1] not in sig.objects:
            raise UnknownNameError(f"unknown object {tok[1]!r} (line {tok[2]}, col {tok[3]})")
        names.append(tok[1])
        if tz.peek()[0] == ",":
            tz.next()
            continue
        return tuple(names)


def _parse_factor(tz: _Tokenizer, sig: Signature) -> MorExpr:
    tok = tz.peek()
    if tok[0] == "(":
        tz.next()
        inner = _parse_seq(tz, sig)
        tz.expect(")")
        return inner
    if tok[0] != "ident":
        raise ParseError(f"expected a name, found {tok[1] or 'end of input'!r}", tok[2], tok[3])
    name = tok[1]
    if name == "id":
        tz.next()
        tz.expect("(")
        w = _parse_word(tz, sig)
        tz.expect(")")
        return Id(w)
    if name == "swap":
        tz.next()
        tz.expect("(")
        first = tz.expect("ident")
        if first[1] not in sig.objects:
            raise UnknownNameError(f"unknown object {first[1]!r} (line {first[2]}, col {first[3]})")
        tz.expect(",")
        right = _parse_word(tz, sig)
        tz.expect(")")
        return SwapE((first[1],), right)
    tz.next()
    if name not in sig.generators:
        raise UnknownNameError(f"unknown generator {name!r} (line {tok[2]}, col {tok[3]})")
    return Gen(name)


def pretty(e: MorExpr) -> str:
    """Print an AST back into the grammar; parse(pretty(e)) == e."""
    if isinstance(e, Gen):
        return e.name
    if isinstance(e, Id):
        return f"id({','.join(e.word)})"
    if isinstance(e, SwapE):
        return f"swap({','.join(e.left)},{','.join(e.right)})"
    if isinstance(e, Par):
        left = pretty(e.left)
        right = pretty(e.right)
        if isinstance(e.left, Seq):
            left = f"({left})"
        if isinstance(e.right, (Seq, Par)):
            right = f"({right})"
        return f"{left} * {right}"
    if isinstance(e, Seq):
        first = pretty(e.first)
        then = pretty(e.then)
        if isinstance(e.then, Seq):
            then = f"({then})"
        return f"{first} ; {then}"
    raise TypeError(f"not a MorExpr: {e!r}")


# --------------------------------------------------------------------------
# Typing
# --------------------------------------------------------------------------

_KEYS = itertools.count()


def infer_type(e: MorExpr, sig: Signature) -> tuple[tuple, tuple]:
    """Infer (dom, cod) as tuples of object names, or raise WordTypeError."""
    return _typed(e, sig, {}, {})[1:3]


def _typed(e: MorExpr, sig: Signature, types: dict, keys: dict, path: str = "") -> tuple:
    """Type e once per ``types`` (keyed by node id, holding the node): (key,
    dom, cod, dom dim, cod dim, dims of the right factor of dom and cod for
    Par and SwapE).  ``keys`` maps each distinct structure to that tuple,
    whose key is an int drawn once from ``_KEYS``, so a repeated structure is
    typed only once and no two structures share a key, across Envs and
    threads alike."""
    hit = types.get(id(e))
    if hit is not None:
        return hit[1]
    if isinstance(e, Seq):
        t1 = _typed(e.first, sig, types, keys, path + ".first")
        t2 = _typed(e.then, sig, types, keys, path + ".then")
        struct = (Seq, t1[0], t2[0])
    elif isinstance(e, Par):
        t1 = _typed(e.left, sig, types, keys, path + ".left")
        t2 = _typed(e.right, sig, types, keys, path + ".right")
        struct = (Par, t1[0], t2[0])
    elif isinstance(e, (Gen, Id, SwapE)):
        struct = e
    else:
        raise TypeError(f"not a MorExpr: {e!r}")
    typed = keys.get(struct)
    if typed is None:
        right = None
        if isinstance(e, Seq):
            if t1[2] != t2[1]:
                raise WordTypeError(expected=t1[2], found=t2[1], path=path or ".")
            dom, cod, ddim, cdim = t1[1], t2[2], t1[3], t2[4]
        elif isinstance(e, Par):
            dom, cod = t1[1] + t2[1], t1[2] + t2[2]
            ddim, cdim, right = t1[3] * t2[3], t1[4] * t2[4], t2[3:5]
        else:
            if isinstance(e, Gen):
                if e.name not in sig.generators:
                    raise UnknownNameError(f"unknown generator {e.name!r}")
                dom, cod = sig.generators[e.name]
            elif isinstance(e, Id):
                dom = cod = e.word
            else:
                dom, cod = e.left + e.right, e.right + e.left
                right = (wdim(sig.word_of(e.right)), wdim(sig.word_of(e.left)))
            ddim, cdim = wdim(sig.word_of(dom)), wdim(sig.word_of(cod))
        typed = keys[struct] = (next(_KEYS), dom, cod, ddim, cdim, right)
    types[id(e)] = (e, typed)
    return typed


# --------------------------------------------------------------------------
# Environment and evaluation
# --------------------------------------------------------------------------

class Env:
    """A signature together with a matrix for every generator.

    Each node is typed once per environment, and each distinct structure
    (interned by ``_typed``) is compiled once per environment into a plan
    (see ``_plan``): its columns as sparse integer dicts over one
    denominator, filled on first use.  Structurally equal subexpressions
    are therefore propagated only once across a whole table.  ``extend``
    makes a child context that keeps what its parent has typed and compiled.

    Threads may share an Env without a lock: two threads that type or
    compile the same structure at once each get a correct entry, and the
    later one is kept; a key is never reused, and a column is published only
    when it is complete.
    """

    def __init__(self, sig: Signature, field: Field, bindings: dict, parent: Optional["Env"] = None):
        """``parent`` is set by ``extend``: its bindings, checked when it was
        built, come first, and its caches are the snapshot."""
        self.sig = sig
        self.field = field
        if parent is None:
            self.bindings = dict(bindings)
            self._plans: dict = {}
            self._types: dict = {}
            self._keys: dict = {}
        else:
            self.bindings = {**parent.bindings, **bindings}
            self._plans = parent._plans.copy()
            self._types = parent._types.copy()
            self._keys = parent._keys.copy()
        missing = set(sig.generators) - set(self.bindings)
        if missing:
            raise UnknownNameError(f"unbound generators: {sorted(missing)}")
        for name, m in bindings.items():
            if name not in sig.generators:
                raise UnknownNameError(f"binding for undeclared generator {name!r}")
            dom, cod = sig.generators[name]
            if m.dom != sig.word_of(dom) or m.cod != sig.word_of(cod):
                raise WordTypeError(expected=dom + ("->",) + cod,
                                    found=tuple(o.name for o in m.dom) + ("->",)
                                    + tuple(o.name for o in m.cod),
                                    path=name)
            if m.field != field:
                raise ValueError(f"generator {name!r} bound over the wrong field")

    def extend(self, bindings: dict) -> "Env":
        """A child context: this signature and these bindings plus the new
        names, whose types and objects are read off their matrices.

        The child starts from a snapshot of the nodes typed, structures
        interned and plans compiled here; what it adds later stays its own,
        so this Env never sees the child's names or plans.  A name already
        bound to the same matrix is skipped, and to a different one raises
        RebindingError; with no new name the result is this Env itself.
        """
        new = {}
        for name, m in bindings.items():
            old = self.bindings.get(name)
            if old is None:
                new[name] = m
            elif old is not m and old != m:
                raise RebindingError(name)
        if not new:
            return self
        sig = Signature.of_bindings(self.sig.objects, new, self.sig.generators)
        return Env(sig, self.field, new, parent=self)


def _plan(e: MorExpr, env: Env) -> tuple:
    """The plan of e's structure, compiled once per Env: (columns, column
    function, scale).  Column j is a dict {row: n} without zeros, and the
    matrix entry is n / scale; over F_p the scale is 1 and n is a residue.
    A column is computed by the column function on first use and then read
    from the list, so a memo hit is one list index.  The functions refer to
    their children's lists and functions, never to the Env."""
    key, _, _, ncols, _, right = env._types[id(e)][1]
    plan = env._plans.get(key)
    if plan is not None:
        return plan
    p = env.field.modulus
    cols = [None] * ncols
    if isinstance(e, Gen):
        nz = env.bindings[e.name].col_nonzeros()
        ns, scale = env.field.to_ints([v for col in nz for _, v in col])
        flat = iter(ns)  # zip reads col first, so flat is never over-read
        cols[:] = [{i: n for (i, _), n in zip(col, flat) if n} for col in nz]
        fn = cols.__getitem__  # every column is already filled
    elif isinstance(e, Id):
        scale = 1

        def fn(j):
            c = cols[j] = {j: 1}
            return c
    elif isinstance(e, SwapE):
        scale = 1
        dr, dl = right

        def fn(j):
            i1, i2 = divmod(j, dr)
            c = cols[j] = {i2 * dl + i1: 1}
            return c
    elif isinstance(e, Seq):
        fcols, ffn, fscale = _plan(e.first, env)
        tcols, tfn, tscale = _plan(e.then, env)
        scale = fscale * tscale

        def fn(j):
            a = fcols[j]
            if a is None:
                a = ffn(j)
            if len(a) == 1:  # one term, nothing to accumulate
                [(k, v)] = a.items()
                b = tcols[k]
                if b is None:
                    b = tfn(k)
                if v != 1:
                    b = {i: v * w % p if p else v * w for i, w in b.items()}
                cols[j] = b
                return b
            acc = {}
            get = acc.get
            for k, v in a.items():
                b = tcols[k]
                if b is None:
                    b = tfn(k)
                for i, w in b.items():
                    acc[i] = get(i, 0) + v * w
            if p:
                for i in acc:
                    acc[i] %= p
            c = cols[j] = {i: x for i, x in acc.items() if x}
            return c
    else:
        lcols, lfn, lscale = _plan(e.left, env)
        rcols, rfn, rscale = _plan(e.right, env)
        scale = lscale * rscale
        dr, cr = right

        def fn(j):
            j1, j2 = divmod(j, dr)
            a = lcols[j1]
            if a is None:
                a = lfn(j1)
            b = rcols[j2]
            if b is None:
                b = rfn(j2)
            c = {}  # published only when complete: Envs are shared by threads
            for i1, v1 in a.items():
                base = i1 * cr
                if p:
                    for i2, v2 in b.items():
                        c[base + i2] = v1 * v2 % p
                else:
                    for i2, v2 in b.items():
                        c[base + i2] = v1 * v2
            cols[j] = c
            return c
    plan = env._plans[key] = (cols, fn, scale)
    return plan


def evaluate(e: MorExpr, env: Env) -> LinMap:
    """Compile an expression to its matrix.

    Structural recursion: Seq composes (first operand applied first), Par is
    the Kronecker product, Swap the block permutation.  The columns are
    propagated as sparse integer dicts: over Q with one denominator per
    structure (the product of its generators' denominators), over F_p as
    residues reduced mod p.  Large intermediate Kronecker products are never
    materialized, and scalars of the field are built only here, at the end.
    """
    _, dom_names, cod_names, ncols, nrows, _ = _typed(e, env.sig, env._types, env._keys)
    cols, fn, scale = _plan(e, env)
    field = env.field
    conv = field.from_int
    z = field.zero
    rows = [[z] * ncols for _ in range(nrows)]
    for j in range(ncols):
        c = cols[j]
        if c is None:
            c = fn(j)
        for i, n in c.items():
            rows[i][j] = conv(n, scale)
    return LinMap(field, env.sig.word_of(dom_names), env.sig.word_of(cod_names), rows)


def check_identity(lhs: MorExpr, rhs: MorExpr, env: Env, check_id: str = "identity") -> Verdict:
    """Compare both sides column by column on their integer plans: dict
    equality when their scales agree, cross-multiplied entries when they
    differ.  Only on a mismatch are both sides evaluated; the witness is the
    first differing (row, col) of the two matrices, with both scalars."""
    tl = _typed(lhs, env.sig, env._types, env._keys)
    tr = _typed(rhs, env.sig, env._types, env._keys)
    if tl[1:3] != tr[1:3]:
        raise SideMismatchError(f"sides have different types: {tl[1:3]} vs {tr[1:3]}")
    lcols, lfn, lscale = _plan(lhs, env)
    rcols, rfn, rscale = _plan(rhs, env)
    same_scale = lscale == rscale
    for j in range(tl[3]):
        a = lcols[j]
        if a is None:
            a = lfn(j)
        b = rcols[j]
        if b is None:
            b = rfn(j)
        if same_scale:
            if a != b:
                break
        elif a.keys() != b.keys() or any(n * rscale != b[i] * lscale for i, n in a.items()):
            break
    else:
        return Verdict(check_id, "pass")
    r, c, x, y = evaluate(lhs, env).first_difference(evaluate(rhs, env))
    return Verdict(check_id, "fail", witness=Witness(r, c, x, y))


def check_identity_text(lhs: str, rhs: str, env: Env, check_id: str = "identity") -> Verdict:
    return check_identity(parse_expr(lhs, env.sig), parse_expr(rhs, env.sig), env, check_id)


def run_identity_table(
    table, env: Env, report: Optional[VerdictReport] = None, skip_missing: bool = False
) -> VerdictReport:
    """Run (check_id, lhs, rhs) triples against an environment.

    With skip_missing, identities mentioning unbound generator names are
    reported as skipped instead of raising.
    """
    if report is None:
        report = VerdictReport()
    for check_id, lhs, rhs in table:
        try:
            le = parse_expr(lhs, env.sig)
            re_ = parse_expr(rhs, env.sig)
        except UnknownNameError as exc:
            if skip_missing:
                report.add_skipped(check_id, note=str(exc))
                continue
            raise
        report.add(check_identity(le, re_, env, check_id))
    return report
