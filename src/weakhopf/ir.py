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


def parse_expr(text: str, sig: Signature) -> MorExpr:
    """Parse the grammar above, checking all names against the signature."""
    tz = _Tokenizer(text)
    expr = _parse_seq(tz, sig)
    tok = tz.peek()
    if tok[0] != "eof":
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])
    return expr


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

def infer_type(e: MorExpr, sig: Signature) -> tuple[tuple, tuple]:
    """Infer (dom, cod) as tuples of object names, or raise WordTypeError."""
    return _typed(e, sig, {}, {})[1:3]


def _typed(e: MorExpr, sig: Signature, types: dict, keys: dict, path: str = "") -> tuple:
    """Type e once per ``types`` (keyed by node id, holding the node): (key,
    dom, cod, dom dim, cod dim, dims of the right factor of dom and cod for
    Par and SwapE).  ``keys`` interns each distinct structure as a small int."""
    hit = types.get(id(e))
    if hit is not None:
        return hit[1]
    struct, right = e, None
    if isinstance(e, Gen):
        if e.name not in sig.generators:
            raise UnknownNameError(f"unknown generator {e.name!r}")
        dom, cod = sig.generators[e.name]
    elif isinstance(e, Id):
        dom = cod = e.word
    elif isinstance(e, SwapE):
        dom, cod = e.left + e.right, e.right + e.left
        right = (wdim(sig.word_of(e.right)), wdim(sig.word_of(e.left)))
    elif isinstance(e, Seq):
        t1 = _typed(e.first, sig, types, keys, path + ".first")
        t2 = _typed(e.then, sig, types, keys, path + ".then")
        if t1[2] != t2[1]:
            raise WordTypeError(expected=t1[2], found=t2[1], path=path or ".")
        dom, cod = t1[1], t2[2]
        struct = (Seq, t1[0], t2[0])
    elif isinstance(e, Par):
        t1 = _typed(e.left, sig, types, keys, path + ".left")
        t2 = _typed(e.right, sig, types, keys, path + ".right")
        dom, cod = t1[1] + t2[1], t1[2] + t2[2]
        struct = (Par, t1[0], t2[0])
        right = t2[3:5]
    else:
        raise TypeError(f"not a MorExpr: {e!r}")
    typed = (keys.setdefault(struct, len(keys)), dom, cod,
             wdim(sig.word_of(dom)), wdim(sig.word_of(cod)), right)
    types[id(e)] = (e, typed)
    return typed


# --------------------------------------------------------------------------
# Environment and evaluation
# --------------------------------------------------------------------------

class Env:
    """A signature together with a matrix for every generator.

    Each node is typed once per environment, and sparse basis images are
    cached keyed by the interned structure of each subtree, so structurally
    equal subexpressions are propagated only once across a whole table.
    """

    def __init__(self, sig: Signature, field: Field, bindings: dict):
        self.sig = sig
        self.field = field
        self.bindings = dict(bindings)
        self._basis_memo: dict = {}
        self._types: dict = {}
        self._keys: dict = {}
        missing = set(sig.generators) - set(self.bindings)
        if missing:
            raise UnknownNameError(f"unbound generators: {sorted(missing)}")
        for name, m in self.bindings.items():
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


def evaluate(e: MorExpr, env: Env) -> LinMap:
    """Compile an expression to its matrix.

    Structural recursion: Seq composes (first operand applied first), Par is
    the Kronecker product, Swap the block permutation.  The matrix is built
    column by column, propagating sparse basis images, so large intermediate
    Kronecker products are never materialized.
    """
    types = env._types
    _, dom_names, cod_names, ncols, nrows, _ = _typed(e, env.sig, types, env._keys)
    field = env.field
    norm = field.normalize
    memo = env._basis_memo

    def basis_image(node: MorExpr, j: int) -> dict:
        key, _, _, _, _, right = types[id(node)][1]
        mkey = (key, j)
        hit = memo.get(mkey)
        if hit is not None:
            return hit
        if isinstance(node, Gen):
            out = dict(env.bindings[node.name].col_nonzeros()[j])
        elif isinstance(node, Id):
            out = {j: field.one}
        elif isinstance(node, SwapE):
            dr, dl = right
            i1, i2 = divmod(j, dr)
            out = {i2 * dl + i1: field.one}
        elif isinstance(node, Seq):
            out = {}
            for k, v in basis_image(node.first, j).items():
                for i, w in basis_image(node.then, k).items():
                    acc = out.get(i)
                    out[i] = norm(v * w) if acc is None else norm(acc + v * w)
            out = {i: v for i, v in out.items() if v}
        else:
            dr, cr = right
            j1, j2 = divmod(j, dr)
            out = {}
            for i1, v1 in basis_image(node.left, j1).items():
                for i2, v2 in basis_image(node.right, j2).items():
                    out[i1 * cr + i2] = norm(v1 * v2)
        memo[mkey] = out
        return out

    z = field.zero
    rows = [[z] * ncols for _ in range(nrows)]
    for j in range(ncols):
        for i, v in basis_image(e, j).items():
            rows[i][j] = v
    return LinMap(field, env.sig.word_of(dom_names), env.sig.word_of(cod_names), rows)


def check_identity(lhs: MorExpr, rhs: MorExpr, env: Env, check_id: str = "identity") -> Verdict:
    """Evaluate both sides and compare entrywise; the witness is the first
    differing (row, col) with both scalars."""
    tl = _typed(lhs, env.sig, env._types, env._keys)[1:3]
    tr = _typed(rhs, env.sig, env._types, env._keys)[1:3]
    if tl != tr:
        raise SideMismatchError(f"sides have different types: {tl} vs {tr}")
    lm = evaluate(lhs, env)
    rm = evaluate(rhs, env)
    diff = lm.first_difference(rm)
    if diff is None:
        return Verdict(check_id, "pass")
    r, c, a, b = diff
    return Verdict(check_id, "fail", witness=Witness(r, c, a, b))


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
