"""The syntax of a term language for morphisms in a strict symmetric
monoidal category: signatures, the AST, the parser and the printer.

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

from dataclasses import dataclass, fields
from typing import Optional, Union

from .linalg import Obj, Word


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class UnknownNameError(ValueError):
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


class _Node:
    """What a node keeps besides its fields, set once it is built: ``gens``
    and ``objs``, the frozen sets of the generator and object names it
    uses, ``names``, both in one tuple, and ``plans``, its compiled plans
    by the shapes of those names (see ``weakhopf.ir._plan``).  They are
    plain attributes, so ``==``, hash and repr read the fields alone, and a
    copy or a pickle is built again from the fields, with no plan."""

    def _uses(self, gens: frozenset, objs: frozenset) -> None:
        vars(self).update(gens=gens, objs=objs, names=(*gens, *objs), plans={})

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True)
class Gen(_Node):
    name: str

    def __post_init__(self):
        self._uses(frozenset((self.name,)), frozenset())


@dataclass(frozen=True)
class Id(_Node):
    word: tuple  # tuple[str, ...]

    def __post_init__(self):
        self._uses(frozenset(), frozenset(self.word))


@dataclass(frozen=True)
class SwapE(_Node):
    left: tuple
    right: tuple

    def __post_init__(self):
        self._uses(frozenset(), frozenset(self.left + self.right))


@dataclass(frozen=True)
class Seq(_Node):
    first: "MorExpr"
    then: "MorExpr"

    def __post_init__(self):
        self._uses(self.first.gens | self.then.gens, self.first.objs | self.then.objs)


@dataclass(frozen=True)
class Par(_Node):
    left: "MorExpr"
    right: "MorExpr"

    def __post_init__(self):
        self._uses(self.left.gens | self.right.gens, self.left.objs | self.right.objs)


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


# text -> AST of every text parsed so far, and structure -> its one node in
# those ASTs: a leaf by its value, a Seq or Par by its operands' identities
# (which the node keeps alive).  A full memo is emptied, not grown, and the
# node table with it.
_PARSED: dict = {}
_PARSED_MAX = 4096
_NODES: dict = {}


def parse_expr(text: str, sig: Signature) -> MorExpr:
    """Parse the grammar above, checking all names against the signature.

    Each text is parsed once: a later call returns the same AST once the
    names it uses are checked against ``sig``.  A text that fails to parse,
    or names one that ``sig`` lacks, goes through the parser again, so the
    error and its position are always the parser's own.  Equal
    subexpressions of the texts parsed are one node, so that a node keeps
    the plans of its structure.
    """
    hit = _PARSED.get(text)
    if hit is not None and sig.generators.keys() >= hit.gens and sig.objects.keys() >= hit.objs:
        return hit
    tz = _Tokenizer(text)
    expr = _parse_seq(tz, sig)
    tok = tz.peek()
    if tok[0] != "eof":
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2], tok[3])
    if len(_PARSED) >= _PARSED_MAX:
        _PARSED.clear()
        _NODES.clear()
    expr = _PARSED[text] = _interned(expr)
    return expr


def _interned(e: MorExpr) -> MorExpr:
    """The one node of e's structure in ``_NODES``."""
    if isinstance(e, Seq):
        e = Seq(_interned(e.first), _interned(e.then))
        key = (Seq, id(e.first), id(e.then))
    elif isinstance(e, Par):
        e = Par(_interned(e.left), _interned(e.right))
        key = (Par, id(e.left), id(e.right))
    else:
        key = e
    return _NODES.setdefault(key, e)


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
