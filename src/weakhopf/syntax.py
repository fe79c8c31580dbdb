"""The syntax of a term language for morphisms in a strict symmetric
monoidal category: signatures, the AST, the parser and the printer.

Grammar (whitespace insignificant)::

    expr   := term (";" term)*
    term   := factor ("*" factor)*
    factor := IDENT | "id(" word ")" | "swap(" IDENT "," word ")" | "(" expr ")"
    word   := IDENT ("," IDENT)*
    IDENT  := (letter | "_") (letter | digit | "_")*

A letter is any Unicode character for which ``str.isalpha`` holds and a
digit any other for which ``str.isalnum`` does, so ``ñu``, ``é`` and
``x²`` are names and ``2mu`` is not.  ``id`` and ``swap`` are keywords.

``f ; g`` means f first (diagrams read top to bottom), i.e. the composite
g . f.  ``swap(X, w)`` swaps the single object X past the word w; larger
left blocks are written as composites of such swaps.
"""
from __future__ import annotations

import re
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

# An identifier or any other one non-space character: ``\w`` is exactly
# ``str.isalnum`` or "_" and ``\s`` is ``str.isspace``.  A token that starts
# with neither a letter, "_" nor one of ";*()," is an unexpected character.
_TOKEN = re.compile(r"\w+|\S")

# text -> AST of every text parsed so far, and structure -> its one node in
# those ASTs: a leaf by its value, a Seq or Par by its operands' identities
# (which the node keeps alive).  A full memo is emptied, not grown, and the
# node table with it; so is a node table grown far past the memo's cap by
# the nodes that texts which failed to parse left behind.
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
    if len(_PARSED) >= _PARSED_MAX or len(_NODES) >= 16 * _PARSED_MAX:
        _PARSED.clear()
        _NODES.clear()
    expr = _PARSED[text] = _Parser(text, sig).parse()
    return expr


def _node(cls, *values) -> MorExpr:
    """The one node ``cls(*values)`` in ``_NODES``, built if it is not there."""
    key = (cls, *map(id, values)) if cls is Seq or cls is Par else (cls, *values)
    node = _NODES.get(key)
    if node is None:
        node = _NODES.setdefault(key, cls(*values))
    return node


class _Parser:
    """One parse of ``text`` against ``sig``, one method per grammar rule.

    Its tokens are (kind, text, offset), kind being "ident", the punctuation
    character itself, or "eof" after the last one; an offset becomes a line
    and a column only for an error.  Every node is built by ``_node``."""

    def __init__(self, text: str, sig: Signature):
        self.text, self.sig, self.next = text, sig, 0
        self.tokens = []
        for m in _TOKEN.finditer(text):
            tok, at = m.group(), m.start()
            if tok[0].isalpha() or tok[0] == "_":
                self.tokens.append(("ident", tok, at))
            elif tok in ";*(),":
                self.tokens.append((tok, tok, at))
            else:
                raise ParseError(f"unexpected character {tok[0]!r}", *self.where(at))
        self.tokens.append(("eof", "", len(text)))

    def where(self, at: int) -> tuple:
        """(line, col) of offset ``at``: a line ends at a newline, a column
        is one character."""
        return self.text.count("\n", 0, at) + 1, at - self.text.rfind("\n", 0, at)

    def take(self, kind: str):
        """The next token, consumed, if it is of ``kind``; else None."""
        tok = self.tokens[self.next]
        if tok[0] != kind:
            return None
        self.next += 1
        return tok

    def expect(self, kind: str):
        tok = self.take(kind)
        if tok is None:
            _, found, at = self.tokens[self.next]
            raise ParseError(f"expected {kind!r}, found {found or 'end of input'!r}", *self.where(at))
        return tok

    def name(self, declared: dict, what: str) -> str:
        """The next identifier, which ``declared`` must hold."""
        _, name, at = self.expect("ident")
        if name not in declared:
            line, col = self.where(at)
            raise UnknownNameError(f"unknown {what} {name!r} (line {line}, col {col})")
        return name

    def parse(self) -> MorExpr:
        e = self.expr()
        kind, found, at = self.tokens[self.next]
        if kind != "eof":
            raise ParseError(f"unexpected token {found!r}", *self.where(at))
        return e

    def expr(self) -> MorExpr:
        e = self.term()
        while self.take(";"):
            e = _node(Seq, e, self.term())
        return e

    def term(self) -> MorExpr:
        e = self.factor()
        while self.take("*"):
            e = _node(Par, e, self.factor())
        return e

    def word(self) -> tuple:
        names = [self.name(self.sig.objects, "object")]
        while self.take(","):
            names.append(self.name(self.sig.objects, "object"))
        return tuple(names)

    def factor(self) -> MorExpr:
        if self.take("("):
            e = self.expr()
            self.expect(")")
            return e
        kind, name, at = self.tokens[self.next]
        if kind != "ident":
            raise ParseError(f"expected a name, found {name or 'end of input'!r}", *self.where(at))
        if name != "id" and name != "swap":
            return _node(Gen, self.name(self.sig.generators, "generator"))
        self.next += 1
        self.expect("(")
        if name == "id":
            e = _node(Id, self.word())
        else:
            first = self.name(self.sig.objects, "object")
            self.expect(",")
            e = _node(SwapE, (first,), self.word())
        self.expect(")")
        return e


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
