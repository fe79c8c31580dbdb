"""A term language for morphisms in a strict symmetric monoidal category:
typing, evaluation contexts and the integer column kernel.  The grammar, the
parser and the AST are in ``weakhopf.syntax``.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .fields import Field
from .linalg import LinMap, wdim
from .report import Verdict, VerdictReport, Witness
from .syntax import Gen, Id, MorExpr, Par, Seq, Signature, SwapE, UnknownNameError, parse_expr


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
# Typing
# --------------------------------------------------------------------------

def infer_type(e: MorExpr, sig: Signature) -> tuple[tuple, tuple]:
    """Infer (dom, cod) as tuples of object names, or raise WordTypeError
    with the path to the first mismatch."""
    return _infer(e, sig, "")


def _infer(e: MorExpr, sig: Signature, path: str) -> tuple[tuple, tuple]:
    if isinstance(e, Seq):
        dom, mid = _infer(e.first, sig, path + ".first")
        found, cod = _infer(e.then, sig, path + ".then")
        if mid != found:
            raise WordTypeError(expected=mid, found=found, path=path or ".")
        return dom, cod
    if isinstance(e, Par):
        d1, c1 = _infer(e.left, sig, path + ".left")
        d2, c2 = _infer(e.right, sig, path + ".right")
        return d1 + d2, c1 + c2
    if isinstance(e, Gen):
        if e.name not in sig.generators:
            raise UnknownNameError(f"unknown generator {e.name!r}")
        return sig.generators[e.name]
    if isinstance(e, Id):
        return e.word, e.word
    if isinstance(e, SwapE):
        return e.left + e.right, e.right + e.left
    raise TypeError(f"not a MorExpr: {e!r}")


# --------------------------------------------------------------------------
# Environment and evaluation
# --------------------------------------------------------------------------

def _arrow(dom, cod, dims: bool = False) -> tuple:
    """The labels of a map's type, dom, "->", cod: each object's name, with
    its dim in brackets when ``dims``."""
    label = (lambda o: f"{o.name}[{o.dim}]") if dims else (lambda o: o.name)
    return (*map(label, dom), "->", *map(label, cod))


class Env:
    """A signature together with a matrix for every generator.

    Each node is typed and compiled once per environment into a plan (see
    ``_plan``): its columns as sparse integer dicts over one denominator,
    filled on first use, and for a monomial structure two flat lists of rows
    and entries.  The parser makes structurally equal subexpressions one
    node, so they are propagated only once across a whole table.  The
    dimension of each word is read from this Env's objects, once.
    ``child`` is the one way to derive a context: a child starts from what
    its parent has compiled and from the word dims it has read.

    Threads may share an Env without a lock: two threads that compile the
    same node at once each get a correct entry, and the later one is kept;
    a column, or a pair of lists, is published only when it is complete.
    """

    def __init__(self, sig: Signature, field: Field, bindings: dict, parent: Optional["Env"] = None):
        """``parent`` is set by ``child``: its bindings, checked when it was
        built, come first, and its plans and word dims are the snapshot."""
        self.sig = sig
        self.field = field
        if parent is None:
            self.bindings = dict(bindings)
            self._plans: dict = {}
            self._wdims: dict = {}
        else:
            self.bindings = {**parent.bindings, **bindings}
            self._plans = parent._plans.copy()
            self._wdims = parent._wdims.copy()  # a child never changes an object's dim
        missing = set(sig.generators) - set(self.bindings)
        if missing:
            raise UnknownNameError(f"unbound generators: {sorted(missing)}")
        for name, m in bindings.items():
            if name not in sig.generators:
                raise UnknownNameError(f"binding for undeclared generator {name!r}")
            dom, cod = sig.generators[name]
            want = sig.word_of(dom), sig.word_of(cod)
            if (m.dom, m.cod) != want:
                # Same names, other objects: only the dims tell them apart.
                dims = _arrow(*want) == _arrow(m.dom, m.cod)
                raise WordTypeError(expected=_arrow(*want, dims=dims),
                                    found=_arrow(m.dom, m.cod, dims=dims), path=name)
            if m.field != field:
                raise ValueError(f"generator {name!r} bound over the wrong field")

    def _dim(self, word: tuple) -> int:
        """The dimension of a word of object names."""
        d = self._wdims.get(word)
        if d is None:
            d = self._wdims[word] = wdim(self.sig.word_of(word))
        return d

    def child(self, bindings: Optional[dict] = None) -> "Env":
        """A new child context: this signature and these bindings plus the
        new names, whose types and objects are read off their matrices.

        The child starts from a snapshot of the plans compiled here; what it
        adds later stays its own, so this Env never sees the child's names
        or plans, and what a check compiles in a child is dropped with it.
        A name already bound to the same matrix is skipped, and to a
        different one raises RebindingError.
        """
        new = self._unbound(bindings or {})
        sig = Signature.of_bindings(self.sig.objects, new, self.sig.generators) if new else self.sig
        return Env(sig, self.field, new, parent=self)

    def _unbound(self, bindings: dict) -> dict:
        """The bindings whose names this Env does not bind yet."""
        new = {}
        for name, m in bindings.items():
            old = self.bindings.get(name)
            if old is None:
                new[name] = m
            elif old is not m and old != m:
                raise RebindingError(name)
        return new


class _Sparse(dict):
    """Kept columns keyed by column: ``cols[j]`` is None until j is kept."""

    __slots__ = ()

    def __missing__(self, j):
        return None


class _Plan(NamedTuple):
    """A structure compiled for one Env.

    Column j of a structure is a dict {row: n} without zeros, and the matrix
    entry is n / scale; over F_p the scale is 1 and n is a residue.  A
    structure keeps each column it computes in ``cols``: ``fn(j)`` computes
    column j and keeps it, so a read is ``cols[j]``, or ``fn(j)`` when that
    is None.  ``cols`` is a list over the domain, or a ``_Sparse`` dict
    when the structure is first compiled as the second operand of a Seq, or
    as a factor in one, and is wider than that Seq's domain: it is read only
    at the rows that the Seq's first operand reaches.

    A monomial structure, one with at most one entry in each column over its
    whole domain, also has ``mono``: a ``_Lists`` returning two flat lists
    indexed by column, built on its first call and kept.  ``rows[j]`` is the
    row of column j's entry and ``coefs[j]`` its n, or -1 and 0 when column
    j is zero; both lists end with one more zero column, so that reading
    them at row -1 reads a zero.  In the unit form ``coefs`` is None: every
    n is 1.  A permutation has the unit form, and so has a generator whose
    integer entries are all 1 and a Seq or Par whose operands all have it,
    such as every structure map of a groupoid algebra but its unit; their
    lists are rows alone.  A generator is monomial when its integer columns
    are; a Seq or Par of monomial operands (permutations included) is
    monomial, and its lists are comprehensions over theirs: a product of
    nonzero terms is never zero over Q or F_p, so nothing accumulates.
    Whether a structure is monomial, and unit, depends only on its
    operands, never on which expression compiled it first.  Two monomial
    sides are compared list by list, two unit ones by rows and scale; a
    multi-term consumer reads a monomial structure's columns through
    ``cols`` and ``fn`` like any other's.

    A permutation of tensor factors (``Id``, ``SwapE`` and any Seq or Par of
    them) keeps no columns: ``cols`` is ``_NOTHING``, ``perm`` is the factor
    permutation, (factor dims, order), and ``index`` its tables (low, hi,
    lo), shared by every Env (see ``_tables``; None for the identity):
    column j has its one entry 1 in row ``hi[j // low] + lo[j % low]``,
    which ``fn`` returns without keeping it.  A Seq re-keying the rows of
    its first operand by a permutation reads the tables inline.
    ``factors`` is (left, right, right dom dim, right cod dim) of a Par that
    is not a permutation, and ``kron`` a function computing a column of it
    without keeping it, set when neither factor is a permutation.  A Seq
    whose second operand such a Par is reads it from its factors' columns,
    or from their lists when all three are monomial, so its columns and
    lists are never formed; the column route skips the terms whose factor
    columns are zero (see ``_fused``).
    ``base`` marks a Seq that only permutes the rows of ``base`` by
    ``perm``, so that a further permutation composes with it.
    """

    cols: Optional[dict]
    fn: Optional[Callable]
    scale: int
    index: Optional[tuple] = None  # (low, hi, lo)
    perm: Optional[tuple] = None  # (factor dims, order): output factor q is input factor order[q]
    kron: Optional[Callable] = None
    base: Optional["_Plan"] = None
    mono: Optional["_Lists"] = None
    factors: Optional[tuple] = None


_NOTHING = _Sparse()  # the kept columns of what keeps none; never written


class _Lists:
    """A monomial plan's ``mono``: calling it returns ``build(*args)``, run
    on the first call and kept, published in one assignment as Envs are
    shared by threads."""

    __slots__ = ("build", "args", "kept")

    def __init__(self, build: Callable, *args):
        self.build, self.args, self.kept = build, args, None

    def __call__(self) -> tuple:
        kept = self.kept
        if kept is None:
            kept = self.kept = self.build(*self.args)
        return kept


def _reduced(ns: list, p: int) -> list:
    return [n % p for n in ns] if p else ns


def _unit_lists(n: int, index: Optional[tuple]) -> tuple:
    """The lists of a permutation on n columns, in the unit form."""
    if index is None:
        rows = list(range(n))
    else:
        _, hi, lo = index
        rows = [h + l for h in hi for l in lo]
    rows.append(-1)
    return rows, None


def _column_lists(cols: list) -> tuple:
    """The lists of columns kept as dicts of at most one entry, in the unit
    form when every entry is 1."""
    rows = [next(iter(c), -1) for c in cols]
    rows.append(-1)
    if all(n == 1 for c in cols for n in c.values()):
        return rows, None
    return rows, [next(iter(c.values()), 0) for c in cols] + [0]


def _coefs(rows: list, coefs: Optional[list]) -> list:
    """The entry list of the lists (rows, coefs), spelled out for the unit
    form (None): 1 at every row, 0 at -1."""
    return [0 if k < 0 else 1 for k in rows] if coefs is None else coefs


def _gather(first: Callable, then: Callable, p: int) -> tuple:
    """The lists of first ; then from theirs."""
    frows, fcoefs = first()
    trows, tcoefs = then()
    rows = [trows[k] for k in frows]
    if tcoefs is None:
        if fcoefs is None:
            return rows, None
        return rows, [c if k >= 0 else 0 for c, k in zip(fcoefs, rows)]  # 0 where then's column is
    if fcoefs is None:
        return rows, [tcoefs[k] for k in frows]
    return rows, _reduced([c * tcoefs[k] for c, k in zip(fcoefs, frows)], p)


def _through(first: Callable, factors: tuple, p: int) -> tuple:
    """The lists of first ; (left * right) from the lists of first, left and
    right, never forming those of left * right.  A zero column of first
    (-1) reads the zero column that ends the lists of left."""
    left, right, dr, cr = factors
    frows, fcoefs = first()
    (lrows, lcoefs), (rrows, rcoefs) = left.mono(), right.mono()
    k1s = [k // dr for k in frows]
    k2s = [k % dr for k in frows]
    if fcoefs is None and lcoefs is None and rcoefs is None:
        pairs = zip([lrows[a] for a in k1s], [rrows[b] for b in k2s])
        return [x * cr + y if x >= 0 and y >= 0 else -1 for x, y in pairs], None
    fcoefs, lcoefs, rcoefs = _coefs(frows, fcoefs), _coefs(lrows, lcoefs), _coefs(rrows, rcoefs)
    coefs = _reduced([c * lcoefs[a] * rcoefs[b] for c, a, b in zip(fcoefs, k1s, k2s)], p)
    return [lrows[a] * cr + rrows[b] if c else -1 for a, b, c in zip(k1s, k2s, coefs)], coefs


def _outer_lists(left: Callable, right: Callable, cr: int, p: int) -> tuple:
    """The lists of left * right."""
    (lrows, lcoefs), (rrows, rcoefs) = left(), right()
    inner = rrows[:-1]
    rows = [a * cr + b if a >= 0 and b >= 0 else -1 for a in lrows[:-1] for b in inner]
    rows.append(-1)
    if lcoefs is None and rcoefs is None:
        return rows, None
    lcoefs, rcoefs = _coefs(lrows, lcoefs)[:-1], _coefs(rrows, rcoefs)[:-1]
    return rows, _reduced([x * y for x in lcoefs for y in rcoefs], p) + [0]


def _rekeyed(base: Callable, index: tuple) -> tuple:
    """The lists of base with its rows permuted by the tables ``index``."""
    rows, coefs = base()
    low, hi, lo = index
    return [hi[k // low] + lo[k % low] if k >= 0 else -1 for k in rows], coefs


def _composite_lists(first: _Plan, then: _Plan, p: int) -> Optional[_Lists]:
    """The ``mono`` of first ; then, or None unless both are monomial."""
    if first.mono is None or then.mono is None:
        return None
    if then.factors is not None:
        return _Lists(_through, first.mono, then.factors, p)
    return _Lists(_gather, first.mono, then.mono, p)


def _permutation(perm: tuple) -> _Plan:
    """The plan of a factor permutation."""
    index = _tables(perm)
    if index is None:
        def fn(j):
            return {j: 1}
    else:
        low, hi, lo = index

        def fn(j):
            return {hi[j // low] + lo[j % low]: 1}
    return _Plan(_NOTHING, fn, 1, index, perm, mono=_Lists(_unit_lists, math.prod(perm[0]), index))


# factor permutation -> its index tables (None for the identity), shared by
# every Env; emptied when full, not grown.
_PERMS: dict = {}
_PERMS_MAX = 256


def _tables(perm: tuple) -> Optional[tuple]:
    """The index tables (low, hi, lo) of a factor permutation ``perm`` =
    (factor dims, order), None for the identity: column j has its one entry
    1 in row ``hi[j // low] + lo[j % low]``.

    ``low`` is the product of the trailing input factors at which that
    running product first reaches the square root of the width n; ``lo``
    gives the rows moved by those factors' digits of j and ``hi`` those of
    the others.  The cut lies at a factor boundary, so the two parts of a
    block of adjacent factors that crosses it still add up to its row, and
    the tables hold at most sqrt(n) * (1 + the largest factor dim) entries.
    They are built once, kept in ``_PERMS`` for every Env and published in
    one assignment, as Envs are shared by threads."""
    hit = _PERMS.get(perm, False)
    if hit is not False:
        return hit
    dims, order = perm
    kept = [f for f in order if dims[f] > 1]
    tables = None
    if kept != sorted(kept):
        moved, t = [0] * len(dims), 1  # each input factor's stride in a row
        for f in reversed(order):
            moved[f] = t
            t *= dims[f]
        n, cut, low = t, len(dims), 1
        while low * low < n:
            cut -= 1
            low *= dims[cut]

        def table(factors):
            rows = [0]
            for f in factors:
                rows = [r + x * moved[f] for r in rows for x in range(dims[f])]
            return rows
        tables = low, table(range(cut)), table(range(cut, len(dims)))
    if len(_PERMS) >= _PERMS_MAX:
        _PERMS.clear()
    _PERMS[perm] = tables
    return tables


def _store(size: int):
    """Kept columns: a list of ``size`` slots, or a ``_Sparse`` dict for 0."""
    return [None] * size if size else _Sparse()


def _plan(e: MorExpr, env: Env, width: int = 0) -> tuple:
    """(plan, dom, cod, e): e typed and compiled once per Env, keyed by
    ``id(e)``, which stays e's own as the entry keeps e.  ``width`` is the
    domain width of the Seq whose second operand is e or has e among its
    factors (0: none); a Seq or Par wider than that keeps its columns in a
    ``_Sparse`` dict.  A type error is raised with the path "." (see
    ``_compiled``).  The column functions refer to their children's columns
    and index tables, never to the Env."""
    hit = env._plans.get(id(e))
    if hit is not None:
        return hit
    p = env.field.modulus
    if isinstance(e, Seq):
        first, dom, mid, _ = _plan(e.first, env)
        ncols = env._dim(dom)
        then, found, cod, _ = _plan(e.then, env, ncols)
        if mid != found:
            raise WordTypeError(expected=mid, found=found, path=".")
        plan = _seq(first, then, p, ncols if ncols <= (width or ncols) else 0, ncols)
    elif isinstance(e, Par):
        left, ldom, lcod, _ = _plan(e.left, env, width)
        right, rdom, rcod, _ = _plan(e.right, env, width)
        dom, cod = ldom + rdom, lcod + rcod
        ncols = env._dim(dom)
        size = ncols if ncols <= (width or ncols) else 0
        plan = _par(left, right, (env._dim(rdom), env._dim(rcod)), p, size)
    elif isinstance(e, Gen):
        if e.name not in env.sig.generators:
            raise UnknownNameError(f"unknown generator {e.name!r}")
        dom, cod = env.sig.generators[e.name]
        cols, scale = env.bindings[e.name].int_columns()
        mono = _Lists(_column_lists, cols) if all(len(c) < 2 for c in cols) else None
        plan = _Plan(cols, cols.__getitem__, scale, mono=mono)  # every column is already kept
    elif isinstance(e, Id):
        dom = cod = e.word
        plan = _permutation((_dims(e.word, env.sig), tuple(range(len(e.word)))))
    elif isinstance(e, SwapE):
        dom, cod = e.left + e.right, e.right + e.left
        nl, nr = len(e.left), len(e.right)
        order = tuple(range(nl, nl + nr)) + tuple(range(nl))
        plan = _permutation((_dims(dom, env.sig), order))
    else:
        raise TypeError(f"not a MorExpr: {e!r}")
    hit = env._plans[id(e)] = (plan, dom, cod, e)
    return hit


def _compiled(e: MorExpr, env: Env) -> tuple:
    """``_plan(e, env)``, with a type error raised again by ``infer_type``
    from e, so that it carries its path."""
    try:
        return _plan(e, env)
    except WordTypeError:
        infer_type(e, env.sig)
        raise


def _dims(word: tuple, sig: Signature) -> tuple:
    return tuple(sig.objects[n] for n in word)


def _seq(first: _Plan, then: _Plan, p: int, size: int, ncols: int) -> _Plan:
    """first, then then, keeping columns in ``_store(size)``; ``ncols`` is
    the width of first."""
    if then.cols is _NOTHING:  # re-key the rows of first
        if then.index is None:
            return first
        if first.cols is _NOTHING:  # a permutation of a permutation
            dims, order = first.perm
            return _permutation((dims, tuple(order[i] for i in then.perm[1])))
        base, perm = first, then.perm
        if first.base is not None:  # compose with the rows first permutes
            base, (dims, order) = first.base, first.perm
            perm = (dims, tuple(order[i] for i in then.perm[1]))
        index = _tables(perm)
        if index is None:
            return base
        # A Kronecker base is read without keeping its columns: for the
        # comultiplication ladders nothing else reads it, and keeping them
        # would hold the widest structure twice.
        bcols, bfn = base.cols, base.kron or base.fn
        low, hi, lo = index
        cols = _store(size)

        def fn(j):
            a = bcols[j]
            if a is None:
                a = bfn(j)
            c = {}
            for k, v in a.items():
                c[hi[k // low] + lo[k % low]] = v
            cols[j] = c
            return c
        mono = base.mono and _Lists(_rekeyed, base.mono, index)
        return _Plan(cols, fn, base.scale, None, perm, base=base, mono=mono)
    fcols, ffn = first.cols, first.fn
    scale = first.scale * then.scale
    cols = _store(size)  # published one whole column at a time: Envs are shared by threads
    mono = _composite_lists(first, then, p)
    if then.kron and fcols is not _NOTHING:  # a permuted first reads then's kept columns
        return _Plan(cols, _fused(cols, fcols, ffn, then, p, ncols), scale, mono=mono)
    tcols, tfn = then.cols, then.fn

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
    return _Plan(cols, fn, scale, mono=mono)


def _nonzero(cols: list, fn: Callable) -> list:
    """The indices of the nonzero columns of a kept list, computing (and
    keeping) those not kept yet."""
    out = []
    for k, c in enumerate(cols):
        if c is None:
            c = fn(k)
        if c:
            out.append(k)
    return out


def _product_support(lcols, lfn: Callable, rcols, rfn: Callable, dr: int, walk: int):
    """The keys k1 * dr + k2 at which column k1 of left and column k2 of
    right are both nonzero, as a set; False when a factor keeps a
    ``_Sparse`` dict, or when the set would hold at least ``walk`` keys."""
    if type(lcols) is not list or type(rcols) is not list:
        return False
    left, right = _nonzero(lcols, lfn), _nonzero(rcols, rfn)
    if len(left) * len(right) >= walk:
        return False
    return {k1 * dr + k2 for k1 in left for k2 in right}


def _fused(cols, fcols, ffn: Callable, then: _Plan, p: int, width: int) -> Callable:
    """The column function of first ; (left * right): it accumulates the
    outer products of the factors' columns, never forming a column of the
    Kronecker product.  ``then`` is the plan of left * right and ``width``
    the width of first.

    The term at key k = k1 * dr + k2 of first's column is zero unless
    column k1 of left and column k2 of right are both nonzero.  The first
    column of first with more than one term decides whether to skip the
    others: it finds the nonzero columns of both factors, and keeps the set
    S of keys where both are nonzero when |S| is smaller than the terms the
    plain loop would walk (that column's length times ``width``).  With S
    kept, each column walks only its keys in S; otherwise every key.  A
    factor kept in a ``_Sparse`` dict is never scanned: the plain loop."""
    outer = then.kron
    left, right, dr, cr = then.factors
    lcols, lfn, rcols, rfn = left.cols, left.fn, right.cols, right.fn
    support = None  # S, or False for the plain loop; published once decided

    def fn(j):
        nonlocal support
        a = fcols[j]
        if a is None:
            a = ffn(j)
        if len(a) == 1:  # one term: a scaled outer product, with no zero
            [(k, v)] = a.items()
            c = outer(k)
            if v != 1:
                c = {i: v * w % p if p else v * w for i, w in c.items()}
            cols[j] = c
            return c
        if not a:  # a zero column decides nothing
            c = cols[j] = {}
            return c
        s = support
        if s is None:
            s = support = _product_support(lcols, lfn, rcols, rfn, dr, len(a) * width)
        if s is not False:
            a = {k: a[k] for k in a.keys() & s}
        acc = {}
        get = acc.get
        for k, v in a.items():
            k1, k2 = divmod(k, dr)
            x1 = lcols[k1]
            if x1 is None:
                x1 = lfn(k1)
            b = rcols[k2]
            if b is None:
                b = rfn(k2)
            for i1, v1 in x1.items():
                base, x = i1 * cr, v * v1
                for i2, v2 in b.items():
                    i = base + i2
                    acc[i] = get(i, 0) + x * v2
        if p:
            for i in acc:
                acc[i] %= p
        c = cols[j] = {i: x for i, x in acc.items() if x}
        return c
    return fn


def _par(left: _Plan, right: _Plan, dims: tuple, p: int, size: int) -> _Plan:
    """left * right, keeping columns in ``_store(size)``; ``dims`` are the
    dom and cod dims of the right factor."""
    dr, cr = dims
    lcols, lfn = left.cols, left.fn
    rcols, rfn = right.cols, right.fn
    scale = left.scale * right.scale
    if lcols is _NOTHING and rcols is _NOTHING:  # a permutation beside a permutation
        (d1, o1), (d2, o2) = left.perm, right.perm
        return _permutation((d1 + d2, o1 + tuple(len(d1) + i for i in o2)))
    cols = _store(size)
    factors = (left, right, dr, cr)
    mono = None
    if left.mono and right.mono:
        mono = _Lists(_outer_lists, left.mono, right.mono, cr, p)
    if lcols is _NOTHING:
        low, hi, lo = left.index or (1, None, None)

        def fn(j):  # a unit column beside a column
            j1, j2 = divmod(j, dr)
            base = (j1 if hi is None else hi[j1 // low] + lo[j1 % low]) * cr
            b = rcols[j2]
            if b is None:
                b = rfn(j2)
            c = {}
            for i, v in b.items():
                c[base + i] = v
            cols[j] = c
            return c
        return _Plan(cols, fn, scale, mono=mono, factors=factors)
    if rcols is _NOTHING:
        low, hi, lo = right.index or (1, None, None)

        def fn(j):  # a column beside a unit column
            j1, j2 = divmod(j, dr)
            i2 = j2 if hi is None else hi[j2 // low] + lo[j2 % low]
            a = lcols[j1]
            if a is None:
                a = lfn(j1)
            c = {}
            for i, v in a.items():
                c[i * cr + i2] = v
            cols[j] = c
            return c
        return _Plan(cols, fn, scale, mono=mono, factors=factors)

    def outer(j):
        j1, j2 = divmod(j, dr)
        a = lcols[j1]
        if a is None:
            a = lfn(j1)
        b = rcols[j2]
        if b is None:
            b = rfn(j2)
        c = {}
        for i1, v1 in a.items():
            base = i1 * cr
            if p:
                for i2, v2 in b.items():
                    c[base + i2] = v1 * v2 % p
            else:
                for i2, v2 in b.items():
                    c[base + i2] = v1 * v2
        return c

    def fn(j):
        c = cols[j] = outer(j)
        return c
    return _Plan(cols, fn, scale, kron=outer, mono=mono, factors=factors)


def evaluate(e: MorExpr, env: Env) -> LinMap:
    """Compile an expression to its matrix.

    Structural recursion: Seq composes (first operand applied first), Par is
    the Kronecker product, Swap the block permutation.  The columns are
    propagated as sparse integer dicts, or as flat lists for a monomial
    structure: over Q with one denominator per structure (the product of
    its generators' denominators), over F_p as residues reduced mod p.
    Large intermediate Kronecker products are never materialized; the
    result is built by ``LinMap.from_int_columns`` and keeps its columns.
    """
    plan, dom_names, cod_names, _ = _compiled(e, env)
    ncols = env._dim(dom_names)
    if plan.mono:
        rows, coefs = plan.mono()
        if coefs is None:
            cols = [{i: 1} if i >= 0 else {} for i in rows[:ncols]]
        else:
            cols = [{i: n} if i >= 0 else {} for i, n in zip(rows[:ncols], coefs)]
    else:
        kept, fn = plan.cols, plan.fn
        cols = [fn(j) if kept[j] is None else kept[j] for j in range(ncols)]
    return LinMap.from_int_columns(
        env.field, env.sig.word_of(dom_names), env.sig.word_of(cod_names), cols, plan.scale)


def check_identity(lhs: MorExpr, rhs: MorExpr, env: Env, check_id: str = "identity") -> Verdict:
    """Compare both sides on their integer plans: two monomial sides list by
    list, any others column by column; equal entries when their scales
    agree, cross-multiplied ones when they differ.  Only on a mismatch are
    both sides evaluated; the witness is the first differing (row, col) of
    the two matrices, with both scalars."""
    lplan, ldom, lcod, _ = _compiled(lhs, env)
    rplan, rdom, rcod, _ = _compiled(rhs, env)
    if (ldom, lcod) != (rdom, rcod):
        raise SideMismatchError(f"sides have different types: {(ldom, lcod)} vs {(rdom, rcod)}")
    lscale, rscale = lplan.scale, rplan.scale
    if lplan.mono and rplan.mono:
        (lrows, lcoefs), (rrows, rcoefs) = lplan.mono(), rplan.mono()
        same = lrows == rrows
        if same and lcoefs is None and rcoefs is None:  # every entry is 1 / scale
            same = lscale == rscale or max(lrows) < 0  # or both maps are zero
        elif same:
            lcoefs, rcoefs = _coefs(lrows, lcoefs), _coefs(rrows, rcoefs)
            same = (lcoefs == rcoefs if lscale == rscale
                    else [n * rscale for n in lcoefs] == [n * lscale for n in rcoefs])
    else:
        same = _same_columns(lplan, rplan, env._dim(ldom))
    if same:
        return Verdict(check_id, "pass")
    r, c, x, y = evaluate(lhs, env).first_difference(evaluate(rhs, env))
    return Verdict(check_id, "fail", witness=Witness(r, c, x, y))


def _same_columns(lplan: _Plan, rplan: _Plan, ncols: int) -> bool:
    lcols, lfn, rcols, rfn = lplan.cols, lplan.fn, rplan.cols, rplan.fn
    lscale, rscale = lplan.scale, rplan.scale
    same_scale = lscale == rscale
    for j in range(ncols):
        a = lcols[j]
        if a is None:
            a = lfn(j)
        b = rcols[j]
        if b is None:
            b = rfn(j)
        if same_scale:
            if a != b:
                return False
        elif a.keys() != b.keys() or any(n * rscale != b[i] * lscale for i, n in a.items()):
            return False
    return True


def check_identity_text(lhs: str, rhs: str, env: Env, check_id: str = "identity") -> Verdict:
    return check_identity(parse_expr(lhs, env.sig), parse_expr(rhs, env.sig), env, check_id)


def eval_text(src: str, env: Env) -> LinMap:
    return evaluate(parse_expr(src, env.sig), env)


def build_env(field: Field, objects: dict, bindings: dict) -> Env:
    """Assemble a signature and environment from name -> LinMap bindings.

    Generator types and objects are read off the bound matrices; ``objects``
    (name -> dim) declares any further objects, such as one no binding uses.
    """
    return Env(Signature.of_bindings(objects, bindings), field, bindings)


def run_identity_table(table, env: Env, report: Optional[VerdictReport] = None) -> VerdictReport:
    """Run (check_id, lhs, rhs) triples against an environment."""
    if report is None:
        report = VerdictReport()
    for check_id, lhs, rhs in table:
        report.add(check_identity_text(lhs, rhs, env, check_id))
    return report
