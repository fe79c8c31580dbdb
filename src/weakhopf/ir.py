"""A term language for morphisms in a strict symmetric monoidal category:
typing, evaluation contexts and the integer column kernel.  The grammar, the
parser and the AST are in ``weakhopf.syntax``.
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, Optional

from .fields import Field
from .linalg import LinMap
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

    An Env holds values only.  Each node is typed and compiled once per
    shape into a plan shared by every Env (see ``_plan``); what a plan
    fills from bound data is kept here, keyed by the plan and made on first
    use: a generator's integer columns, the columns a structure keeps, the
    flat lists of a monomial structure and the support set of a fused
    convolution (see ``_Plan``).  ``_shapes`` holds the shape of each name
    read so far.  The parser makes structurally equal subexpressions one
    node, so they are propagated only once across a whole table.  ``child``
    is the one way to derive a context: a child starts from what its parent
    has kept.

    Threads may share an Env without a lock: two threads that fill the same
    value at once each get a correct one, and the later one is kept; a
    column, or a pair of lists, is published only when it is complete.
    """

    def __init__(self, sig: Signature, field: Field, bindings: dict, parent: Optional["Env"] = None):
        """``parent`` is set by ``child``: its bindings, checked when it was
        built, come first, and what it has kept is the snapshot."""
        self.sig = sig
        self.field = field
        if parent is None:
            self.bindings = dict(bindings)
            self._shapes: dict = {}
            self._kept: dict = {}
            self._lists: dict = {}
            self._support: dict = {}
        else:
            self.bindings = {**parent.bindings, **bindings}
            self._shapes = parent._shapes.copy()  # a child never changes a name it inherits
            self._kept = parent._kept.copy()
            self._lists = parent._lists.copy()
            self._support = parent._support.copy()
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

    def child(self, bindings: Optional[dict] = None) -> "Env":
        """A new child context: this signature and these bindings plus the
        new names, whose types and objects are read off their matrices.

        The child starts from a snapshot of the values kept here; what it
        adds later stays its own, so this Env never sees the child's names
        or values, and what a check keeps in a child is dropped with it.
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


class _Plan:
    """A structure compiled for one shape, shared by every Env of it.

    Column j of a structure is a dict {row: n} without zeros, and the matrix
    entry is n / scale; over F_p the scale is 1 and n is a residue.  A plan
    holds no value: in an Env, the structure keeps each column it computes
    in its store there, ``_cols(plan, env)``, and ``fn(plan, env, cols, j)``
    computes column j and keeps it in the store ``cols``, so a read is
    ``cols[j]``, or ``fn(...)`` when that is None.  A store is a list over
    the domain (``size`` slots), or a ``_Sparse`` dict (``size`` 0) when the
    structure was first compiled as the second operand of a Seq, or as a
    factor in one, and is wider than that Seq's domain: it is read only at
    the rows that the Seq's first operand reaches.  A generator (``name``)
    keeps every column: its store is its binding's integer columns.
    ``ncols`` is the width of the domain and ``p`` the field's modulus.

    A monomial structure, one with at most one entry in each column over its
    whole domain, also has ``mono``: ``mono(plan, env)`` builds its two flat
    lists indexed by column, which ``_lists`` keeps in the Env.  ``rows[j]``
    is the row of column j's entry and ``coefs[j]`` its n, or -1 and 0 when
    column j is zero; both lists end with one more zero column, so that
    reading them at row -1 reads a zero.  In the unit form ``coefs`` is
    None: every n is 1.  A permutation has the unit form, and so has a
    generator whose integer entries are all 1 and a Seq or Par whose
    operands all have it, such as every structure map of a groupoid algebra
    but its unit; their lists are rows alone.  A generator is monomial when
    its integer columns are; a Seq or Par of monomial operands (permutations
    included) is monomial, and its lists are comprehensions over theirs: a
    product of nonzero terms is never zero over Q or F_p, so nothing
    accumulates.  Whether a structure is monomial depends only on its
    operands, never on which expression compiled it first; whether its
    lists have the unit form is read from the values, in each Env.  Two
    monomial sides are compared list by list, two unit ones by rows and
    scale; a multi-term consumer reads a monomial structure's columns
    through its store and ``fn`` like any other's.

    A permutation of tensor factors (``Id``, ``SwapE`` and any Seq or Par of
    them; ``fn`` is ``_perm_col``) keeps no columns: its store is
    ``_NOTHING``, ``perm`` is the factor permutation, (factor dims, order),
    and ``index`` its tables (low, hi, lo), shared by every plan (see
    ``_tables``; None for the identity): column j has its one entry 1 in row
    ``hi[j // low] + lo[j % low]``, which ``fn`` returns without keeping it.
    A Seq re-keying the rows of its first operand by a permutation reads
    the tables inline.  ``factors`` is (left, right, right dom dim, right
    cod dim) of a Par that is not a permutation, and ``kron`` a function
    computing a column of it without keeping it, set when neither factor is
    a permutation.  A Seq (``first``, ``then``) whose second operand such a
    Par is reads it from its factors' columns, or from their lists when all
    three are monomial, so its columns and lists are never formed; the
    column route skips the terms whose factor columns are zero (see
    ``_fused``).  ``base`` marks a Seq that only permutes the rows of
    ``base`` by ``perm``, so that a further permutation composes with it.
    """

    __slots__ = ("fn", "scale", "ncols", "size", "p", "mono", "name", "first", "then",
                 "index", "perm", "base", "factors", "kron")

    def __init__(self, fn: Callable, scale: int, ncols: int, size: int = 0, p: int = 0,
                 mono: Optional[Callable] = None, name: Optional[str] = None,
                 first: Optional["_Plan"] = None, then: Optional["_Plan"] = None,
                 index: Optional[tuple] = None,  # (low, hi, lo)
                 # (factor dims, order): output factor q is input factor order[q]
                 perm: Optional[tuple] = None,
                 base: Optional["_Plan"] = None, factors: Optional[tuple] = None,
                 kron: Optional[Callable] = None):
        self.fn, self.scale, self.ncols, self.size, self.p = fn, scale, ncols, size, p
        self.mono, self.name, self.first, self.then = mono, name, first, then
        self.index, self.perm, self.base, self.factors, self.kron = index, perm, base, factors, kron


_NOTHING = _Sparse()  # the kept columns of what keeps none; never written


def _cols(plan: _Plan, env: Env):
    """The store of ``plan`` in ``env``, opened on first use: a generator's
    integer columns, ``_NOTHING`` for a permutation, else a new
    ``_store(plan.size)``.  Two threads opening it at once keep one."""
    cols = env._kept.get(plan)
    if cols is None:
        if plan.name is not None:
            cols = env.bindings[plan.name].int_columns()[0]
        elif plan.fn is _perm_col:
            cols = _NOTHING
        else:
            cols = _store(plan.size)
        cols = env._kept.setdefault(plan, cols)
    return cols


def _lists(plan: _Plan, env: Env) -> tuple:
    """The lists of a monomial ``plan`` in ``env``, built on first use and
    kept, published in one assignment as Envs are shared by threads."""
    kept = env._lists.get(plan)
    if kept is None:
        kept = env._lists[plan] = plan.mono(plan, env)
    return kept


def _reduced(ns: list, p: int) -> list:
    return [n % p for n in ns] if p else ns


def _unit_lists(plan: _Plan, env: Env) -> tuple:
    """The lists of a permutation, in the unit form."""
    if plan.index is None:
        rows = list(range(plan.ncols))
    else:
        _, hi, lo = plan.index
        rows = [h + l for h in hi for l in lo]
    rows.append(-1)
    return rows, None


def _column_lists(plan: _Plan, env: Env) -> tuple:
    """The lists of a generator whose columns have at most one entry each,
    in the unit form when every entry is 1."""
    cols = _cols(plan, env)
    rows = [next(iter(c), -1) for c in cols]
    rows.append(-1)
    if all(n == 1 for c in cols for n in c.values()):
        return rows, None
    return rows, [next(iter(c.values()), 0) for c in cols] + [0]


def _coefs(rows: list, coefs: Optional[list]) -> list:
    """The entry list of the lists (rows, coefs), spelled out for the unit
    form (None): 1 at every row, 0 at -1."""
    return [0 if k < 0 else 1 for k in rows] if coefs is None else coefs


def _gather(plan: _Plan, env: Env) -> tuple:
    """The lists of first ; then from theirs."""
    p = plan.p
    frows, fcoefs = _lists(plan.first, env)
    trows, tcoefs = _lists(plan.then, env)
    rows = [trows[k] for k in frows]
    if tcoefs is None:
        if fcoefs is None:
            return rows, None
        return rows, [c if k >= 0 else 0 for c, k in zip(fcoefs, rows)]  # 0 where then's column is
    if fcoefs is None:
        return rows, [tcoefs[k] for k in frows]
    return rows, _reduced([c * tcoefs[k] for c, k in zip(fcoefs, frows)], p)


def _through(plan: _Plan, env: Env) -> tuple:
    """The lists of first ; (left * right) from the lists of first, left and
    right, never forming those of left * right.  A zero column of first
    (-1) reads the zero column that ends the lists of left."""
    p = plan.p
    left, right, dr, cr = plan.then.factors
    frows, fcoefs = _lists(plan.first, env)
    (lrows, lcoefs), (rrows, rcoefs) = _lists(left, env), _lists(right, env)
    k1s = [k // dr for k in frows]
    k2s = [k % dr for k in frows]
    if fcoefs is None and lcoefs is None and rcoefs is None:
        pairs = zip([lrows[a] for a in k1s], [rrows[b] for b in k2s])
        return [x * cr + y if x >= 0 and y >= 0 else -1 for x, y in pairs], None
    fcoefs, lcoefs, rcoefs = _coefs(frows, fcoefs), _coefs(lrows, lcoefs), _coefs(rrows, rcoefs)
    coefs = _reduced([c * lcoefs[a] * rcoefs[b] for c, a, b in zip(fcoefs, k1s, k2s)], p)
    return [lrows[a] * cr + rrows[b] if c else -1 for a, b, c in zip(k1s, k2s, coefs)], coefs


def _outer_lists(plan: _Plan, env: Env) -> tuple:
    """The lists of left * right."""
    p = plan.p
    left, right, _, cr = plan.factors
    (lrows, lcoefs), (rrows, rcoefs) = _lists(left, env), _lists(right, env)
    inner = rrows[:-1]
    rows = [a * cr + b if a >= 0 and b >= 0 else -1 for a in lrows[:-1] for b in inner]
    rows.append(-1)
    if lcoefs is None and rcoefs is None:
        return rows, None
    lcoefs, rcoefs = _coefs(lrows, lcoefs)[:-1], _coefs(rrows, rcoefs)[:-1]
    return rows, _reduced([x * y for x in lcoefs for y in rcoefs], p) + [0]


def _rekeyed(plan: _Plan, env: Env) -> tuple:
    """The lists of base with its rows permuted by the tables ``index``."""
    rows, coefs = _lists(plan.base, env)
    low, hi, lo = plan.index
    return [hi[k // low] + lo[k % low] if k >= 0 else -1 for k in rows], coefs


def _composite_lists(first: _Plan, then: _Plan) -> Optional[Callable]:
    """The ``mono`` of first ; then, or None unless both are monomial."""
    if first.mono is None or then.mono is None:
        return None
    return _gather if then.factors is None else _through


def _perm_col(plan: _Plan, env: Env, cols, j: int) -> dict:
    """Column j of a permutation, not kept."""
    if plan.index is None:
        return {j: 1}
    low, hi, lo = plan.index
    return {hi[j // low] + lo[j % low]: 1}


def _permutation(perm: tuple) -> _Plan:
    """The plan of a factor permutation."""
    return _Plan(_perm_col, 1, math.prod(perm[0]), mono=_unit_lists, index=_tables(perm), perm=perm)


# factor permutation -> its index tables (None for the identity), shared by
# every plan; emptied when full, not grown.
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
    They are built once, kept in ``_PERMS`` for every plan and published in
    one assignment, as plans are compiled by threads."""
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


# The plan registry, shared by every Env and emptied when full, not grown:
# (id(node), the shape of each name the node uses) -> (plan, dom, cod, node).
# A name's shape is an object's dim, or a generator's id in _GENS: the id of
# its type with dims, whether its integer columns are monomial, its scale
# and the field's modulus.  Each entry keeps its node, so the id in its key
# stays the node's own; _NAMES (id(node) -> (node, names)) keeps the names
# of a node in first-use order.  Ids are negative, so no generator's shape
# is ever an object's dim, and are never reused: an Env keeping an id from
# before an emptying only misses the plans compiled after it.
_PLANS: dict = {}
_NAMES: dict = {}
_GENS: dict = {}
_GEN_IDS = itertools.count(-1, -1)
_PLANS_MAX = 8192


def _names(e: MorExpr) -> tuple:
    """The names of the generators and objects e uses, in first-use order."""
    hit = _NAMES.get(id(e))
    if hit is not None and hit[0] is e:
        return hit[1]
    if isinstance(e, Seq):
        names = _names(e.first) + _names(e.then)
    elif isinstance(e, Par):
        names = _names(e.left) + _names(e.right)
    elif isinstance(e, Gen):
        names = (e.name,)
    elif isinstance(e, Id):
        names = e.word
    elif isinstance(e, SwapE):
        names = e.left + e.right
    else:
        raise TypeError(f"not a MorExpr: {e!r}")
    names = tuple(dict.fromkeys(names))
    if len(_NAMES) >= _PLANS_MAX:
        _NAMES.clear()
    _NAMES[id(e)] = (e, names)
    return names


def _shape(env: Env, name: str) -> int:
    """The shape of one name in env (see ``_PLANS``), kept in the Env."""
    sig = env.sig
    if name in sig.generators:
        m = env.bindings[name]
        cols, scale = m.int_columns()
        key = (m.dom, m.cod, all(len(c) < 2 for c in cols), scale, env.field.modulus)
        shape = _GENS.get(key)
        if shape is None:
            if len(_GENS) >= _PLANS_MAX:
                _GENS.clear()
            shape = _GENS.setdefault(key, next(_GEN_IDS))
    elif name in sig.objects:
        shape = sig.objects[name]
    else:
        raise UnknownNameError(f"unknown name {name!r}")
    env._shapes[name] = shape
    return shape


def _plan(e: MorExpr, env: Env, width: int = 0) -> tuple:
    """(plan, dom, cod, e): e typed and compiled once per shape and kept in
    ``_PLANS``, keyed by e and the shape in env of each name e uses, so
    every Env that gives those names the same shapes reads one plan.
    ``width`` is the domain width of the Seq whose second operand is e or
    has e among its factors (0: none); a Seq or Par wider than that keeps
    its columns in a ``_Sparse`` dict.  A type error is raised with the
    path "." and an unknown name without one (see ``_compiled``)."""
    names = _names(e)
    shapes = env._shapes
    try:
        key = (id(e), *map(shapes.__getitem__, names))
    except KeyError:
        key = (id(e), *[shapes[n] if n in shapes else _shape(env, n) for n in names])
    hit = _PLANS.get(key)
    if hit is None or hit[3] is not e:
        hit = _compile(e, env, width, key)
    return hit


def _compile(e: MorExpr, env: Env, width: int, key: tuple) -> tuple:
    """Compile e as ``_plan`` describes and keep it under ``key``.  It reads
    of the bindings only what the shape holds: their types, dims and
    scales, and whether their columns are monomial."""
    sig = env.sig
    p = env.field.modulus
    if isinstance(e, Seq):
        first, dom, mid, _ = _plan(e.first, env)
        ncols = first.ncols
        then, found, cod, _ = _plan(e.then, env, ncols)
        if mid != found:
            raise WordTypeError(expected=mid, found=found, path=".")
        plan = _seq(first, then, p, ncols if ncols <= (width or ncols) else 0)
    elif isinstance(e, Par):
        left, ldom, lcod, _ = _plan(e.left, env, width)
        right, rdom, rcod, _ = _plan(e.right, env, width)
        dom, cod = ldom + rdom, lcod + rcod
        ncols = left.ncols * right.ncols
        size = ncols if ncols <= (width or ncols) else 0
        plan = _par(left, right, math.prod(_dims(rcod, sig)), p, size)
    elif isinstance(e, Gen):
        if e.name not in sig.generators:
            raise UnknownNameError(f"unknown generator {e.name!r}")
        dom, cod = sig.generators[e.name]
        cols, scale = env.bindings[e.name].int_columns()
        mono = _column_lists if all(len(c) < 2 for c in cols) else None
        plan = _Plan(None, scale, len(cols), mono=mono, name=e.name)  # every column is kept
    elif isinstance(e, Id):
        dom = cod = e.word
        plan = _permutation((_dims(e.word, sig), tuple(range(len(e.word)))))
    else:
        dom, cod = e.left + e.right, e.right + e.left
        nl, nr = len(e.left), len(e.right)
        order = tuple(range(nl, nl + nr)) + tuple(range(nl))
        plan = _permutation((_dims(dom, sig), order))
    hit = (plan, dom, cod, e)
    if len(_PLANS) >= _PLANS_MAX:
        _PLANS.clear()
    _PLANS[key] = hit
    return hit


def _compiled(e: MorExpr, env: Env) -> tuple:
    """``_plan(e, env)``, with a type error or unknown name raised again by
    ``infer_type`` from e, so that the first one in e is raised, with its
    path."""
    try:
        return _plan(e, env)
    except (WordTypeError, UnknownNameError):
        infer_type(e, env.sig)
        raise


def _dims(word: tuple, sig: Signature) -> tuple:
    return tuple(sig.objects[n] for n in word)


def _rekey_col(plan: _Plan, env: Env, cols, j: int) -> dict:
    """Column j of base with its rows permuted by the tables ``index``.  A
    Kronecker base is read without keeping its columns: for the
    comultiplication ladders nothing else reads it, and keeping them would
    hold the widest structure twice."""
    base = plan.base
    bcols = env._kept.get(base)
    if bcols is None:
        bcols = _cols(base, env)
    a = bcols[j]
    if a is None:
        a = base.kron(base, env, j) if base.kron else base.fn(base, env, bcols, j)
    low, hi, lo = plan.index
    c = {}
    for k, v in a.items():
        c[hi[k // low] + lo[k % low]] = v
    cols[j] = c
    return c


def _seq(first: _Plan, then: _Plan, p: int, size: int) -> _Plan:
    """first, then then, keeping columns in stores of ``size``."""
    ncols = first.ncols
    if then.fn is _perm_col:  # re-key the rows of first
        if then.index is None:
            return first
        if first.fn is _perm_col:  # a permutation of a permutation
            dims, order = first.perm
            return _permutation((dims, tuple(order[i] for i in then.perm[1])))
        base, perm = first, then.perm
        if first.base is not None:  # compose with the rows first permutes
            base, (dims, order) = first.base, first.perm
            perm = (dims, tuple(order[i] for i in then.perm[1]))
        index = _tables(perm)
        if index is None:
            return base
        mono = base.mono and _rekeyed
        return _Plan(_rekey_col, base.scale, ncols, size, mono=mono, index=index, perm=perm,
                     base=base)
    scale = first.scale * then.scale
    mono = _composite_lists(first, then)
    # A permuted first reads then's kept columns.
    fn = _fused if then.kron and first.fn is not _perm_col else _seq_col
    return _Plan(fn, scale, ncols, size, p, mono, first=first, then=then)


def _seq_col(plan: _Plan, env: Env, cols, j: int) -> dict:
    """Column j of first ; then, kept; published one whole column at a
    time, as Envs are shared by threads."""
    first, then, p = plan.first, plan.then, plan.p
    kept = env._kept
    fcols = kept.get(first)
    if fcols is None:
        fcols = _cols(first, env)
    a = fcols[j]
    if a is None:
        a = first.fn(first, env, fcols, j)
    tcols = kept.get(then)
    if tcols is None:
        tcols = _cols(then, env)
    tfn = then.fn
    if len(a) == 1:  # one term, nothing to accumulate
        [(k, v)] = a.items()
        b = tcols[k]
        if b is None:
            b = tfn(then, env, tcols, k)
        if v != 1:
            b = {i: v * w % p if p else v * w for i, w in b.items()}
        cols[j] = b
        return b
    acc = {}
    get = acc.get
    for k, v in a.items():
        b = tcols[k]
        if b is None:
            b = tfn(then, env, tcols, k)
        for i, w in b.items():
            acc[i] = get(i, 0) + v * w
    if p:
        for i in acc:
            acc[i] %= p
    c = cols[j] = {i: x for i, x in acc.items() if x}
    return c


def _nonzero(cols: list, plan: _Plan, env: Env) -> list:
    """The indices of the nonzero columns of a kept list, computing (and
    keeping) those not kept yet."""
    out = []
    fn = plan.fn
    for k, c in enumerate(cols):
        if c is None:
            c = fn(plan, env, cols, k)
        if c:
            out.append(k)
    return out


def _product_support(lcols, left: _Plan, rcols, right: _Plan, env: Env, dr: int, walk: int):
    """The keys k1 * dr + k2 at which column k1 of left and column k2 of
    right are both nonzero, as a set; False when a factor keeps a
    ``_Sparse`` dict, or when the set would hold at least ``walk`` keys."""
    if type(lcols) is not list or type(rcols) is not list:
        return False
    nonzero_left, nonzero_right = _nonzero(lcols, left, env), _nonzero(rcols, right, env)
    if len(nonzero_left) * len(nonzero_right) >= walk:
        return False
    return {k1 * dr + k2 for k1 in nonzero_left for k2 in nonzero_right}


def _fused(plan: _Plan, env: Env, cols, j: int) -> dict:
    """Column j of first ; (left * right): it accumulates the outer
    products of the factors' columns, never forming a column of the
    Kronecker product ``then``.

    The term at key k = k1 * dr + k2 of first's column is zero unless
    column k1 of left and column k2 of right are both nonzero.  In each
    Env, the first column of first with more than one term decides whether
    to skip the others: it finds the nonzero columns of both factors, and
    keeps the set S of keys where both are nonzero when |S| is smaller than
    the terms the plain loop would walk (that column's length times the
    width of first).  With S kept (in ``env._support``), each column walks
    only its keys in S; otherwise every key.  A factor kept in a
    ``_Sparse`` dict is never scanned: the plain loop."""
    first, then, p = plan.first, plan.then, plan.p
    kept = env._kept
    fcols = kept.get(first)
    if fcols is None:
        fcols = _cols(first, env)
    a = fcols[j]
    if a is None:
        a = first.fn(first, env, fcols, j)
    if len(a) == 1:  # one term: a scaled outer product, with no zero
        [(k, v)] = a.items()
        c = then.kron(then, env, k)
        if v != 1:
            c = {i: v * w % p if p else v * w for i, w in c.items()}
        cols[j] = c
        return c
    if not a:  # a zero column decides nothing
        c = cols[j] = {}
        return c
    left, right, dr, cr = then.factors
    lcols, rcols = _cols(left, env), _cols(right, env)
    s = env._support.get(plan)
    if s is None:  # S, or False for the plain loop; published once decided
        walk = len(a) * plan.ncols
        s = env._support[plan] = _product_support(lcols, left, rcols, right, env, dr, walk)
    if s is not False:
        a = {k: a[k] for k in a.keys() & s}
    lfn, rfn = left.fn, right.fn
    acc = {}
    get = acc.get
    for k, v in a.items():
        k1, k2 = divmod(k, dr)
        x1 = lcols[k1]
        if x1 is None:
            x1 = lfn(left, env, lcols, k1)
        b = rcols[k2]
        if b is None:
            b = rfn(right, env, rcols, k2)
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


def _par(left: _Plan, right: _Plan, cr: int, p: int, size: int) -> _Plan:
    """left * right, keeping columns in stores of ``size``; ``cr`` is the
    cod dim of the right factor."""
    if left.fn is _perm_col and right.fn is _perm_col:  # a permutation beside a permutation
        (d1, o1), (d2, o2) = left.perm, right.perm
        return _permutation((d1 + d2, o1 + tuple(len(d1) + i for i in o2)))
    scale = left.scale * right.scale
    ncols = left.ncols * right.ncols
    factors = (left, right, right.ncols, cr)
    mono = _outer_lists if left.mono and right.mono else None
    if left.fn is _perm_col:
        return _Plan(_unit_beside_col, scale, ncols, size, p, mono, factors=factors)
    if right.fn is _perm_col:
        return _Plan(_col_beside_unit, scale, ncols, size, p, mono, factors=factors)
    return _Plan(_par_col, scale, ncols, size, p, mono, factors=factors, kron=_outer)


def _unit_beside_col(plan: _Plan, env: Env, cols, j: int) -> dict:
    """Column j of a permutation beside a structure, kept."""
    left, right, dr, cr = plan.factors
    low, hi, lo = left.index or (1, None, None)
    j1, j2 = divmod(j, dr)
    base = (j1 if hi is None else hi[j1 // low] + lo[j1 % low]) * cr
    rcols = env._kept.get(right)
    if rcols is None:
        rcols = _cols(right, env)
    b = rcols[j2]
    if b is None:
        b = right.fn(right, env, rcols, j2)
    c = {}
    for i, v in b.items():
        c[base + i] = v
    cols[j] = c
    return c


def _col_beside_unit(plan: _Plan, env: Env, cols, j: int) -> dict:
    """Column j of a structure beside a permutation, kept."""
    left, right, dr, cr = plan.factors
    low, hi, lo = right.index or (1, None, None)
    j1, j2 = divmod(j, dr)
    i2 = j2 if hi is None else hi[j2 // low] + lo[j2 % low]
    lcols = env._kept.get(left)
    if lcols is None:
        lcols = _cols(left, env)
    a = lcols[j1]
    if a is None:
        a = left.fn(left, env, lcols, j1)
    c = {}
    for i, v in a.items():
        c[i * cr + i2] = v
    cols[j] = c
    return c


def _outer(plan: _Plan, env: Env, j: int) -> dict:
    """Column j of left * right, not kept."""
    left, right, dr, cr = plan.factors
    p = plan.p
    kept = env._kept
    j1, j2 = divmod(j, dr)
    lcols = kept.get(left)
    if lcols is None:
        lcols = _cols(left, env)
    a = lcols[j1]
    if a is None:
        a = left.fn(left, env, lcols, j1)
    rcols = kept.get(right)
    if rcols is None:
        rcols = _cols(right, env)
    b = rcols[j2]
    if b is None:
        b = right.fn(right, env, rcols, j2)
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


def _par_col(plan: _Plan, env: Env, cols, j: int) -> dict:
    """Column j of left * right, kept."""
    c = cols[j] = _outer(plan, env, j)
    return c


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
    ncols = plan.ncols
    if plan.mono:
        rows, coefs = _lists(plan, env)
        if coefs is None:
            cols = [{i: 1} if i >= 0 else {} for i in rows[:ncols]]
        else:
            cols = [{i: n} if i >= 0 else {} for i, n in zip(rows[:ncols], coefs)]
    else:
        kept, fn = _cols(plan, env), plan.fn
        cols = [fn(plan, env, kept, j) if kept[j] is None else kept[j] for j in range(ncols)]
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
        (lrows, lcoefs), (rrows, rcoefs) = _lists(lplan, env), _lists(rplan, env)
        same = lrows == rrows
        if same and lcoefs is None and rcoefs is None:  # every entry is 1 / scale
            same = lscale == rscale or max(lrows) < 0  # or both maps are zero
        elif same:
            lcoefs, rcoefs = _coefs(lrows, lcoefs), _coefs(rrows, rcoefs)
            same = (lcoefs == rcoefs if lscale == rscale
                    else [n * rscale for n in lcoefs] == [n * lscale for n in rcoefs])
    else:
        same = _same_columns(lplan, rplan, env)
    if same:
        return Verdict(check_id, "pass")
    r, c, x, y = evaluate(lhs, env).first_difference(evaluate(rhs, env))
    return Verdict(check_id, "fail", witness=Witness(r, c, x, y))


def _same_columns(lplan: _Plan, rplan: _Plan, env: Env) -> bool:
    lcols, lfn, rcols, rfn = _cols(lplan, env), lplan.fn, _cols(rplan, env), rplan.fn
    lscale, rscale = lplan.scale, rplan.scale
    same_scale = lscale == rscale
    for j in range(lplan.ncols):
        a = lcols[j]
        if a is None:
            a = lfn(lplan, env, lcols, j)
        b = rcols[j]
        if b is None:
            b = rfn(rplan, env, rcols, j)
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
