"""Exact linear maps between tensor words of named objects.

A word is a tuple of named factors; the basis of ``X1 (x) ... (x) Xn`` is
ordered lexicographically with the leftmost factor most significant, so the
flat index of ``(i1, ..., in)`` is ``sum(i_k * prod(dim X_l for l > k))``.
A map's one content is its integer columns (``LinMap.int_columns``) in
canonical form; its ``rows`` of field scalars, indexed by the codomain basis,
are a read-only view of them.  Gaussian elimination (``rref``) works on
sparse integer rows.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, prod
from typing import NamedTuple, Optional, Sequence

from .fields import Field, FieldError, NonCanonicalScalar


class ShapeError(ValueError):
    pass


class FieldMismatchError(ValueError):
    pass


class NotIdempotentError(ValueError):
    def __init__(self, message: str, witness_col: int):
        super().__init__(message)
        self.witness_col = witness_col


class Obj(NamedTuple):
    name: str
    dim: int


Word = tuple  # tuple[Obj, ...]

UNIT_WORD: Word = ()


def wdim(w: Word) -> int:
    d = 1
    for ob in w:
        d *= ob.dim
    return d


def word_name(w: Word) -> str:
    return "K" if not w else "*".join(ob.name for ob in w)


def _as_word(x) -> Word:
    if isinstance(x, Obj):
        return (x,)
    return tuple(x)


class _Row(list):
    """A list that refuses writes: the rows view of a LinMap, and each row."""

    __slots__ = ()

    def _refuse(self, *args):
        raise TypeError("a LinMap's rows are read-only")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __reduce__(self):
        return _Row, (list(self),)


def _check_shape(rows, nr: int, nc: int) -> None:
    if len(rows) != nr or any(len(r) != nc for r in rows):
        raise ShapeError(
            f"matrix shape {len(rows)}x{'?' if not rows else len(rows[0])}"
            f" does not match cod dim {nr} x dom dim {nc}"
        )


class LinMap:
    """Exact matrix of a morphism dom -> cod.

    Its one content is ``int_columns()``, in the canonical form that
    ``from_int_columns`` makes; ``==``, ``first_difference`` and ``-`` read
    it.  A map built from rows reads them at its first ``int_columns`` and
    then drops them; until then the given list may be filled in place.  No
    other field is ever rebound: an assignment raises TypeError."""

    __slots__ = ("field", "dom", "cod", "_given", "_int_cols", "_view")
    __hash__ = None

    def __init__(self, field: Field, dom: Word, cod: Word, rows: list):
        _check_shape(rows, wdim(cod), wdim(dom))
        _init(self, field, dom, cod, rows, None)

    def _refuse(self, *args):
        raise TypeError("a LinMap is read-only: its fields are never rebound")

    __setattr__ = __delattr__ = _refuse

    @classmethod
    def from_int_columns(cls, field: Field, dom: Word, cod: Word, cols: list, scale: int):
        """The map whose column j has the entries n / scale of ``cols[j]``, a
        dict {row: n}, kept as ``int_columns`` in canonical form: over F_p
        residues in [0, p) over the scale 1, over Q a positive scale reduced
        with the entries by their gcd, and zeros dropped.  The given dicts
        are kept when they are canonical already, else copied; they are
        never written.  Raises FieldError for a scale that is zero in the
        field, ShapeError for a wrong number of columns or a row index
        outside the codomain."""
        nr = wdim(cod)
        if len(cols) != wdim(dom) or any(c and (min(c) < 0 or max(c) >= nr) for c in cols):
            raise ShapeError(f"columns do not fit a map {word_name(dom)} -> {word_name(cod)}")
        p = field.modulus
        if not (scale % p if p else scale):
            raise FieldError(f"scale {scale} is zero in {field!r}")
        if p:
            if scale != 1 or any(not 0 < n < p for c in cols for n in c.values()):
                s = pow(scale, -1, p)
                cols, scale = [{i: x for i, n in c.items() if (x := n * s % p)} for c in cols], 1
        else:
            g = gcd(scale, *(n for c in cols for n in c.values()))
            g = -g if scale < 0 else g
            if g != 1 or any(0 in c.values() for c in cols):
                cols, scale = [{i: n // g for i, n in c.items() if n} for c in cols], scale // g
        return _from_canonical(field, dom, cod, (cols, scale))

    @property
    def nrows(self) -> int:
        return wdim(self.cod)

    @property
    def ncols(self) -> int:
        return wdim(self.dom)

    @property
    def rows(self) -> list:
        """The rows of field scalars, indexed by the cod basis: the given list
        of a map built from rows and not yet read, else a read-only view of
        the columns, built the first time it is asked for and kept."""
        view = self._view
        if view is None:
            given = self._given  # read first: the columns are published before it is dropped
            if self._int_cols is None:
                return given
            cols, scale = self._int_cols
            conv, z = self.field.from_int, self.field.zero
            rows = [[z] * len(cols) for _ in range(self.nrows)]
            for j, c in enumerate(cols):
                for i, n in c.items():
                    rows[i][j] = conv(n, scale)
            view = _Row(map(_Row, rows))
            object.__setattr__(self, "_view", view)  # published in one assignment
        return view

    def int_columns(self) -> tuple[list, int]:
        """(cols, scale): column j as a dict {row: n} without zeros, whose
        entries are n / scale; over F_p the scale is 1 and n a residue.
        Read off the given rows at the first call and kept; raises
        FieldError naming the (row, col) of an entry that is not a canonical
        scalar of the map's field.  The given rows are dropped once the
        columns are kept.  The dicts are shared, and never written."""
        rows = self._given  # read first, as in ``rows``
        kept = self._int_cols
        if kept is None:
            _check_shape(rows, self.nrows, self.ncols)  # they may have been refilled in place
            nz = [[] for _ in range(self.ncols)]
            for i, row in enumerate(rows):
                for j, v in enumerate(row):
                    if v:
                        nz[j].append((i, v))
            try:
                ns, scale = self.field.to_ints([v for col in nz for _, v in col])
            except NonCanonicalScalar as exc:
                i, j = [(i, j) for j, col in enumerate(nz) for i, _ in col][exc.index]
                raise FieldError(f"entry ({i}, {j}) of {self!r}: {exc}") from None
            flat = iter(ns)  # zip reads col first, so flat is never over-read
            kept = ([{i: n for (i, _), n in zip(col, flat) if n} for col in nz], scale)
            # Published in one assignment, as threads may read one new map at once.
            object.__setattr__(self, "_int_cols", kept)
            object.__setattr__(self, "_given", None)
        return kept

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (
            self.field == other.field
            and self.dom == other.dom
            and self.cod == other.cod
            and self.int_columns() == other.int_columns()
        )

    def __sub__(self, other: "LinMap") -> "LinMap":
        _check_same_shape(self, other)
        (acols, sa), (bcols, sb) = self.int_columns(), other.int_columns()
        cols = []
        for a, b in zip(acols, bcols):
            c = {i: n * sb for i, n in a.items()}
            for i, n in b.items():
                c[i] = c.get(i, 0) - n * sa
            cols.append(c)
        return LinMap.from_int_columns(self.field, self.dom, self.cod, cols, sa * sb)

    def column(self, j: int) -> list:
        return [r[j] for r in self.rows]

    def first_difference(self, other: "LinMap"):
        """First (row, col, self value, other value), in row-major order,
        where entries differ, or None."""
        _check_same_shape(self, other)
        (acols, sa), (bcols, sb) = self.int_columns(), other.int_columns()
        first = min(((i, j) for j, (a, b) in enumerate(zip(acols, bcols)) if sa != sb or a != b
                     for i in a.keys() | b.keys() if a.get(i, 0) * sb != b.get(i, 0) * sa),
                    default=None)
        if first is None:
            return None
        i, j = first
        conv = self.field.from_int
        return (i, j, conv(acols[j].get(i, 0), sa), conv(bcols[j].get(i, 0), sb))

    def __reduce__(self):
        return _from_canonical, (self.field, self.dom, self.cod, self.int_columns())

    def __repr__(self):
        return f"LinMap({word_name(self.dom)} -> {word_name(self.cod)}, {self.nrows}x{self.ncols})"


def _init(m: LinMap, field, dom, cod, given, int_cols) -> None:
    """Set each slot of a new map once, past the refusing ``__setattr__``."""
    for name, value in zip(LinMap.__slots__, (field, dom, cod, given, int_cols, None)):
        object.__setattr__(m, name, value)


def _from_canonical(field: Field, dom: Word, cod: Word, int_cols: tuple) -> LinMap:
    """The map of columns already in canonical form, kept as they are."""
    m = object.__new__(LinMap)
    _init(m, field, dom, cod, None, int_cols)
    return m


def _check_same_shape(a: LinMap, b: LinMap):
    if a.field != b.field:
        raise FieldMismatchError(f"fields differ: {a.field!r} vs {b.field!r}")
    if a.dom != b.dom or a.cod != b.cod:
        raise ShapeError(f"words differ: {a!r} vs {b!r}")


def zero_map(field: Field, dom: Word, cod: Word) -> LinMap:
    z = field.zero
    return LinMap(field, dom, cod, [[z] * wdim(dom) for _ in range(wdim(cod))])


def identity(field: Field, w) -> LinMap:
    w = _as_word(w)
    n = wdim(w)
    z, o = field.zero, field.one
    rows = [[z] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = o
    return LinMap(field, w, w, rows)


def from_rows(field: Field, dom, cod, rows: Sequence[Sequence]) -> LinMap:
    norm = field.normalize
    return LinMap(field, _as_word(dom), _as_word(cod), [[norm(v) for v in r] for r in rows])


def compose(g: LinMap, f: LinMap) -> LinMap:
    """Matrix product g . f (f applied first)."""
    if g.field != f.field:
        raise FieldMismatchError(f"fields differ: {g.field!r} vs {f.field!r}")
    if f.cod != g.dom:
        raise ShapeError(f"cannot compose: cod {word_name(f.cod)} != dom {word_name(g.dom)}")
    norm = g.field.normalize
    nr, nc = g.nrows, f.ncols
    f_rownz = [[(j, v) for j, v in enumerate(row) if v] for row in f.rows]
    z = g.field.zero
    out = [[z] * nc for _ in range(nr)]
    for i in range(nr):
        grow = g.rows[i]
        orow = out[i]
        for k, gv in enumerate(grow):
            if gv:
                for j, fv in f_rownz[k]:
                    orow[j] = orow[j] + gv * fv
        out[i] = [norm(v) for v in orow]
    return LinMap(g.field, f.dom, g.cod, out)


def tensor_product(*maps: LinMap) -> LinMap:
    """Kronecker product under the leftmost-most-significant index order."""
    if not maps:
        raise ShapeError("tensor_product needs at least one map")
    out = maps[0]
    for m in maps[1:]:
        out = _tensor2(out, m)
    return out


def _tensor2(a: LinMap, b: LinMap) -> LinMap:
    if a.field != b.field:
        raise FieldMismatchError(f"fields differ: {a.field!r} vs {b.field!r}")
    field = a.field
    norm = field.normalize
    dom = a.dom + b.dom
    cod = a.cod + b.cod
    bnr, bnc = b.nrows, b.ncols
    z = field.zero
    out = [[z] * (a.ncols * bnc) for _ in range(a.nrows * bnr)]
    b_nz = [
        [(j2, v2) for j2, v2 in enumerate(row) if v2] for row in b.rows
    ]
    for i1, arow in enumerate(a.rows):
        for j1, av in enumerate(arow):
            if av:
                for i2 in range(bnr):
                    orow = out[i1 * bnr + i2]
                    base = j1 * bnc
                    for j2, bv in b_nz[i2]:
                        orow[base + j2] = norm(av * bv)
    return LinMap(field, dom, cod, out)


def rename_factor(m: LinMap, mapping: dict) -> LinMap:
    """Rename word factors (dims unchanged); the columns are shared."""
    def ren(w: Word) -> Word:
        return tuple(Obj(mapping.get(ob.name, ob.name), ob.dim) for ob in w)

    return _from_canonical(m.field, ren(m.dom), ren(m.cod), m.int_columns())


def swap(x, y, field: Field) -> LinMap:
    """Symmetry c_{X,Y}: X (x) Y -> Y (x) X sending e_i (x) e_j to e_j (x) e_i."""
    xw, yw = _as_word(x), _as_word(y)
    dx, dy = wdim(xw), wdim(yw)
    z, o = field.zero, field.one
    n = dx * dy
    rows = [[z] * n for _ in range(n)]
    for i in range(dx):
        for j in range(dy):
            rows[j * dx + i][i * dy + j] = o
    return LinMap(field, xw + yw, yw + xw, rows)


# ---------------------------------------------------------------------------
# Gaussian elimination on sparse integer rows
# ---------------------------------------------------------------------------

def _int_rows(*maps: LinMap) -> list:
    """The block matrix [m1 | m2 | ...] of maps with one codomain as the
    sparse integer rows ``rref`` reads, read from their integer columns
    times the product of their scales, which leaves the row space, and so
    the reduced form, unchanged."""
    blocks = [m.int_columns() for m in maps]
    total = prod(scale for _, scale in blocks)
    rows = [{} for _ in range(maps[0].nrows)]
    base = 0
    for cols, scale in blocks:
        f = total // scale
        for j, c in enumerate(cols, base):
            for i, n in c.items():
                rows[i][j] = n * f
        base += len(cols)
    return rows


def _primitive(row: dict) -> dict:
    g = gcd(*row.values())
    return row if g < 2 else {k: v // g for k, v in row.items()}


def _eliminate(row: dict, col: int, prow: dict, p: int) -> dict:
    """``row`` with its entry at ``col`` cleared by the pivot row ``prow``,
    whose leading entry is at ``col``.  Over F_p (``p`` nonzero) ``prow``
    leads with 1 and entries stay residues; over Q the result is primitive."""
    a = row[col]
    if p:
        out = dict(row)
        for k, v in prow.items():
            x = (out.get(k, 0) - a * v) % p
            if x:
                out[k] = x
            else:
                del out[k]
        return out
    b = prow[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {k: b * v for k, v in row.items()} if b != 1 else dict(row)
    for k, v in prow.items():
        x = out.get(k, 0) - a * v
        if x:
            out[k] = x
        else:
            del out[k]
    return _primitive(out)


def rref(rows: list, ncols: int, field: Field) -> tuple[list, list[int]]:
    """Reduced row echelon form of sparse integer rows.

    Each row is a dict column -> int with columns below ``ncols``: residues
    (or any integers, reduced here) over F_p, and over Q integers that may
    carry any nonzero row factor.  ``rows`` is read, not changed.  Returns
    the nonzero rows of the reduced form, top to bottom, as dicts column ->
    field scalar, and their pivot columns, ascending.

    Elimination is fraction-free and Gauss-Jordan: each row is reduced
    against the pivot rows found so far, and a new pivot is cleared from
    the earlier ones.  Over Q rows stay primitive (integers divided by
    their gcd), over F_p a pivot row leads with 1.  Field scalars are built
    only for the result.  The reduced row echelon form of a matrix is
    unique, so the result does not depend on the order of elimination.
    """
    p = field.modulus
    piv: dict = {}  # pivot column -> its row, zero in every other pivot column
    for row in rows:
        row = {k: v for k, v in row.items() if (v % p if p else v)}
        for k in [k for k in row if k in piv]:
            row = _eliminate(row, k, piv[k], p)
        if not row:
            continue
        col = min(row)
        if p:
            s = pow(row[col], -1, p)
            row = {k: v * s % p for k, v in row.items()}
        else:
            row = _primitive(row)
        for k, prow in piv.items():
            if col in prow:
                piv[k] = _eliminate(prow, col, row, p)
        piv[col] = row
    pivots = sorted(piv)
    if p:
        return [piv[c] for c in pivots], pivots
    red = []
    for c in pivots:
        row = piv[c]
        lead = row[c]
        red.append({k: Fraction(v, lead) for k, v in row.items()})
    return red, pivots


def split_idempotent(e: LinMap, name: str = "im") -> tuple[int, LinMap, LinMap]:
    """Split e = inj . proj with proj . inj = id on the image object.

    The image basis is deterministic: the pivot columns of e (ascending),
    with proj the nonzero rows of the reduced row echelon form of e.
    """
    if e.dom != e.cod:
        raise ShapeError("split_idempotent needs an endomorphism")
    ee = compose(e, e)
    diff = ee.first_difference(e)
    if diff is not None:
        raise NotIdempotentError(
            f"map is not idempotent: e*e differs from e at {diff[:2]}", witness_col=diff[1]
        )
    red, pivots = rref(_int_rows(e), e.ncols, e.field)
    rank = len(pivots)
    img = (Obj(name, rank),)
    cols, scale = e.int_columns()
    inj = LinMap.from_int_columns(e.field, img, e.cod, [cols[j] for j in pivots], scale)
    z = e.field.zero
    proj = LinMap(e.field, e.dom, img, [[r.get(k, z) for k in range(e.ncols)] for r in red])
    return rank, inj, proj


def _solve(aug: list, nunk: int, nrhs: int, field: Field) -> Optional[list]:
    """The solution X, free unknowns zero, of A X = B given as the sparse
    integer rows of [A | B] (unknowns 0..nunk-1, then nrhs right-hand
    sides): nunk rows of nrhs field scalars, or None if there is none."""
    red, pivots = rref(aug, nunk + nrhs, field)
    if pivots and pivots[-1] >= nunk:
        return None  # inconsistent: a rhs column is a pivot
    z = field.zero
    sol = [[z] * nrhs for _ in range(nunk)]
    for row, col in zip(red, pivots):
        sol[col] = [row.get(k, z) for k in range(nunk, nunk + nrhs)]
    return sol


def _solve_rows(field: Field, dom: Word, cod: Word, aug_rows: list, nunk: int) -> Optional[LinMap]:
    """The solution dom -> cod, free unknowns zero, of an augmented system
    of sparse integer rows (unknowns 0..nunk-1, then the rhs), the unknown
    of entry (i, j) at i * dim dom + j; None if the system has no solution."""
    sol = _solve(aug_rows, nunk, 1, field)
    if sol is None:
        return None
    nc = wdim(dom)
    rows = [[x for [x] in sol[i * nc:(i + 1) * nc]] for i in range(wdim(cod))]
    return LinMap(field, dom, cod, rows)


def factor_through(target: LinMap, through: LinMap) -> Optional[LinMap]:
    """Find X with through . X = target, or None.  Deterministic (free parts zero)."""
    if target.field != through.field or target.cod != through.cod:
        raise ShapeError("factor_through: codomains must agree")
    sol = _solve(_int_rows(through, target), through.ncols, target.ncols, target.field)
    return None if sol is None else LinMap(target.field, target.dom, through.dom, sol)


def column_rank(m: LinMap) -> int:
    _, pivots = rref(_int_rows(m), m.ncols, m.field)
    return len(pivots)


def invert(m: LinMap) -> Optional[LinMap]:
    """Two-sided inverse of a square-shaped map, or None: the X with m . X = id."""
    return factor_through(identity(m.field, m.cod), m) if m.nrows == m.ncols else None
