"""Exact dense linear maps between tensor words of named objects.

A word is a tuple of named factors; the basis of ``X1 (x) ... (x) Xn`` is
ordered lexicographically with the leftmost factor most significant, so the
flat index of ``(i1, ..., in)`` is ``sum(i_k * prod(dim X_l for l > k))``.
A map's content is its integer columns (``LinMap.int_columns``); its dense
rows of field scalars, indexed by the codomain basis, are editable until
those are first read and read-only after.  Gaussian elimination (``rref``)
works on sparse integer rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
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
    """A list that refuses writes: the rows of a read map, and each row."""

    __slots__ = ()

    def _refuse(self, *args):
        raise TypeError("a LinMap's rows are read-only once its integer columns are read")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __reduce__(self):
        return _Row, (list(self),)


@dataclass
class LinMap:
    """Exact matrix of a morphism dom -> cod; rows indexed by cod basis.

    ``rows`` may be filled in place, and any field rebound, until
    ``int_columns`` is first called; from then on the map is read-only,
    and a write raises TypeError."""

    field: Field
    dom: Word
    cod: Word
    rows: list  # list[list[scalar]]
    _int_cols: Optional[tuple] = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        nr, nc = wdim(self.cod), wdim(self.dom)
        if len(self.rows) != nr or any(len(r) != nc for r in self.rows):
            raise ShapeError(
                f"matrix shape {len(self.rows)}x{'?' if not self.rows else len(self.rows[0])}"
                f" does not match cod dim {nr} x dom dim {nc}"
            )
        if self._int_cols is not None and type(self.rows) is not _Row:
            object.__setattr__(self, "rows", _Row(map(_Row, self.rows)))

    def __setattr__(self, name, value):
        if self._int_cols is not None:
            raise TypeError("a LinMap is read-only once its integer columns are read")
        object.__setattr__(self, name, value)

    @classmethod
    def from_int_columns(cls, field: Field, dom: Word, cod: Word, cols: list, scale: int):
        """The map whose column j has the entries n / scale of ``cols[j]``, a
        dict {row: n} without zeros (over F_p, residues and scale 1): the one
        place where integer columns become field scalars.  The columns are
        kept, reduced by their gcd with the scale, as ``int_columns``."""
        g = gcd(scale, *(n for c in cols for n in c.values()))
        if g > 1:
            cols, scale = [{i: n // g for i, n in c.items()} for c in cols], scale // g
        conv, z = field.from_int, field.zero
        rows = [[z] * len(cols) for _ in range(wdim(cod))]
        for j, c in enumerate(cols):
            for i, n in c.items():
                rows[i][j] = conv(n, scale)
        return cls(field, dom, cod, rows, (cols, scale))

    @property
    def nrows(self) -> int:
        return wdim(self.cod)

    @property
    def ncols(self) -> int:
        return wdim(self.dom)

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (
            self.field == other.field
            and self.dom == other.dom
            and self.cod == other.cod
            and self.rows == other.rows
        )

    def __sub__(self, other: "LinMap") -> "LinMap":
        _check_same_shape(self, other)
        norm = self.field.normalize
        rows = [
            [norm(a - b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)
        ]
        return LinMap(self.field, self.dom, self.cod, rows)

    def int_columns(self) -> tuple[list, int]:
        """(cols, scale): column j as a dict {row: n} without zeros, whose
        entries are n / scale; over F_p the scale is 1 and n a residue.
        Raises FieldError naming the (row, col) of an entry that is not a
        canonical scalar of the map's field.
        Computed once and kept, after which the rows are read-only; the
        dicts are shared, and never written."""
        if self._int_cols is None:
            nz = [[] for _ in range(self.ncols)]
            for i, row in enumerate(self.rows):
                for j, v in enumerate(row):
                    if v:
                        nz[j].append((i, v))
            try:
                ns, scale = self.field.to_ints([v for col in nz for _, v in col])
            except NonCanonicalScalar as exc:
                i, j = [(i, j) for j, col in enumerate(nz) for i, _ in col][exc.index]
                raise FieldError(f"entry ({i}, {j}) of {self!r}: {exc}") from None
            flat = iter(ns)  # zip reads col first, so flat is never over-read
            cols = [{i: n for (i, _), n in zip(col, flat) if n} for col in nz]
            # Published past the guard, as threads may read one new map at once.
            object.__setattr__(self, "rows", _Row(map(_Row, self.rows)))
            object.__setattr__(self, "_int_cols", (cols, scale))  # in one assignment
        return self._int_cols

    def column(self, j: int) -> list:
        return [r[j] for r in self.rows]

    def first_difference(self, other: "LinMap"):
        """First (row, col, self value, other value) where entries differ, or None."""
        _check_same_shape(self, other)
        for i, (ra, rb) in enumerate(zip(self.rows, other.rows)):
            if ra != rb:
                for j, (a, b) in enumerate(zip(ra, rb)):
                    if a != b:
                        return (i, j, a, b)
        return None

    def __repr__(self):
        return f"LinMap({word_name(self.dom)} -> {word_name(self.cod)}, {self.nrows}x{self.ncols})"


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
    """Rename word factors (dims unchanged); rows and columns are shared."""
    def ren(w: Word) -> Word:
        return tuple(Obj(mapping.get(ob.name, ob.name), ob.dim) for ob in w)

    return LinMap(m.field, ren(m.dom), ren(m.cod), m.rows, m.int_columns())


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
    inj = LinMap(e.field, img, e.cod, [[e.rows[i][j] for j in pivots] for i in range(e.nrows)])
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
