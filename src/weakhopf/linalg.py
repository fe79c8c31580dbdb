"""Exact dense linear maps between tensor words of named objects.

A word is a tuple of named factors; the basis of ``X1 (x) ... (x) Xn`` is
ordered lexicographically with the leftmost factor most significant, so the
flat index of ``(i1, ..., in)`` is ``sum(i_k * prod(dim X_l for l > k))``.
Matrices are stored densely, rows indexed by the codomain basis; Gaussian
elimination (``rref``) works on sparse integer rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .fields import Field


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


def word(*objs: Obj) -> Word:
    return tuple(objs)


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


@dataclass
class LinMap:
    """Exact matrix of a morphism dom -> cod; rows indexed by cod basis."""

    field: Field
    dom: Word
    cod: Word
    rows: list  # list[list[scalar]]
    _col_nz: Optional[list] = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        nr, nc = wdim(self.cod), wdim(self.dom)
        if len(self.rows) != nr or any(len(r) != nc for r in self.rows):
            raise ShapeError(
                f"matrix shape {len(self.rows)}x{'?' if not self.rows else len(self.rows[0])}"
                f" does not match cod dim {nr} x dom dim {nc}"
            )

    @property
    def nrows(self) -> int:
        return wdim(self.cod)

    @property
    def ncols(self) -> int:
        return wdim(self.dom)

    def then(self, other: "LinMap") -> "LinMap":
        """Diagram-order composition: self first, then other."""
        return compose(other, self)

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (
            self.field == other.field
            and self.dom == other.dom
            and self.cod == other.cod
            and self.rows == other.rows
        )

    def __add__(self, other: "LinMap") -> "LinMap":
        _check_same_shape(self, other)
        norm = self.field.normalize
        rows = [
            [norm(a + b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)
        ]
        return LinMap(self.field, self.dom, self.cod, rows)

    def __sub__(self, other: "LinMap") -> "LinMap":
        _check_same_shape(self, other)
        norm = self.field.normalize
        rows = [
            [norm(a - b) for a, b in zip(ra, rb)]
            for ra, rb in zip(self.rows, other.rows)
        ]
        return LinMap(self.field, self.dom, self.cod, rows)

    def col_nonzeros(self) -> list:
        """Per-column sparse view [(row, value), ...]; cached."""
        if self._col_nz is None:
            cols = [[] for _ in range(self.ncols)]
            for i, row in enumerate(self.rows):
                for j, v in enumerate(row):
                    if v:
                        cols[j].append((i, v))
            self._col_nz = cols
        return self._col_nz

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
    """Rename word factors (dims unchanged); entries are shared, not copied."""
    def ren(w: Word) -> Word:
        return tuple(Obj(mapping.get(ob.name, ob.name), ob.dim) for ob in w)

    return LinMap(m.field, ren(m.dom), ren(m.cod), m.rows)


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

def _int_rows(rows: Sequence, field: Field) -> list:
    """Dense rows of field scalars as the sparse integer rows ``rref`` reads.

    Over Q each row is scaled by its own common denominator; scaling a row
    leaves its row space, and so the reduced form, unchanged."""
    out = []
    for row in rows:
        cols = [j for j, v in enumerate(row) if v]
        ns, _ = field.to_ints([row[j] for j in cols])
        out.append(dict(zip(cols, ns)))
    return out


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
    carry any nonzero row factor (see ``_int_rows``).  ``rows`` is read, not
    changed.  Returns the nonzero rows of the reduced form, top to bottom,
    as dicts column -> field scalar, and their pivot columns, ascending.

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


def _densify(row: dict, n: int, zero) -> list:
    out = [zero] * n
    for k, v in row.items():
        out[k] = v
    return out


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
    red, pivots = rref(_int_rows(e.rows, e.field), e.ncols, e.field)
    rank = len(pivots)
    img = (Obj(name, rank),)
    inj = LinMap(e.field, img, e.cod, [[e.rows[i][j] for j in pivots] for i in range(e.nrows)])
    proj = LinMap(e.field, e.dom, img, [_densify(r, e.ncols, e.field.zero) for r in red])
    return rank, inj, proj


@dataclass
class SolveOutcome:
    """Result of solve_affine: no solution, a unique one, or an affine family."""

    kind: str  # "none" | "unique" | "affine"
    particular: Optional[LinMap]
    nullspace: list

    @property
    def is_solvable(self) -> bool:
        return self.kind != "none"


def _particular(red: list, pivots: list, nunk: int, field: Field) -> Optional[list]:
    """The flat solution, free unknowns zero, of a reduced augmented system
    (unknowns 0..nunk-1, right-hand side at column nunk); None if there is
    none."""
    if pivots and pivots[-1] == nunk:
        return None
    z = field.zero
    flat = [z] * nunk
    for row, col in zip(red, pivots):
        flat[col] = row.get(nunk, z)
    return flat


def _kernel(red: list, pivots: list, n: int, field: Field) -> list:
    """One flat kernel vector per free column below n, in column order: 1 at
    that column, minus the column of the reduced form at the pivots."""
    pivset = set(pivots)
    z, one, norm = field.zero, field.one, field.normalize
    vecs = {}
    for fc in range(n):
        if fc not in pivset:
            vecs[fc] = [z] * n
            vecs[fc][fc] = one
    for row, col in zip(red, pivots):
        for k, v in row.items():
            if k != col and k < n:
                vecs[k][col] = norm(-v)
    return list(vecs.values())


def _as_map(field: Field, dom: Word, cod: Word, flat: list) -> LinMap:
    nc = wdim(dom)
    return LinMap(field, dom, cod, [flat[i * nc:(i + 1) * nc] for i in range(wdim(cod))])


def solve_affine(
    field: Field,
    dom: Word,
    cod: Word,
    constraints: Iterable[tuple[LinMap, object]],
) -> SolveOutcome:
    """Solve for an unknown LinMap dom -> cod subject to affine constraints.

    Each constraint is a pair (functional, rhs): the functional is a map of
    the same shape as the unknown, read as sum(F[i][j] * X[i][j]) = rhs.
    """
    nunk = wdim(cod) * wdim(dom)
    rows = []
    for functional, rhs in constraints:
        if functional.dom != dom or functional.cod != cod or functional.field != field:
            raise ShapeError("constraint functional shape does not match the unknown")
        flat = [v for r in functional.rows for v in r]
        flat.append(field.normalize(rhs))
        rows.append(flat)
    red, pivots = rref(_int_rows(rows, field), nunk + 1, field)
    flat = _particular(red, pivots, nunk, field)
    if flat is None:
        return SolveOutcome("none", None, [])
    basis = [_as_map(field, dom, cod, v) for v in _kernel(red, pivots, nunk, field)]
    return SolveOutcome("affine" if basis else "unique", _as_map(field, dom, cod, flat), basis)


def _solve_rows(field: Field, dom: Word, cod: Word, aug_rows: list, nunk: int) -> Optional[LinMap]:
    """The solution dom -> cod, free unknowns zero, of an augmented system
    of sparse integer rows (unknowns 0..nunk-1, then the rhs); None if the
    system has no solution."""
    red, pivots = rref(aug_rows, nunk + 1, field)
    flat = _particular(red, pivots, nunk, field)
    return None if flat is None else _as_map(field, dom, cod, flat)


def factor_through(target: LinMap, through: LinMap) -> Optional[LinMap]:
    """Find X with through . X = target, or None.  Deterministic (free parts zero)."""
    if target.field != through.field or target.cod != through.cod:
        raise ShapeError("factor_through: codomains must agree")
    field = target.field
    n = through.ncols
    aug = _int_rows([tr + tg for tr, tg in zip(through.rows, target.rows)], field)
    red, pivots = rref(aug, n + target.ncols, field)
    if pivots and pivots[-1] >= n:
        return None  # inconsistent: a rhs column is a pivot
    z = field.zero
    sol_rows = [[z] * target.ncols for _ in range(n)]
    for row, col in zip(red, pivots):
        srow = sol_rows[col]
        for k, v in row.items():
            if k >= n:
                srow[k - n] = v
    return LinMap(field, target.dom, through.dom, sol_rows)


def nullspace_basis(m: LinMap) -> list:
    """Deterministic basis of ker(m), each vector a LinMap K -> dom."""
    red, pivots = rref(_int_rows(m.rows, m.field), m.ncols, m.field)
    return [
        LinMap(m.field, UNIT_WORD, m.dom, [[v] for v in vec])
        for vec in _kernel(red, pivots, m.ncols, m.field)
    ]


def column_rank(m: LinMap) -> int:
    _, pivots = rref(_int_rows(m.rows, m.field), m.ncols, m.field)
    return len(pivots)


def subspace_canonical(vectors: list, dim: int, field: Field) -> tuple:
    """Canonical form (RREF rows) of the span of flat vectors of length dim."""
    if not vectors:
        return ()
    red, _ = rref(_int_rows(vectors, field), dim, field)
    return tuple(tuple(_densify(r, dim, field.zero)) for r in red)


def same_subspace(vs1: list, vs2: list, dim: int, field: Field) -> bool:
    return subspace_canonical(vs1, dim, field) == subspace_canonical(vs2, dim, field)


def invert(m: LinMap) -> Optional[LinMap]:
    """Two-sided inverse of a square-shaped map, or None."""
    if m.nrows != m.ncols:
        return None
    field = m.field
    n = m.nrows
    z, one = field.zero, field.one
    aug = [list(m.rows[i]) + [one if j == i else z for j in range(n)] for i in range(n)]
    red, pivots = rref(_int_rows(aug, field), 2 * n, field)
    if pivots[:n] != list(range(n)):
        return None
    inv_rows = [[r.get(n + j, z) for j in range(n)] for r in red[:n]]
    return LinMap(field, m.cod, m.dom, inv_rows)
