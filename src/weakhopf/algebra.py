"""Unital algebras, counital coalgebras, convolution and regular inverses."""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Union

from . import identities as ids
from .fields import Field
from .ir import build_env, run_identity_table
from .linalg import LinMap, Obj, ShapeError, UNIT_WORD, _solve_rows, rename_factor, wdim


class StructureError(ValueError):
    """Raised by checked constructors when a defining axiom fails."""


class RegularityPreconditionFailed(ValueError):
    pass


_AXIOM_ERRORS = {
    "mult_associative": "multiplication on {} is not associative",
    "unit_left": "unit of {} fails on the left",
    "unit_right": "unit of {} fails on the right",
    "comult_coassociative": "comultiplication on {} is not coassociative",
    "counit_left": "counit of {} fails on the left",
    "counit_right": "counit of {} fails on the right",
}


def _require_axioms(table, field: Field, obj: Obj, bindings: dict) -> None:
    """Run the axiom rows with the carrier bound as H; raise StructureError
    naming the first that fails."""
    ren = {obj.name: "H"}
    env = build_env(field, {}, {k: rename_factor(m, ren) for k, m in bindings.items()})
    fail = run_identity_table(table, env).first_failure()
    if fail is not None:
        raise StructureError(_AXIOM_ERRORS[fail.check_id].format(obj.name))


@dataclass
class AlgebraData:
    """Associative unital algebra presented by structure constants."""

    field: Field
    obj: Obj
    mu: LinMap   # obj (x) obj -> obj
    eta: LinMap  # K -> obj

    def __post_init__(self):
        ob = self.obj
        if ob.dim < 1:
            raise StructureError(f"algebra carrier {ob.name} must have dim >= 1")
        if self.mu.dom != (ob, ob) or self.mu.cod != (ob,):
            raise ShapeError("mu must be a map obj,obj -> obj")
        if self.eta.dom != UNIT_WORD or self.eta.cod != (ob,):
            raise ShapeError("eta must be a map K -> obj")

    @property
    def dim(self) -> int:
        return self.obj.dim

    def validate(self):
        _require_axioms(ids.ALGEBRA_AXIOMS, self.field, self.obj, {"mu": self.mu, "eta": self.eta})
        return self

    @classmethod
    def checked(cls, field, obj, mu, eta) -> "AlgebraData":
        return cls(field, obj, mu, eta).validate()


@dataclass
class CoalgebraData:
    """Coassociative counital coalgebra presented by structure constants."""

    field: Field
    obj: Obj
    delta: LinMap  # obj -> obj (x) obj
    eps: LinMap    # obj -> K
    _delta_cols: Optional[list] = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        ob = self.obj
        if self.delta.dom != (ob,) or self.delta.cod != (ob, ob):
            raise ShapeError("delta must be a map obj -> obj,obj")
        if self.eps.dom != (ob,) or self.eps.cod != UNIT_WORD:
            raise ShapeError("eps must be a map obj -> K")

    @property
    def dim(self) -> int:
        return self.obj.dim

    def validate(self):
        bindings = {"Delta": self.delta, "eps": self.eps}
        _require_axioms(ids.COALGEBRA_AXIOMS, self.field, self.obj, bindings)
        return self

    def delta_column(self, j: int) -> list:
        """Sparse comultiplication of the j-th basis vector: [(j1, j2, coeff)]."""
        if self._delta_cols is None:
            d = self.dim
            cols: list = [[] for _ in range(d)]
            for i, row in enumerate(self.delta.rows):
                i1, i2 = divmod(i, d)
                for c, v in enumerate(row):
                    if v:
                        cols[c].append((i1, i2, v))
            self._delta_cols = cols
        return self._delta_cols[j]


class TensorPowerCoalgebra:
    """The n-fold tensor power of a coalgebra, with per-column sparse access.

    The comultiplication on the power interleaves the factorwise ones; its
    matrix is never materialized here, which keeps n = 3 workable for larger
    carriers.
    """

    def __init__(self, base: CoalgebraData, n: int):
        if n < 1:
            raise ValueError("tensor power needs n >= 1")
        self.base = base
        self.n = n
        self.field = base.field
        self.word = (base.obj,) * n
        self.dim = base.dim ** n
        self._cols: dict[int, list] = {}

    def delta_column(self, j: int) -> list:
        hit = self._cols.get(j)
        if hit is not None:
            return hit
        d = self.base.dim
        digits = []
        jj = j
        for _ in range(self.n):
            digits.append(jj % d)
            jj //= d
        digits.reverse()
        norm = self.field.normalize
        terms = [(0, 0, self.field.one)]
        for digit in digits:
            col = self.base.delta_column(digit)
            terms = [
                (a * d + i1, b * d + i2, norm(v * w))
                for a, b, v in terms
                for i1, i2, w in col
            ]
        self._cols[j] = terms
        return terms

    def eps_value(self, j: int):
        d = self.base.dim
        norm = self.field.normalize
        out = self.field.one
        jj = j
        for _ in range(self.n):
            out = norm(out * self.base.eps.rows[0][jj % d])
            jj //= d
            if not out:
                break
        return out


ConvCoalgebra = Union[CoalgebraData, TensorPowerCoalgebra]


def _conv_word(c: ConvCoalgebra):
    return (c.obj,) if isinstance(c, CoalgebraData) else c.word


def convolve(alpha: LinMap, beta: LinMap, coalg: ConvCoalgebra, alg: AlgebraData) -> LinMap:
    """Convolution product mu_A . (alpha (x) beta) . Delta_C."""
    cword = _conv_word(coalg)
    aw = (alg.obj,)
    for m, nm in ((alpha, "alpha"), (beta, "beta")):
        if m.dom != cword or m.cod != aw:
            raise ShapeError(f"{nm} must be a map {cword} -> {aw}")
        if m.field != alg.field:
            raise ShapeError(f"{nm} is over the wrong field")
    field = alg.field
    norm = field.normalize
    da = alg.dim
    nc = wdim(cword)
    out = [[field.zero] * nc for _ in range(da)]
    mu_rows = alg.mu.rows
    a_cols, b_cols = (
        [[(i, v) for i, v in enumerate(col) if v] for col in zip(*m.rows)] for m in (alpha, beta)
    )
    for j in range(nc):
        for j1, j2, w in coalg.delta_column(j):
            for s, av in a_cols[j1]:
                for t, bv in b_cols[j2]:
                    coeff = norm(w * av * bv)
                    if not coeff:
                        continue
                    k = s * da + t
                    for r in range(da):
                        mv = mu_rows[r][k]
                        if mv:
                            out[r][j] = norm(out[r][j] + coeff * mv)
    return LinMap(field, cword, aw, out)


def conv_unit(coalg: ConvCoalgebra, alg: AlgebraData) -> LinMap:
    """The convolution unit eta_A . eps_C."""
    cword = _conv_word(coalg)
    field = alg.field
    norm = field.normalize
    nc = wdim(cword)
    eta_col = [r[0] for r in alg.eta.rows]
    if isinstance(coalg, CoalgebraData):
        eps_vals = list(coalg.eps.rows[0])
    else:
        eps_vals = [coalg.eps_value(j) for j in range(nc)]
    rows = [[norm(ev * eps_vals[j]) for j in range(nc)] for ev in eta_col]
    return LinMap(field, cword, (alg.obj,), rows)


def _int_terms(cols: list, field: Field) -> tuple[list, int]:
    """Columns of terms ``(index, ..., scalar)`` with the scalars as integers
    over one common denominator: (columns, denominator)."""
    ns, d = field.to_ints([t[-1] for col in cols for t in col])
    it = iter(ns)
    return [[(*t[:-1], next(it)) for t in col] for col in cols], d


def _delta_terms(coalg: ConvCoalgebra, field: Field) -> tuple[list, int]:
    """The comultiplication as columns of terms ``(j1, j2, n)`` over one
    common denominator: (columns, denominator)."""
    return _int_terms([coalg.delta_column(j) for j in range(wdim(_conv_word(coalg)))], field)


def _conv_operator_rows(
    known: LinMap, delta: tuple[list, int], alg: AlgebraData, side: str
) -> tuple[list, int]:
    """The linear operator x -> known*x (side='left') or x -> x*known
    (side='right') on flattened maps C -> A, where ``delta`` is
    ``_delta_terms`` of C, as sparse integer rows over one denominator:
    (rows, d), row i holding {unknown: n} for the entries n / d.  Over F_p,
    d is 1 and the entries are residues."""
    field = alg.field
    p = field.modulus
    da = alg.dim
    terms, dw = delta
    nc = len(terms)
    k_cols, dk = known.int_columns()
    mu_cols, dm = alg.mu.int_columns()
    left = side == "left"
    rows = [{} for _ in range(da * nc)]
    for j in range(nc):
        for j1, j2, w in terms[j]:
            kcol, xcol = (j1, j2) if left else (j2, j1)
            for s, kv in k_cols[kcol].items():
                c = w * kv
                for t in range(da):
                    idx = t * nc + xcol
                    for r, mv in mu_cols[s * da + t if left else t * da + s].items():
                        row = rows[r * nc + j]
                        row[idx] = row.get(idx, 0) + c * mv
    if p:
        rows = [{k: v % p for k, v in row.items() if v % p} for row in rows]
    else:
        rows = [{k: v for k, v in row.items() if v} for row in rows]
    return rows, dw * dk * dm


def conv_inverse(
    g: LinMap, u: LinMap, coalg: ConvCoalgebra, alg: AlgebraData
) -> Optional[LinMap]:
    """Solve g*x = u, x*g = u, x*u = x by exact elimination.

    Requires g*u = g (raising RegularityPreconditionFailed otherwise); returns
    the deterministic solution, every free unknown zero, or None.
    """
    if convolve(g, u, coalg, alg) != g:
        raise RegularityPreconditionFailed("g * u != g")
    return _conv_solve(g, u, u, coalg, alg)


def _conv_solve(
    g: LinMap, left_unit: LinMap, right_unit: LinMap, coalg: ConvCoalgebra, alg: AlgebraData
) -> Optional[LinMap]:
    """Solve g*x = left_unit, x*g = right_unit, x*left_unit = x; None when
    the system has no solution.  The system is built as sparse integer rows
    and solved by ``rref`` with every free unknown zero."""
    field = alg.field
    cword = _conv_word(coalg)
    nc = wdim(cword)
    nunk = alg.dim * nc
    delta = _delta_terms(coalg, field)  # read by all three operators
    aug = []
    for side, unit in (("left", left_unit), ("right", right_unit)):
        rows, d = _conv_operator_rows(g, delta, alg, side)
        ucols, du = unit.int_columns()
        for i, row in enumerate(rows):  # row i is entry (i // nc, i % nc)
            if du != 1:
                row = {k: n * du for k, n in row.items()}
            u = ucols[i % nc].get(i // nc)
            if u:
                row[nunk] = u * d
            aug.append(row)
    rows, d = _conv_operator_rows(left_unit, delta, alg, "right")
    for i, row in enumerate(rows):
        n = row.get(i, 0) - d
        if n:
            row[i] = n
        else:
            del row[i]
        aug.append(row)
    return _solve_rows(field, cword, (alg.obj,), aug, nunk)

