"""Unital algebras, counital coalgebras, convolution and regular inverses."""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional, Union

from .fields import Field
from .linalg import (
    LinMap,
    Obj,
    ShapeError,
    UNIT_WORD,
    _solve_rows,
    compose,
    identity,
    tensor_product,
    swap,
    wdim,
    zero_map,
)


class StructureError(ValueError):
    """Raised by checked constructors when a defining axiom fails."""


class RegularityPreconditionFailed(ValueError):
    pass


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
        idm = identity(self.field, self.obj)
        assoc_l = compose(self.mu, tensor_product(self.mu, idm))
        assoc_r = compose(self.mu, tensor_product(idm, self.mu))
        if assoc_l != assoc_r:
            raise StructureError(f"multiplication on {self.obj.name} is not associative")
        if compose(self.mu, tensor_product(self.eta, idm)) != idm:
            raise StructureError(f"unit of {self.obj.name} fails on the left")
        if compose(self.mu, tensor_product(idm, self.eta)) != idm:
            raise StructureError(f"unit of {self.obj.name} fails on the right")
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
        idm = identity(self.field, self.obj)
        co_l = compose(tensor_product(self.delta, idm), self.delta)
        co_r = compose(tensor_product(idm, self.delta), self.delta)
        if co_l != co_r:
            raise StructureError(f"comultiplication on {self.obj.name} is not coassociative")
        if compose(tensor_product(self.eps, idm), self.delta) != idm:
            raise StructureError(f"counit of {self.obj.name} fails on the left")
        if compose(tensor_product(idm, self.eps), self.delta) != idm:
            raise StructureError(f"counit of {self.obj.name} fails on the right")
        return self

    @classmethod
    def checked(cls, field, obj, delta, eps) -> "CoalgebraData":
        return cls(field, obj, delta, eps).validate()

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

    def square_delta(self) -> LinMap:
        """The derived comultiplication on obj (x) obj (mid-factor swap form)."""
        idm = identity(self.field, self.obj)
        mid = tensor_product(idm, swap(self.obj, self.obj, self.field), idm)
        return compose(mid, tensor_product(self.delta, self.delta))


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

    def delta_map(self) -> LinMap:
        """Materialize the derived comultiplication (use only for small dims)."""
        out = zero_map(self.field, self.word, self.word + self.word)
        for j in range(self.dim):
            for i1, i2, v in self.delta_column(j):
                out.rows[i1 * self.dim + i2][j] = v
        return out

    def eps_map(self) -> LinMap:
        out = zero_map(self.field, self.word, UNIT_WORD)
        for j in range(self.dim):
            out.rows[0][j] = self.eps_value(j)
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
    a_cols = alpha.col_nonzeros()
    b_cols = beta.col_nonzeros()
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


def _conv_operator_rows(known: LinMap, coalg: ConvCoalgebra, alg: AlgebraData, side: str) -> list:
    """Dense rows of the linear operator x -> known*x (side='left') or
    x -> x*known (side='right') acting on flattened maps C -> A."""
    field = alg.field
    norm = field.normalize
    da = alg.dim
    nc = wdim(_conv_word(coalg))
    nunk = da * nc
    k_cols = known.col_nonzeros()
    mu_rows = alg.mu.rows
    rows = [[field.zero] * nunk for _ in range(da * nc)]
    for j in range(nc):
        for j1, j2, w in coalg.delta_column(j):
            if side == "left":
                kcol, xcol = j1, j2
            else:
                kcol, xcol = j2, j1
            for s, kv in k_cols[kcol]:
                coeff = norm(w * kv)
                if not coeff:
                    continue
                for r in range(da):
                    for t in range(da):
                        mv = mu_rows[r][(s * da + t) if side == "left" else (t * da + s)]
                        if mv:
                            rr = rows[r * nc + j]
                            idx = t * nc + xcol
                            rr[idx] = norm(rr[idx] + coeff * mv)
    return rows


def conv_inverse(
    g: LinMap, u: LinMap, coalg: ConvCoalgebra, alg: AlgebraData
) -> Optional[LinMap]:
    """Solve g*x = u, x*g = u, x*u = x by exact elimination.

    Requires g*u = g (raising RegularityPreconditionFailed otherwise); returns
    the deterministic solution under first-nonzero-column pivoting, or None.
    """
    if convolve(g, u, coalg, alg) != g:
        raise RegularityPreconditionFailed("g * u != g")
    return _conv_solve(g, u, u, coalg, alg)


def _conv_solve(
    g: LinMap, left_unit: LinMap, right_unit: LinMap, coalg: ConvCoalgebra, alg: AlgebraData
) -> Optional[LinMap]:
    """Solve g*x = left_unit, x*g = right_unit, x*left_unit = x; None when
    the system has no solution."""
    field = alg.field
    cword = _conv_word(coalg)
    nunk = alg.dim * wdim(cword)
    aug = []
    for side, unit in (("left", left_unit), ("right", right_unit)):
        flat = [v for r in unit.rows for v in r]
        for i, row in enumerate(_conv_operator_rows(g, coalg, alg, side)):
            aug.append(row + [flat[i]])
    for i, row in enumerate(_conv_operator_rows(left_unit, coalg, alg, "right")):
        row[i] = field.normalize(row[i] - field.one)
        aug.append(row + [field.zero])
    outcome = _solve_rows(field, cword, (alg.obj,), aug, nunk)
    return outcome.particular if outcome.is_solvable else None


def conjugated_algebra(alg: AlgebraData, t: LinMap, t_inv: LinMap) -> AlgebraData:
    """Transport the algebra structure along an isomorphism t of the carrier."""
    mu = compose(t, compose(alg.mu, tensor_product(t_inv, t_inv)))
    eta = compose(t, alg.eta)
    return AlgebraData(alg.field, alg.obj, mu, eta)


def conjugated_coalgebra(coalg: CoalgebraData, t: LinMap, t_inv: LinMap) -> CoalgebraData:
    delta = compose(tensor_product(t, t), compose(coalg.delta, t_inv))
    eps = compose(coalg.eps, t_inv)
    return CoalgebraData(coalg.field, coalg.obj, delta, eps)
