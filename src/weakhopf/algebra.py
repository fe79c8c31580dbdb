"""Unital algebras, counital coalgebras, convolution and regular inverses."""
from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Optional

from . import identities as ids
from .fields import Field
from .ir import build_env, run_identity_table
from .linalg import LinMap, Obj, ShapeError, UNIT_WORD, _solve_rows, rename_factor


class StructureError(ValueError):
    """Raised by checked constructors when a defining axiom fails."""


class RegularityPreconditionFailed(ValueError):
    pass


class _Record:
    """A structure record: a plain ``@dataclass`` subclass whose generated
    ``__init__`` assigns each field once.  A later assignment, a name that
    is not a field and any deletion raise ``FrozenInstanceError``, as on a
    frozen dataclass, from one shared check rather than methods made per
    class by ``exec``.  ``cached_property`` still keeps its values: it
    writes the instance dict itself."""

    def __setattr__(self, name, value):
        if name in vars(self) or name not in self.__dataclass_fields__:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


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
class AlgebraData(_Record):
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
class CoalgebraData(_Record):
    """Coassociative counital coalgebra presented by structure constants."""

    field: Field
    obj: Obj
    delta: LinMap  # obj -> obj (x) obj
    eps: LinMap    # obj -> K

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


def _power(coalg: CoalgebraData, alg: AlgebraData, **maps: LinMap) -> int:
    """The n for which each of ``maps`` is a map coalg^(x)n -> A over A's
    field, read from the first one's domain; ShapeError otherwise."""
    n = len(next(iter(maps.values())).dom)
    cword, aw = (coalg.obj,) * n, (alg.obj,)
    for name, m in maps.items():
        if not n or m.dom != cword or m.cod != aw:
            raise ShapeError(
                f"{name} must be a map from a tensor power of {coalg.obj.name} to {alg.obj.name}"
            )
        if m.field != alg.field:
            raise ShapeError(f"{name} is over the wrong field")
    return n


def _power_delta(coalg: CoalgebraData, n: int) -> tuple[list, int]:
    """The comultiplication of C = coalg^(x)n as columns of terms
    ``(j1, j2, c)``, the entry of C (x) C at j1 * dim C + j2 being c / d:
    (columns, d).  Over F_p d is 1 and c a residue.

    Delta_C interleaves the factorwise comultiplications, so column j is
    the product of the base columns of j's digits, leftmost most
    significant."""
    cols, d = coalg.delta.int_columns()
    p = coalg.delta.field.modulus
    dim = coalg.dim
    base = [[(*divmod(i, dim), c) for i, c in col.items()] for col in cols]
    terms = [[(0, 0, 1)]]
    for _ in range(n):
        terms = [
            [(a * dim + i1, b * dim + i2, w * c % p if p else w * c)
             for a, b, w in prefix for i1, i2, c in col]
            for prefix in terms
            for col in base
        ]
    return terms, d ** n


def convolve(alpha: LinMap, beta: LinMap, coalg: CoalgebraData, alg: AlgebraData) -> LinMap:
    """Convolution product mu_A . (alpha (x) beta) . Delta_C on C =
    coalg^(x)n, n read from alpha's domain, in field arithmetic.  The
    library does not call it; it stays as the tests' reference."""
    n = _power(coalg, alg, alpha=alpha, beta=beta)
    field = alg.field
    norm = field.normalize
    da = alg.dim
    terms, d = _power_delta(coalg, n)
    scale = field.from_int(1, d)
    out = [[field.zero] * len(terms) for _ in range(da)]
    mu_rows = alg.mu.rows
    a_cols, b_cols = (
        [[(i, v) for i, v in enumerate(col) if v] for col in zip(*m.rows)] for m in (alpha, beta)
    )
    for j, col in enumerate(terms):
        for j1, j2, c in col:
            w = norm(c * scale)
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
    return LinMap(field, alpha.dom, (alg.obj,), out)


def _conv_operator_rows(
    known: LinMap, delta: tuple[list, int], alg: AlgebraData, side: str
) -> tuple[list, int]:
    """The linear operator x -> known*x (side='left') or x -> x*known
    (side='right') on flattened maps C -> A, where ``delta`` is
    ``_power_delta`` of C, as sparse integer rows over one denominator:
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


def _fixes(rows: list, d: int, m: LinMap) -> bool:
    """Whether the operator of ``rows`` over ``d`` (as ``_conv_operator_rows``
    returns it) maps the flattened m to itself."""
    p = m.field.modulus
    cols, _ = m.int_columns()
    nc = len(cols)
    flat = {r * nc + j: n for j, col in enumerate(cols) for r, n in col.items()}
    for i, row in enumerate(rows):
        v = sum(n * flat.get(k, 0) for k, n in row.items()) - d * flat.get(i, 0)
        if v % p if p else v:
            return False
    return True


def conv_inverse(
    g: LinMap, u: LinMap, coalg: CoalgebraData, alg: AlgebraData
) -> Optional[LinMap]:
    """Solve g*x = u, x*g = u, x*u = x by exact elimination, convolving
    over C = coalg^(x)n where g is a map C -> A.

    Requires g*u = g, checked on the solver's own operator x -> x*u
    (raising RegularityPreconditionFailed otherwise); returns the
    deterministic solution, every free unknown zero, or None.
    """
    return _conv_solve(g, u, u, coalg, alg, regular=True)


def _conv_solve(
    g: LinMap,
    left_unit: LinMap,
    right_unit: LinMap,
    coalg: CoalgebraData,
    alg: AlgebraData,
    regular: bool = False,
) -> Optional[LinMap]:
    """Solve g*x = left_unit, x*g = right_unit, x*left_unit = x over C =
    coalg^(x)n where g is a map C -> A; None when the system has no
    solution.  With ``regular``, first require g*left_unit = g.  The system
    is built as sparse integer rows and solved by ``rref`` with every free
    unknown zero."""
    field = alg.field
    n = _power(coalg, alg, g=g, left_unit=left_unit, right_unit=right_unit)
    nc = g.ncols
    nunk = alg.dim * nc
    delta = _power_delta(coalg, n)  # read by all three operators
    idem, di = _conv_operator_rows(left_unit, delta, alg, "right")
    if regular and not _fixes(idem, di, g):
        raise RegularityPreconditionFailed("g * u != g")
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
    for i, row in enumerate(idem):
        v = row.get(i, 0) - di
        if v:
            row[i] = v
        else:
            del row[i]
        aug.append(row)
    return _solve_rows(field, g.dom, (alg.obj,), aug, nunk)
