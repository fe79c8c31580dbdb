from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from weakhopf.fields import GF, QQ
from weakhopf.linalg import (
    LinMap,
    NotIdempotentError,
    Obj,
    ShapeError,
    FieldMismatchError,
    UNIT_WORD,
    _int_rows,
    compose,
    factor_through,
    from_rows,
    identity,
    invert,
    nullspace_basis,
    rref,
    same_subspace,
    solve_affine,
    split_idempotent,
    swap,
    tensor_product,
    zero_map,
)

X2 = Obj("X", 2)
X3 = Obj("Y", 3)


def test_tensor_identity_case():
    assert tensor_product(identity(QQ, X2), identity(QQ, X3)) == identity(QQ, (X2, X3))


def test_tensor_scalars_multiply():
    a = from_rows(QQ, (Obj("U", 1),), (Obj("U", 1),), [[2]])
    b = from_rows(QQ, (Obj("V", 1),), (Obj("V", 1),), [[3]])
    assert tensor_product(a, b).rows == [[Fraction(6)]]


def test_tensor_swap_with_identity_permutes_mixed_radix():
    # swap(2,2) (x) id2 sends basis index 4a+2b+c to 4b+2a+c.
    m = tensor_product(swap(X2, X2, QQ), identity(QQ, X2))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                col = m.column(4 * a + 2 * b + c)
                expected = [0] * 8
                expected[4 * b + 2 * a + c] = 1
                assert col == [QQ.normalize(v) for v in expected]


def test_compose_identity_and_mismatch():
    f = from_rows(QQ, (X2,), (X3,), [[1, 2], [0, 1], [3, 0]])
    assert compose(identity(QQ, X3), f) == f
    with pytest.raises(ShapeError):
        compose(f, f)
    with pytest.raises(FieldMismatchError):
        compose(identity(GF(5), X3), f)


def test_swap_involution_and_unit_word():
    c = swap(X3, Obj("Z", 5), QQ)
    cc = swap(Obj("Z", 5), X3, QQ)
    assert compose(cc, c) == identity(QQ, (X3, Obj("Z", 5)))
    assert swap(UNIT_WORD, X2, QQ) == identity(QQ, X2)


def test_swap_2_2_exchanges_middle_indices():
    m = swap(X2, X2, QQ)
    assert m.column(1) == [QQ.normalize(v) for v in [0, 0, 1, 0]]
    assert m.column(2) == [QQ.normalize(v) for v in [0, 1, 0, 0]]


def test_split_identity_and_zero():
    rank, inj, proj = split_idempotent(identity(QQ, X3))
    assert rank == 3 and inj.rows == identity(QQ, X3).rows
    rank, inj, proj = split_idempotent(zero_map(QQ, (X3,), (X3,)))
    assert rank == 0
    assert compose(inj, proj) == zero_map(QQ, (X3,), (X3,))


def test_split_diag_101():
    e = from_rows(QQ, (X3,), (X3,), [[1, 0, 0], [0, 0, 0], [0, 0, 1]])
    rank, inj, proj = split_idempotent(e)
    assert rank == 2
    assert inj.rows == [[1, 0], [0, 0], [0, 1]]
    assert proj.rows == [[1, 0, 0], [0, 0, 1]]
    assert compose(inj, proj) == e
    assert compose(proj, inj) == identity(QQ, inj.dom[0])


def test_split_rejects_non_idempotent():
    m = from_rows(QQ, (X2,), (X2,), [[1, 1], [0, 1]])
    with pytest.raises(NotIdempotentError):
        split_idempotent(m)


def test_solve_affine_unique():
    w = (Obj("U", 1),)
    functional = from_rows(QQ, w, w, [[2]])
    out = solve_affine(QQ, w, w, [(functional, 4)])
    assert out.kind == "unique"
    assert out.particular.rows == [[Fraction(2)]]


def test_solve_affine_underdetermined_f2():
    w = (Obj("U", 2),)
    functional = from_rows(GF(2), w, UNIT_WORD, [[1, 1]])
    out = solve_affine(GF(2), w, UNIT_WORD, [(functional, 1)])
    assert out.kind == "affine"
    assert len(out.nullspace) == 1


def test_solve_affine_inconsistent():
    w = (Obj("U", 1),)
    f1 = from_rows(QQ, w, w, [[1]])
    out = solve_affine(QQ, w, w, [(f1, 0), (f1, 1)])
    assert out.kind == "none"


def test_factor_through():
    w2, w3 = (X2,), (X3,)
    through = from_rows(QQ, w2, w3, [[1, 0], [0, 1], [0, 0]])
    target = from_rows(QQ, w2, w3, [[2, 1], [0, 3], [0, 0]])
    x = factor_through(target, through)
    assert x is not None and compose(through, x) == target
    bad = from_rows(QQ, w2, w3, [[0, 0], [0, 0], [1, 0]])
    assert factor_through(bad, through) is None


def test_nullspace_and_subspace_equality():
    m = from_rows(QQ, (X3,), (X2,), [[1, 1, 0], [0, 0, 1]])
    basis = nullspace_basis(m)
    assert len(basis) == 1
    v = [r[0] for r in basis[0].rows]
    assert v == [QQ.normalize(x) for x in [-1, 1, 0]]
    assert same_subspace([[1, -1, 0]], [[-2, 2, 0]], 3, QQ)
    assert not same_subspace([[1, -1, 0]], [[1, 1, 0]], 3, QQ)


def test_invert():
    m = from_rows(QQ, (X2,), (X2,), [[1, 1], [0, 1]])
    mi = invert(m)
    assert mi is not None
    assert compose(mi, m) == identity(QQ, X2)
    sing = from_rows(QQ, (X2,), (X2,), [[1, 1], [1, 1]])
    assert invert(sing) is None


# -- randomized laws --------------------------------------------------------

def _maps(field, names=("P", "Q", "R")):
    dims = st.integers(min_value=1, max_value=3)
    scal = st.integers(min_value=-3, max_value=3)

    @st.composite
    def one(draw):
        d1, d2 = draw(dims), draw(dims)
        dom, cod = (Obj(names[0], d1),), (Obj(names[1], d2),)
        rows = [[field.normalize(draw(scal)) for _ in range(d1)] for _ in range(d2)]
        return LinMap(field, dom, cod, rows)

    return one()


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_interchange_law(data):
    dims = st.integers(min_value=1, max_value=3)
    scal = st.integers(min_value=-3, max_value=3)

    def rand_map(dom, cod):
        rows = [
            [QQ.normalize(data.draw(scal)) for _ in range(dom[0].dim)]
            for _ in range(cod[0].dim)
        ]
        return LinMap(QQ, dom, cod, rows)

    a, b, c = (Obj(n, data.draw(dims)) for n in "abc")
    d, e, ff = (Obj(n, data.draw(dims)) for n in "def")
    f1, g1 = rand_map((a,), (b,)), rand_map((b,), (c,))
    f2, g2 = rand_map((d,), (e,)), rand_map((e,), (ff,))
    lhs = tensor_product(compose(g1, f1), compose(g2, f2))
    rhs = compose(tensor_product(g1, g2), tensor_product(f1, f2))
    assert lhs == rhs


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_swap_naturality(data):
    dims = st.integers(min_value=1, max_value=3)
    scal = st.integers(min_value=-3, max_value=3)

    def rand_map(dom, cod):
        rows = [
            [QQ.normalize(data.draw(scal)) for _ in range(dom[0].dim)]
            for _ in range(cod[0].dim)
        ]
        return LinMap(QQ, dom, cod, rows)

    a, b, c, d = (Obj(n, data.draw(dims)) for n in "abcd")
    f = rand_map((a,), (b,))
    g = rand_map((c,), (d,))
    lhs = compose(tensor_product(g, f), swap((a,), (c,), QQ))
    rhs = compose(swap((b,), (d,), QQ), tensor_product(f, g))
    assert lhs == rhs


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_split_contract_random_idempotents(data):
    field = data.draw(st.sampled_from([QQ, GF(7)]))
    n = data.draw(st.integers(min_value=1, max_value=4))
    ob = Obj("V", n)
    # Conjugate a coordinate projector by a random unitriangular map.
    diag = [data.draw(st.integers(min_value=0, max_value=1)) for _ in range(n)]
    tri = identity(field, ob)
    for i in range(n):
        for j in range(i + 1, n):
            tri.rows[i][j] = field.normalize(data.draw(st.integers(min_value=-2, max_value=2)))
    tri_inv = invert(tri)
    dmat = zero_map(field, (ob,), (ob,))
    for i, v in enumerate(diag):
        dmat.rows[i][i] = field.normalize(v)
    e = compose(tri, compose(dmat, tri_inv))
    rank, inj, proj = split_idempotent(e)
    assert compose(inj, proj) == e
    assert compose(proj, inj) == identity(field, inj.dom[0])
    assert rank == sum(diag)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_solve_affine_solutions_satisfy_constraints(data):
    field = data.draw(st.sampled_from([QQ, GF(5)]))
    rows = data.draw(st.integers(min_value=1, max_value=3))
    cols = data.draw(st.integers(min_value=1, max_value=3))
    dom, cod = (Obj("D", cols),), (Obj("C", rows),)
    ncons = data.draw(st.integers(min_value=0, max_value=4))
    constraints = []
    for _ in range(ncons):
        func = LinMap(
            field,
            dom,
            cod,
            [
                [field.normalize(data.draw(st.integers(min_value=-2, max_value=2))) for _ in range(cols)]
                for _ in range(rows)
            ],
        )
        constraints.append((func, field.normalize(data.draw(st.integers(min_value=-2, max_value=2)))))
    out = solve_affine(field, dom, cod, constraints)
    if out.kind == "none":
        return
    candidates = [out.particular]
    if out.nullspace:
        candidates.append(out.particular + out.nullspace[0])
    for sol in candidates:
        for func, rhs in constraints:
            acc = field.zero
            for i in range(rows):
                for j in range(cols):
                    acc = field.normalize(acc + func.rows[i][j] * sol.rows[i][j])
            assert acc == rhs


# -- elimination against a dense reference ------------------------------------

def dense_rref(rows: list, ncols: int, field) -> tuple[list, list]:
    """Dense Gauss-Jordan on rows of field scalars, in place: the reference
    for ``rref``.  First-nonzero-column pivoting with the topmost available
    row; each pivot row is divided by its pivot, then cleared from every
    other row.  Returns (rows, pivot columns)."""
    inv = field.inv
    norm = field.normalize
    piv_r = 0
    pivots = []
    nrows = len(rows)
    for col in range(ncols):
        sel = -1
        for r in range(piv_r, nrows):
            if rows[r][col]:
                sel = r
                break
        if sel < 0:
            continue
        rows[piv_r], rows[sel] = rows[sel], rows[piv_r]
        prow = rows[piv_r]
        pv = prow[col]
        if pv != field.one:
            s = inv(pv)
            rows[piv_r] = prow = [norm(s * v) for v in prow]
        for r in range(nrows):
            if r != piv_r and rows[r][col]:
                fac = rows[r][col]
                rr = rows[r]
                rows[r] = [norm(a - fac * b) for a, b in zip(rr, prow)]
        pivots.append(col)
        piv_r += 1
        if piv_r == nrows:
            break
    return rows, pivots


@st.composite
def _matrices(draw):
    """A matrix over Q, GF(2) or GF(7), wide or tall, with zero rows,
    repeated rows and rows combined from others (so often rank-deficient),
    and entries that include negative and non-unit values and fractions."""
    field = draw(st.sampled_from([QQ, GF(2), GF(7)]))
    nrows = draw(st.integers(min_value=0, max_value=7))
    ncols = draw(st.integers(min_value=1, max_value=7))
    scalars = st.one_of(
        st.just(0),
        st.integers(min_value=-9, max_value=9),
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
    )

    def scalar(x):
        return field.normalize(x) if field is QQ or Fraction(x).denominator % field.p else field.zero

    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat", "combine"]))
        if kind == "zero" or (kind != "random" and not rows):
            row = [field.zero] * ncols
        elif kind == "repeat":
            row = list(draw(st.sampled_from(rows)))
        elif kind == "combine":
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = scalar(draw(scalars)), scalar(draw(scalars))
            row = [field.normalize(s * x + t * y) for x, y in zip(a, b)]
        else:
            row = [scalar(draw(scalars)) for _ in range(ncols)]
        rows.append(row)
    return field, rows, ncols


# Pivots -2 and 3 (the second row minus 3/2 times the first is (0, 3, 3, 0)),
# so the elimination must divide exactly; one zero row and one repeated row.
_NON_UNIT_PIVOTS = [[-2, 4, 0, 6], [-3, 9, 3, 9], [0, 0, 0, 0], [-2, 4, 0, 6]]


@settings(max_examples=300, deadline=None)
@given(_matrices())
@example((QQ, [[QQ.normalize(v) for v in r] for r in _NON_UNIT_PIVOTS], 4))
@example((GF(7), [[GF(7).normalize(v) for v in r] for r in _NON_UNIT_PIVOTS], 4))
def test_rref_matches_dense_reference(case):
    field, rows, ncols = case
    sparse = _int_rows(rows, field)
    assert all(type(n) is int and n for row in sparse for n in row.values())
    red, pivots = rref(sparse, ncols, field)
    ref, ref_pivots = dense_rref([list(r) for r in rows], ncols, field)
    assert pivots == ref_pivots
    assert len(red) == len(pivots)
    for row, ref_row in zip(red, ref):
        dense = [row.get(j, field.zero) for j in range(ncols)]
        assert dense == ref_row
        assert all(type(v) is type(field.one) for v in row.values())
    assert sparse == _int_rows(rows, field)  # the input rows are not changed

