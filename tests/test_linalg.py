import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from weakhopf.fields import GF, QQ, FieldError, PrimeField, RationalField
from weakhopf.ir import build_env, check_identity_text, eval_text
from weakhopf.linalg import (
    LinMap,
    NotIdempotentError,
    Obj,
    ShapeError,
    FieldMismatchError,
    UNIT_WORD,
    _int_rows,
    compose,
    rename_factor,
    factor_through,
    from_rows,
    identity,
    invert,
    rref,
    split_idempotent,
    swap,
    tensor_product,
    zero_map,
)

from concurrency import race

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


def test_factor_through():
    w2, w3 = (X2,), (X3,)
    through = from_rows(QQ, w2, w3, [[1, 0], [0, 1], [0, 0]])
    target = from_rows(QQ, w2, w3, [[2, 1], [0, 3], [0, 0]])
    x = factor_through(target, through)
    assert x is not None and compose(through, x) == target
    bad = from_rows(QQ, w2, w3, [[0, 0], [0, 0], [1, 0]])
    assert factor_through(bad, through) is None
    # The two blocks of the system have different scales (2 and 3).
    through = from_rows(QQ, w2, w3, [[Fraction(1, 2), 0], [0, 1], [1, 1]])
    target = from_rows(QQ, w2, w3, [[Fraction(1, 3), 1], [2, 0], [Fraction(8, 3), 2]])
    x = factor_through(target, through)
    assert x == from_rows(QQ, w2, w2, [[Fraction(2, 3), 2], [2, 0]])


def test_invert():
    m = from_rows(QQ, (X2,), (X2,), [[1, 1], [0, 1]])
    mi = invert(m)
    assert mi is not None
    assert compose(mi, m) == identity(QQ, X2)
    sing = from_rows(QQ, (X2,), (X2,), [[1, 1], [1, 1]])
    assert invert(sing) is None
    half = from_rows(QQ, (X2,), (X2,), [[Fraction(1, 2), 1], [0, 3]])
    assert invert(half) == from_rows(QQ, (X2,), (X2,), [[2, Fraction(-2, 3)], [0, Fraction(1, 3)]])


# -- integer columns as a map's content --------------------------------------

def _write(rows):
    rows[0][0] = QQ.one


def _add_in_place(rows):
    rows[0][0] += 1


def _grow_row(rows):
    rows[0] += [QQ.one]


def _write_slice(rows):
    rows[1][:] = [QQ.one, QQ.one]


def _delete(rows):
    del rows[1]


@pytest.mark.parametrize("write", [_write, _add_in_place, _grow_row, _write_slice, _delete,
                                   lambda rows: rows.append([QQ.one] * 2),
                                   lambda rows: rows[0].sort()])
def test_rows_are_filled_in_place_until_first_read_and_read_only_after(write):
    m = zero_map(QQ, (X2,), (X2,))
    m.rows[0][1] = QQ.normalize(Fraction(1, 2))
    m.rows[1][0] = QQ.one
    assert m.int_columns() == ([{1: 2}, {0: 1}], 2)  # read with its fills
    with pytest.raises(TypeError, match="read-only"):
        write(m.rows)
    assert m == from_rows(QQ, X2, X2, [[0, Fraction(1, 2)], [1, 0]])
    assert m.int_columns() == ([{1: 2}, {0: 1}], 2)


def test_threads_reading_one_fresh_map_read_one_content():
    rows = [[Fraction(i - j, i + j + 1) for j in range(3)] for i in range(3)]
    want = LinMap(QQ, (X3,), (X3,), [list(r) for r in rows]).int_columns()

    def run(m):
        before = m.rows == rows  # the given rows, or the view once the columns are kept
        cols = m.int_columns()
        with pytest.raises(TypeError):
            m.rows[2][2] = QQ.one
        with pytest.raises(TypeError):
            m.rows = [list(r) for r in rows]
        return before, cols, m.rows == rows

    # Built from rows, the threads read the rows while others read the
    # columns and drop them, then build the rows view at once; built from
    # the columns, they build the view at once.
    for build in (lambda: LinMap(QQ, (X3,), (X3,), [list(r) for r in rows]),
                  lambda: LinMap.from_int_columns(QQ, (X3,), (X3,), *want)):
        for results in race(build, run, 20):
            assert results == [(True, want, True)] * 4


def test_a_row_built_map_drops_its_rows_once_its_columns_are_kept():
    given = [[QQ.one, Fraction(1, 2)], [QQ.zero, QQ.one]]
    m = LinMap(QQ, (X2,), (X2,), given)
    assert m.rows is given  # filled in place until the first read
    m.int_columns()
    assert m._given is None  # the columns are its one copy of the content
    assert m.rows == given and m.rows is not given


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_read_map_round_trips_read_only(clone):
    m = from_rows(QQ, (X2,), (X3,), [[Fraction(1, 2), 0], [0, 3], [Fraction(-2, 3), 1]])
    cols = m.int_columns()
    out = clone(m)
    assert out == m and copy.copy(m) == m
    assert out.int_columns() == cols
    with pytest.raises(TypeError):
        out.rows[0][0] = QQ.one
    with pytest.raises(TypeError):
        out.rows = [[QQ.one] * 2] * 3


def test_fields_are_never_rebound():
    # Refused before the first read as well as after: the rows of an unread
    # map are filled in place, never replaced.
    m = zero_map(QQ, (X2,), (X2,))
    for read in (False, True):
        if read:
            assert m.int_columns() == ([{}, {}], 1)
        for name, value in (("rows", [[QQ.one] * 2] * 2), ("dom", (X3,)), ("cod", (X3,)),
                            ("field", GF(7)), ("_int_cols", None)):
            with pytest.raises(TypeError, match="read-only"):
                setattr(m, name, value)
            with pytest.raises(TypeError, match="read-only"):
                delattr(m, name)
    assert m == zero_map(QQ, (X2,), (X2,))


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_from_int_columns_keeps_what_to_ints_reads_off_its_rows(field):
    # Entries 2/4, 6/4 and 4/4 over Q: the columns are kept over the scale 2.
    cols = [{0: 2}, {}, {0: 6, 1: 4}]
    made = LinMap.from_int_columns(field, (X3,), (X2,), cols, 4 if field is QQ else 1)
    unread = LinMap(field, made.dom, made.cod, [list(r) for r in made.rows])
    assert made.int_columns() == unread.int_columns()
    assert cols == [{0: 2}, {}, {0: 6, 1: 4}]  # the given columns are not changed
    if field is QQ:
        assert made.int_columns() == ([{0: 1}, {}, {0: 3, 1: 2}], 2)
    empty = LinMap.from_int_columns(field, (X2,), (X2,), [{}, {}], 6 if field is QQ else 1)
    assert empty == zero_map(field, (X2,), (X2,)) and empty.int_columns() == ([{}, {}], 1)
    with pytest.raises(TypeError):
        made.rows[0][0] = field.one


def test_from_int_columns_makes_the_canonical_form():
    f7, U = GF(7), Obj("U", 1)
    canon = LinMap.from_int_columns(f7, (X2,), (U,), [{0: 1}, {0: 4}], 1)
    # 2/2 and 1/2 are 1 and 4 mod 7, and so are 8 and 4 over the scale 1.
    for cols, scale in (([{0: 2}, {0: 1}], 2), ([{0: 8}, {0: 4}], 1)):
        m = LinMap.from_int_columns(f7, (X2,), (U,), cols, scale)
        assert m.int_columns() == canon.int_columns() == ([{0: 1}, {0: 4}], 1)
        assert m == canon
        assert check_identity_text("m", "c", build_env(f7, {}, {"m": m, "c": canon})).passed
    assert LinMap.from_int_columns(f7, (X2,), (U,), [{0: 14}, {0: 3}], 3).int_columns() == (
        [{}, {0: 1}], 1)
    # Over Q the scale is made positive and reduced by the gcd; zeros are dropped.
    third = LinMap.from_int_columns(QQ, (X2,), (X2,), [{0: 2}, {0: -4, 1: 0}], -6)
    assert third.int_columns() == ([{0: -1}, {0: 2}], 3)
    for field, scale in ((f7, 0), (f7, 7), (f7, -14), (QQ, 0)):
        with pytest.raises(FieldError, match="zero"):
            LinMap.from_int_columns(field, (X2,), (U,), [{0: 1}, {}], scale)
    for cols in ([{1: 1}, {}], [{0: 1}, {-1: 1}], [{0: 1}]):
        with pytest.raises(ShapeError):
            LinMap.from_int_columns(f7, (X2,), (U,), cols, 1)


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


def _row_major_difference(a: list, b: list):
    """The first (row, col, a entry, b entry) where the rows differ, or None."""
    return next(((i, j, x, y) for i, (ra, rb) in enumerate(zip(a, b))
                 for j, (x, y) in enumerate(zip(ra, rb)) if x != y), None)


def _both_forms(data, field, rows, dom, cod):
    """The map of ``rows`` built from them, and built by ``from_int_columns``
    from its columns times a random nonzero multiplier, every row listed
    (zeros too) and, over F_7, each entry shifted by a multiple of 7."""
    cols, scale = LinMap(field, dom, cod, [list(r) for r in rows]).int_columns()
    k = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3] if field is QQ else [1, 2, 3, 4, 5, 6]))
    shift = st.integers(min_value=-2, max_value=2) if field.modulus else st.just(0)
    scaled = [{i: c.get(i, 0) * k + field.modulus * data.draw(shift) for i in range(len(rows))}
              for c in cols]
    return [LinMap(field, dom, cod, [list(r) for r in rows]),
            LinMap.from_int_columns(field, dom, cod, scaled, scale * k)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rows_and_columns_make_one_map(data):
    field = data.draw(st.sampled_from([QQ, GF(7)]))
    a = data.draw(_maps(field))
    rows_a = [list(r) for r in a.rows]
    rows_b = [[field.normalize(data.draw(st.integers(min_value=-3, max_value=3)))
               if data.draw(st.booleans()) else v for v in r] for r in rows_a]
    diff = _row_major_difference(rows_a, rows_b)
    for x in _both_forms(data, field, rows_a, a.dom, a.cod):
        for y in _both_forms(data, field, rows_b, a.dom, a.cod):
            assert (x == y) == (diff is None) and x.first_difference(y) == diff
            verdict = check_identity_text("x", "y", build_env(field, {}, {"x": x, "y": y}))
            w = verdict.witness
            assert verdict.passed == (diff is None)
            assert diff is None or (w.row, w.col, w.lhs, w.rhs) == diff
            assert x.rows == rows_a and y.rows == rows_b
            assert (x - y).rows == [[field.normalize(p - q) for p, q in zip(ra, rb)]
                                    for ra, rb in zip(rows_a, rows_b)]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_column_reads_build_no_field_scalars(field, monkeypatch):
    calls = []
    for cls in (RationalField, PrimeField):
        def counted(self, n, d, _orig=cls.from_int):
            calls.append((n, d))
            return _orig(self, n, d)
        monkeypatch.setattr(cls, "from_int", counted)
    f = from_rows(field, X2, X2, [[1, Fraction(1, 2)], [0, 3]])
    g = from_rows(field, X2, X2, [[2, 0], [1, 1]])
    env = build_env(field, {}, {"f": f, "g": g})
    calls.clear()
    fg, gf = eval_text("f ; g", env), eval_text("g ; f", env)
    renamed = rename_factor(fg, {"X": "Z"})
    assert fg == eval_text("f ; g", env) and fg != gf
    assert fg.first_difference(eval_text("f ; g", env)) is None
    assert calls == []
    assert fg.first_difference(gf) is not None and len(calls) == 2
    calls.clear()
    # The view is built once, one scalar per nonzero entry.
    nonzero = sum(len(c) for c in renamed.int_columns()[0])
    assert renamed.rows == renamed.rows and len(calls) == nonzero


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
    m = LinMap(field, (Obj("C", ncols),), (Obj("R", len(rows)),), rows)
    sparse = _int_rows(m)
    assert all(type(n) is int and n for row in sparse for n in row.values())
    red, pivots = rref(sparse, ncols, field)
    ref, ref_pivots = dense_rref([list(r) for r in rows], ncols, field)
    assert pivots == ref_pivots
    assert len(red) == len(pivots)
    for row, ref_row in zip(red, ref):
        dense = [row.get(j, field.zero) for j in range(ncols)]
        assert dense == ref_row
        assert all(type(v) is type(field.one) for v in row.values())
    assert sparse == _int_rows(m)  # the input rows are not changed



def test_unreduced_residue_is_refused_where_it_enters_the_kernel():
    # 8 is not a residue mod 7: neither == nor the kernel may read 8 as 1 and
    # call the maps equal; both name the entry instead.
    from weakhopf.ir import build_env, check_identity_text

    f7 = GF(7)
    bad = LinMap(f7, (X2,), (X2,), [[1, 0], [0, 8]])
    with pytest.raises(FieldError, match=r"entry \(1, 1\)"):
        bad != identity(f7, X2)
    read = identity(f7, X2)
    read.int_columns()
    with pytest.raises(FieldError, match=r"entry \(1, 1\)"):
        bad != read  # == reads the columns of both maps
    with pytest.raises(FieldError, match=r"entry \(1, 1\) .*: 8$"):
        bad.int_columns()
    env = build_env(f7, {}, {"m": bad, "e": identity(f7, X2)})
    with pytest.raises(FieldError, match=r"entry \(1, 1\)"):
        check_identity_text("m", "e", env)
    for value in (-1, True, Fraction(1, 2)):
        with pytest.raises(FieldError, match=r"entry \(0, 1\)"):
            LinMap(f7, (X2,), (X2,), [[1, value], [0, 1]]).int_columns()


def test_float_entry_is_refused_where_it_enters_the_kernel():
    bad = LinMap(QQ, (X2,), (X2,), [[Fraction(1), 0], [0.5, 3]])
    with pytest.raises(FieldError, match=r"entry \(1, 0\) .*: 0\.5$"):
        bad.int_columns()
    assert LinMap(QQ, (X2,), (X2,), [[Fraction(1, 2), 0], [0, 3]]).int_columns() == (
        [{0: 1}, {1: 6}], 2)
