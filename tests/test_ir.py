import contextlib
import copy
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from weakhopf import ir, syntax
from weakhopf.algebra import AlgebraData, convolve
from weakhopf.bialgebra import (
    WeakHopfAlgebra,
    build_env,
    check_antipode,
    check_bialgebra_axioms,
    projection_identity_suite,
)
from weakhopf.crossed import (
    CocycleData,
    base_action_measure,
    cocycle_report,
    smash_cocycle,
    trivial_measure,
)
from weakhopf.fields import GF, QQ
from weakhopf.groupoid import (
    cyclic,
    dihedral,
    direct_product,
    group_groupoid,
    groupoid_algebra,
    pair_groupoid,
)
from weakhopf.identities import (
    BIALGEBRA_AXIOMS,
    CHI_FORMULA,
    COCYCLE_IDENTITIES,
    COCYCLE_INVERSE_IDENTITIES,
    DELTA_H2,
    FF_FORMULA,
    NABLA_FORMULA,
    NU_FORMULA,
    PROJECTION_BASICS,
    PROJECTION_IDENTITIES,
    conv_h,
    u_formula,
    v_formula,
)
from weakhopf.ir import (
    Env,
    RebindingError,
    WordTypeError,
    SideMismatchError,
    check_identity,
    check_identity_text,
    evaluate,
    infer_type,
    run_identity_table,
    _plan,
)
from weakhopf.linalg import LinMap, Obj, from_rows, identity, swap, tensor_product, compose, zero_map
from weakhopf.report import Witness
from weakhopf.syntax import (
    Gen,
    Id,
    Par,
    ParseError,
    Seq,
    SwapE,
    Signature,
    UnknownNameError,
    parse_expr,
    pretty,
)

from concurrency import race
from instances import dual_group_hopf


SIG = Signature(
    objects={"H": 2, "A": 3},
    generators={
        "mu": (("H", "H"), ("H",)),
        "eta": ((), ("H",)),
        "Delta": (("H",), ("H", "H")),
        "eps": (("H",), ()),
        "rho": (("H", "A"), ("A",)),
    },
)


def test_parse_simple_seq():
    e = parse_expr("mu ; Delta", SIG)
    assert e == Seq(Gen("mu"), Gen("Delta"))


def test_parse_spec_example():
    text = "(Delta * Delta) ; (id(H) * swap(H,H) * id(H)) ; (mu * mu)"
    e = parse_expr(text, SIG)
    assert e == Seq(
        Seq(Par(Gen("Delta"), Gen("Delta")), Par(Par(Id(("H",)), SwapE(("H",), ("H",))), Id(("H",)))),
        Par(Gen("mu"), Gen("mu")),
    )


def test_parse_errors_are_positioned():
    with pytest.raises(ParseError) as exc:
        parse_expr("mu ;;", SIG)
    assert exc.value.line == 1 and exc.value.col == 5
    with pytest.raises(UnknownNameError):
        parse_expr("nosuch", SIG)
    with pytest.raises(UnknownNameError):
        parse_expr("id(Z)", SIG)


@pytest.mark.parametrize("text, error, message, line, col", [
    ("mu ;", ParseError, "expected a name, found 'end of input'", 1, 5),
    ("(mu", ParseError, "expected ')', found 'end of input'", 1, 4),
    ("mu)", ParseError, "unexpected token ')'", 1, 3),
    ("mu mu", ParseError, "unexpected token 'mu'", 1, 4),
    ("2mu", ParseError, "unexpected character '2'", 1, 1),
    ("mu ; ²", ParseError, "unexpected character '²'", 1, 6),
    ("mu\n ;\n\t;", ParseError, "expected a name, found ';'", 3, 2),
    ("mu \r\n; *", ParseError, "expected a name, found '*'", 2, 3),
    ("swap(H,A,)", ParseError, "expected 'ident', found ')'", 1, 10),
    ("mu ; id", ParseError, "expected '(', found 'end of input'", 1, 8),
    ("id(Z)", UnknownNameError, "unknown object 'Z'", 1, 4),
    ("swap(Z,H)", UnknownNameError, "unknown object 'Z'", 1, 6),
    ("swap(H,Z)", UnknownNameError, "unknown object 'Z'", 1, 8),
    ("mu;\n id(\n Q)", UnknownNameError, "unknown object 'Q'", 3, 2),
    ("mu ; nosuch", UnknownNameError, "unknown generator 'nosuch'", 1, 6),
])
def test_every_parse_error_names_its_line_and_column(text, error, message, line, col):
    with pytest.raises(error) as exc:
        parse_expr(text, SIG)
    assert type(exc.value) is error
    assert str(exc.value) == f"{message} (line {line}, col {col})"
    if error is ParseError:
        assert (exc.value.line, exc.value.col) == (line, col)


def test_names_are_unicode_letters_or_underscores_then_word_characters():
    sig = Signature(objects={"é": 1}, generators={"_x1": (("é",), ("é",)), "ñu": (("é",), ("é",))})
    assert parse_expr("_x1 ; ñu", sig) == Seq(Gen("_x1"), Gen("ñu"))
    assert parse_expr("id(é)", sig) == Id(("é",))


def test_parse_swap_multi_factor_second_word():
    e = parse_expr("swap(H,A,H)", SIG)
    assert e == SwapE(("H",), ("A", "H"))


def test_infer_type():
    assert infer_type(parse_expr("mu", SIG), SIG) == (("H", "H"), ("H",))
    assert infer_type(parse_expr("eta ; Delta", SIG), SIG) == ((), ("H", "H"))
    with pytest.raises(WordTypeError) as exc:
        infer_type(parse_expr("mu ; mu", SIG), SIG)
    assert exc.value.expected == ("H",)
    assert exc.value.found == ("H", "H")


def _z2_env():
    # Group algebra of the order-2 group: basis (1, g), grouplike coproduct.
    H = Obj("H", 2)
    mu = from_rows(QQ, (H, H), (H,), [[1, 0, 0, 1], [0, 1, 1, 0]])
    eta = from_rows(QQ, (), (H,), [[1], [0]])
    delta = from_rows(QQ, (H,), (H, H), [[1, 0], [0, 0], [0, 0], [0, 1]])
    eps = from_rows(QQ, (H,), (), [[1, 1]])
    sig = Signature(
        objects={"H": 2},
        generators={
            "mu": (("H", "H"), ("H",)),
            "eta": ((), ("H",)),
            "Delta": (("H",), ("H", "H")),
            "eps": (("H",), ()),
        },
    )
    return Env(sig, QQ, {"mu": mu, "eta": eta, "Delta": delta, "eps": eps})


def test_evaluate_identity_and_counit_unit():
    env = _z2_env()
    idH = evaluate(parse_expr("id(H)", env.sig), env)
    assert idH == identity(QQ, Obj("H", 2))
    one = evaluate(parse_expr("eta ; eps", env.sig), env)
    assert one.rows == [[QQ.one]]


def test_evaluate_matches_dense_composition():
    env = _z2_env()
    expr = parse_expr("Delta * Delta ; id(H) * swap(H,H) * id(H) ; mu * mu", env.sig)
    got = evaluate(expr, env)
    H = Obj("H", 2)
    d, m = env.bindings["Delta"], env.bindings["mu"]
    mid = tensor_product(identity(QQ, H), swap(H, H, QQ), identity(QQ, H))
    expected = compose(tensor_product(m, m), compose(mid, tensor_product(d, d)))
    assert got == expected


def test_check_identity_pass_fail_and_mismatch():
    env = _z2_env()
    v = check_identity_text("mu ; Delta", "Delta * Delta ; id(H) * swap(H,H) * id(H) ; mu * mu", env)
    assert v.status == "pass"
    v = check_identity_text("id(H)", "eps ; eta", env)
    assert v.status == "fail"
    assert v.witness is not None
    assert (v.witness.row, v.witness.col) == (0, 1)
    with pytest.raises(SideMismatchError):
        check_identity_text("mu", "Delta", env)


def test_evaluate_unbound_generator_rejected():
    sig = Signature(objects={"H": 2}, generators={"mu": (("H", "H"), ("H",))})
    with pytest.raises(UnknownNameError):
        Env(sig, QQ, {})


def test_env_checks_each_binding_against_its_declaration():
    sig = Signature(objects={"H": 2, "A": 3}, generators={"mu": (("H", "H"), ("H",))})
    H, A = sig.word_of(("H",)), sig.word_of(("A",))
    mu = zero_map(QQ, H + H, H)
    with pytest.raises(UnknownNameError, match="undeclared generator 'nu'"):
        Env(sig, QQ, {"mu": mu, "nu": zero_map(QQ, H, H)})
    with pytest.raises(WordTypeError) as exc:
        Env(sig, QQ, {"mu": zero_map(QQ, A + H, H)})
    assert exc.value.path == "mu"
    assert (exc.value.expected, exc.value.found) == (("H", "H", "->", "H"), ("A", "H", "->", "H"))
    with pytest.raises(ValueError, match="'mu' bound over the wrong field"):
        Env(sig, QQ, {"mu": zero_map(GF(7), H + H, H)})
    assert Env(sig, QQ, {"mu": mu}).bindings == {"mu": mu}


# -- round trip and interchange ---------------------------------------------

_IDENTS = st.sampled_from(["mu", "eta", "Delta", "eps", "rho"])


def _ast(depth: int, idents=_IDENTS):
    if depth == 0:
        return st.one_of(
            idents.map(Gen),
            st.lists(st.sampled_from(["H", "A"]), min_size=1, max_size=2).map(
                lambda w: Id(tuple(w))
            ),
            st.tuples(
                st.sampled_from(["H", "A"]),
                st.lists(st.sampled_from(["H", "A"]), min_size=1, max_size=2),
            ).map(lambda t: SwapE((t[0],), tuple(t[1]))),
        )
    sub = _ast(depth - 1, idents)
    return st.one_of(sub, st.tuples(sub, sub).map(lambda t: Seq(*t)), st.tuples(sub, sub).map(lambda t: Par(*t)))


@settings(max_examples=120, deadline=None)
@given(_ast(3))
def test_parse_pretty_roundtrip(ast):
    assert parse_expr(pretty(ast), SIG) == ast


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_evaluate_interchange(data):
    env = _z2_env()
    sig = env.sig
    gens = ["mu", "eta", "Delta", "eps"]
    # Pick a, b composable and c, d composable; both sides must typecheck.
    pool = []
    for a in gens:
        for b in gens:
            if sig.generators[a][1] == sig.generators[b][0]:
                pool.append((Gen(a), Gen(b)))
    a, b = data.draw(st.sampled_from(pool))
    c, d = data.draw(st.sampled_from(pool))
    lhs = Par(Seq(a, b), Seq(c, d))
    rhs = Seq(Par(a, c), Par(b, d))
    assert evaluate(lhs, env) == evaluate(rhs, env)


def test_seq_evaluation_order():
    env = _z2_env()
    e = parse_expr("eta ; Delta", env.sig)
    m = evaluate(e, env)
    direct = compose(env.bindings["Delta"], env.bindings["eta"])
    assert m == direct


# -- one memo shared across expressions ------------------------------------

def _sig_env(entry=lambda name, i, j: (3 * i + 5 * j + len(name)) % 7 - 3,
             field=QQ, sig=SIG, extra=None):
    # Arbitrary matrices (integer ones by default) for every generator of
    # sig not bound in extra, so a memo entry served to the wrong subtree
    # changes some entry.
    extra = extra or {}
    bindings = {}
    for name, (dom, cod) in sig.generators.items():
        if name in extra:
            continue
        dw, cw = sig.word_of(dom), sig.word_of(cod)
        ncols, nrows = math.prod(ob.dim for ob in dw), math.prod(ob.dim for ob in cw)
        rows = [[entry(name, i, j) for j in range(ncols)] for i in range(nrows)]
        bindings[name] = from_rows(field, dw, cw, rows)
    return Env(sig, field, {**bindings, **extra})


def _small_and_typed(e, limit=36, sig=SIG) -> bool:
    """Well typed, with no node's dom or cod wider than limit."""
    try:
        words = infer_type(e, sig)
    except (WordTypeError, UnknownNameError):
        return False
    if any(math.prod(sig.objects[n] for n in w) > limit for w in words):
        return False
    children = (e.first, e.then) if isinstance(e, Seq) else (e.left, e.right) if isinstance(e, Par) else ()
    return all(_small_and_typed(c, limit, sig) for c in children)


@settings(max_examples=60, deadline=None)
@given(st.lists(_ast(2), min_size=2, max_size=4))
def test_shared_memo_matches_fresh_envs(parts):
    # Every Seq and Par of two drawn parts, so subtrees that agree on one
    # side and differ on the other meet in the one memo.
    pairs = [(a, b) for a in parts for b in parts]
    candidates = parts + [Par(a, b) for a, b in pairs] + [Seq(a, b) for a, b in pairs]
    exprs = [e for e in candidates if _small_and_typed(e)]
    assume(len(exprs) > len(parts))
    shared = _sig_env()
    results = [evaluate(e, shared) for e in exprs]
    for e, got in zip(exprs, results):
        assert got == evaluate(e, _sig_env())
        dom, cod = infer_type(e, SIG)
        assert (got.dom, got.cod) == (SIG.word_of(dom), SIG.word_of(cod))


def test_type_error_in_table_keeps_path_and_env_usable():
    env = _sig_env()
    table = [
        ("before", "mu ; Delta", "mu ; Delta"),
        ("bad", "id(H) * (mu ; mu)", "id(H) * mu"),
    ]
    for _ in range(2):  # a failed typing is not cached
        with pytest.raises(WordTypeError) as exc:
            run_identity_table(table, env)
        assert exc.value.path == ".right"
        assert (exc.value.expected, exc.value.found) == (("H",), ("H", "H"))
    report = run_identity_table([("after", "id(H) * mu ; mu", "id(H) * mu ; mu")], env)
    assert report.all_pass
    expr = parse_expr("id(H) * mu ; mu", SIG)
    assert evaluate(expr, env) == evaluate(expr, _sig_env())


# -- the integer column kernel against a dense route -----------------------

# Non-unit denominators, so over Q every generator has its own scale.
_ENTRIES = (Fraction(1, 2), 0, Fraction(-2, 3), 1, Fraction(3, 5), -1, 2, 0, Fraction(5, 4))
FIELDS = pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])


def _frac_env(field, sig=SIG, extra=None):
    def entry(name, i, j):
        return _ENTRIES[(3 * i + 5 * j + len(name)) % len(_ENTRIES)]

    return _sig_env(entry, field, sig, extra)


def _dense(e, env) -> LinMap:
    """The matrix of e from dense linalg operations alone."""
    sig, field = env.sig, env.field
    if isinstance(e, Gen):
        return env.bindings[e.name]
    if isinstance(e, Id):
        return identity(field, sig.word_of(e.word))
    if isinstance(e, SwapE):
        return swap(sig.word_of(e.left), sig.word_of(e.right), field)
    if isinstance(e, Seq):
        return compose(_dense(e.then, env), _dense(e.first, env))
    return tensor_product(_dense(e.left, env), _dense(e.right, env))


def _perturbed(m: LinMap, r: int, c: int) -> LinMap:
    rows = [list(row) for row in m.rows]
    rows[r][c] = m.field.normalize(rows[r][c] + Fraction(1, 2))
    return LinMap(m.field, m.dom, m.cod, rows)


def _assert_verdict_matches_dense(lhs, rhs, env):
    verdict = check_identity(lhs, rhs, env)
    diff = _dense(lhs, env).first_difference(_dense(rhs, env))
    if diff is None:
        assert verdict.status == "pass"
    else:
        assert verdict.status == "fail"
        w = verdict.witness
        assert (w.row, w.col, w.lhs, w.rhs) == diff


@FIELDS
@settings(max_examples=40, deadline=None)
@given(parts=st.lists(_ast(2), min_size=1, max_size=3), data=st.data())
def test_kernel_matches_dense_route(field, parts, data):
    pairs = [(a, b) for a in parts for b in parts]
    candidates = parts + [Par(a, b) for a, b in pairs] + [Seq(a, b) for a, b in pairs]
    exprs = [e for e in candidates if _small_and_typed(e)]
    assume(exprs)
    env = _frac_env(field)
    for e in exprs:
        assert evaluate(e, env) == _dense(e, env)
    # Every pair of drawn sides of one type, in one env.
    for a in exprs:
        for b in exprs:
            if infer_type(a, SIG) == infer_type(b, SIG):
                _assert_verdict_matches_dense(a, b, env)
    # Each side against a generator bound to its matrix (another scale over
    # Q), and against one bound to that matrix with one entry changed.
    for e in exprs:
        dom, cod = infer_type(e, SIG)
        dense = _dense(e, env)
        r = data.draw(st.integers(0, dense.nrows - 1))
        c = data.draw(st.integers(0, dense.ncols - 1))
        sig = Signature(SIG.objects, {**SIG.generators, "P": (dom, cod), "R": (dom, cod)})
        env2 = _frac_env(field, sig, {"P": dense, "R": _perturbed(dense, r, c)})
        assert check_identity(e, Gen("P"), env2).status == "pass"
        _assert_verdict_matches_dense(e, Gen("R"), env2)
        _assert_verdict_matches_dense(Gen("R"), e, env2)


@FIELDS
@settings(max_examples=40, deadline=None)
@given(parts=st.lists(_ast(2), min_size=1, max_size=3), monomial=st.booleans(), data=st.data())
def test_evaluate_keeps_the_columns_to_ints_reads_off_its_rows(field, parts, monomial, data):
    # Both routes out of the kernel, column dicts and monomial lists: the
    # kept columns are those a scan of the result's rows gives.
    sig = _MONO_SIG if monomial else SIG
    pairs = [(a, b) for a in parts for b in parts]
    candidates = parts + [Par(a, b) for a, b in pairs] + [Seq(a, b) for a, b in pairs]
    exprs = [e for e in candidates if _small_and_typed(e, sig=sig)]
    assume(exprs)
    if monomial:
        env = Env(sig, field, {
            name: _monomial_map(data, field, sig.word_of(dom), sig.word_of(cod), False)
            for name, (dom, cod) in sig.generators.items()})
    else:
        env = _frac_env(field)
    for e in exprs:
        got = evaluate(e, env)
        unread = LinMap(field, got.dom, got.cod, [list(r) for r in got.rows])
        assert got.int_columns() == unread.int_columns()
        with pytest.raises(TypeError):
            got.rows[0][0] = field.one


@FIELDS
def test_kernel_compares_sides_of_different_scales(field):
    base = _frac_env(field)
    product = _dense(parse_expr("Delta ; mu", SIG), base)
    sig = Signature(SIG.objects, {**SIG.generators, "P": (("H",), ("H",)), "R": (("H",), ("H",))})
    env = _frac_env(field, sig, {"P": product, "R": _perturbed(product, 1, 0)})
    lhs, good, bad = parse_expr("Delta ; mu", sig), Gen("P"), Gen("R")
    assert check_identity(lhs, good, env).status == "pass"
    assert check_identity(good, lhs, env).status == "pass"
    _assert_verdict_matches_dense(lhs, bad, env)
    verdict = check_identity(lhs, bad, env)
    assert (verdict.status, verdict.witness.row, verdict.witness.col) == ("fail", 1, 0)
    if field == QQ:  # the pair really exercises the cross-multiplied path
        assert _plan(lhs, env)[0].scale != _plan(good, env)[0].scale


# -- monomial structures: flat row and entry lists ------------------------------

# Composites over SIG that put permutations, unit and counit factors, and wide
# Kronecker products read by a composite next to each other.  Sides of one
# type are compared with each other too, so their scales differ over Q.
_MONO_TEXTS = (
    "Delta ; Delta * Delta",
    "Delta ; Delta * id(H) ; id(H) * swap(H,H)",
    "mu ; Delta",
    "Delta * Delta ; id(H) * swap(H,H) * id(H) ; mu * mu",
    "mu * id(H) ; mu ; eps",
    "id(H) * Delta * id(H) ; (mu ; eps) * (mu ; eps)",
    "id(H) * (Delta ; swap(H,H)) * id(H) ; (mu ; eps) * (mu ; eps)",
    "Delta * id(A) ; id(H) * swap(H,A) ; rho * id(H)",
    "swap(H,A) ; swap(A,H) ; rho",
    "eta * id(H) ; mu",
    "id(H) * eta ; swap(H,H) ; mu",
    "eta ; Delta ; Delta * id(H)",
    "(eta ; Delta) * (eta ; Delta) ; id(H) * mu * id(H)",
)
_MONO_SIG = Signature({"H": 3, "A": 2}, SIG.generators)


def _monomial_map(data, field, dom, cod, multi, unit=False):
    """A map with at most one entry per column, some columns zero, and with
    one column of two entries when ``multi``; every entry is 1 when
    ``unit``."""
    ncols, nrows = math.prod(ob.dim for ob in dom), math.prod(ob.dim for ob in cod)
    rows = [[0] * ncols for _ in range(nrows)]
    entries = st.just(1) if unit else st.sampled_from(_NONZERO)
    for j in range(ncols):
        i = data.draw(st.integers(-1, nrows - 1))
        if i >= 0:
            rows[i][j] = data.draw(entries)
    if multi and nrows > 1:
        j = data.draw(st.integers(0, ncols - 1))
        for i in data.draw(st.permutations(range(nrows)))[:2]:
            rows[i][j] = data.draw(entries)
    return from_rows(field, dom, cod, rows)


def _moved(m: LinMap, c: int) -> LinMap:
    """m with column c's first entry moved one row down (doubled when m has
    one row), or an entry 1 put in column c when it is zero: different from
    m, and still monomial when m is."""
    rows = [list(row) for row in m.rows]
    nonzero = [i for i in range(m.nrows) if rows[i][c]]
    if not nonzero:
        rows[0][c] = m.field.one
    elif m.nrows == 1:
        rows[0][c] = m.field.normalize(2 * rows[0][c])
    else:
        i, k = nonzero[0], (nonzero[0] + 1) % m.nrows
        rows[k][c], rows[i][c] = rows[i][c], rows[k][c]
    return LinMap(m.field, m.dom, m.cod, rows)


def _plan_of(e, env):
    """The plan of e in env."""
    return _plan(e, env)[0]


def _lists_of(e, env) -> tuple:
    """The lists of e's monomial plan, as kept in env."""
    return ir._lists(_plan_of(e, env), env)


def _is_monomial(m: LinMap) -> bool:
    return all(sum(1 for row in m.rows if row[j]) < 2 for j in range(m.ncols))


def _is_unit(m: LinMap) -> bool:
    """Every integer entry of m is 1 (entries 1 / scale over Q)."""
    return all(n == 1 for c in m.int_columns()[0] for n in c.values())


@FIELDS
@settings(max_examples=30, deadline=None)
@given(multi=st.sets(st.sampled_from(sorted(SIG.generators))),
       unit=st.sets(st.sampled_from(sorted(SIG.generators))),
       parts=st.lists(_ast(2), max_size=3), data=st.data())
def test_monomial_kernel_matches_dense_route(field, multi, unit, parts, data):
    # Generators with at most one entry per column (zero columns and
    # entries other than 1 included), and the ones in ``multi`` with one
    # column of two entries.  A structure over the first alone is monomial
    # and is compared list by list; one over any of the others is not.
    # The ones in ``unit`` have every entry 1, so their lists are rows
    # alone, and each builder meets unit and listed operands side by side.
    sig = _MONO_SIG
    bindings = {
        name: _monomial_map(data, field, sig.word_of(dom), sig.word_of(cod), name in multi,
                            name in unit)
        for name, (dom, cod) in sig.generators.items()
    }
    multi = {name for name, m in bindings.items() if not _is_monomial(m)}  # a one-row map is monomial
    unit = {name for name, m in bindings.items() if _is_unit(m)}  # drawn entries may all be 1
    env = Env(sig, field, bindings)
    exprs = [parse_expr(text, sig) for text in _MONO_TEXTS]
    exprs += [e for e in parts if _small_and_typed(e, 81, sig)]
    for e in exprs:
        dense = _dense(e, env)
        assert evaluate(e, env) == dense
        mono = _plan_of(e, env).mono
        assert (mono is not None) == (not e.gens & multi)
        assert mono is None or (_lists_of(e, env)[1] is None) == (e.gens <= unit)
    for a in exprs:
        for b in exprs:
            if infer_type(a, sig) == infer_type(b, sig):
                _assert_verdict_matches_dense(a, b, env)
    # Each side against its own matrix bound as a generator (of another
    # scale over Q), with one entry moved or changed.
    for e in exprs:
        dense = _dense(e, env)
        c = data.draw(st.integers(0, dense.ncols - 1))
        moved = _moved(dense, c)
        bumped = _perturbed(dense, data.draw(st.integers(0, dense.nrows - 1)), c)
        child = env.child({"P": dense, "M": moved, "R": bumped})
        assert check_identity(e, Gen("P"), child).status == "pass"
        assert (_plan_of(Gen("M"), child).mono is not None) == _is_monomial(moved)
        for other in (Gen("M"), Gen("R")):
            _assert_verdict_matches_dense(e, other, child)
            _assert_verdict_matches_dense(other, e, child)


def test_unit_sides_compare_by_rows_and_scale():
    # Unit lists hold rows alone: each entry is 1 / scale.  Two zero maps
    # are equal at any scale; one row list over two scales is two maps.
    H = SIG.word_of(("H",))
    sig = Signature(SIG.objects, {name: (("H",), ("H",)) for name in "ZPR"})
    env = Env(sig, QQ, {
        "Z": LinMap.from_int_columns(QQ, H, H, [{}, {}], 1),
        "P": LinMap.from_int_columns(QQ, H, H, [{1: 1}, {0: 1}], 2),
        "R": LinMap.from_int_columns(QQ, H, H, [{1: 1}, {0: 1}], 3),
    })
    zp, zr, p, r = (parse_expr(text, sig) for text in ("Z ; P", "P ; Z ; R", "P", "R"))
    plans = [_plan_of(e, env) for e in (zp, zr, p, r)]
    assert [ir._lists(plan, env)[1] for plan in plans] == [None] * 4
    assert [plan.scale for plan in plans] == [2, 6, 2, 3]
    for lhs, rhs in ((zp, zr), (zr, zp), (Gen("Z"), zp)):
        assert check_identity(lhs, rhs, env).status == "pass"
    verdict = check_identity(p, r, env)
    assert verdict.status == "fail"
    assert verdict.witness == Witness(0, 1, Fraction(1, 2), Fraction(1, 3))


@FIELDS
def test_groupoid_structure_maps_are_compared_by_their_rows(field):
    # In a groupoid algebra every structure map but the unit sends a basis
    # vector to a basis vector or to zero, so every side of the axiom table
    # that does not name the unit has unit lists.
    G = groupoid_algebra(pair_groupoid(3), field)
    env = G.core_env().child()
    sides = [parse_expr(text, env.sig) for _, lhs, rhs in BIALGEBRA_AXIOMS for text in (lhs, rhs)]
    for e in sides:
        mono = _plan_of(e, env).mono
        assert (mono is None) == ("eta" in e.gens)
        assert mono is None or _lists_of(e, env)[1] is None
    assert run_identity_table(BIALGEBRA_AXIOMS, env).all_pass
    # mu with one entry 1 -> 2, at the identity e times a basis vector h, so
    # unit_left fails at (row k, column h).  mu's plan, and every plan over
    # it, lists its entries; the witnesses are the dense route's wherever
    # that route stays small.
    e, h, k = 0, 1, 1
    rows = [list(row) for row in G.mu.rows]
    assert rows[k][e * G.dim + h] == 1
    rows[k][e * G.dim + h] = field.normalize(2)
    bindings = {**env.bindings, "mu": from_rows(field, G.mu.dom, G.mu.cod, rows)}
    bumped = build_env(field, {}, bindings)
    assert _lists_of(Gen("mu"), bumped)[1] is not None
    assert _lists_of(parse_expr("mu ; Delta", bumped.sig), bumped)[1] is not None
    witness = run_identity_table(BIALGEBRA_AXIOMS, bumped).get("unit_left").witness
    assert (witness.row, witness.col) == (k, h)
    small = [row for row in BIALGEBRA_AXIOMS
             if all(_small_and_typed(parse_expr(text, bumped.sig), 81, bumped.sig) for text in row[1:])]
    assert "unit_left" in {row[0] for row in small}
    for _, lhs, rhs in small:
        _assert_verdict_matches_dense(parse_expr(lhs, bumped.sig), parse_expr(rhs, bumped.sig), bumped)


def _unread(plan, env) -> bool:
    """No column of the plan was computed in env: it was compared by its
    lists."""
    cols = env._kept.get(plan)
    if cols is None:
        return True
    return all(c is None for c in cols) if type(cols) is list else not cols


def test_counit_weak_mult_takes_the_monomial_route_in_any_order():
    # The right side of counit_weak_mult_1 holds id(H) * Delta, which
    # comult_coassociative also reads, on a narrower domain.  Whichever
    # compiles it first, both sides are compared by their lists.
    G = groupoid_algebra(pair_groupoid(3), QQ)  # dim 9
    assert G.dim >= 8
    rows = {row[0]: row for row in BIALGEBRA_AXIOMS}
    _, lhs, rhs = rows["counit_weak_mult_1"]
    verdicts = []
    for before in ([], [rows["comult_coassociative"]]):
        env = build_env(QQ, {}, {"mu": G.mu, "eta": G.eta, "Delta": G.delta, "eps": G.eps})
        assert run_identity_table(before, env).all_pass
        verdict = check_identity_text(lhs, rhs, env, "counit_weak_mult_1")
        for text in (lhs, rhs, "id(H) * Delta"):
            plan = _plan_of(parse_expr(text, env.sig), env)
            assert plan.mono is not None and _unread(plan, env), text
        verdicts.append((verdict.status, verdict.witness))
    assert verdicts == [("pass", None)] * 2


def test_threads_sharing_one_fresh_groupoid_env_match_a_serial_run():
    # Four threads run the bialgebra and projection tables on one new Env of
    # a groupoid algebra, so they build the same structures' lists together.
    # The last row fails: the algebra is not commutative.
    G = groupoid_algebra(pair_groupoid(3), QQ)
    base = G.base_env()
    table = BIALGEBRA_AXIOMS + PROJECTION_BASICS + PROJECTION_IDENTITIES
    table += [("commutative", "swap(H,H) ; mu", "mu")]

    def context():
        return Env(base.sig, base.field, base.bindings)

    def run(env):
        return [(v.check_id, v.status, v.witness) for v in run_identity_table(table, env)]

    env = context()
    serial = run(env)
    assert [row[0] for row in serial if row[1] != "pass"] == ["commutative"]
    assert _plan_of(parse_expr("swap(H,H) ; mu", env.sig), env).mono is not None
    for results in race(context, run, 5):
        assert results == [serial] * 4


def test_a_kronecker_column_is_computed_once_per_plan():
    # piL * piR is read at permuted columns by one side and as a composite's
    # first operand by the other.  On dual S3 neither projection is
    # monomial, so both reads go through its columns, which are computed
    # once for both.
    H = dual_group_hopf(dihedral(3), QQ)
    env = H.base_env()
    table = [("permuted_read", "swap(H,H) ; piL * piR ; mu", "piL * piR ; mu")]
    assert _plan_of(Gen("piL"), env).mono is None
    computed = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "_outer" and code.co_filename == ir.__file__:
            computed.append(frame.f_locals["j"])

    sys.setprofile(profile)
    try:
        report = run_identity_table(table, env)
    finally:
        sys.setprofile(None)
    assert report.all_pass
    assert sorted(computed) == list(range(36))


# -- convolutions: permutation index maps and fused Kronecker steps ------------

def _dual_s3_env(field):
    """Dual S3, whose comultiplication is not cocommutative, so a swap
    layer keyed wrongly changes a convolution.  Delta is its own; the maps
    a_n, b_n: H^n -> A and muA are drawn from _ENTRIES, and s: H,H -> H,H
    is a permutation scaled by factors that are not 1 in either field, so
    every column of s has one term."""
    H = dual_group_hopf(dihedral(3), field)
    sig = Signature(
        objects={"H": 6, "A": 2},
        generators={
            "Delta": (("H",), ("H", "H")),
            "muA": (("A", "A"), ("A",)),
            "s": (("H", "H"), ("H", "H")),
            **{f"{x}{n}": (("H",) * n, ("A",)) for x in "ab" for n in (1, 2, 3)},
        },
    )
    factors = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), 2, Fraction(5, 4), -1)
    rows = [[0] * 36 for _ in range(36)]
    for j in range(36):
        rows[(5 * j + 1) % 36][j] = factors[j % len(factors)]
    hh = sig.word_of(("H", "H"))
    return H, _frac_env(field, sig, {"Delta": H.delta, "s": from_rows(field, hh, hh, rows)})


@FIELDS
def test_convolutions_match_independent_routes(field):
    H, env = _dual_s3_env(field)
    A = env.sig.word_of(("A",))
    alg = AlgebraData(field, A[0], env.bindings["muA"], zero_map(field, (), A))
    cases = []
    for n in (1, 2, 3):
        text = conv_h(f"a{n}", f"b{n}", n)
        ref = convolve(env.bindings[f"a{n}"], env.bindings[f"b{n}"], H.coalgebra, alg)
        if n < 3:  # the dense swap layers on H^6 would have 6^12 entries
            assert _dense(parse_expr(text, env.sig), env) == ref
        cases.append((text, ref))
    # Kronecker steps fed one-term (s) and many-term columns, also as the
    # checked side itself, where no later step reduces their entries.
    for text in ("s ; a1 * b1 ; muA", "s ; a1 * b1", "Delta ; a1 * b1", f"{DELTA_H2} ; a2 * b2"):
        cases.append((text, _dense(parse_expr(text, env.sig), env)))
    for text, ref in cases:
        e = parse_expr(text, env.sig)
        assert evaluate(e, env) == ref, text
        bad = _perturbed(ref, 1, ref.ncols - 2)
        child = env.child({"P": ref, "R": bad})
        assert check_identity(e, Gen("P"), child).status == "pass", text
        for lhs, rhs, diff in ((e, Gen("R"), ref.first_difference(bad)),
                               (Gen("R"), e, bad.first_difference(ref))):
            verdict = check_identity(lhs, rhs, child)
            w = verdict.witness
            assert verdict.status == "fail" and (w.row, w.col, w.lhs, w.rhs) == diff, text


def test_a_wide_convolution_check_keeps_little_memory():
    # u3 * u3 = u3 passes through H^6 (46656 columns on dual S3).
    m = trivial_measure(dual_group_hopf(dihedral(3), GF(7)))
    env = CocycleData(m, m.u(2)).context.child()
    table = [t for t in COCYCLE_IDENTITIES if t[0] == "u3_idempotent"]
    tracemalloc.start()
    try:
        report = run_identity_table(table, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_pass
    assert peak < 25_000_000


# -- the support filter of first ; (L * R) -------------------------------------

_NONZERO = (Fraction(1, 2), Fraction(-2, 3), 1, Fraction(3, 5), -1, 2, Fraction(5, 4))  # and mod 7


@contextlib.contextmanager
def _support_decisions():
    """Record what each convolution plan decides: a set of keys, or False
    for the plain loop."""
    decide, decisions = ir._product_support, []

    def recorded(*args):
        out = decide(*args)
        decisions.append(out)
        return out

    ir._product_support = recorded
    try:
        yield decisions
    finally:
        ir._product_support = decide


def _sparse_columns(data, field, dom, cod, nonzero):
    """A map whose columns outside ``nonzero`` are zero and inside it are not."""
    rows = [[0] * dom.dim for _ in range(cod.dim)]
    for k in nonzero:
        for i in data.draw(st.sets(st.integers(0, cod.dim - 1), min_size=1)):
            rows[i][k] = data.draw(st.sampled_from(_NONZERO))
    return from_rows(field, (dom,), (cod,), rows)


@FIELDS
@pytest.mark.parametrize("filtered", [True, False], ids=["filtered", "plain"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_filtered_convolution_matches_dense_route(field, filtered, data):
    # first ; (L * R) with many-term columns in first and mostly-zero columns
    # in L and R.  Column 0 of first decides: it has two terms or more, and
    # width >= 2, so the plain loop would walk at least 4 terms.  Filtered:
    # at most 3 keys where both factors are nonzero.  Plain: at least 4.
    dl, dr = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    width = data.draw(st.integers(2, 4)) if filtered else 2
    F, X, Y = Obj("F", width), Obj("X", dl), Obj("Y", dr)
    U, V = Obj("U", data.draw(st.integers(1, 3))), Obj("V", data.draw(st.integers(1, 3)))
    if filtered:
        sl = data.draw(st.integers(0, 3))
        sr = data.draw(st.integers(0, min(dr, 3 // sl) if sl else dr))
    else:
        sl, sr = data.draw(st.integers(2, dl)), data.draw(st.integers(2, dr))
    left = data.draw(st.permutations(range(dl)))[:sl]
    right = data.draw(st.permutations(range(dr)))[:sr]
    support = {k1 * dr + k2 for k1 in left for k2 in right}
    rest = sorted(set(range(dl * dr)) - support)
    # Column 0 has two terms and partly overlaps the support where it can:
    # a key in it and one outside.
    inside = [data.draw(st.sampled_from(sorted(support)))] if support else []
    first_keys = inside + data.draw(st.permutations(rest))[:2 - len(inside)]
    if len(first_keys) < 2:  # the support is every key
        first_keys = data.draw(st.permutations(sorted(support)))[:2]
    columns = [first_keys]
    columns += [data.draw(st.sets(st.integers(0, dl * dr - 1))) for _ in range(width - 1)]
    rows = [[0] * width for _ in range(dl * dr)]
    for j, keys in enumerate(columns):
        for k in keys:
            rows[k][j] = data.draw(st.sampled_from(_NONZERO))
    bindings = {
        "first": from_rows(field, (F,), (X, Y), rows),
        "L": _sparse_columns(data, field, X, U, left),
        "R": _sparse_columns(data, field, Y, V, right),
    }
    env = Env(Signature.of_bindings({}, bindings), field, bindings)
    e = parse_expr("first ; L * R", env.sig)
    with _support_decisions() as decisions:
        dense = _dense(e, env)
        assert evaluate(e, env) == dense
    assert decisions == ([support] if filtered else [False])
    r = data.draw(st.integers(0, dense.nrows - 1))
    c = data.draw(st.integers(0, dense.ncols - 1))
    bad = _perturbed(dense, r, c)
    child = env.child({"P": dense, "Q": bad})
    assert check_identity(e, Gen("P"), child).status == "pass"
    _assert_verdict_matches_dense(e, Gen("Q"), child)
    _assert_verdict_matches_dense(Gen("Q"), e, child)
    # A fresh Env finds the plan compiled and decides its support again, as
    # the support is kept per Env; it checks before it evaluates.
    fresh = Env(env.sig, field, env.bindings).child({"Q": bad})
    with _support_decisions() as decisions:
        _assert_verdict_matches_dense(e, Gen("Q"), fresh)
    assert decisions == ([support] if filtered else [False])
    # Column 0 of first has two terms, so every draw above reached the
    # filter, monomial L and R or not.  With a monomial first M instead, the
    # composite is monomial exactly when L and R are: it is then read from
    # the lists of M, L and R, and its columns are never computed.
    mono_rows = [[0] * width for _ in range(dl * dr)]
    for j in range(width):
        k = data.draw(st.integers(-1, dl * dr - 1))
        if k >= 0:
            mono_rows[k][j] = data.draw(st.sampled_from(_NONZERO))
    child = env.child({"M": from_rows(field, (F,), (X, Y), mono_rows)})
    m = parse_expr("M ; L * R", child.sig)
    with _support_decisions() as decisions:
        dense = _dense(m, child)
        assert evaluate(m, child) == dense
        assert check_identity(m, Gen("P"), child.child({"P": dense})).status == "pass"
    assert decisions == []  # no column of M has two terms
    monomial = _is_monomial(bindings["L"]) and _is_monomial(bindings["R"])
    plan = _plan_of(m, child)
    assert (plan.mono is not None) == monomial == _unread(plan, child)


class _WeakMap(LinMap):
    """A LinMap that a weak reference can watch."""

    __slots__ = ("__weakref__",)


def test_env_is_freed_by_reference_counting():
    # Compiled plans must not refer back to their Env: a cycle would keep
    # every Env of a long run alive until the next full collection.  The
    # plans a node keeps hold no Env, bound matrix or kept column either,
    # so all of them go with the last Env that holds them.
    import gc
    import weakref

    gc.disable()
    try:
        env = _frac_env(QQ)
        text = "Delta * id(A) ; id(H) * rho ; swap(H,A)"
        assert run_identity_table([("a", text, text)], env).all_pass
        evaluate(parse_expr("eta ; Delta ; mu", SIG), env)
        m = evaluate(parse_expr(text, SIG), env)
        bound = _WeakMap(QQ, m.dom, m.cod, [list(row) for row in m.rows])
        del m
        child = env.child({"P": bound})
        assert run_identity_table([("b", text, "P")], child).all_pass
        plan = _plan_of(parse_expr(text, SIG), env)
        column = next(c for c in env._kept[plan] if c)  # a column the check kept
        refs = [weakref.ref(env), weakref.ref(child), weakref.ref(bound)]
        del env, plan, bound
        assert refs[1]() is child  # a child keeps no Env alive but itself
        del child
        assert [r() for r in refs] == [None, None, None]
        assert sys.getrefcount(column) == 2  # this name and the call's argument
    finally:
        gc.enable()


# -- layered contexts ---------------------------------------------------------

def _map(dom, cod, field=QQ, shift=0):
    dw, cw = SIG.word_of(dom), SIG.word_of(cod)
    ncols, nrows = math.prod(ob.dim for ob in dw), math.prod(ob.dim for ob in cw)
    rows = [[(2 * i + 3 * j + shift) % 5 - 2 for j in range(ncols)] for i in range(nrows)]
    return from_rows(field, dw, cw, rows)


def test_child_names_stay_out_of_the_parent():
    parent = _frac_env(QQ)
    child = parent.child({"P": _map(("H",), ("A",))})
    node = Gen("P")  # built by hand, so no parse checks its name
    assert evaluate(node, child) == child.bindings["P"]
    assert check_identity(Seq(node, Id(("A",))), node, child).passed
    for expr in (node, Seq(node, Id(("A",)))):
        with pytest.raises(UnknownNameError):
            evaluate(expr, parent)
    assert "P" not in parent.bindings and "P" not in parent.sig.generators
    assert "P" in child._shapes and "P" not in parent._shapes
    assert _plan_of(node, child) in child._kept and not parent._kept  # P's values are the child's


def test_a_child_fills_the_stores_its_parent_opened():
    # A structure the child opens is its own, but a store the parent
    # opened is shared: the child fills it, up to its full width, for the
    # parent too, and the parent keeps those columns after the child goes.
    H = dual_group_hopf(dihedral(3), QQ)
    parent = H.base_env().child()
    e = parse_expr("Delta ; piL * piR", parent.sig)
    plan = _plan_of(e, parent)
    plan.fn(plan, parent, ir._cols(plan, parent), 0)
    assert sum(c is not None for c in parent._kept[plan]) == 1
    child = parent.child()
    own = parse_expr("S ; Delta ; piL * piR", child.sig)
    assert evaluate(e, child) == _dense(e, parent)
    assert evaluate(own, child) == _dense(own, parent)
    assert _plan_of(own, child) in child._kept
    del child
    assert sum(c is not None for c in parent._kept[plan]) == 6
    assert _plan_of(own, parent) not in parent._kept


def test_rebinding_a_name():
    parent = _frac_env(QQ)
    assert parent.child({"mu": parent.bindings["mu"]}).sig is parent.sig
    same = LinMap(QQ, parent.bindings["mu"].dom, parent.bindings["mu"].cod,
                  [list(r) for r in parent.bindings["mu"].rows])
    assert parent.child({"mu": same}).sig is parent.sig  # an equal matrix is the same binding
    with pytest.raises(RebindingError) as exc:
        parent.child({"P": _map(("H",), ("A",)), "mu": _map(("H", "H"), ("H",), shift=1)})
    assert exc.value.name == "mu"
    child = parent.child({"P": _map(("H",), ("A",))})
    with pytest.raises(RebindingError):
        child.child({"P": _map(("H",), ("A",), shift=1)})


@pytest.fixture
def cold_plans(monkeypatch):
    """An empty parse memo and node table, so that every node parsed is new
    and keeps no plan, and no generator shape, for this test alone."""
    monkeypatch.setattr(syntax, "_PARSED", {})
    monkeypatch.setattr(syntax, "_NODES", {})
    monkeypatch.setattr(ir, "_GENS", {})


def _clear_plans():
    """Empty the plans of every node the parser holds."""
    for node in syntax._NODES.values():
        node.plans.clear()


def _counting_compile(monkeypatch) -> list:
    """Patch ir._compile to record the id of every node it compiles, a node
    before its parts."""
    compiled = []
    compile_ = ir._compile

    def counting(e, *rest):
        compiled.append(id(e))
        return compile_(e, *rest)
    monkeypatch.setattr(ir, "_compile", counting)
    return compiled


def _kept_nodes(env) -> set:
    """The ids of the nodes whose plans keep a value in env."""
    held = set(env._kept) | set(env._lists)
    return {id(e) for e in syntax._NODES.values() for plan, _, _ in e.plans.values() if plan in held}


def test_second_axiom_table_compiles_no_plan(cold_plans, monkeypatch):
    # The checked constructor runs the table first and compiles its plans.
    # Run again, on H or on a new H over the same maps (new contexts, so
    # nothing kept), the table reads those plans.
    compiled = _counting_compile(monkeypatch)
    G = groupoid_algebra(pair_groupoid(2), QQ)
    assert compiled
    compiled.clear()
    H = WeakHopfAlgebra.unchecked(G.field, G.obj, G.mu, G.eta, G.delta, G.eps, G.antipode)
    first = check_bialgebra_axioms(H)
    second = check_bialgebra_axioms(H)
    again = WeakHopfAlgebra.unchecked(G.field, G.obj, G.mu, G.eta, G.delta, G.eps, G.antipode)
    third = check_bialgebra_axioms(again)
    assert compiled == []
    assert again.core_env()._lists and not set(again.core_env()._lists) - set(H.core_env()._lists)
    for report in (second, third):
        assert [(v.check_id, v.status) for v in report] == [(v.check_id, v.status) for v in first]


@FIELDS
@settings(max_examples=30, deadline=None)
@given(parts=st.lists(_ast(2), min_size=1, max_size=3))
def test_child_matches_fresh_env_over_merged_bindings(field, parts):
    pairs = [(a, b) for a in parts for b in parts]
    candidates = parts + [Par(a, b) for a, b in pairs] + [Seq(a, b) for a, b in pairs]
    exprs = [e for e in candidates if _small_and_typed(e)]
    assume(exprs)
    parent = _frac_env(field)
    for e in exprs[::2]:  # the child starts from these plans
        evaluate(e, parent)
    extra = {"P": _map(("H", "A"), ("A",), field), "Q": _map(("A",), ("H", "H"), field, 1)}
    child = parent.child(extra)
    fresh = build_env(field, {}, {**parent.bindings, **extra})
    p_then_q = Seq(Seq(Gen("P"), Gen("Q")), Gen("mu"))
    for e in exprs + [p_then_q, Par(Gen("P"), p_then_q)]:
        assert evaluate(e, child) == evaluate(e, fresh)


# -- one node per structure, typed where it is compiled ------------------------

@pytest.fixture
def cold_parse(monkeypatch):
    """An empty parse memo and node table for this test alone."""
    monkeypatch.setattr(syntax, "_PARSED", {})
    monkeypatch.setattr(syntax, "_NODES", {})


def _nodes(e) -> list:
    """Every node of e, e's children before e."""
    children = (e.first, e.then) if isinstance(e, Seq) else (e.left, e.right) if isinstance(e, Par) else ()
    return [n for c in children for n in _nodes(c)] + [e]


def test_a_parse_builds_each_new_node_once(cold_parse, monkeypatch):
    built = []
    uses = syntax._Node._uses
    monkeypatch.setattr(syntax._Node, "_uses", lambda node, *names: built.append(type(node)) or uses(node, *names))
    square = parse_expr("(Delta ; mu) * (Delta ; mu)", SIG)
    assert built == [Gen, Gen, Seq, Par] and square.left is square.right
    built.clear()
    assert parse_expr("mu ; (Delta ; mu) * (Delta ; mu)", SIG).then is square
    assert built == [Seq]


def test_two_texts_share_their_common_subexpression(cold_parse, monkeypatch):
    a = parse_expr("Delta * id(A) ; id(H) * rho ; swap(H,A)", SIG)
    b = parse_expr("eta * id(A) ; Delta * id(A) ; id(H) * rho", SIG)
    assert a.first.first is b.first.then  # Delta * id(A)
    assert a.first.then is b.then  # id(H) * rho
    assert a.first.first.right is b.first.first.right  # id(A)
    square = parse_expr("(Delta ; mu) * (Delta ; mu)", SIG)
    assert square.left is square.right
    env = _frac_env(QQ)
    evaluate(a, env)
    compiled = _counting_compile(monkeypatch)
    assert evaluate(b, env) == _dense(b, env)
    assert compiled == [id(n) for n in (b, b.first, b.first.first, b.first.first.left)]
    # The shared parts keep their values once in env, and a new Env of the
    # same shape compiles nothing and keeps its own.
    assert _plan_of(b.then, env) is _plan_of(a.first.then, env)
    fresh = _frac_env(QQ)
    assert evaluate(b, fresh) == evaluate(b, env)
    stores = [{id(c) for c in e._kept.values() if c is not ir._NOTHING} for e in (env, fresh)]
    assert len(compiled) == 4 and stores[1] and not stores[0] & stores[1]


def test_a_child_compiles_no_plan_its_parent_compiled(cold_plans, monkeypatch):
    # The child finds the parent's plan for every node that names none of
    # its new generators; the nodes over P are compiled in the child, and
    # the values it keeps for them are dropped with it.
    parent = _frac_env(QQ)
    texts = ["id(H) * mu ; mu", "Delta * id(A) ; id(H) * rho ; swap(H,A)", "eta ; Delta ; mu"]
    exprs = [parse_expr(text, SIG) for text in texts]
    expected = [evaluate(e, parent) for e in exprs]
    child = parent.child({"P": _map(("H",), ("A",))})
    compiled = _counting_compile(monkeypatch)
    assert [evaluate(e, child) for e in exprs] == expected
    assert compiled == []
    assert check_identity(parse_expr("P ; id(A)", child.sig), parse_expr("P", child.sig), child).passed
    nodes = {id(e): e for e in syntax._NODES.values()}
    assert compiled and all("P" in nodes[k].gens for k in compiled)
    assert not set(compiled) & _kept_nodes(parent)
    assert set(compiled) & _kept_nodes(child)


def test_a_child_reads_no_word_dim_its_parent_has_read(cold_plans, monkeypatch):
    # A plan reads its dims from the shapes of the names its node uses, so
    # a node a child compiles over words the parent has read reads no word.
    parent = _frac_env(QQ)
    seen = parse_expr("Delta * id(A) ; id(H) * rho", SIG)
    assert check_identity(seen, seen, parent).passed
    child = parent.child({"P": _map(("H", "A"), ("A",))})
    new = parse_expr("Delta * id(A) ; id(H) * P", child.sig)
    calls, word_of = [], Signature.word_of
    monkeypatch.setattr(Signature, "word_of", lambda sig, names: calls.append(names) or word_of(sig, names))
    compiled = _counting_compile(monkeypatch)
    assert check_identity(new, new, child).passed
    assert compiled and calls == []


def test_cocycle_laws_reuse_the_measures_plans_and_keep_none_of_their_own(cold_plans, monkeypatch):
    # The measure's formulas compile in its kept contexts, the cocycle's
    # context is built on them, and the laws run in a child of it: the laws
    # compile none of the measure's nodes, and the values kept for the
    # nodes only they read are dropped with their child.
    H = groupoid_algebra(pair_groupoid(2), QQ)
    m = base_action_measure(H)
    c = smash_cocycle(m)
    m.u(3)
    sig = Signature.of_bindings({}, {"mu": H.mu, "etaA": m.A.eta, "rho": m.rho})
    u3 = _nodes(parse_expr(u_formula(3), sig))
    compiled = _counting_compile(monkeypatch)
    assert cocycle_report(m, c).all_pass
    assert not set(map(id, u3)) & set(compiled)
    sig = c.context.sig
    table = {id(n) for _, lhs, rhs in COCYCLE_IDENTITIES
             for n in _nodes(parse_expr(lhs, sig)) + _nodes(parse_expr(rhs, sig))}
    assert {id(n) for n in u3 if isinstance(n, (Seq, Par))} & table  # the laws read u3's parts
    formulas = [CHI_FORMULA, NABLA_FORMULA, NU_FORMULA, FF_FORMULA]
    formulas += [u_formula(n) for n in (1, 2, 3)] + [v_formula(n) for n in (2, 3)]
    own = {id(n) for text in formulas for n in _nodes(parse_expr(text, sig))}
    table_only = table - own - _kept_nodes(H.base_env())
    assert table_only & set(compiled)  # compiled by the laws...
    assert not table_only & _kept_nodes(c.context)  # ...and their values dropped with their child


def test_typing_errors_are_the_same_cold_and_warm():
    bad_name = Seq(parse_expr("id(H) * mu", SIG), Par(Id(("H",)), Gen("nope")))
    bad_type = parse_expr("eta * id(H) ; (id(H) * (mu ; mu))", SIG)

    def errors():  # in a new Env each time
        env = _sig_env()
        out = []
        for e in (bad_name, bad_type):
            for route in (lambda: evaluate(e, env), lambda: check_identity(e, e, env)):
                with pytest.raises((UnknownNameError, WordTypeError)) as exc:
                    route()
                out.append((type(exc.value), str(exc.value), getattr(exc.value, "path", None)))
        return out

    cold = errors()
    assert [c[0] for c in cold] == [UnknownNameError] * 2 + [WordTypeError] * 2
    assert cold[2][2] == ".then.right"
    env = _sig_env()
    for text in ("id(H) * mu", "mu", "eta * id(H)", "id(H) * mu ; mu"):  # warm every typed part
        evaluate(parse_expr(text, SIG), env)
    assert errors() == cold


def _outcome(route):
    """What a call returns, or the type, message and path of what it raises."""
    try:
        return route()
    except (TypeError, UnknownNameError) as exc:
        return type(exc), str(exc), getattr(exc, "path", None)


@settings(max_examples=200, deadline=None)
@given(e=_ast(3, _IDENTS | st.just("nope")), data=st.data())
def test_kernel_typing_matches_infer_type(e, data):
    # Drawn ASTs, mostly ill typed, some naming a generator SIG lacks, run
    # in a fresh Env and in one where some well-typed parts are compiled.
    typing = _outcome(lambda: infer_type(e, SIG))
    well_typed = typing[0] is not WordTypeError and typing[0] is not UnknownNameError
    assume(not well_typed or _small_and_typed(e, 81))
    parts = [n for n in _nodes(e)[:-1] if _small_and_typed(n, 81)]
    warm = _sig_env()
    for part in data.draw(st.lists(st.sampled_from(parts), unique_by=id)) if parts else ():
        evaluate(part, warm)
    for env in (_sig_env(), warm):
        m = _outcome(lambda: evaluate(e, env))
        verdict = _outcome(lambda: check_identity(e, e, env).status)
        if well_typed:
            assert (m.dom, m.cod) == tuple(SIG.word_of(w) for w in typing)
            assert verdict == "pass"
        else:
            assert m == verdict == typing


def test_a_parse_memo_capped_small_keeps_the_node_table_to_its_texts(cold_parse, monkeypatch):
    texts = ["Delta * id(A) ; id(H) * rho ; swap(H,A)", "eta ; Delta ; mu", "mu ; Delta",
             "(Delta ; mu) * (Delta ; mu)", "id(H) * mu ; mu", "eta * id(A) ; Delta * id(A)"]
    reference = {text: parse_expr(text, SIG) for text in texts}
    monkeypatch.setattr(syntax, "_PARSED", {})
    monkeypatch.setattr(syntax, "_NODES", {})
    monkeypatch.setattr(syntax, "_PARSED_MAX", 2)
    env = _frac_env(QQ)
    for text in texts * 2:
        e = parse_expr(text, SIG)
        assert e == reference[text] and evaluate(e, env) == _dense(e, env)
        assert len(syntax._PARSED) <= 2
        held = {id(n) for ast in syntax._PARSED.values() for n in _nodes(ast)}
        assert {id(n) for n in syntax._NODES.values()} == held
    assert len(syntax._PARSED) == 2


def test_texts_that_fail_to_parse_do_not_grow_the_node_table_without_bound(cold_parse, monkeypatch):
    # Each text builds up to seven nodes (two leaves, five Seq) before its
    # unknown name, and fails: the table keeps fewer than 16 * 2 nodes of
    # earlier texts, plus these.
    monkeypatch.setattr(syntax, "_PARSED_MAX", 2)
    for n in range(64):
        words = ["id(H)" if n >> k & 1 else "id(A)" for k in range(6)]
        with pytest.raises(UnknownNameError):
            parse_expr(" ; ".join(words + ["nosuch"]), SIG)
        assert len(syntax._NODES) <= 32 + 6 and not syntax._PARSED
    assert parse_expr("mu ; mu", SIG) == Seq(Gen("mu"), Gen("mu"))


def test_threads_sharing_a_cold_env_match_a_serial_run(cold_parse):
    # Each round the threads parse, type and compile a table together: the
    # parse memo is emptied and the Env is new.  The rows share parts, and
    # the last one fails.
    table = [("assoc", "mu * id(H) ; mu", "id(H) * mu ; mu"),
             ("coassoc", "Delta ; Delta * id(H)", "Delta ; id(H) * Delta"),
             ("action", "id(H) * rho ; rho", "mu * id(A) ; rho"),
             ("swap", "Delta * id(A) ; id(H) * swap(H,A) ; rho * id(H)",
              "Delta * id(A) ; id(H) * swap(H,A) ; rho * id(H)"),
             ("commutative", "swap(H,H) ; mu", "mu")]
    base = _frac_env(GF(7))

    def context():
        syntax._PARSED.clear()
        syntax._NODES.clear()
        return Env(base.sig, base.field, base.bindings)

    def run(env):
        return [(v.check_id, v.status, v.witness) for v in run_identity_table(table, env)]

    serial = run(context())
    assert serial[3][1] == "pass" and serial[4][1] == "fail"
    for results in race(context, run, 10):
        assert results == [serial] * 4


# -- permutation index tables -------------------------------------------------

def _block_index(perm, j):
    """The row of column j under a factor permutation, block by block: drop
    the factors of dimension 1 and move each run of factors that stay
    adjacent as one block (the per-term formula the tables replace)."""
    dims, order = perm
    where = {}
    for i, d in enumerate(dims):
        if d > 1:
            where[i] = len(where)
    dims = [d for d in dims if d > 1]
    order = [where[i] for i in order if i in where]
    strides = [1] * len(dims)
    for k in range(len(dims) - 1, 0, -1):
        strides[k - 1] = strides[k] * dims[k]
    i, out, q = 0, 1, len(order) - 1
    while q >= 0:
        last = first = order[q]
        while q > 0 and order[q - 1] == first - 1:
            q -= 1
            first -= 1
        d = strides[first] * dims[first] // strides[last]
        i += j // strides[last] % d * out
        out *= d
        q -= 1
    return i


@st.composite
def _factor_permutations(draw):
    dims = tuple(draw(st.lists(st.integers(1, 4), max_size=5)))
    order = draw(st.sampled_from([tuple(range(len(dims)))]) | st.permutations(range(len(dims))))
    return dims, tuple(order)


@settings(max_examples=300, deadline=None)
@given(perm=_factor_permutations())
def test_index_tables_match_the_block_formula(perm):
    tables = ir._tables(perm)
    n = math.prod(perm[0])
    if tables is None:
        assert all(_block_index(perm, j) == j for j in range(n))
        return
    low, hi, lo = tables
    assert len(hi) * low == n and len(lo) == low
    assert [hi[j // low] + lo[j % low] for j in range(n)] == [_block_index(perm, j) for j in range(n)]
    assert (len(hi) + len(lo)) ** 2 <= n * (1 + max(perm[0])) ** 2


def test_index_tables_of_a_wide_permutation_stay_small():
    perm = ((9,) * 6, (0, 2, 4, 1, 3, 5))
    low, hi, lo = ir._tables(perm)
    assert len(hi) + len(lo) <= 2 * 9 * 729
    for j in (0, 1, 8, 9, 728, 729, 12345, 531440):
        assert hi[j // low] + lo[j % low] == _block_index(perm, j)


@pytest.fixture
def cold_tables(monkeypatch, cold_plans):
    """Empty registries of index tables and of the plans that hold them, for
    this test alone."""
    monkeypatch.setattr(ir, "_PERMS", {})


def _counting_tables(monkeypatch) -> list:
    """The permutations whose tables are built from now on, in order."""
    built = []
    tables = ir._tables

    def counting(perm):
        if perm not in ir._PERMS:
            built.append(perm)
        return tables(perm)
    monkeypatch.setattr(ir, "_tables", counting)
    return built


def _suites(H):
    return [[(v.check_id, v.status) for v in r]
            for r in (check_bialgebra_axioms(H), check_antipode(H), projection_identity_suite(H))]


def test_two_algebras_of_one_dimension_build_each_table_once(cold_tables, monkeypatch):
    built = _counting_tables(monkeypatch)
    first = _suites(groupoid_algebra(pair_groupoid(2), QQ))
    assert built and len(set(built)) == len(built)
    before = list(built)
    second = _suites(groupoid_algebra(group_groupoid(cyclic(4)), GF(7)))  # dim 4 too, fresh Envs
    assert built == before
    assert [[s for _, s in r] for r in second] == [[s for _, s in r] for r in first]


def test_the_table_registry_stays_within_its_cap(cold_tables, monkeypatch):
    expected = _suites(groupoid_algebra(pair_groupoid(3), QQ))
    monkeypatch.setattr(ir, "_PERMS_MAX", 3)
    ir._PERMS.clear()
    _clear_plans()  # so that the plans are compiled, and their tables built, again
    sizes = []
    tables = ir._tables

    def watched(perm):
        out = tables(perm)
        sizes.append(len(ir._PERMS))
        return out
    monkeypatch.setattr(ir, "_tables", watched)
    assert _suites(groupoid_algebra(pair_groupoid(3), QQ)) == expected
    assert sizes and max(sizes) <= 3


def test_threads_sharing_index_tables_match_a_serial_run(cold_tables):
    # Each round two cold cocycle contexts of one dimension are shared by
    # four threads, two starting on each, with no table built yet: the
    # threads build the H^3 permutations' tables together.
    def cocycle_env(H):
        c = smash_cocycle(base_action_measure(H))
        return c.context.child({"finv": c.inverse})
    bases = [cocycle_env(groupoid_algebra(pair_groupoid(2), QQ)),
             cocycle_env(groupoid_algebra(group_groupoid(cyclic(4)), GF(7)))]

    def context():
        envs = [Env(env.sig, env.field, env.bindings) for env in bases]
        ir._PERMS.clear()
        _clear_plans()  # the threads compile the plans that hold the tables, too
        return envs, itertools.count()

    def run_one(env):
        return [(v.check_id, v.status, v.witness)
                for v in run_identity_table(COCYCLE_INVERSE_IDENTITIES, env)]

    def run(shared):
        envs, turn = shared
        order = [0, 1] if next(turn) % 2 else [1, 0]
        out = {i: run_one(envs[i]) for i in order}
        return [out[0], out[1]]

    serial = [run_one(env) for env in context()[0]]
    assert all(status == "pass" for rows in serial for _, status, _ in rows)
    for results in race(context, run, 5):
        assert results == [serial] * 4


# -- plans shared across contexts ----------------------------------------------

def _odd_monomial(data, field, dom, cod) -> LinMap:
    """A monomial map with integer entries 1, -1 or 3, so of scale 1 over Q,
    some columns zero."""
    ncols, nrows = math.prod(ob.dim for ob in dom), math.prod(ob.dim for ob in cod)
    rows = [[0] * ncols for _ in range(nrows)]
    for j in range(ncols):
        i = data.draw(st.integers(-1, nrows - 1))
        if i >= 0:
            rows[i][j] = data.draw(st.sampled_from((1, -1, 3)))
    return from_rows(field, dom, cod, rows)


def _odd_bindings(data, field, sig) -> dict:
    return {name: _odd_monomial(data, field, sig.word_of(dom), sig.word_of(cod))
            for name, (dom, cod) in sig.generators.items()}


def _one_column_of_two(m: LinMap, j: int) -> LinMap:
    """m with one entry 1 added in column j at a row where it is zero, or
    two when column j is zero: no longer monomial, of the same scale."""
    rows = [list(row) for row in m.rows]
    free = [i for i in range(m.nrows) if not rows[i][j]]
    for i in free[:1] if len(free) < m.nrows else free[:2]:
        rows[i][j] = m.field.one
    return LinMap(m.field, m.dom, m.cod, rows)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["field", "dim", "monomial", "scale"]),
       text=st.sampled_from(_MONO_TEXTS), data=st.data())
def test_two_shapes_of_one_node_get_two_plans(kind, text, data):
    # One node under two Envs whose shapes differ in exactly one component
    # the node reads: the field, the dim of an object it reads, whether a
    # generator it names is monomial (one entry added to a column), or
    # that generator's scale (the map times 1/2, over Q).  Every other
    # generator stays monomial of scale 1.  The two Envs get two plans;
    # evaluated in alternation, in new Envs of both shapes, each gives the
    # dense route's matrix and that of a copy of the node, which keeps no
    # plan, and checks against it.
    field = QQ if kind == "scale" else data.draw(st.sampled_from([QQ, GF(7)]))
    sig, other_sig, other_field = _MONO_SIG, _MONO_SIG, field
    e = parse_expr(text, sig)
    bindings = _odd_bindings(data, field, sig)
    other = dict(bindings)
    if kind == "field":
        other_field = GF(7) if field == QQ else QQ
        other = {name: from_rows(other_field, m.dom, m.cod, [list(map(int, row)) for row in m.rows])
                 for name, m in bindings.items()}
    elif kind == "dim":
        read = sorted({ob for n in e.gens for ob in sum(sig.generators[n], ())} | e.objs)
        ob = data.draw(st.sampled_from(read))
        other_sig = Signature({**sig.objects, ob: sig.objects[ob] + 1}, sig.generators)
        other = _odd_bindings(data, field, other_sig)
    else:
        gens = [n for n in sorted(e.gens) if kind == "scale" or bindings[n].nrows > 1]
        assume(gens)
        g = data.draw(st.sampled_from(gens))
        m = bindings[g]
        if kind == "monomial":
            other[g] = _one_column_of_two(m, data.draw(st.integers(0, m.ncols - 1)))
        else:
            assume(any(m.int_columns()[0]))
            other[g] = from_rows(QQ, m.dom, m.cod, [[x / 2 for x in row] for row in m.rows])
            assert other[g].int_columns()[1] == 2
    shapes = [(sig, field, bindings), (other_sig, other_field, other)]
    assert _plan_of(e, Env(*shapes[0])) is not _plan_of(e, Env(*shapes[1]))
    dense = [_dense(e, Env(*shape)) for shape in shapes]
    for _ in range(2):
        for shape, want in zip(shapes, dense):
            env = Env(*shape)
            assert evaluate(e, env) == want
            child = env.child({"P": want, "R": _moved(want, want.ncols - 1)})
            assert check_identity(e, Gen("P"), child).status == "pass"
            _assert_verdict_matches_dense(e, Gen("R"), child)
            cold = copy.deepcopy(e)
            assert cold == e and not cold.plans
            assert evaluate(cold, Env(*shape)) == want


def test_a_plan_does_not_depend_on_compile_order():
    # A plan is decided by its node and the shapes of the names it uses.
    # S ; Delta ; S * piL keeps the same store whether it is compiled alone
    # first or first inside eta ; (...), and a first ; (L * R) plan makes
    # the same support decision whether L and R are compiled alone first or
    # first inside it.  Each order starts from new nodes, which keep no plan.
    H = groupoid_algebra(pair_groupoid(3), QQ)
    stores = []
    for alone_first in (True, False):
        env = H.base_env().child()
        outer = copy.deepcopy(parse_expr("eta ; (S ; Delta ; S * piL)", env.sig))
        for e in (outer.then, outer) if alone_first else (outer, outer.then):
            evaluate(e, env)
        store = env._kept[_plan_of(outer.then, env)]
        stores.append((type(store), len(store)))
    assert stores == [(list, 9)] * 2
    D = dual_group_hopf(dihedral(3), QQ)
    decisions = []
    for alone_first in (True, False):
        env = D.base_env().child()
        e = copy.deepcopy(parse_expr("eta ; Delta ; (S ; piL) * (S ; piR)", env.sig))
        if alone_first:
            evaluate(e.then.left, env)
            evaluate(e.then.right, env)
        assert evaluate(e, env) == _dense(e, env)
        decisions.append(env._support[_plan_of(e, env)])
    assert decisions[0] == decisions[1] == {0}  # only S ; piL and S ; piR at column 0 are nonzero


def _bumped_mu(H, e: int, h: int, k: int) -> LinMap:
    """H's mu with one added to its entry at row k, column (e, h), as in
    the seeded counterexamples of the benchmark."""
    rows = [list(row) for row in H.mu.rows]
    rows[k][e * H.dim + h] = H.field.normalize(rows[k][e * H.dim + h] + 1)
    return from_rows(H.field, H.mu.dom, H.mu.cod, rows)


@FIELDS
def test_a_bumped_entry_of_the_same_form_shares_the_plans_and_fails_where_predicted(field):
    # mu of pair(3) with one added at row k of column (e, h), e an
    # identity: at a basis vector e * h = h (row h: entry 1 -> 2), or where
    # e * h is zero (entry 0 -> 1).  Either way mu stays monomial of scale
    # 1, so unit_left reads the plans of the unbumped algebra, and fails at
    # (row k, col h) with lhs delta(k, h) + 1 and rhs delta(k, h).  A bump
    # beside the entry of e * h = h makes a column of two: other plans, the
    # same witness.
    C = pair_groupoid(3)
    H = groupoid_algebra(C, field)
    env = H.core_env()
    units = [C.morphisms.index(C.identity[x]) for x in C.objects]
    mu_cols = H.mu.int_columns()[0]
    defined = [(e, h) for e in units for h in range(H.dim) if mu_cols[e * H.dim + h]]
    zero = [(e, h) for e in units for h in range(H.dim) if not mu_cols[e * H.dim + h]]
    (e1, h1), (e2, h2) = defined[0], zero[-1]
    _, lhs, rhs = next(row for row in BIALGEBRA_AXIOMS if row[0] == "unit_left")
    sides = [parse_expr(text, env.sig) for text in (lhs, rhs)]
    sides = [s for s in sides if "mu" in s.gens]
    assert sides
    n = H.dim
    cases = [(e1, h1, h1, True), (e2, h2, (h2 + 1) % n, True), (e1, h1, (h1 + 1) % n, False)]
    for e, h, k, same_form in cases:
        bumped = build_env(field, {}, {**env.bindings, "mu": _bumped_mu(H, e, h, k)})
        assert all((_plan_of(s, bumped) is _plan_of(s, env)) == same_form for s in sides)
        w = run_identity_table(BIALGEBRA_AXIOMS, bumped).get("unit_left").witness
        delta = int(k == h)
        assert (w.row, w.col) == (k, h)
        assert (w.lhs, w.rhs) == (field.normalize(delta + 1), field.normalize(delta))


def test_each_node_keeps_its_plans_within_its_cap(cold_plans, monkeypatch):
    # Six algebras of three dims over two fields: a node over their maps is
    # compiled for six shapes, more than the two a node keeps here, and
    # their generator shapes outnumber the eight kept in _GENS.
    cats = [pair_groupoid(2), pair_groupoid(3), group_groupoid(cyclic(3))]
    algebras = [groupoid_algebra(C, field) for field in (QQ, GF(7)) for C in cats]
    expected = [_suites(H) for H in algebras]
    monkeypatch.setattr(ir, "_PLANS_MAX", 2)
    monkeypatch.setattr(ir, "_GENS_MAX", 8)
    _clear_plans()
    ir._GENS.clear()
    sizes, compiled = [], []
    compile_ = ir._compile

    def watched(e, *rest):
        out = compile_(e, *rest)
        sizes.append((len(e.plans), len(ir._GENS)))
        compiled.append(id(e))
        return out
    monkeypatch.setattr(ir, "_compile", watched)
    minted = next(ir._GEN_IDS)
    again = [WeakHopfAlgebra.unchecked(H.field, H.obj, H.mu, H.eta, H.delta, H.eps, H.antipode)
             for H in algebras]
    assert [_suites(H) for H in again] == expected
    assert max(compiled.count(k) for k in compiled) > 2 and max(p for p, _ in sizes) <= 2
    assert minted - next(ir._GEN_IDS) > 8 and max(g for _, g in sizes) <= 8


def test_threads_compiling_shared_plans_match_a_serial_run(cold_plans):
    # C4 and the Klein group over Q are algebras of one shape.  Each round
    # the plan registry is empty and two new algebras over their maps share
    # four threads, two starting on each: the threads compile the plans
    # both read together, while each algebra keeps its own values.  Every
    # square is the unit in the Klein group only, so "squares" fails on C4.
    algebras = [groupoid_algebra(group_groupoid(g), QQ)
                for g in (cyclic(4), direct_product(cyclic(2), cyclic(2)))]
    table = BIALGEBRA_AXIOMS + PROJECTION_BASICS + [("squares", "Delta ; mu", "eps ; eta")]

    def context():
        _clear_plans()
        fresh = [WeakHopfAlgebra.unchecked(H.field, H.obj, H.mu, H.eta, H.delta, H.eps, H.antipode)
                 for H in algebras]
        return fresh, itertools.count()

    def run_one(H):
        return [(v.check_id, v.status, v.witness) for v in run_identity_table(table, H.base_env())]

    def run(shared):
        fresh, turn = shared
        order = [0, 1] if next(turn) % 2 else [1, 0]
        out = {i: run_one(fresh[i]) for i in order}
        return [out[0], out[1]]

    serial = [run_one(H) for H in context()[0]]
    assert [[row[0] for row in rows if row[1] != "pass"] for rows in serial] == [["squares"], []]
    for results in race(context, run, 5):
        assert results == [serial] * 4


def test_a_second_pass_over_a_small_universe_compiles_no_plan(cold_plans, monkeypatch):
    # pair(2), pair(3) and the one-object C2 and C3 groupoids, over Q and
    # F_7, each built by the checked constructor and run through the three
    # suites.  The first pass compiles each node once per shape; a node
    # naming no generator (a permutation) once per dim, over both fields.
    # A second pass, on new algebras over the same maps, compiles nothing.
    keys = []
    compile_ = ir._compile

    def counting(e, env, key):
        keys.append((id(e), key))
        return compile_(e, env, key)
    monkeypatch.setattr(ir, "_compile", counting)
    cats = [pair_groupoid(2), pair_groupoid(3)] + [group_groupoid(cyclic(n)) for n in (2, 3)]
    algebras = [groupoid_algebra(C, field) for field in (QQ, GF(7)) for C in cats]
    first = [_suites(H) for H in algebras]
    assert keys and len(set(keys)) == len(keys)
    nodes = {id(e): e for e in syntax._NODES.values()}
    permutations = [k for k, _ in keys if not nodes[k].gens]
    assert permutations and max(permutations.count(k) for k in permutations) <= 4  # dims 2, 3, 4, 9
    keys.clear()
    again = [WeakHopfAlgebra.unchecked(H.field, H.obj, H.mu, H.eta, H.delta, H.eps, H.antipode)
             for H in algebras]
    assert [_suites(H) for H in again] == first
    assert keys == []


# -- the parse memo ------------------------------------------------------------

def test_memoized_text_under_a_smaller_signature_raises_as_cold():
    small = Signature(objects={"H": 2}, generators={"mu": (("H", "H"), ("H",))})
    for text in ("mu ; Delta", "id(H) * id(A) ; swap(H,A)"):
        syntax._PARSED.clear()
        with pytest.raises(UnknownNameError) as cold:
            parse_expr(text, small)
        first = parse_expr(text, SIG)
        assert parse_expr(text, SIG) is first  # parsed once
        with pytest.raises(UnknownNameError) as warm:
            parse_expr(text, small)
        assert str(warm.value) == str(cold.value)
        assert "(line 1, col" in str(warm.value)


def test_parse_error_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(ParseError) as exc:
            parse_expr("mu ;\n ; Delta", SIG)
        assert (exc.value.line, exc.value.col) == (2, 2)


def test_threads_sharing_one_algebra_match_a_serial_run():
    def run(H):
        return [[(v.check_id, v.status, v.witness) for v in r]
                for r in (check_bialgebra_axioms(H), projection_identity_suite(H))]

    G = groupoid_algebra(pair_groupoid(3), GF(7))
    serial = run(G)

    def context():  # a new H over the same maps: every thread starts from cold contexts
        return WeakHopfAlgebra.unchecked(G.field, G.obj, G.mu, G.eta, G.delta, G.eps, G.antipode)

    for results in race(context, run, 30):
        assert results == [serial] * 4


def test_threads_sharing_one_cocycle_context_match_a_serial_run():
    # The H^3 convolutions of this table go through permutation index maps
    # and fused Kronecker steps, whose plans the threads compile together.
    def context():
        c = smash_cocycle(base_action_measure(groupoid_algebra(pair_groupoid(2), QQ)))
        return c.context.child({"finv": c.inverse})

    def run(env):
        return [(v.check_id, v.status, v.witness)
                for v in run_identity_table(COCYCLE_INVERSE_IDENTITIES, env)]

    serial = run(context())
    assert serial and all(status == "pass" for _, status, _ in serial)
    for results in race(context, run, 10):
        assert results == [serial] * 4


def test_threads_sharing_one_filtered_convolution_match_a_serial_run():
    # On dual S3 with the trivial measure, f and finv are each nonzero on
    # one column only, so the plan of f * finv keeps its support filter.
    m = trivial_measure(dual_group_hopf(dihedral(3), GF(7)))
    c = CocycleData(m, m.u(2))
    base = c.context.child({"finv": c.inverse})
    _, lhs, rhs = next(row for row in COCYCLE_INVERSE_IDENTITIES if row[0] == "f_conv_finv")
    bad = _perturbed(base.bindings[rhs], 0, 7)
    bindings = {**base.bindings, "R": bad}
    sig = Signature(base.sig.objects, {**base.sig.generators, "R": base.sig.generators[rhs]})

    def context():  # one fresh Env: every thread starts from no plan at all
        return Env(sig, base.field, bindings)

    def run(env):
        return [(v.status, v.witness)
                for v in (check_identity_text(lhs, rhs, env), check_identity_text(lhs, "R", env))]

    with _support_decisions() as decisions:
        serial = run(context())
        assert decisions and all(d is not False for d in decisions)
        for results in race(context, run, 10):
            assert results == [serial] * 4
    w = serial[1][1]
    diff = evaluate(parse_expr(lhs, sig), context()).first_difference(bad)
    assert serial[0] == ("pass", None) and (w.row, w.col, w.lhs, w.rhs) == diff
