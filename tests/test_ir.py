import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from weakhopf.fields import QQ
from weakhopf.ir import (
    Env,
    Gen,
    Id,
    Par,
    ParseError,
    Seq,
    SwapE,
    Signature,
    UnknownNameError,
    WordTypeError,
    SideMismatchError,
    check_identity,
    check_identity_text,
    evaluate,
    infer_type,
    parse_expr,
    pretty,
    run_identity_table,
)
from weakhopf.linalg import Obj, from_rows, identity, swap, tensor_product, compose


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


# -- round trip and interchange ---------------------------------------------

_IDENTS = st.sampled_from(["mu", "eta", "Delta", "eps", "rho"])


def _ast(depth: int):
    if depth == 0:
        return st.one_of(
            _IDENTS.map(Gen),
            st.lists(st.sampled_from(["H", "A"]), min_size=1, max_size=2).map(
                lambda w: Id(tuple(w))
            ),
            st.tuples(
                st.sampled_from(["H", "A"]),
                st.lists(st.sampled_from(["H", "A"]), min_size=1, max_size=2),
            ).map(lambda t: SwapE((t[0],), tuple(t[1]))),
        )
    sub = _ast(depth - 1)
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

def _sig_env():
    # Arbitrary integer matrices, so a memo entry served to the wrong
    # subtree changes some entry.
    bindings = {}
    for name, (dom, cod) in SIG.generators.items():
        dw, cw = SIG.word_of(dom), SIG.word_of(cod)
        ncols, nrows = math.prod(ob.dim for ob in dw), math.prod(ob.dim for ob in cw)
        rows = [[(3 * i + 5 * j + len(name)) % 7 - 3 for j in range(ncols)] for i in range(nrows)]
        bindings[name] = from_rows(QQ, dw, cw, rows)
    return Env(SIG, QQ, bindings)


def _small_and_typed(e, limit=36) -> bool:
    """Well typed, with no node's dom or cod wider than limit."""
    try:
        words = infer_type(e, SIG)
    except WordTypeError:
        return False
    if any(math.prod(SIG.objects[n] for n in w) > limit for w in words):
        return False
    children = (e.first, e.then) if isinstance(e, Seq) else (e.left, e.right) if isinstance(e, Par) else ()
    return all(_small_and_typed(c, limit) for c in children)


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
