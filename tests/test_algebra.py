"""Convolution monoid laws on genuinely non-grouplike data."""
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weakhopf.algebra import (
    AlgebraData,
    CoalgebraData,
    RegularityPreconditionFailed,
    StructureError,
    _power_delta,
    conv_inverse,
    convolve,
)
from weakhopf.fields import GF, QQ
from weakhopf.groupoid import dihedral
from weakhopf.identities import DELTA_H2, DELTA_H3
from weakhopf.ir import eval_text
from weakhopf.linalg import (
    LinMap,
    Obj,
    compose,
    from_rows,
    identity,
    invert,
    rename_factor,
    tensor_product,
    zero_map,
)

from instances import dual_group_hopf, pair_groupoid_hopf, z2_hopf


def conjugated_algebra(alg: AlgebraData, t: LinMap, t_inv: LinMap) -> AlgebraData:
    """Transport the algebra structure along an isomorphism t of the carrier."""
    mu = compose(t, compose(alg.mu, tensor_product(t_inv, t_inv)))
    eta = compose(t, alg.eta)
    return AlgebraData(alg.field, alg.obj, mu, eta)


def conjugated_coalgebra(coalg: CoalgebraData, t: LinMap, t_inv: LinMap) -> CoalgebraData:
    delta = compose(tensor_product(t, t), compose(coalg.delta, t_inv))
    eps = compose(coalg.eps, t_inv)
    return CoalgebraData(coalg.field, coalg.obj, delta, eps)


def _unitriangular(field, ob, data):
    t = identity(field, ob)
    for i in range(ob.dim):
        for j in range(i + 1, ob.dim):
            t.rows[i][j] = field.normalize(data.draw(st.integers(min_value=-2, max_value=2)))
    return t


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_convolution_monoid_laws_on_conjugated_structures(data):
    field = data.draw(st.sampled_from([QQ, GF(7)]))
    H = pair_groupoid_hopf(2, field)
    # Conjugating by an invertible map keeps the axioms but destroys the
    # grouplike basis, so the convolution code sees dense structure tensors.
    t = _unitriangular(field, H.obj, data)
    t_inv = invert(t)
    alg = conjugated_algebra(H.algebra, t, t_inv)
    coalg = conjugated_coalgebra(H.coalgebra, t, t_inv)
    alg.validate()
    coalg.validate()

    def rand_map():
        return LinMap(
            field,
            (coalg.obj,),
            (alg.obj,),
            [
                [field.normalize(data.draw(st.integers(min_value=-2, max_value=2)))
                 for _ in range(coalg.dim)]
                for _ in range(alg.dim)
            ],
        )

    a, b, c = rand_map(), rand_map(), rand_map()
    lhs = convolve(convolve(a, b, coalg, alg), c, coalg, alg)
    rhs = convolve(a, convolve(b, c, coalg, alg), coalg, alg)
    assert lhs == rhs
    unit = compose(alg.eta, coalg.eps)
    assert convolve(a, unit, coalg, alg) == a
    assert convolve(unit, a, coalg, alg) == a


def test_tensor_power_delta_matches_materialized():
    # The integer terms of the power's comultiplication against the
    # interleaved ladders the kernel materializes for the identity tables.
    # Dual S3 is not cocommutative, so a swapped or mis-interleaved (j1, j2)
    # shows; the pair groupoid keeps the n = 3 ladder cheap.
    cases = [(dual_group_hopf(dihedral(3), field), 2, DELTA_H2) for field in (QQ, GF(7))]
    cases += [(dual_group_hopf(dihedral(3)), 1, "Delta"), (pair_groupoid_hopf(), 3, DELTA_H3)]
    for H, n, ladder in cases:
        field = H.field
        dmap = eval_text(ladder, H.core_env())
        terms, d = _power_delta(H.coalgebra, n)
        assert dmap.dom == (H.obj,) * n and len(terms) == H.dim ** n
        nc = len(terms)
        for j, col in enumerate(terms):
            got = {i1 * nc + i2: field.from_int(c, d) for i1, i2, c in col}
            assert len(got) == len(col)
            assert {i: r[j] for i, r in enumerate(dmap.rows) if r[j]} == got, (field, n, j)


def test_convolution_on_tensor_power_matches_dense_route():
    H = pair_groupoid_hopf()
    field = H.field
    word = (H.obj, H.obj)
    A = H.algebra
    a = zero_map(field, word, (H.obj,))
    b = zero_map(field, word, (H.obj,))
    for j in range(H.dim ** 2):
        a.rows[j % 4][j] = field.normalize(j + 1)
        b.rows[(j + 1) % 4][j] = field.one
    got = convolve(a, b, H.coalgebra, A)
    dense = compose(A.mu, compose(tensor_product(a, b), eval_text(DELTA_H2, H.core_env())))
    assert got == dense


def test_conv_inverse_uniqueness_and_determinism():
    # Hopf case: the inverse of the identity is the antipode.
    Hz = z2_hopf()
    idh = identity(QQ, Hz.obj)
    unit = compose(Hz.algebra.eta, Hz.coalgebra.eps)
    x1 = conv_inverse(idh, unit, Hz.coalgebra, Hz.algebra)
    x2 = conv_inverse(idh, unit, Hz.coalgebra, Hz.algebra)
    assert x1 == x2  # deterministic pivoting
    assert x1 == Hz.antipode
    # Genuinely weak case: the identity is not regular against the
    # convolution unit, but the unit power u2 is its own inverse.
    H = pair_groupoid_hopf()
    assert conv_inverse(identity(QQ, H.obj), compose(H.algebra.eta, H.coalgebra.eps),
                        H.coalgebra, H.algebra) is None
    from weakhopf.crossed import base_action_measure

    m = base_action_measure(H)
    u2 = m.u(2)
    got = conv_inverse(u2, u2, H.coalgebra, m.A)
    assert got == u2  # idempotent in the convolution monoid


def test_exhaustive_solver_agreement_small_field():
    # dim H = dim A = 2 over GF(2): all 16 candidate maps enumerable.
    H = z2_hopf(GF(2))
    field, coalg, alg = H.field, H.coalgebra, H.algebra
    cands = []
    for bits in itertools.product([0, 1], repeat=4):
        m = LinMap(field, (H.obj,), (H.obj,), [[bits[0], bits[1]], [bits[2], bits[3]]])
        cands.append(m)
    import random

    rng = random.Random(42)
    checked = refused = 0
    for _ in range(50):
        g = cands[rng.randrange(16)]
        u = cands[rng.randrange(16)]
        if convolve(g, u, coalg, alg) != g:
            # The solver checks g * u = g on its own operator; the dense
            # oracle must agree that the pair is refused.
            with pytest.raises(RegularityPreconditionFailed):
                conv_inverse(g, u, coalg, alg)
            refused += 1
            continue
        got = conv_inverse(g, u, coalg, alg)
        sols = [
            x
            for x in cands
            if convolve(g, x, coalg, alg) == u
            and convolve(x, g, coalg, alg) == u
            and convolve(x, u, coalg, alg) == x
        ]
        if got is None:
            assert sols == []
        else:
            assert got in sols
        checked += 1
    assert checked > 0 and refused > 0


def test_conv_operator_rows_match_convolve():
    # The solver builds the linear operators x -> g*x and x -> x*g directly,
    # as sparse integer rows over one denominator; applied to an arbitrary
    # map they must agree with the independent convolve path, over Q and F_7.
    from weakhopf.algebra import _conv_operator_rows

    for field in (QQ, GF(7)):
        H = pair_groupoid_hopf(field=field)
        coalg, alg = H.coalgebra, H.algebra
        g = from_rows(field, (H.obj,), (H.obj,),
                      [[1, 2, 0, 1], [0, Fraction(1, 2), 3, 0], [1, 0, 1, 0], [0, 4, 0, -1]])
        x = from_rows(field, (H.obj,), (H.obj,),
                      [[0, 1, 1, 2], [1, 0, 0, Fraction(-2, 3)], [2, 0, 1, 0], [0, 1, 0, 3]])
        x_flat = [v for r in x.rows for v in r]
        for side, expected in (("left", convolve(g, x, coalg, alg)),
                               ("right", convolve(x, g, coalg, alg))):
            rows, d = _conv_operator_rows(g, _power_delta(coalg, 1), alg, side)
            assert len(rows) == len(x_flat)
            assert all(type(n) is int and n for row in rows for n in row.values())
            if field.modulus:
                assert d == 1
                assert all(0 < n < field.modulus for row in rows for n in row.values())
            scale = field.inv(field.normalize(d))
            got_flat = [
                field.normalize(scale * sum((n * x_flat[k] for k, n in row.items()), field.zero))
                for row in rows
            ]
            exp_flat = [v for r in expected.rows for v in r]
            assert got_flat == exp_flat, (field, side)


def test_a_cocycle_inverse_expands_delta_once(monkeypatch):
    # The regularity check and the three operators of one solve share one
    # expansion of Delta on H^2, and the dense convolve is never called.
    from weakhopf import algebra
    from weakhopf.crossed import CocycleData, trivial_measure

    m = trivial_measure(dual_group_hopf(dihedral(3), GF(7)))
    expand = algebra._power_delta
    calls = []

    def counted(coalg, n):
        calls.append(n)
        return expand(coalg, n)

    def dense(*args):
        raise AssertionError("the solver called the dense convolve")

    monkeypatch.setattr(algebra, "_power_delta", counted)
    monkeypatch.setattr(algebra, "convolve", dense)
    assert CocycleData(m, m.u(2)).inverse == m.u(2)
    assert calls == [2]


def test_validate_names_the_failing_axiom():
    # validate runs the algebra and coalgebra rows of the bialgebra axioms
    # with the carrier bound as H; a corrupted structure map raises naming
    # the carrier and the first failing axiom.
    H = pair_groupoid_hopf()
    ren = {"H": "X"}
    mu, eta, delta, eps = (rename_factor(m, ren) for m in (H.mu, H.eta, H.delta, H.eps))
    X = mu.cod[0]

    def bumped(m, i, j):
        rows = [list(r) for r in m.rows]
        rows[i][j] = QQ.normalize(rows[i][j] + 1)
        return LinMap(QQ, m.dom, m.cod, rows)

    AlgebraData(QQ, X, mu, eta).validate()
    CoalgebraData(QQ, X, delta, eps).validate()
    cases = [
        (lambda: AlgebraData(QQ, X, bumped(mu, 0, 1), eta), "multiplication on X is not associative"),
        (lambda: AlgebraData(QQ, X, mu, bumped(eta, 1, 0)), "unit of X fails on the left"),
        (lambda: CoalgebraData(QQ, X, bumped(delta, 1, 0), eps), "comultiplication on X is not coassociative"),
        (lambda: CoalgebraData(QQ, X, delta, bumped(eps, 0, 1)), "counit of X fails on the left"),
    ]
    for build, message in cases:
        with pytest.raises(StructureError, match=f"^{message}$"):
            build().validate()


def test_conv_inverse_with_a_unit_over_a_denominator():
    # The one-dimensional algebra with basis b = 2 * 1: b * b = 2b and 1 = b / 2,
    # so u = eta . eps is 1/2 and its integer columns have the scale 2.
    A = AlgebraData.checked(QQ, Obj("A", 1), from_rows(QQ, (Obj("A", 1),) * 2, Obj("A", 1), [[2]]),
                            from_rows(QQ, (), Obj("A", 1), [[Fraction(1, 2)]]))
    C = CoalgebraData(QQ, Obj("C", 1), from_rows(QQ, Obj("C", 1), (Obj("C", 1),) * 2, [[1]]),
                      from_rows(QQ, Obj("C", 1), (), [[1]])).validate()
    u = compose(A.eta, C.eps)
    assert u.int_columns() == ([{0: 1}], 2)
    g = from_rows(QQ, u.dom, u.cod, [[Fraction(3, 2)]])
    x = conv_inverse(g, u, C, A)
    assert x == from_rows(QQ, u.dom, u.cod, [[Fraction(1, 6)]])  # u / 3
    assert convolve(g, x, C, A) == u == convolve(x, g, C, A)
    assert convolve(x, u, C, A) == x
