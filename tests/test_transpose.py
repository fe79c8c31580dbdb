"""A second route through the kernel: transposition.  Transposing an
expression reverses ``;``, keeps ``*`` and turns ``swap(X,Y)`` into
``swap(Y,X)``, so for every expression e

    evaluate(e, env)ᵀ == evaluate(eᵀ, envᵀ),

where envᵀ binds each generator's name to its transposed matrix.  Each pair
of runs puts the kernel's shape-dependent decisions (the support filter, the
monomial lists, the re-key branches) at mirrored shapes."""
import pytest

from weakhopf.crossed import base_action_measure, smash_cocycle
from weakhopf.fields import GF, QQ
from weakhopf.groupoid import connected_groupoid, cyclic, dihedral, groupoid_algebra, pair_groupoid
from weakhopf.identities import (
    ANTIPODE_AXIOMS,
    ANTIPODE_PROJECTION_IDENTITIES,
    BIALGEBRA_AXIOMS,
    COCYCLE_IDENTITIES,
    PROJECTION_BASICS,
    PROJECTION_IDENTITIES,
)
from weakhopf.ir import build_env, check_identity, evaluate
from weakhopf.linalg import LinMap
from weakhopf.syntax import Par, Seq, SwapE, parse_expr

from instances import dual_group_hopf

BASE_TABLES = (BIALGEBRA_AXIOMS, PROJECTION_BASICS, PROJECTION_IDENTITIES,
               ANTIPODE_PROJECTION_IDENTITIES, ANTIPODE_AXIOMS)
INSTANCES = {
    "pair3": lambda field: groupoid_algebra(pair_groupoid(3), field),
    "c2_on_2": lambda field: groupoid_algebra(connected_groupoid(2, cyclic(2)), field),
    "dual_s3": lambda field: dual_group_hopf(dihedral(3), field),
}


def transpose(e):
    """eᵀ: a generator stands for its transpose, an identity is its own."""
    if isinstance(e, Seq):
        return Seq(transpose(e.then), transpose(e.first))
    if isinstance(e, Par):
        return Par(transpose(e.left), transpose(e.right))
    if isinstance(e, SwapE):
        return SwapE(e.right, e.left)
    return e


def _t(m: LinMap) -> LinMap:
    cols, scale = m.int_columns()
    rows = [{} for _ in range(m.nrows)]
    for j, c in enumerate(cols):
        for i, n in c.items():
            rows[i][j] = n
    return LinMap.from_int_columns(m.field, m.cod, m.dom, rows, scale)


def _transposed_env(env):
    return build_env(env.field, env.sig.objects, {name: _t(m) for name, m in env.bindings.items()})


def _sides(tables):
    return [text for table in tables for _, lhs, rhs in table for text in (lhs, rhs)]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_every_side_commutes_with_transposition(name, field):
    H = INSTANCES[name](field)
    cocycle = smash_cocycle(base_action_measure(H))
    runs = [(H.base_env(), BASE_TABLES), (cocycle.context, (COCYCLE_IDENTITIES,))]
    checked = 0
    for env, tables in runs:
        env, env_t = env.child(), _transposed_env(env)
        for text in _sides(tables):
            e = parse_expr(text, env.sig)
            assert _t(evaluate(e, env)) == evaluate(transpose(e), env_t), text
            checked += 1
    assert checked == 182


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "GF7"])
def test_a_bumped_entry_gives_the_transposed_witness(field):
    # mu of pair(3) with one added at row k of column (e, h), e an identity
    # morphism: only entry (k, h) of unit_left's left side changes, so the
    # witness is that entry, and (h, k) with the same scalars transposed.
    C = pair_groupoid(3)
    H = groupoid_algebra(C, field)
    e = C.morphisms.index(C.identity[C.objects[0]])
    h, k = e, (e + 1) % H.dim
    cols, scale = H.mu.int_columns()
    bumped = [dict(c) for c in cols]
    bumped[e * H.dim + h][k] = bumped[e * H.dim + h].get(k, 0) + scale
    mu = LinMap.from_int_columns(field, H.mu.dom, H.mu.cod, bumped, scale)
    env = build_env(field, {}, {**H.core_env().bindings, "mu": mu})
    env_t = _transposed_env(env)
    _, lhs, rhs = next(row for row in BIALGEBRA_AXIOMS if row[0] == "unit_left")
    lhs, rhs = parse_expr(lhs, env.sig), parse_expr(rhs, env.sig)
    w = check_identity(lhs, rhs, env).witness
    wt = check_identity(transpose(lhs), transpose(rhs), env_t).witness
    assert (w.row, w.col) == (k, h)
    assert (wt.row, wt.col, wt.lhs, wt.rhs) == (w.col, w.row, w.lhs, w.rhs)
