"""Shared test instances and brute-force oracles.

The oracles here work directly on structure-constant dictionaries contracted
over basis elements, independent of the LinMap/expression machinery they
check.
"""
from __future__ import annotations

from weakhopf.fields import QQ
from weakhopf.groupoid import (
    FiniteCategory,
    cyclic,
    group_groupoid,
    groupoid_algebra,
    pair_groupoid,
    connected_groupoid,
)
from weakhopf.linalg import zero_map


def z2_hopf(field=QQ):
    """Group algebra of the order-2 group; an honest Hopf algebra."""
    return groupoid_algebra(group_groupoid(cyclic(2)), field)


def pair_groupoid_hopf(n=2, field=QQ):
    """Pair groupoid on n objects; the basic truly weak example."""
    return groupoid_algebra(pair_groupoid(n), field)


def arrow_category():
    """The category 0 -> 1: two identities and one arrow a, which has no
    inverse."""
    return FiniteCategory(
        ("0", "1"),
        ("1_0", "a", "1_1"),
        {"1_0": "0", "a": "0", "1_1": "1"},
        {"1_0": "0", "a": "1", "1_1": "1"},
        {("1_0", "1_0"): "1_0", ("a", "1_0"): "a", ("1_1", "a"): "a", ("1_1", "1_1"): "1_1"},
    )


def arrow_bialgebra(field=QQ):
    """The algebra of the arrow category: a weak bialgebra with no antipode."""
    return groupoid_algebra(arrow_category(), field)


def trivial_groupoid_hopf(n=2, field=QQ):
    """n isolated objects with only identities; the commutative product field^n."""
    return groupoid_algebra(connected_groupoid(1, cyclic(1), tag="a") if n == 1 else _discrete(n), field)


def _discrete(n):
    from weakhopf.groupoid import disjoint_union

    return disjoint_union(*[connected_groupoid(1, cyclic(1), tag=f"d{i}") for i in range(n)])


# -- structure constants as dictionaries for brute-force oracles -------------

def mu_dict(H):
    """(i, j) -> {k: coeff} from the stored multiplication matrix."""
    n = H.dim
    out = {}
    for i in range(n):
        for j in range(n):
            col = H.mu.column(i * n + j)
            out[(i, j)] = {k: v for k, v in enumerate(col) if v}
    return out


def delta_dict(H):
    n = H.dim
    out = {}
    for j in range(n):
        col = H.delta.column(j)
        out[j] = {divmod(k, n): v for k, v in enumerate(col) if v}
    return out


def vector_map(field, obj, assignment, dom_obj=None):
    """Build a LinMap obj->obj (or dom->obj) from a column assignment
    {col: {row: coeff}}."""
    dom = (dom_obj,) if dom_obj is not None else (obj,)
    m = zero_map(field, dom, (obj,))
    for j, colvals in assignment.items():
        for i, v in colvals.items():
            m.rows[i][j] = field.normalize(v)
    return m


def brute_projection_left(H):
    """Contract the target-projection composite over the basis directly:
    piL(h) = sum over Delta(1) = sum 1a (x) 1b of eps(1a . h) 1b ... using the
    groupoid-free definition (eps mu (x) H)(H (x) c)(Delta eta (x) H)."""
    field = H.field
    n = H.dim
    mu = mu_dict(H)
    eta_col = {i: v for i, v in enumerate(H.eta.column(0)) if v}
    dl = delta_dict(H)
    eps_row = H.eps.rows[0]
    out = {}
    for h in range(n):
        acc = {}
        for u, cu in eta_col.items():
            for (a, b), cab in dl[u].items():
                # term: eps(a . h) * b with coefficient cu * cab
                for k, ck in mu[(a, h)].items():
                    w = field.normalize(cu * cab * ck * eps_row[k])
                    if w:
                        acc[b] = field.normalize(acc.get(b, field.zero) + w)
        out[h] = {k: v for k, v in acc.items() if v}
    return vector_map(field, H.obj, out)


def brute_convolve(H, alpha, beta):
    """Convolution of two maps H -> H contracted over the basis."""
    field = H.field
    n = H.dim
    mu = mu_dict(H)
    dl = delta_dict(H)
    out = zero_map(field, (H.obj,), (H.obj,))
    for j in range(n):
        for (a, b), c in dl[j].items():
            for s in range(n):
                if not alpha.rows[s][a]:
                    continue
                for t in range(n):
                    if not beta.rows[t][b]:
                        continue
                    coeff = field.normalize(c * alpha.rows[s][a] * beta.rows[t][b])
                    for k, ck in mu[(s, t)].items():
                        out.rows[k][j] = field.normalize(out.rows[k][j] + coeff * ck)
    return out


def dual_group_hopf(group, field=QQ, carrier="H"):
    """Function algebra on a finite group: pointwise product, coproduct dual
    to the group law.  Non-cocommutative whenever the group is nonabelian."""
    from weakhopf.bialgebra import WeakHopfAlgebra
    from weakhopf.linalg import Obj

    els = list(group.elements)
    n = len(els)
    idx = {e: i for i, e in enumerate(els)}
    ob = Obj(carrier, n)
    mu = zero_map(field, (ob, ob), (ob,))
    for i in range(n):
        mu.rows[i][i * n + i] = field.one
    eta = zero_map(field, (), (ob,))
    for i in range(n):
        eta.rows[i][0] = field.one
    delta = zero_map(field, (ob,), (ob, ob))
    for h in els:
        for k in els:
            delta.rows[idx[h] * n + idx[k]][idx[group.mult[(h, k)]]] = field.one
    eps = zero_map(field, (ob,), ())
    neutral = group.mult[(els[0], group.inverse[els[0]])]
    eps.rows[0][idx[neutral]] = field.one
    antipode = zero_map(field, (ob,), (ob,))
    for e in els:
        antipode.rows[idx[group.inverse[e]]][idx[e]] = field.one
    return WeakHopfAlgebra.checked(field, ob, mu, eta, delta, eps, antipode)


def tensor_weak_hopf(H1, H2, carrier="H"):
    """Componentwise tensor product of two weak Hopf algebras."""
    from weakhopf.bialgebra import WeakHopfAlgebra
    from weakhopf.linalg import LinMap, Obj, compose, swap, tensor_product

    field = H1.field
    ob = Obj(carrier, H1.dim * H2.dim)
    w = (ob,)

    def reword(m, dom, cod):
        return LinMap(field, dom, cod, m.rows)

    mid_in = tensor_product(
        __import__("weakhopf.linalg", fromlist=["identity"]).identity(field, H1.obj),
        swap((H2.obj,), (H1.obj,), field),
        __import__("weakhopf.linalg", fromlist=["identity"]).identity(field, H2.obj),
    )
    mu = compose(tensor_product(H1.mu, H2.mu), mid_in)
    mu = reword(mu, (ob, ob), w)
    eta = reword(tensor_product(H1.eta, H2.eta), (), w)
    mid_out = tensor_product(
        __import__("weakhopf.linalg", fromlist=["identity"]).identity(field, H1.obj),
        swap((H1.obj,), (H2.obj,), field),
        __import__("weakhopf.linalg", fromlist=["identity"]).identity(field, H2.obj),
    )
    delta = reword(compose(mid_out, tensor_product(H1.delta, H2.delta)), w, (ob, ob))
    eps = reword(tensor_product(H1.eps, H2.eps), w, ())
    antipode = reword(tensor_product(H1.antipode, H2.antipode), w, w)
    return WeakHopfAlgebra.checked(field, ob, mu, eta, delta, eps, antipode)
