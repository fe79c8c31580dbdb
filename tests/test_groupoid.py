import copy
import dataclasses
import pickle
from itertools import permutations, product

import pytest

from weakhopf import groupoid
from weakhopf.algebra import _conv_solve
from weakhopf.bialgebra import (
    WeakBialgebra,
    check_antipode,
    check_bialgebra_axioms,
    projection_identity_suite,
)
from weakhopf.fields import GF, QQ
from weakhopf.groupoid import (
    FiniteCategory,
    GroupTable,
    InvalidCategory,
    connected_groupoid,
    cyclic,
    dihedral,
    disjoint_union,
    enumerate_groupoids,
    group_groupoid,
    groupoid_algebra,
    groups_up_to_order,
    pair_groupoid,
    quaternion8,
)
from weakhopf.linalg import identity

from instances import arrow_category


def test_group_tables_are_groups():
    for g in groups_up_to_order(9):
        e = None
        for cand in g.elements:
            if all(g.mult[(cand, x)] == x == g.mult[(x, cand)] for x in g.elements):
                e = cand
        assert e is not None, g.name
        for x in g.elements:
            assert g.mult[(x, g.inverse[x])] == e
            for y in g.elements:
                for z in g.elements:
                    assert g.mult[(g.mult[(x, y)], z)] == g.mult[(x, g.mult[(y, z)])]


def test_group_library_orders():
    names = {g.name: g.order for g in groups_up_to_order(9)}
    assert names["S3"] == 6 and names["D4"] == 8 and names["Q8"] == 8
    assert names["C2xC2"] == 4 and names["C3xC3"] == 9


def test_quaternion_is_nonabelian():
    q = quaternion8()
    assert any(q.mult[(x, y)] != q.mult[(y, x)] for x in q.elements for y in q.elements)


def test_pair_groupoid_shape():
    G = pair_groupoid(2).validate()
    assert len(G.objects) == 2 and len(G.morphisms) == 4


def _one_object(elements, mult) -> FiniteCategory:
    """The monoid with this table as a category on one object."""
    return FiniteCategory(("x",), tuple(elements), dict.fromkeys(elements, "x"),
                          dict.fromkeys(elements, "x"), dict(mult))


def _monoids(order: int) -> list:
    """The monoids of this order up to isomorphism, by brute force: tables
    on range(order) with unit 0, associative, one per orbit under the
    permutations that fix 0."""
    els = range(order)
    rest = [(x, y) for x in els[1:] for y in els[1:]]
    found, seen = [], set()
    for values in product(els, repeat=len(rest)):
        mult = {(x, y): y if x == 0 else x for x in els for y in els if 0 in (x, y)}
        mult.update(zip(rest, values))
        if any(mult[(mult[(x, y)], z)] != mult[(x, mult[(y, z)])]
               for x in els for y in els for z in els):
            continue
        if tuple(mult[p] for p in rest) in seen:
            continue
        for perm in permutations(els[1:]):
            sigma = dict(zip(els, (0, *perm)))
            image = {(sigma[a], sigma[b]): sigma[c] for (a, b), c in mult.items()}
            seen.add(tuple(image[p] for p in rest))
        found.append(mult)
    return found


def _is_group(C: FiniteCategory) -> bool:
    """A finite monoid is a group when left multiplication by each element
    is onto."""
    return all(len({C.compose[(g, h)] for h in C.morphisms}) == len(C.morphisms)
               for g in C.morphisms)


def _solved_antipode(H):
    """The solver's answer to the weak antipode axioms id * S = piL,
    S * id = piR, S * piL = S: unique when it exists."""
    return _conv_solve(identity(H.field, H.obj), H.projection("L"), H.projection("R"),
                       H.coalgebra, H.algebra)


def test_small_monoids_and_the_arrow_are_weak_bialgebras():
    monoids = [_one_object(range(n), mult) for n in (2, 3) for mult in _monoids(n)]
    assert len(monoids) == 9  # 2 of order 2, 7 of order 3
    assert sum(map(_is_group, monoids)) == 2  # C2 and C3
    for C in [*monoids, arrow_category()]:
        is_group = len(C.objects) == 1 and _is_group(C)
        assert (C.inverse is not None) == is_group
        for fld in (QQ, GF(7)):
            H = groupoid_algebra(C, fld)
            assert check_bialgebra_axioms(H).all_pass
            assert projection_identity_suite(H).all_pass
            assert (H.antipode is not None) == is_group
            solved = _solved_antipode(H)
            assert (solved is not None) == is_group
            if is_group:
                assert solved == H.antipode and check_antipode(H).all_pass


def test_identities_and_inverses_are_read_off_the_table():
    G = pair_groupoid(2)
    assert G.identity == {"x0": "m0_0_0", "x1": "m1_1_0"}
    assert G.inverse == {"m0_0_0": "m0_0_0", "m0_1_0": "m1_0_0",
                         "m1_0_0": "m0_1_0", "m1_1_0": "m1_1_0"}
    assert G.identity is G.identity and G.inverse is G.inverse  # derived once
    A = arrow_category()
    assert A.identity == {"0": "1_0", "1": "1_1"} and A.inverse is None
    assert cyclic(5).inverse == {0: 0, 1: 4, 2: 3, 3: 2, 4: 1}


def test_tables_are_read_only_so_what_is_read_off_them_stays_true():
    # Rewriting C2's table in place into the monoid {e, 1}, whose unit is
    # m0_0_1, once left the identity read before it, and validate() passed.
    C = group_groupoid(cyclic(2))
    assert C.identity == {"x0": "m0_0_0"}
    e, one = "m0_0_0", "m0_0_1"
    monoid = {(e, e): e, (e, one): e, (one, e): e, (one, one): one}
    with pytest.raises(TypeError):
        for pair, composite in monoid.items():
            C.compose[pair] = composite
    for table in (C.source, C.target):
        with pytest.raises(TypeError):
            table[e] = "x1"
    with pytest.raises(TypeError):
        C.identity["x0"] = one
    assert C.validate().identity == {"x0": e} and C.inverse == {e: e, one: one}
    # The mappings given are copied, so editing them afterwards changes
    # nothing either; the monoid built as itself has its own identity.
    given = dict(C.compose)
    D = FiniteCategory(C.objects, C.morphisms, C.source, C.target, given)
    given.update(monoid)
    assert D.compose == C.compose and D.validate().identity == C.identity
    M = _one_object(C.morphisms, monoid).validate()
    assert M.identity == {"x": one} and M.inverse is None
    g = cyclic(3)
    assert g.inverse[1] == 2
    for table, key in ((g.mult, (1, 1)), (g.inverse, 1), (C.inverse, e)):
        with pytest.raises(TypeError):
            table[key] = 0
    # Copies and pickles are read-only too.
    for clone in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        C2, g2 = clone(C), clone(g)
        assert (C2, g2) == (C, g) and C2.validate().identity == C.identity
        with pytest.raises(TypeError):
            C2.compose[(one, one)] = e


def test_invalid_categories_rejected():
    G = pair_groupoid(2)
    missing = dict(G.compose)
    del missing[("m0_1_0", "m1_0_0")]
    with pytest.raises(InvalidCategory, match="missing composite"):
        FiniteCategory(G.objects, G.morphisms, G.source, G.target, missing).validate()
    c3 = cyclic(3)
    with pytest.raises(InvalidCategory, match="not associative"):
        _one_object(c3.elements, {**c3.mult, (1, 1): 0}).validate()
    left_zero = {(x, y): x for x in "ab" for y in "ab"}  # associative, no unit
    with pytest.raises(InvalidCategory, match="no identity at x"):
        _one_object("ab", left_zero).validate()


def test_a_category_is_its_composition_table():
    assert [f.name for f in dataclasses.fields(GroupTable)] == ["name", "elements", "mult"]
    assert [f.name for f in dataclasses.fields(FiniteCategory)] == [
        "objects", "morphisms", "source", "target", "compose"]
    assert not hasattr(WeakBialgebra, "without_antipode")
    assert not hasattr(groupoid, "GroupoidPresentation")
    assert not hasattr(groupoid, "InvalidGroupoid")


def test_group_groupoid_is_hopf():
    H = groupoid_algebra(group_groupoid(cyclic(3)), QQ)
    # one object: the projections collapse to unit eps composites of rank 1
    from weakhopf.linalg import compose

    assert H.projection("L") == compose(H.eta, H.eps)
    assert check_bialgebra_axioms(H).all_pass
    assert check_antipode(H).all_pass


def test_nonabelian_group_algebra_passes():
    H = groupoid_algebra(group_groupoid(dihedral(3)), GF(7))
    assert check_bialgebra_axioms(H).all_pass
    assert check_antipode(H).all_pass
    assert projection_identity_suite(H).all_pass


def test_disjoint_union_dimensions():
    G = disjoint_union(connected_groupoid(2, cyclic(1), tag="a"), group_groupoid(cyclic(2)))
    G.validate()
    H = groupoid_algebra(G, QQ)
    assert H.dim == 6


def test_enumeration_complete_and_deterministic():
    gs = enumerate_groupoids(3, 9)
    names = [n for n, _ in gs]
    assert len(names) == len(set(names))
    assert names == [n for n, _ in enumerate_groupoids(3, 9)]
    assert "1*Q8" in names and "3*C1" in names and "1*C1+1*C1+1*C1" in names
    for name, G in gs:
        assert len(G.objects) <= 3
        assert len(G.morphisms) <= 9
    # single-object groups of every order up to 9 are present
    for g in groups_up_to_order(9):
        assert f"1*{g.name}" in names
