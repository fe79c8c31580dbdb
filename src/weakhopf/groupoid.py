"""Finite categories and their weak bialgebras.

A finite category is its composition table; its identities, and its
inverses when it is a groupoid, are read off the table, each unique when it
exists.  Its algebra has the morphisms as basis, composition as product (zero
when sources and targets do not match), the sum of the identities as unit,
grouplike comultiplication and counit one on every morphism: a weak
bialgebra, weak Hopf with the inversion as antipode exactly for a groupoid.
Groupoids are the canonical test universe here: every connected finite
groupoid is a pair groupoid times a vertex group, so enumerating
(component sizes, groups) multisets enumerates all finite groupoids up to
isomorphism.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

from .bialgebra import WeakBialgebra
from .fields import Field
from .linalg import LinMap, Obj, UNIT_WORD


class InvalidCategory(ValueError):
    pass


def _frozen(obj, *names: str) -> None:
    """Replace each named dict field of a frozen dataclass by a read-only
    view of a copy, so that nothing read off the tables goes stale."""
    for name in names:
        object.__setattr__(obj, name, MappingProxyType(dict(getattr(obj, name))))


def _reduce(obj) -> tuple:
    """Pickle and copy a frozen table class by its fields, a read-only view
    as a dict, since a view itself cannot be pickled."""
    values = (getattr(obj, f.name) for f in fields(obj))
    return type(obj), tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in values)


@dataclass(frozen=True)
class FiniteCategory:
    """A finite category as its tables; ``source``, ``target`` and
    ``compose`` are kept as read-only copies of the mappings given, and
    what is read off them is read-only too."""

    objects: tuple
    morphisms: tuple
    source: Mapping
    target: Mapping
    compose: Mapping  # (g, h) -> g after h, defined iff source[g] == target[h]

    def __post_init__(self):
        _frozen(self, "source", "target", "compose")

    __reduce__ = _reduce

    @cached_property
    def identity(self) -> Mapping:
        """object -> its identity: the endomorphism e with e.h = h and g.e = g
        for every composable g and h.  Raises InvalidCategory at an object
        that has none."""
        mors, source, target, comp = self.morphisms, self.source, self.target, self.compose.get
        out = {x: e for x in self.objects for e in mors if source[e] == target[e] == x
               and all(comp((e, h)) == h for h in mors if target[h] == x)
               and all(comp((g, e)) == g for g in mors if source[g] == x)}
        for x in self.objects:
            if x not in out:
                raise InvalidCategory(f"no identity at {x}")
        return MappingProxyType(out)

    @cached_property
    def inverse(self) -> Optional[Mapping]:
        """morphism -> its inverse when every morphism has one, so that the
        category is a groupoid; else None."""
        ident, mors, comp = self.identity, self.morphisms, self.compose.get
        out = {g: h for g in mors for h in mors if comp((g, h)) == ident[self.target[g]]
               and comp((h, g)) == ident[self.source[g]]}
        return MappingProxyType(out) if len(out) == len(mors) else None

    def validate(self) -> "FiniteCategory":
        obs, mors = set(self.objects), set(self.morphisms)
        if len(self.objects) != len(obs) or len(self.morphisms) != len(mors):
            raise InvalidCategory("duplicate object or morphism names")
        for m in self.morphisms:
            if self.source.get(m) not in obs or self.target.get(m) not in obs:
                raise InvalidCategory(f"morphism {m} has a bad source or target")
        for (g, h), gh in self.compose.items():
            if self.source[g] != self.target[h]:
                raise InvalidCategory(f"pair ({g},{h}) is not composable")
            if gh not in mors:
                raise InvalidCategory(f"composite {gh} not a morphism")
            if self.source[gh] != self.source[h] or self.target[gh] != self.target[g]:
                raise InvalidCategory(f"composite {g}.{h} has wrong endpoints")
        comp = self.compose
        pairs = [(g, h) for g in self.morphisms for h in self.morphisms
                 if self.source[g] == self.target[h]]
        for g, h in pairs:
            if (g, h) not in comp:
                raise InvalidCategory(f"missing composite of ({g},{h})")
        if any(comp[(comp[(g, h)], k)] != comp[(g, comp[(h, k)])]
               for g, h in pairs for k in self.morphisms if self.source[h] == self.target[k]):
            raise InvalidCategory("composition is not associative")
        self.identity  # raises InvalidCategory at an object without one
        return self


def groupoid_algebra(C: FiniteCategory, field: Field) -> WeakBialgebra:
    """The weak bialgebra k[C] on the morphism basis of a validated finite
    category.  Its antipode is the inversion when C is a groupoid, else
    None: the algebra of a category that is not a groupoid has none."""
    C.validate()
    n = len(C.morphisms)
    index = {m: i for i, m in enumerate(C.morphisms)}
    H = Obj("H", n)

    def linmap(dom, cod, cols):
        return LinMap.from_int_columns(field, dom, cod, cols, 1)

    mu_cols = [{} for _ in range(n * n)]
    for (g, h), gh in C.compose.items():
        mu_cols[index[g] * n + index[h]] = {index[gh]: 1}
    mu = linmap((H, H), (H,), mu_cols)
    eta = linmap(UNIT_WORD, (H,), [{index[C.identity[x]]: 1 for x in C.objects}])
    delta = linmap((H,), (H, H), [{i * n + i: 1} for i in range(n)])
    eps = linmap((H,), UNIT_WORD, [{0: 1} for _ in range(n)])
    inverse = C.inverse
    antipode = None if inverse is None else linmap(
        (H,), (H,), [{index[inverse[m]]: 1} for m in C.morphisms])
    return WeakBialgebra.checked(field, H, mu, eta, delta, eps, antipode)


# --------------------------------------------------------------------------
# Small groups as multiplication tables
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupTable:
    """A finite group as its multiplication table, kept as a read-only copy."""

    name: str
    elements: tuple
    mult: Mapping

    def __post_init__(self):
        _frozen(self, "mult")

    __reduce__ = _reduce

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def inverse(self) -> Mapping:
        """x -> its inverse, read off the table of a group."""
        els, mult = self.elements, self.mult
        unit, = (u for u in els if all(mult[(u, x)] == x for x in els))
        return MappingProxyType({x: y for x in els for y in els if mult[(x, y)] == unit})


def cyclic(n: int) -> GroupTable:
    els = tuple(range(n))
    return GroupTable(f"C{n}", els, {(a, b): (a + b) % n for a in els for b in els})


def direct_product(g1: GroupTable, g2: GroupTable, name: Optional[str] = None) -> GroupTable:
    els = tuple((a, b) for a in g1.elements for b in g2.elements)
    mult = {
        ((a1, b1), (a2, b2)): (g1.mult[(a1, a2)], g2.mult[(b1, b2)])
        for (a1, b1) in els
        for (a2, b2) in els
    }
    return GroupTable(name or f"{g1.name}x{g2.name}", els, mult)


def dihedral(n: int) -> GroupTable:
    """Symmetries of the regular n-gon, order 2n; elements (rotation, flip)."""
    els = tuple((r, s) for s in (0, 1) for r in range(n))
    def mul(x, y):
        r1, s1 = x
        r2, s2 = y
        if s1 == 0:
            return ((r1 + r2) % n, s2)
        return ((r1 - r2) % n, 1 - s2)
    mult = {(x, y): mul(x, y) for x in els for y in els}
    return GroupTable(f"D{n}" if n != 3 else "S3", els, mult)


def quaternion8() -> GroupTable:
    """The unit quaternions {1,-1,i,-i,j,-j,k,-k} as (axis, sign) pairs."""
    els = tuple((axis, sign) for axis in "1ijk" for sign in (1, -1))
    table = {
        ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1), ("1", "k"): ("k", 1),
        ("i", "1"): ("i", 1), ("i", "i"): ("1", -1), ("i", "j"): ("k", 1), ("i", "k"): ("j", -1),
        ("j", "1"): ("j", 1), ("j", "i"): ("k", -1), ("j", "j"): ("1", -1), ("j", "k"): ("i", 1),
        ("k", "1"): ("k", 1), ("k", "i"): ("j", 1), ("k", "j"): ("i", -1), ("k", "k"): ("1", -1),
    }
    def mul(x, y):
        ax, sx = x
        ay, sy = y
        az, sz = table[(ax, ay)]
        return (az, sx * sy * sz)
    mult = {(x, y): mul(x, y) for x in els for y in els}
    return GroupTable("Q8", els, mult)


def groups_up_to_order(nmax: int) -> list:
    """All groups of order <= nmax (complete for nmax <= 9), by name."""
    c2, c3, c4 = cyclic(2), cyclic(3), cyclic(4)
    known = [
        cyclic(1), c2, c3, c4,
        direct_product(c2, c2),
        cyclic(5), cyclic(6), dihedral(3),
        cyclic(7), cyclic(8),
        direct_product(c4, c2),
        direct_product(direct_product(c2, c2), c2, name="C2xC2xC2"),
        dihedral(4), quaternion8(),
        cyclic(9), direct_product(c3, c3),
    ]
    if nmax > 9:
        raise ValueError("group table library stops at order 9")
    return [g for g in known if g.order <= nmax]


# --------------------------------------------------------------------------
# Groupoid builders and enumeration
# --------------------------------------------------------------------------

def connected_groupoid(n_objects: int, group: GroupTable, tag: str = "") -> FiniteCategory:
    """The groupoid with n objects, all pairwise isomorphic with vertex group
    `group`; morphisms (i <- j, g) compose by (i,j,g).(j,k,h) = (i,k,gh)."""
    objs = tuple(f"{tag}x{i}" for i in range(n_objects))
    els = group.elements
    cells = [(i, j, k) for i in range(n_objects) for j in range(n_objects) for k in range(len(els))]
    def mor(i, j, k):
        return f"{tag}m{i}_{j}_{k}"
    eidx = {e: i for i, e in enumerate(els)}
    compose = {
        (mor(i, j, k), mor(j, j2, k2)): mor(i, j2, eidx[group.mult[(els[k], els[k2])]])
        for i, j, k in cells
        for j2 in range(n_objects)
        for k2 in range(len(els))
    }
    return FiniteCategory(objs, tuple(mor(*c) for c in cells),
                          {mor(i, j, k): objs[j] for i, j, k in cells},
                          {mor(i, j, k): objs[i] for i, j, k in cells}, compose)


def disjoint_union(*parts: FiniteCategory) -> FiniteCategory:
    objs, mors = [], []
    source, target, compose = {}, {}, {}
    for part in parts:
        objs.extend(part.objects)
        mors.extend(part.morphisms)
        source.update(part.source)
        target.update(part.target)
        compose.update(part.compose)
    return FiniteCategory(tuple(objs), tuple(mors), source, target, compose)


def pair_groupoid(n: int) -> FiniteCategory:
    return connected_groupoid(n, cyclic(1))


def group_groupoid(group: GroupTable) -> FiniteCategory:
    return connected_groupoid(1, group)


def enumerate_groupoids(max_objects: int = 3, max_morphisms: int = 9) -> list:
    """All groupoids with at most the given objects and morphisms, up to
    isomorphism, as (name, presentation) pairs in a deterministic order.

    A connected groupoid on m objects with vertex group G contributes m*m*|G|
    morphisms; a general one is a disjoint union of such components.
    """
    groups = groups_up_to_order(max_morphisms)
    components = []  # (n_objects, group)
    for n in range(1, max_objects + 1):
        for g in groups:
            if n * n * g.order <= max_morphisms:
                components.append((n, g))
    components.sort(key=lambda c: (c[0], c[1].order, c[1].name))
    out = []
    seen = set()

    def rec(start: int, chosen: list, objs_left: int, mors_left: int):
        if chosen:
            key = tuple((n, g.name) for n, g in chosen)
            if key not in seen:
                seen.add(key)
                parts = [
                    connected_groupoid(n, g, tag=f"c{i}_")
                    for i, (n, g) in enumerate(chosen)
                ]
                name = "+".join(f"{n}*{g.name}" for n, g in chosen)
                out.append((name, disjoint_union(*parts)))
        for idx in range(start, len(components)):
            n, g = components[idx]
            if n <= objs_left and n * n * g.order <= mors_left:
                rec(idx, chosen + [(n, g)], objs_left - n, mors_left - n * n * g.order)

    rec(0, [], max_objects, max_morphisms)
    out.sort(key=lambda item: (len(item[1].morphisms), len(item[1].objects), item[0]))
    return out
