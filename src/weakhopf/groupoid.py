"""Finite groupoids and their weak Hopf algebras.

The algebra of a finite groupoid has the morphisms as basis, product given by
composition (zero when sources and targets do not match), grouplike
comultiplication, counit one on every morphism and antipode the inversion.
It is the canonical test universe here: every connected finite groupoid is a
pair groupoid times a vertex group, so enumerating (component sizes, groups)
multisets enumerates all finite groupoids up to isomorphism.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bialgebra import WeakBialgebra
from .fields import Field
from .linalg import LinMap, Obj, UNIT_WORD


class InvalidGroupoid(ValueError):
    pass


@dataclass(frozen=True)
class GroupoidPresentation:
    objects: tuple
    morphisms: tuple
    source: dict
    target: dict
    compose: dict  # (g, h) -> g after h, defined iff source[g] == target[h]
    identity: dict  # object -> identity morphism
    inverse: dict

    def validate(self) -> "GroupoidPresentation":
        obs, mors = set(self.objects), set(self.morphisms)
        if len(self.objects) != len(obs) or len(self.morphisms) != len(mors):
            raise InvalidGroupoid("duplicate object or morphism names")
        for m in self.morphisms:
            if self.source.get(m) not in obs or self.target.get(m) not in obs:
                raise InvalidGroupoid(f"morphism {m} has a bad source or target")
        for (g, h), gh in self.compose.items():
            if self.source[g] != self.target[h]:
                raise InvalidGroupoid(f"pair ({g},{h}) is not composable")
            if gh not in mors:
                raise InvalidGroupoid(f"composite {gh} not a morphism")
            if self.source[gh] != self.source[h] or self.target[gh] != self.target[g]:
                raise InvalidGroupoid(f"composite {g}.{h} has wrong endpoints")
        for g in self.morphisms:
            for h in self.morphisms:
                if self.source[g] == self.target[h] and (g, h) not in self.compose:
                    raise InvalidGroupoid(f"missing composite of ({g},{h})")
        for x in self.objects:
            e = self.identity.get(x)
            if e is None or self.source[e] != x or self.target[e] != x:
                raise InvalidGroupoid(f"bad identity at {x}")
        for g in self.morphisms:
            if self.compose[(g, self.identity[self.source[g]])] != g:
                raise InvalidGroupoid(f"right identity fails at {g}")
            if self.compose[(self.identity[self.target[g]], g)] != g:
                raise InvalidGroupoid(f"left identity fails at {g}")
        for g in self.morphisms:
            gi = self.inverse.get(g)
            if gi is None or self.source[gi] != self.target[g] or self.target[gi] != self.source[g]:
                raise InvalidGroupoid(f"bad inverse of {g}")
            if self.compose[(g, gi)] != self.identity[self.target[g]]:
                raise InvalidGroupoid(f"inverse fails at {g}")
            if self.compose[(gi, g)] != self.identity[self.source[g]]:
                raise InvalidGroupoid(f"inverse fails at {g}")
        for g in self.morphisms:
            for h in self.morphisms:
                if self.source[g] != self.target[h]:
                    continue
                for k in self.morphisms:
                    if self.source[h] != self.target[k]:
                        continue
                    if self.compose[(self.compose[(g, h)], k)] != self.compose[(g, self.compose[(h, k)])]:
                        raise InvalidGroupoid("composition is not associative")
        return self


def groupoid_algebra(G: GroupoidPresentation, field: Field) -> WeakBialgebra:
    """Weak Hopf algebra on the morphism basis of a validated groupoid: H
    with the inversion as its antipode."""
    G.validate()
    n = len(G.morphisms)
    index = {m: i for i, m in enumerate(G.morphisms)}
    H = Obj("H", n)

    def linmap(dom, cod, cols):
        return LinMap.from_int_columns(field, dom, cod, cols, 1)

    mu_cols = [{} for _ in range(n * n)]
    for (g, h), gh in G.compose.items():
        mu_cols[index[g] * n + index[h]] = {index[gh]: 1}
    mu = linmap((H, H), (H,), mu_cols)
    eta = linmap(UNIT_WORD, (H,), [{index[G.identity[x]]: 1 for x in G.objects}])
    delta = linmap((H,), (H, H), [{i * n + i: 1} for i in range(n)])
    eps = linmap((H,), UNIT_WORD, [{0: 1} for _ in range(n)])
    antipode = linmap((H,), (H,), [{index[G.inverse[m]]: 1} for m in G.morphisms])
    return WeakBialgebra.checked(field, H, mu, eta, delta, eps, antipode)


# --------------------------------------------------------------------------
# Small groups as multiplication tables
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupTable:
    name: str
    elements: tuple
    mult: dict
    inverse: dict

    @property
    def order(self) -> int:
        return len(self.elements)


def cyclic(n: int) -> GroupTable:
    els = tuple(range(n))
    mult = {(a, b): (a + b) % n for a in els for b in els}
    inverse = {a: (-a) % n for a in els}
    return GroupTable(f"C{n}", els, mult, inverse)


def direct_product(g1: GroupTable, g2: GroupTable, name: Optional[str] = None) -> GroupTable:
    els = tuple((a, b) for a in g1.elements for b in g2.elements)
    mult = {
        ((a1, b1), (a2, b2)): (g1.mult[(a1, a2)], g2.mult[(b1, b2)])
        for (a1, b1) in els
        for (a2, b2) in els
    }
    inverse = {(a, b): (g1.inverse[a], g2.inverse[b]) for (a, b) in els}
    return GroupTable(name or f"{g1.name}x{g2.name}", els, mult, inverse)


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
    inverse = {}
    for x in els:
        for y in els:
            if mul(x, y) == (0, 0):
                inverse[x] = y
    return GroupTable(f"D{n}" if n != 3 else "S3", els, mult, inverse)


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
    inverse = {}
    for x in els:
        for y in els:
            if mul(x, y) == ("1", 1):
                inverse[x] = y
    return GroupTable("Q8", els, mult, inverse)


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

def connected_groupoid(n_objects: int, group: GroupTable, tag: str = "") -> GroupoidPresentation:
    """The groupoid with n objects, all pairwise isomorphic with vertex group
    `group`; morphisms (i <- j, g) compose by (i,j,g).(j,k,h) = (i,k,gh)."""
    objs = tuple(f"{tag}x{i}" for i in range(n_objects))
    mors = tuple(
        f"{tag}m{i}_{j}_{k}"
        for i in range(n_objects)
        for j in range(n_objects)
        for k in range(group.order)
    )
    def mor(i, j, k):
        return f"{tag}m{i}_{j}_{k}"
    els = group.elements
    eidx = {e: i for i, e in enumerate(els)}
    source, target, compose, identity, inverse = {}, {}, {}, {}, {}
    for i in range(n_objects):
        for j in range(n_objects):
            for k in range(group.order):
                m = mor(i, j, k)
                source[m] = objs[j]
                target[m] = objs[i]
                inverse[m] = mor(j, i, eidx[group.inverse[els[k]]])
    for i in range(n_objects):
        identity[objs[i]] = mor(i, i, eidx[group.mult[(els[0], group.inverse[els[0]])]])
    for i in range(n_objects):
        for j in range(n_objects):
            for k in range(group.order):
                for j2 in range(n_objects):
                    for k2 in range(group.order):
                        g, h = mor(i, j, k), mor(j, j2, k2)
                        compose[(g, h)] = mor(i, j2, eidx[group.mult[(els[k], els[k2])]])
    return GroupoidPresentation(objs, mors, source, target, compose, identity, inverse)


def disjoint_union(*parts: GroupoidPresentation) -> GroupoidPresentation:
    objs, mors = [], []
    source, target, compose, identity, inverse = {}, {}, {}, {}, {}
    for part in parts:
        objs.extend(part.objects)
        mors.extend(part.morphisms)
        source.update(part.source)
        target.update(part.target)
        compose.update(part.compose)
        identity.update(part.identity)
        inverse.update(part.inverse)
    return GroupoidPresentation(tuple(objs), tuple(mors), source, target, compose, identity, inverse)


def pair_groupoid(n: int) -> GroupoidPresentation:
    return connected_groupoid(n, cyclic(1))


def group_groupoid(group: GroupTable) -> GroupoidPresentation:
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
