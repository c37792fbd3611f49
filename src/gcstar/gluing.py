"""Gluing a family of finite groupoids over a cover of a common unit set.

A gluing family consists of unit subsets U_i covering X, a groupoid over
each U_i, and isomorphisms between the overlap reductions.  The weak gluing
condition asks for

  (1) the cocycle laws: the overlap isomorphisms compose consistently over
      every (possibly degenerate) index triple, which subsumes the
      requirement that opposite isomorphisms be mutually inverse; and
  (2) lifting of composable pairs: any two arrows from different pieces
      whose endpoints match must be presentable inside one common piece.

Under the condition, the fibered coproduct -- the disjoint union of the
pieces' arrows modulo the identifications, realised here by union-find --
carries a groupoid structure over X, and each reduction to U_i is
isomorphic to the i-th piece.

Because all pieces live over subsets of the same X, overlap isomorphisms
must fix units; a morphism that moves units is reported as a violation
('unit pinning') rather than accepted, since the quotient would then no
longer be a groupoid over X.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import AmbiguityError, GluingConditionError, InputError
from .groupoid import (FiniteGroupoid, GroupoidMorphism, UnionFind, reduction,
                       validate)


class GluingFamily:
    """Cover subsets, one groupoid per subset, and overlap isomorphisms.

    ``isos[(i, j)]`` is the isomorphism from the overlap reduction of piece
    i onto the overlap reduction of piece j.  Entries are required for every
    ordered pair with nonempty overlap (both directions; they are checked
    against each other, not derived).  Identity self-isomorphisms are
    implicit.
    """

    def __init__(self, cover, pieces, isos):
        self.cover = tuple(frozenset(U) for U in cover)
        self.pieces = tuple(pieces)
        if len(self.cover) != len(self.pieces):
            raise InputError("cover and pieces have different lengths")
        if not self.pieces:
            raise InputError("empty gluing family")
        for U, piece in zip(self.cover, self.pieces):
            if set(piece.units) != U:
                raise InputError("piece units do not match its cover subset")
        self.unit_space = tuple(dict.fromkeys(x for piece in self.pieces for x in piece.units))
        n = len(self.pieces)
        self.overlaps = {(i, j): self.cover[i] & self.cover[j]
                         for i, j in itertools.product(range(n), repeat=2) if i != j}

        self.isos = {}
        given = dict(isos)
        for (i, j), overlap in self.overlaps.items():
            if not overlap:
                continue
            if (i, j) not in given:
                raise InputError(f"missing overlap isomorphism for pieces ({i},{j})")
            phi = given.pop((i, j))
            src = reduction(self.pieces[i], overlap)
            dst = reduction(self.pieces[j], overlap)
            if set(phi.source.arrows) != set(src.arrows) \
                    or set(phi.target.arrows) != set(dst.arrows):
                raise InputError(
                    f"isomorphism ({i},{j}) does not match the stated overlap "
                    f"reductions")
            checked = GroupoidMorphism(src, dst, phi.unit_map, phi.arrow_map)
            if not checked.is_isomorphism():
                raise InputError(f"overlap map ({i},{j}) is not an isomorphism")
            self.isos[(i, j)] = checked
        stray = {k for k in given if k[0] != k[1]}
        if stray:
            raise InputError(f"isomorphisms given for non-overlapping pairs {sorted(stray)}")

    def phi(self, i, j):
        """The overlap isomorphism from piece i to piece j (identity if i == j)."""
        if i == j:
            return GroupoidMorphism.identity(self.pieces[i])
        return self.isos[(i, j)]


def family_from_reductions(G, cover):
    """The tautological family: reductions of one groupoid, identity overlaps."""
    cover = [frozenset(U) for U in cover]
    pieces = [reduction(G, U) for U in cover]
    isos = {}
    for i, Ui in enumerate(cover):
        for j, Uj in enumerate(cover):
            if i == j or not (Ui & Uj):
                continue
            overlap = reduction(G, Ui & Uj)
            isos[(i, j)] = GroupoidMorphism.identity(overlap)
    return GluingFamily(cover, pieces, isos)


@dataclass(frozen=True)
class GluingReport:
    unit_pinning: tuple     # (i, j, unit, image)
    cocycle_failures: tuple  # (i, j, k, arrow in piece i, via, direct)
    lifting_failures: tuple  # (i, j, arrow in piece i, arrow in piece j)

    @property
    def ok(self):
        return not (self.unit_pinning or self.cocycle_failures
                    or self.lifting_failures)

    def summary(self):
        return (f"{len(self.unit_pinning)} unit-pinning, "
                f"{len(self.cocycle_failures)} cocycle, "
                f"{len(self.lifting_failures)} lifting failure(s)")

    def lines(self):
        if self.ok:
            return ("weak gluing condition holds",)
        out = []
        for (i, j, x, y) in self.unit_pinning:
            out.append(f"[unit-pinning] map ({i}->{j}) moves unit {x!r} to {y!r}")
        for (i, j, k, g, via, direct) in self.cocycle_failures:
            out.append(f"[cocycle] pieces ({i},{j},{k}): arrow {g} maps to "
                       f"{via} via {j} but to {direct} directly")
        for (i, j, g, h) in self.lifting_failures:
            out.append(f"[lifting] composable pair (arrow {g} of piece {i}, "
                       f"arrow {h} of piece {j}) has no common chart")
        return tuple(out)


def check_weak_gluing(family):
    """Check the two weak-gluing requirements and unit pinning, by enumeration."""
    n = len(family.pieces)
    pinning, cocycle, lifting = [], [], []

    for (i, j), phi in sorted(family.isos.items()):
        for x in phi.source.units:
            if phi.unit_map[x] != x:
                pinning.append((i, j, x, phi.unit_map[x]))

    # Cocycle over ordered triples; (i, j, i) recovers phi_ij o phi_ji = id.
    for i, j, k in itertools.product(range(n), repeat=3):
        triple_overlap = family.cover[i] & family.cover[j] & family.cover[k]
        if len({i, j, k}) == 1 or not triple_overlap:
            continue
        phi_ji, phi_kj, phi_ki = family.phi(i, j), family.phi(j, k), family.phi(i, k)
        piece = family.pieces[i]
        for g in piece.arrows:
            if piece.dom[g] in triple_overlap and piece.ran[g] in triple_overlap:
                via = phi_kj.arrow_map.get(phi_ji.arrow_map.get(g))
                direct = phi_ki.arrow_map.get(g)
                if via != direct:
                    cocycle.append((i, j, k, g, via, direct))

    # Lifting of composable pairs across pieces.
    for (i, Pi), (j, Pj) in itertools.product(enumerate(family.pieces), repeat=2):
        for g in Pi.arrows:
            for h in Pj.arrows:
                if Pi.dom[g] == Pj.ran[h] and not _find_lifts(family, i, g, j, h):
                    lifting.append((i, j, g, h))

    return GluingReport(tuple(pinning), tuple(cocycle), tuple(lifting))


def _presentations(family, i, g):
    """All (k, arrow of piece k) identified with arrow g of piece i."""
    out = {(i, g)}
    Pi = family.pieces[i]
    for k in range(len(family.pieces)):
        if k == i:
            continue
        overlap = family.overlaps[(i, k)]
        if Pi.dom[g] in overlap and Pi.ran[g] in overlap:
            phi = family.isos.get((i, k))
            if phi is not None and g in phi.arrow_map:
                out.add((k, phi.arrow_map[g]))
    return out


def _find_lifts(family, i, g, j, h):
    """Common charts presenting both arrows of a composable cross pair."""
    lifts = []
    pres_g = dict(_presentations(family, i, g))
    pres_h = dict(_presentations(family, j, h))
    for k in sorted(set(pres_g) & set(pres_h)):
        gk, hk = pres_g[k], pres_h[k]
        Pk = family.pieces[k]
        if Pk.dom[gk] == Pk.ran[hk]:
            lifts.append((k, gk, hk))
    return lifts


def glue(family):
    """The fibered coproduct of a family satisfying the weak gluing condition.

    Refuses (GluingConditionError) when the condition fails.  Cross-piece
    compositions are resolved through every available common chart; charts
    disagreeing about the product raise AmbiguityError rather than being
    broken silently.
    """
    report = check_weak_gluing(family)
    if not report.ok:
        raise GluingConditionError(report)

    tokens = [(i, g) for i, piece in enumerate(family.pieces) for g in piece.arrows]
    uf = UnionFind(tokens)
    for (i, j), phi in family.isos.items():
        for g, img in phi.arrow_map.items():
            uf.union((i, g), (j, img))
    find = uf.find

    # tokens are in ascending order, so each class lists its smallest first;
    # numbering classes by it keeps glued arrow ids independent of the roots
    classes = {}
    for t in tokens:
        classes.setdefault(find(t), []).append(t)
    reps = sorted(classes, key=lambda rep: classes[rep][0])
    new_id = {rep: a for a, rep in enumerate(reps)}

    def class_of(token):
        return new_id[find(token)]

    dom, ran, inverse, unit_arrow = {}, {}, {}, {}
    for rep in reps:
        a = new_id[rep]
        endpoints = {(family.pieces[i].dom[g], family.pieces[i].ran[g])
                     for (i, g) in classes[rep]}
        if len(endpoints) != 1:
            raise AmbiguityError("identified arrows disagree on endpoints")
        dom[a], ran[a] = next(iter(endpoints))
        inv_classes = {class_of((i, family.pieces[i].inverse[g]))
                       for (i, g) in classes[rep]}
        if len(inv_classes) != 1:
            raise AmbiguityError("identified arrows disagree on inverses")
        inverse[a] = next(iter(inv_classes))

    for x in family.unit_space:
        candidates = {class_of((i, piece.unit_arrow[x]))
                      for i, piece in enumerate(family.pieces) if x in piece.unit_arrow}
        if len(candidates) != 1:
            raise AmbiguityError(f"unit arrow of {x!r} is not well defined")
        unit_arrow[x] = next(iter(candidates))

    members = {new_id[rep]: classes[rep] for rep in reps}
    compose = {}
    for a in members:
        for b in members:
            if dom[a] != ran[b]:
                continue
            by_piece_a = {i: g for (i, g) in members[a]}
            by_piece_b = {i: g for (i, g) in members[b]}
            products = set()
            for k in sorted(set(by_piece_a) & set(by_piece_b)):
                Pk = family.pieces[k]
                gk, hk = by_piece_a[k], by_piece_b[k]
                if Pk.dom[gk] == Pk.ran[hk]:
                    products.add(class_of((k, Pk.compose_table[(gk, hk)])))
            if not products:
                raise AmbiguityError(
                    f"no common chart for glued arrows {a} and {b}; the weak "
                    f"gluing check should have caught this")
            if len(products) != 1:
                raise AmbiguityError(
                    f"charts disagree about the product of glued arrows "
                    f"{a} and {b}")
            compose[(a, b)] = next(iter(products))

    result = FiniteGroupoid(family.unit_space, dom, ran, inverse, unit_arrow,
                            compose)
    check = validate(result)
    if not check.ok:
        raise AmbiguityError("glued groupoid fails validation: "
                             + check.lines()[0])
    return result
