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
pieces' arrows modulo the identifications -- carries a groupoid structure
over X, and each reduction to U_i is isomorphic to the i-th piece.  By the
cocycle laws the class of an arrow is just the set of its presentations in
the pieces (:attr:`GluingFamily.presentations`, built once per family), so
:func:`glue` needs no closure: it maps each piece's tables through the
classes in one pass.

Because all pieces live over subsets of the same X, overlap isomorphisms
must fix units; a morphism that moves units is reported as a violation
('unit pinning') rather than accepted, since the quotient would then no
longer be a groupoid over X.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import AmbiguityError, GluingConditionError, InputError
from .groupoid import FiniteGroupoid, GroupoidMorphism, reduction, validate


class GluingFamily:
    """Cover subsets, one groupoid per subset, and overlap isomorphisms.

    ``maps[(i, j)]`` sends the arrow ids of the overlap reduction of piece i
    to those of the overlap reduction of piece j.  Entries are required for
    every ordered pair with nonempty overlap (both directions; they are
    checked against each other, not derived).  Once the pieces validate,
    each map becomes the isomorphism ``isos[(i, j)]``, its unit map read off
    the unit arrows.  Identity self-isomorphisms are implicit.
    """

    def __init__(self, cover, pieces, maps):
        self.cover = tuple(frozenset(U) for U in cover)
        self.pieces = tuple(pieces)
        if len(self.cover) != len(self.pieces):
            raise InputError("cover and pieces have different lengths")
        if not self.pieces:
            raise InputError("empty gluing family")
        for i, (U, piece) in enumerate(zip(self.cover, self.pieces)):
            if set(piece.units) != U:
                raise InputError("piece units do not match its cover subset")
            if not (report := validate(piece)).ok:
                raise InputError(f"piece {i} fails validation: {report.lines()[0]}")
        self.unit_space = tuple(dict.fromkeys(x for piece in self.pieces for x in piece.units))
        n = len(self.pieces)
        self.overlaps = {(i, j): self.cover[i] & self.cover[j]
                         for i, j in itertools.product(range(n), repeat=2) if i != j}

        self.isos = {}
        given = dict(maps)
        for (i, j), overlap in self.overlaps.items():
            if not overlap:
                continue
            if (i, j) not in given:
                raise InputError(f"missing overlap isomorphism for pieces ({i},{j})")
            self.isos[(i, j)] = _overlap_isomorphism(
                i, j, reduction(self.pieces[i], overlap), reduction(self.pieces[j], overlap),
                given.pop((i, j)))
        stray = {k for k in given if k[0] != k[1]}
        if stray:
            raise InputError(f"isomorphisms given for non-overlapping pairs {sorted(stray)}")

    @functools.cached_property
    def presentations(self):
        """Each arrow (i, g) of a piece -> {piece k: the arrow presenting it
        in k}, with k = i first; keys in ascending (piece, arrow id) order."""
        presented = {(i, g): {i: g} for i, piece in enumerate(self.pieces)
                     for g in piece.arrows}
        for (i, k), phi in self.isos.items():
            for g, img in phi.arrow_map.items():
                presented[i, g][k] = img
        return presented


def _overlap_isomorphism(i, j, src, dst, arrow_map):
    """The isomorphism src -> dst with this arrow map, each unit sent where
    its unit arrow goes; the morphism check refuses any other map."""
    unit_map = {x: dst.dom.get(arrow_map.get(u)) for x, u in src.unit_arrow.items()}
    phi = GroupoidMorphism(src, dst, unit_map, arrow_map)
    if not phi.is_isomorphism():
        raise InputError(f"overlap map ({i},{j}) is not an isomorphism")
    return phi


def family_from_reductions(G, cover):
    """The tautological family: reductions of one groupoid, identity overlaps."""
    cover = [frozenset(U) for U in cover]
    maps = {(i, j): {g: g for g in reduction(G, Ui & Uj).arrows}
            for i, Ui in enumerate(cover) for j, Uj in enumerate(cover)
            if i != j and Ui & Uj}
    return GluingFamily(cover, [reduction(G, U) for U in cover], maps)


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
    # phi_ji(g) and phi_ki(g) are defined exactly when pieces j and k both
    # present g, and then the chart of g in j must present it in k as well.
    pieces, presented = family.pieces, family.presentations
    for i, j, k in itertools.product(range(n), repeat=3):
        for g in pieces[i].arrows:
            charts = presented[i, g]
            if j in charts and k in charts:
                via = presented[j, charts[j]].get(k)
                if via != charts[k]:
                    cocycle.append((i, j, k, g, via, charts[k]))

    # Lifting of composable pairs across pieces.  A pair inside one piece
    # lifts to that piece, so only ordered pairs of distinct pieces can fail.
    def lifts(pres_g, pres_h):  # some piece presents both, composably
        return any(k in pres_h and pieces[k].dom[gk] == pieces[k].ran[pres_h[k]]
                   for k, gk in pres_g.items())

    for i, j in itertools.permutations(range(n), 2):
        Pi, Pj = pieces[i], pieces[j]
        for g in Pi.arrows:
            for h in Pj.arrows:
                if Pi.dom[g] == Pj.ran[h] and not lifts(presented[i, g], presented[j, h]):
                    lifting.append((i, j, g, h))

    return GluingReport(tuple(pinning), tuple(cocycle), tuple(lifting))


def glue(family):
    """The fibered coproduct of a family satisfying the weak gluing condition.

    Refuses (GluingConditionError) when the condition fails.  Otherwise every
    piece's tables are mapped once through the classes of presentations; two
    charts that disagree about a class or an entry raise AmbiguityError
    rather than being broken silently.
    """
    report = check_weak_gluing(family)
    if not report.ok:
        raise GluingConditionError(report)

    def put(table, key, value, what):
        if table.setdefault(key, value) != value:
            raise AmbiguityError(f"charts disagree about the {what} {key!r}")

    # Under the cocycle laws an arrow's class is the set of its presentations;
    # each class is named by the first of them in (piece, id) order and
    # numbered where that name falls in the same order.
    presented, first = family.presentations, {}
    for charts in presented.values():
        for token in charts.items():
            put(first, token, min(charts.items()), "class of the arrow")
    number = {t: n for n, t in enumerate(t for t in presented if first[t] == t)}
    glued = {t: number[first[t]] for t in presented}

    dom, ran, inverse, unit_arrow, compose = {}, {}, {}, {}, {}
    for i, piece in enumerate(family.pieces):
        for g in piece.arrows:
            a = glued[i, g]
            put(dom, a, piece.dom[g], "domain of glued arrow")
            put(ran, a, piece.ran[g], "range of glued arrow")
            put(inverse, a, glued[i, piece.inverse[g]], "inverse of glued arrow")
        for x, u in piece.unit_arrow.items():
            put(unit_arrow, x, glued[i, u], "unit arrow of")
        for (g, h), k in piece.compose_table.items():
            put(compose, (glued[i, g], glued[i, h]), glued[i, k], "product of glued arrows")

    result = FiniteGroupoid(family.unit_space, dom, ran, inverse,
                            {x: unit_arrow.get(x) for x in family.unit_space},
                            dict(sorted(compose.items())))
    check = validate(result)
    if not check.ok:
        raise AmbiguityError("glued groupoid fails validation: "
                             + check.lines()[0])
    return result
