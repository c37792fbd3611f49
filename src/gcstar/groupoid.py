"""Finite groupoids with explicit structure tables.

Conventions used throughout the package:

* A groupoid consists of a finite unit set X and a finite set of arrows.
  Every arrow g has a domain dom(g) and a range ran(g) in X.  The product
  compose(g, h) -- read "h, then g" -- is defined exactly when
  dom(g) == ran(h); then dom(gh) == dom(h) and ran(gh) == ran(g).
* Arrows are identified by stable integer ids.  A reduction keeps the ids of
  its parent, so complex-valued functions on arrows restrict verbatim.
* Unit spaces are discrete and every fiber d^{-1}(x) carries counting
  measure; no other fiber measures are modelled.  Right translation by g is
  a bijection from d^{-1}(ran g) onto d^{-1}(dom g), which is exactly the
  invariance the counting measures need.

Structure tables are dicts keyed by arrow id, read in bulk through their one
integer view :attr:`FiniteGroupoid.table`; neither is mutated after
construction.  All operations in this package treat groupoids (and groups)
as immutable values, so concurrent evaluation is safe.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InputError


class FiniteGroup:
    """A finite group given by its multiplication table."""

    def __init__(self, elements, mul, identity):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise InputError("duplicate group elements")
        if identity not in self.elements:
            raise InputError("identity is not an element")
        self.identity = identity
        self._mul = {(a, b): mul[(a, b)] for a in self.elements for b in self.elements}
        self._inv = {}
        for a in self.elements:
            for b in self.elements:
                if self._mul[(a, b)] == identity and self._mul[(b, a)] == identity:
                    self._inv[a] = b
                    break
            else:
                raise InputError(f"element {a!r} has no inverse")

    def __len__(self):
        return len(self.elements)

    def mul(self, a, b):
        return self._mul[(a, b)]

    def inv(self, a):
        return self._inv[a]

    def element_order(self, a):
        k, b = 1, a
        while b != self.identity:
            b = self.mul(b, a)
            k += 1
        return k

    def order_profile(self):
        """Sorted tuple of element orders; an isomorphism invariant."""
        return tuple(sorted(self.element_order(a) for a in self.elements))

    def check(self):
        """List of violated group axioms (empty when the table is a group)."""
        bad = []
        for a, b in itertools.product(self.elements, repeat=2):
            if self._mul[(a, b)] not in self.elements:
                bad.append(f"product {a!r}*{b!r} escapes the element set")
        for a in self.elements:
            if self._mul[(self.identity, a)] != a or self._mul[(a, self.identity)] != a:
                bad.append(f"identity law fails at {a!r}")
        for a, b, c in itertools.product(self.elements, repeat=3):
            if self._mul[(self._mul[(a, b)], c)] != self._mul[(a, self._mul[(b, c)])]:
                bad.append(f"associativity fails at ({a!r},{b!r},{c!r})")
        return bad

    @classmethod
    def cyclic(cls, n):
        elements = tuple(range(n))
        mul = {(a, b): (a + b) % n for a in elements for b in elements}
        return cls(elements, mul, 0)

    @classmethod
    def klein_four(cls):
        elements = ("e", "a", "b", "c")
        idx = {e: i for i, e in enumerate(elements)}
        mul = {}
        for x in elements:
            for y in elements:
                mul[(x, y)] = elements[idx[x] ^ idx[y]]
        return cls(elements, mul, "e")

    @classmethod
    def from_table(cls, elements, table, identity):
        g = cls(elements, table, identity)
        bad = g.check()
        if bad:
            raise InputError("not a group: " + "; ".join(bad[:3]))
        return g


class FiniteGroupoid:
    """A finite groupoid over a discrete unit space.

    Parameters are the raw structure tables:

    units       ordered sequence of unit labels (hashable, distinct)
    dom, ran    dicts arrow id -> unit
    inverse     dict arrow id -> arrow id
    unit_arrow  dict unit -> arrow id of the embedded unit
    compose     dict (g, h) -> gh for the composable pairs

    No axioms are enforced here; run :func:`validate` to obtain a report.
    """

    def __init__(self, units, dom, ran, inverse, unit_arrow, compose):
        self.units = tuple(units)
        if len(set(self.units)) != len(self.units):
            raise InputError("duplicate units")
        self.dom = dict(dom)
        self.ran = dict(ran)
        self.inverse = dict(inverse)
        self.unit_arrow = dict(unit_arrow)
        self.compose_table = dict(compose)
        self.arrows = tuple(sorted(self.dom))
        if set(self.ran) != set(self.dom):
            raise InputError("dom and ran tables disagree on the arrow set")
        self._fiber = {x: [] for x in self.units}
        for g in self.arrows:
            d, r = self.dom[g], self.ran[g]
            if d not in self._fiber or r not in self._fiber:
                raise InputError(f"arrow {g} has an endpoint outside the unit set")
            self._fiber[d].append(g)
        self._fiber = {x: tuple(v) for x, v in self._fiber.items()}

    # -- basic queries ----------------------------------------------------

    def n_units(self):
        return len(self.units)

    def n_arrows(self):
        return len(self.arrows)

    def fiber(self, x):
        """Arrows with domain x, i.e. d^{-1}(x), in ascending id order."""
        return self._fiber[x]

    def hom(self, x, y):
        """Arrows from x to y (dom = x, ran = y)."""
        return tuple(g for g in self._fiber[x] if self.ran[g] == y)

    def compose(self, g, h):
        try:
            return self.compose_table[(g, h)]
        except KeyError:
            raise InputError(f"arrows {g} and {h} are not composable") from None

    def try_compose(self, g, h):
        return self.compose_table.get((g, h))

    def inv(self, g):
        return self.inverse[g]

    def is_unit_arrow(self, g):
        return self.unit_arrow.get(self.dom[g]) == g

    @functools.cached_property
    def table(self):
        """The :class:`ArrowTable` of this groupoid, built on first use.

        Needs well-formed tables (the ``tables`` phase of :func:`validate`).
        """
        position = {g: i for i, g in enumerate(self.arrows)}
        unit_index = {x: i for i, x in enumerate(self.units)}
        try:
            pairs = _lookup(position, itertools.chain.from_iterable(self.compose_table))
            product = np.full((len(position),) * 2, -1)
            product[pairs[0::2], pairs[1::2]] = _lookup(position, self.compose_table.values())
            return ArrowTable(position, _lookup(unit_index, map(self.dom.get, self.arrows)),
                              _lookup(unit_index, map(self.ran.get, self.arrows)),
                              _lookup(position, map(self.inverse.get, self.arrows)),
                              _lookup(position, map(self.unit_arrow.get, self.units)),
                              product)
        except KeyError as exc:
            raise InputError(f"structure tables name an unknown arrow or unit {exc}") from None

    def __repr__(self):
        return f"FiniteGroupoid({self.n_units()} units, {self.n_arrows()} arrows)"


@dataclass(frozen=True, eq=False)
class ArrowTable:
    """The structure tables as integer arrays over arrow and unit positions."""

    position: dict        # arrow id -> its index in G.arrows
    dom: np.ndarray       # unit index of dom(g), per arrow position
    ran: np.ndarray       # unit index of ran(g), per arrow position
    inverse: np.ndarray   # position of the inverse, per arrow position
    unit: np.ndarray      # position of the unit arrow, per unit index
    product: np.ndarray   # n x n: position of arrows[i] * arrows[j], or -1

    def positions(self, ids):
        """Positions of the arrow ids ``ids``, as an int array."""
        try:
            return _lookup(self.position, ids)
        except KeyError as exc:
            raise InputError(f"arrow {exc} lies outside the algebra") from None


def _lookup(index, keys):
    return np.fromiter(map(index.__getitem__, keys), np.intp)


# -- validation -----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    rule: str
    detail: str

    def __str__(self):
        return f"[{self.rule}] {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self):
        return not self.violations

    def lines(self):
        if self.ok:
            return ("all groupoid axioms hold",)
        return tuple(str(v) for v in self.violations)


def validate(G):
    """Check every groupoid axiom; violations are report entries, not errors."""
    bad = []
    arrows = set(G.arrows)

    def add(rule, detail):
        bad.append(Violation(rule, detail))

    # Well-formedness of the tables first; the axiom checks below assume it.
    # Endpoints outside the units are refused by the constructor already.
    for g, gi in G.inverse.items():
        if g not in arrows or gi not in arrows:
            add("tables", f"inverse entry {g}->{gi} references unknown arrows")
    if set(G.inverse) != arrows:
        add("tables", "inverse is not total on the arrow set")
    for x in G.units:
        if x not in G.unit_arrow:
            add("tables", f"unit {x!r} has no unit arrow")
        elif G.unit_arrow[x] not in arrows:
            add("tables", f"unit arrow of {x!r} is not an arrow")
    for x in G.unit_arrow:
        if x not in G.units:
            add("tables", f"unit arrow given for {x!r}, which is not a unit")
    try:  # past the checks above, only a compose entry naming an unknown arrow fails here
        T = None if bad else G.table
    except InputError:
        T = None
    if T is None:
        for (g, h), k in G.compose_table.items():
            if g not in arrows or h not in arrows or k not in arrows:
                add("tables", f"compose entry ({g},{h})->{k} references unknown arrows")
        return ValidationReport(tuple(bad))

    # Every axiom below is one comparison on the integer view; Python only
    # walks the flagged cells, in the order the report lists them.
    P, ids = T.product, G.arrows
    every, units = np.arange(len(ids)), np.arange(len(G.units))

    for x in np.flatnonzero((T.dom[T.unit] != units) | (T.ran[T.unit] != units)):
        x, u = G.units[x], ids[T.unit[x]]
        add("unit-endpoints", f"unit arrow {u} of {x!r} has endpoints "
            f"({G.dom[u]!r},{G.ran[u]!r})")

    def per_arrow(*rules):  # flagged arrows in order, each with its rules in order
        for i in np.flatnonzero(np.logical_or.reduce([fails for _, fails, _ in rules])):
            g = ids[i]
            for rule, fails, detail in rules:
                if fails[i]:
                    add(rule, detail.format(g=g, gi=G.inverse[g], gii=G.inverse[G.inverse[g]]))

    per_arrow(("inverse-involution", T.inverse[T.inverse] != every,
               "inverse(inverse({g})) = {gii}"),
              ("inverse-endpoints", (T.dom[T.inverse] != T.ran) | (T.ran[T.inverse] != T.dom),
               "inverse({g}) = {gi} does not swap endpoints"))

    defined = P >= 0
    composable = T.dom[:, None] == T.ran[None, :]
    # P = -1 reads the last arrow here; only defined cells are consulted
    endpoints = (T.dom[P] == T.dom[None, :]) & (T.ran[P] == T.ran[:, None])
    for i, j in np.argwhere((defined != composable) | (defined & ~endpoints)):
        g, h = ids[i], ids[j]
        if not composable[i, j]:
            add("compose-domain", f"({g},{h}) is in the table but dom({g}) != ran({h})")
        elif not defined[i, j]:
            add("compose-domain", f"({g},{h}) is composable but not in the table")
        else:
            add("product-endpoints", f"{g}*{h} = {ids[P[i, j]]} has wrong endpoints")

    per_arrow(("unit-law", P[T.unit[T.ran], every] != every, "u(ran)*{g} != {g}"),
              ("unit-law", P[every, T.unit[T.dom]] != every, "{g}*u(dom) != {g}"),
              ("inverse-law", P[every, T.inverse] != T.unit[T.ran], "{g}*{g}^-1 != u(ran({g}))"),
              ("inverse-law", P[T.inverse, every] != T.unit[T.dom], "{g}^-1*{g} != u(dom({g}))"))

    # (gh)k against g(hk) for every table entry (g, h) and k with ran k = dom h,
    # one unit x = dom h at a time, in runs of middle arrows h of at most n^2
    # cells (the size of P; one h spans at most n^2, so no run is empty).  hk
    # and (gh)k are rows of P[:, ks]; g(hk) is read from P padded with a -1
    # column, so an undefined hk gives -1 (None) like an undefined product.
    n, failures = len(ids), []
    padded = np.hstack([P, np.full((n, 1), -1)]).ravel()
    for x in units:
        middles, ks = np.flatnonzero(T.dom == x), np.flatnonzero(T.ran == x)
        step = n * n // max(1, len(ks) * defined[:, middles].sum(axis=0).max(initial=0))
        by_k = P[:, ks]
        for s in range(0, len(middles), step):
            gs, cols = defined[:, middles[s:s + step]].nonzero()
            hs = middles[s + cols]
            first, hk = by_k[P[gs, hs]], by_k[hs]
            hk += (gs * (n + 1))[:, None]  # flat position of (g, hk) in padded
            second = padded[hk]
            a, b = (first != second).nonzero()
            failures += zip(gs[a], hs[a], ks[b], first[a, b], second[a, b])
    if failures:
        rank = {pair: r for r, pair in enumerate(G.compose_table)}
        failures.sort(key=lambda t: (rank[(ids[t[0]], ids[t[1]])], t[2]))
    for i, j, k, first, second in failures:
        g, h, k = ids[i], ids[j], ids[k]
        first, second = (ids[p] if p >= 0 else None for p in (first, second))
        add("associativity", f"({g}*{h})*{k} = {first} but {g}*({h}*{k}) = {second}")

    return ValidationReport(tuple(bad))


# -- elementary operations ------------------------------------------------


def _check_subset(G, A):
    A = frozenset(A)
    stray = A - set(G.units)
    if stray:
        raise InputError(f"subset members {sorted(map(str, stray))} are not units")
    return A


def reduction(G, A):
    """The subgroupoid of arrows with both endpoints in A, over units A.

    Arrow ids are inherited from G.
    """
    A = _check_subset(G, A)
    keep = {g for g in G.arrows if G.dom[g] in A and G.ran[g] in A}
    return FiniteGroupoid(
        units=tuple(x for x in G.units if x in A),
        dom={g: G.dom[g] for g in keep},
        ran={g: G.ran[g] for g in keep},
        inverse={g: G.inverse[g] for g in keep},
        unit_arrow={x: G.unit_arrow[x] for x in A},
        compose={(g, h): k for (g, h), k in G.compose_table.items()
                 if g in keep and h in keep},
    )


def saturation(G, U):
    """All units reachable from U: { ran(g) : dom(g) in U }."""
    U = _check_subset(G, U)
    return frozenset(G.ran[g] for g in G.arrows if G.dom[g] in U)


def is_invariant(G, U):
    U = _check_subset(G, U)
    return saturation(G, U) == U


class UnionFind:
    """Disjoint sets with path halving; ``union(a, b)`` puts a's root under b's."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def orbits(G):
    """Partition of the units into reachability classes, in unit order."""
    uf = UnionFind(G.units)
    for g in G.arrows:
        uf.union(G.dom[g], G.ran[g])
    groups = {}  # listed by their first unit
    for x in G.units:
        groups.setdefault(uf.find(x), []).append(x)
    return tuple(frozenset(v) for v in groups.values())


def isotropy(G, x):
    """The isotropy group at x: arrows with dom = ran = x, under composition."""
    if x not in G.units:
        raise InputError(f"{x!r} is not a unit")
    elements = tuple(g for g in G.fiber(x) if G.ran[g] == x)
    mul = {(a, b): G.compose_table[(a, b)] for a in elements for b in elements}
    return FiniteGroup(elements, mul, G.unit_arrow[x])


# -- builders ---------------------------------------------------------------


def pair_times_tables(n, group):
    """Read-only index tables of pair(n) x group, from the group's table.

    Arrow (i n + j) |group| + e runs from unit j to unit i with isotropy part
    group.elements[e].  The tables: dom, ran and inverse per arrow, the unit
    arrow per unit, and the composable pairs (left, right) with their
    products, listed as :func:`direct_product` lists them.
    """
    index = {x: e for e, x in enumerate(group.elements)}
    mul = np.array([[index[group.mul(x, y)] for y in group.elements] for x in group.elements])
    inv = np.array([index[group.inv(x)] for x in group.elements])
    k, units = len(group), np.arange(n)
    i, j, e = np.indices((n, n, k)).reshape(3, -1)
    i3, j3, l3, e3, f3 = np.indices((n, n, n, k, k)).reshape(5, -1)
    tables = (j, i, (j * n + i) * k + inv[e], (units * n + units) * k + index[group.identity],
              (i3 * n + j3) * k + e3, (j3 * n + l3) * k + f3, (i3 * n + l3) * k + mul[e3, f3])
    for table in tables:
        table.flags.writeable = False
    return tables


def from_index_tables(units, ids, dom, ran, inverse, unit, left, right, product):
    """The groupoid over ``units`` with the index tables of
    :func:`pair_times_tables`; the arrow at position p gets the id ids[p]."""
    arrows = ids.tolist()
    return FiniteGroupoid(
        units, dict(zip(arrows, (units[x] for x in dom.tolist()))),
        dict(zip(arrows, (units[x] for x in ran.tolist()))),
        dict(zip(arrows, ids[inverse].tolist())), dict(zip(units, ids[unit].tolist())),
        dict(zip(zip(ids[left].tolist(), ids[right].tolist()), ids[product].tolist())))


def pair_groupoid(units):
    """The pair groupoid: exactly one arrow (a, b) from b to a, for all a, b."""
    units = tuple(units)  # arrow i*n + j is (units[i], units[j]) : units[j] -> units[i]
    return from_index_tables(units, np.arange(len(units) ** 2),
                             *pair_times_tables(len(units), FiniteGroup.cyclic(1)))


def pair_arrow(G, a, b):
    """The unique arrow b -> a of a pair-groupoid-like hom set."""
    hom = G.hom(b, a)
    if len(hom) != 1:
        raise InputError(f"hom({b!r},{a!r}) is not a singleton")
    return hom[0]


def group_groupoid(group, unit="*"):
    """A group viewed as a groupoid over a single unit; arrow i is elements[i]."""
    return from_index_tables((unit,), np.arange(len(group)), *pair_times_tables(1, group))


def action_groupoid(units, group, act):
    """The transformation groupoid of a right action of ``group`` on ``units``.

    ``act`` maps (unit, element) to a unit and must satisfy the right-action
    laws  act(x, e) == x  and  act(act(x, g), h) == act(x, g*h).  The arrow
    (x, g) runs from act(x, inv(g)) to x, and
    (x, g) * (act(x, inv(g)), h) == (x, h*g).
    """
    units = tuple(units)
    if callable(act):
        action = {(x, g): act(x, g) for x in units for g in group.elements}
    else:
        action = dict(act)
    for x in units:
        for g in group.elements:
            if (x, g) not in action or action[(x, g)] not in units:
                raise InputError(f"action undefined or escapes units at ({x!r},{g!r})")
    for x in units:
        if action[(x, group.identity)] != x:
            raise InputError(f"action identity law fails at {x!r}")
    for x in units:
        for g in group.elements:
            for h in group.elements:
                if action[(action[(x, g)], h)] != action[(x, group.mul(g, h))]:
                    raise InputError(
                        "action compatibility fails at "
                        f"(x={x!r}, g={g!r}, h={h!r}): "
                        f"act(act(x,g),h) != act(x, g*h)")

    uidx = {x: i for i, x in enumerate(units)}
    gidx = {g: i for i, g in enumerate(group.elements)}
    ng = len(group.elements)

    def aid(x, g):
        return uidx[x] * ng + gidx[g]

    dom, ran, inverse, compose = {}, {}, {}, {}
    for x in units:
        for g in group.elements:
            a, y = aid(x, g), action[(x, group.inv(g))]
            ran[a], dom[a], inverse[a] = x, y, aid(y, group.inv(g))
            for h in group.elements:
                compose[(a, aid(y, h))] = aid(x, group.mul(h, g))
    unit_arrow = {x: aid(x, group.identity) for x in units}
    return FiniteGroupoid(units, dom, ran, inverse, unit_arrow, compose)


def disjoint_union(pieces):
    """Disjoint union of groupoids with pairwise disjoint unit sets.

    Arrow ids are renumbered densely, piece after piece in input order.
    """
    units, dom, ran, inverse, unit_arrow, compose = [], {}, {}, {}, {}, {}
    offset = 0
    for G in pieces:
        if set(G.units) & set(units):
            raise InputError("pieces of a disjoint union share units")
        remap = {g: offset + i for i, g in enumerate(G.arrows)}
        units.extend(G.units)
        for g in G.arrows:
            dom[remap[g]] = G.dom[g]
            ran[remap[g]] = G.ran[g]
            inverse[remap[g]] = remap[G.inverse[g]]
        for x in G.units:
            unit_arrow[x] = remap[G.unit_arrow[x]]
        for (g, h), k in G.compose_table.items():
            compose[(remap[g], remap[h])] = remap[k]
        offset += G.n_arrows()
    return FiniteGroupoid(units, dom, ran, inverse, unit_arrow, compose)


def direct_product(A, B):
    """Direct product groupoid over the product unit set.

    The arrow pair (g, h) gets id index(g) * |arrows B| + index(h), with
    indices taken in each factor's ascending id order.
    """
    aidx = {g: i for i, g in enumerate(A.arrows)}
    bidx = {h: i for i, h in enumerate(B.arrows)}
    nb = B.n_arrows()

    def pid(g, h):
        return aidx[g] * nb + bidx[h]

    units = tuple((x, y) for x in A.units for y in B.units)
    pairs = list(enumerate(itertools.product(A.arrows, B.arrows)))  # (pid(g, h), (g, h))
    return FiniteGroupoid(
        units, {a: (A.dom[g], B.dom[h]) for a, (g, h) in pairs},
        {a: (A.ran[g], B.ran[h]) for a, (g, h) in pairs},
        {a: pid(A.inverse[g], B.inverse[h]) for a, (g, h) in pairs},
        {(x, y): pid(A.unit_arrow[x], B.unit_arrow[y]) for (x, y) in units},
        {(pid(g1, g2), pid(h1, h2)): pid(k1, k2) for (g1, h1), k1 in A.compose_table.items()
         for (g2, h2), k2 in B.compose_table.items()})


def relabel_units(G, mapping):
    """A copy of G with units renamed through ``mapping`` (a bijection)."""
    mapping = dict(mapping)
    if set(mapping) != set(G.units) or len(set(mapping.values())) != len(G.units):
        raise InputError("relabelling must be a bijection defined on all units")
    return FiniteGroupoid(
        units=tuple(mapping[x] for x in G.units),
        dom={g: mapping[G.dom[g]] for g in G.arrows},
        ran={g: mapping[G.ran[g]] for g in G.arrows},
        inverse=G.inverse,
        unit_arrow={mapping[x]: a for x, a in G.unit_arrow.items()},
        compose=G.compose_table,
    )


def permute_arrow_ids(G, perm):
    """A copy of G with arrow ids renamed through ``perm`` (a bijection)."""
    perm = dict(perm)
    if set(perm) != set(G.arrows) or len(set(perm.values())) != len(G.arrows):
        raise InputError("permutation must be a bijection defined on all arrows")
    return FiniteGroupoid(
        units=G.units,
        dom={perm[g]: G.dom[g] for g in G.arrows},
        ran={perm[g]: G.ran[g] for g in G.arrows},
        inverse={perm[g]: perm[gi] for g, gi in G.inverse.items()},
        unit_arrow={x: perm[a] for x, a in G.unit_arrow.items()},
        compose={(perm[g], perm[h]): perm[k] for (g, h), k in G.compose_table.items()},
    )


# -- morphisms --------------------------------------------------------------


class GroupoidMorphism:
    """A morphism of finite groupoids given by unit and arrow maps."""

    def __init__(self, source, target, unit_map, arrow_map):
        self.source = source
        self.target = target
        self.unit_map = dict(unit_map)
        self.arrow_map = dict(arrow_map)

    @classmethod
    def identity(cls, G):
        return cls(G, G, {x: x for x in G.units}, {g: g for g in G.arrows})

    def check(self):
        """List of violated morphism laws (empty when structural)."""
        bad = []
        S, T = self.source, self.target
        if set(self.unit_map) != set(S.units):
            bad.append("unit map is not total")
        if set(self.arrow_map) != set(S.arrows):
            bad.append("arrow map is not total")
        if bad:
            return bad
        for x, y in self.unit_map.items():
            if y not in T.units:
                bad.append(f"unit {x!r} maps outside the target units")
        target_arrows = set(T.arrows)
        for g, k in self.arrow_map.items():
            if k not in target_arrows:
                bad.append(f"arrow {g} maps outside the target arrows")
                return bad
            if T.dom[k] != self.unit_map[S.dom[g]]:
                bad.append(f"dom not preserved at arrow {g}")
            if T.ran[k] != self.unit_map[S.ran[g]]:
                bad.append(f"ran not preserved at arrow {g}")
            if self.arrow_map[S.inverse[g]] != T.inverse[k]:
                bad.append(f"inverse not preserved at arrow {g}")
        for x in S.units:
            if self.arrow_map[S.unit_arrow[x]] != T.unit_arrow[self.unit_map[x]]:
                bad.append(f"unit arrow not preserved at {x!r}")
        for (g, h), k in S.compose_table.items():
            img = T.compose_table.get((self.arrow_map[g], self.arrow_map[h]))
            if img != self.arrow_map[k]:
                bad.append(f"composition not preserved at ({g},{h})")
        return bad

    def is_isomorphism(self):
        """A morphism that is one-to-one and onto on units and on arrows."""
        units, arrows = self.unit_map.values(), self.arrow_map.values()
        return (not self.check()
                and len(set(units)) == len(units) == len(self.target.units)
                and len(set(arrows)) == len(arrows) == len(self.target.arrows))

    def inverse_morphism(self):
        if not self.is_isomorphism():
            raise InputError("only isomorphisms can be inverted")
        return GroupoidMorphism(
            self.target, self.source,
            {y: x for x, y in self.unit_map.items()},
            {k: g for g, k in self.arrow_map.items()},
        )

    def then(self, other):
        """The composite ``other after self`` (self first)."""
        if other.source is not self.target and other.source.arrows != self.target.arrows:
            raise InputError("morphisms are not composable")
        return GroupoidMorphism(
            self.source, other.target,
            {x: other.unit_map[y] for x, y in self.unit_map.items()},
            {g: other.arrow_map[k] for g, k in self.arrow_map.items()},
        )

    def __repr__(self):
        return (f"GroupoidMorphism({self.source!r} -> {self.target!r})")
