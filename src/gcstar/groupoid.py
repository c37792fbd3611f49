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

A groupoid is stored once, as integer index tables over the arrow positions
(arrow ids in ascending order) and the unit positions: its
:attr:`FiniteGroupoid.table`.  The dicts keyed by arrow id (``dom``,
``ran``, ``inverse``, ``unit_arrow``, ``compose_table``) and the fibers are
read-only views derived from those tables on first read.  Nothing is
mutated after construction: all operations in this package treat groupoids
(and groups) as immutable values, so concurrent evaluation is safe.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType

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


def _pick(seq, at):
    return map(seq.__getitem__, at.tolist())


def _view(items):
    """A read-only dict of ``items(G)``, built on the first read."""
    return functools.cached_property(lambda G: MappingProxyType(dict(items(G))))


class FiniteGroupoid:
    """A finite groupoid over a discrete unit space, stored as ``units``,
    ``arrows`` (ascending ids) and their :class:`ArrowTable`.

    :func:`from_index_tables` builds one from index tables; this constructor
    from dicts, resolving each reference once:

    units       ordered sequence of unit labels (hashable, distinct)
    dom, ran    dicts arrow id -> unit
    inverse     dict arrow id -> arrow id
    unit_arrow  dict unit -> arrow id of the embedded unit
    compose     dict (g, h) -> gh for the composable pairs

    An endpoint outside the units is refused; any other unknown arrow or unit
    is kept as a ``tables`` violation of :func:`validate`, and leaves the
    groupoid without a :attr:`table`.  No axioms are enforced here.  The
    dicts (``dom`` ... ``compose_table``) and the fibers are read-only views
    of the table, built on first read.
    """

    def __init__(self, units, dom, ran, inverse, unit_arrow, compose):
        units = tuple(units)
        unit_index = {x: i for i, x in enumerate(units)}
        if len(unit_index) != len(units):
            raise InputError("duplicate units")
        arrows = tuple(sorted(dom))
        if set(ran) != set(dom):
            raise InputError("dom and ran tables disagree on the arrow set")
        ends = [_resolve(unit_index, map(table.__getitem__, arrows)) for table in (dom, ran)]
        outside = np.flatnonzero((ends[0] < 0) | (ends[1] < 0))
        if len(outside):
            raise InputError(f"arrow {arrows[outside[0]]} has an endpoint outside the unit set")
        position = {g: i for i, g in enumerate(arrows)}
        at_inverse = _resolve(position, map(inverse.get, arrows))
        at_unit = _resolve(position, map(unit_arrow.get, units))
        pairs = _resolve(position, itertools.chain.from_iterable(compose)).reshape(-1, 2)
        products = _resolve(position, compose.values())

        faults, known = [], position.keys()  # in the order validate lists them
        if len(inverse) != len(arrows) or (at_inverse < 0).any():
            faults += [f"inverse entry {g}->{gi} references unknown arrows"
                       for g, gi in inverse.items() if not {g, gi} <= known]
            if inverse.keys() != known:
                faults.append("inverse is not total on the arrow set")
        if len(unit_arrow) != len(units) or (at_unit < 0).any():
            faults += [f"unit {x!r} has no unit arrow" if x not in unit_arrow
                       else f"unit arrow of {x!r} is not an arrow"
                       for x, at in zip(units, at_unit.tolist()) if at < 0]
            faults += [f"unit arrow given for {x!r}, which is not a unit"
                       for x in unit_arrow if x not in unit_index]
        if (pairs < 0).any() or (products < 0).any():
            faults += [f"compose entry ({g},{h})->{k} references unknown arrows"
                       for (g, h), k in compose.items() if not {g, h, k} <= known]
        self._store(units, ArrowTable(arrows, *ends, at_inverse, at_unit, *pairs.T, products),
                    tuple(faults))

    def _store(self, units, table, faults=()):
        """The one place a groupoid takes its stored form."""
        self.units, self.arrows, self._table, self._faults = units, table.arrows, table, faults

    @property
    def table(self):
        """The :class:`ArrowTable` this groupoid is stored as; refused when
        the tables name an unknown arrow or unit."""
        if self._faults:
            raise InputError(f"structure tables name an unknown arrow or unit: {self._faults[0]}")
        return self._table

    dom = _view(lambda G: zip(G.arrows, _pick(G.units, G._table.dom)))
    ran = _view(lambda G: zip(G.arrows, _pick(G.units, G._table.ran)))
    inverse = _view(lambda G: zip(G.arrows, _pick(G.arrows, G.table.inverse)))
    unit_arrow = _view(lambda G: zip(G.units, _pick(G.arrows, G.table.unit)))
    compose_table = _view(lambda G: zip(zip(_pick(G.arrows, G.table.left),
                                            _pick(G.arrows, G.table.right)),
                                        _pick(G.arrows, G.table.composite)))

    @functools.cached_property
    def _fibers(self):
        fibers = {x: [] for x in self.units}
        for g, x in zip(self.arrows, _pick(self.units, self._table.dom)):
            fibers[x].append(g)
        return {x: tuple(v) for x, v in fibers.items()}

    @functools.cached_property
    def _base(self):
        """Per unit index, the index of its orbit's first unit.  The orbit of
        x is ran(d^-1(x)): g: x -> y and h: x -> z give h g^-1: y -> z."""
        base = np.arange(len(self.units))
        np.minimum.at(base, self._table.dom, self._table.ran)
        return base

    @functools.cached_property
    def _orbits(self):
        groups = {}  # a base is its orbit's first unit, so they arrive in order
        for x, b in zip(self.units, self._base.tolist()):
            groups.setdefault(b, []).append(x)
        return tuple(map(frozenset, groups.values()))

    @functools.cached_property
    def _orbit_bases(self):
        return tuple(np.flatnonzero(self._base == np.arange(len(self.units))).tolist())

    # -- basic queries ----------------------------------------------------

    def n_units(self):
        return len(self.units)

    def n_arrows(self):
        return len(self.arrows)

    def fiber(self, x):
        """Arrows with domain x, i.e. d^{-1}(x), in ascending id order."""
        return self._fibers[x]

    def hom(self, x, y):
        """Arrows from x to y (dom = x, ran = y)."""
        return tuple(g for g in self.fiber(x) if self.ran[g] == y)

    def compose(self, g, h):
        try:
            return self.compose_table[(g, h)]
        except KeyError:
            raise InputError(f"arrows {g} and {h} are not composable") from None

    def inv(self, g):
        return self.inverse[g]

    def __repr__(self):
        return f"FiniteGroupoid({self.n_units()} units, {self.n_arrows()} arrows)"


@dataclass(frozen=True, eq=False)
class ArrowTable:
    """The structure tables as read-only integer arrays over arrow positions
    (``arrows``, ascending ids) and unit positions."""

    arrows: tuple           # arrow ids; position p holds arrows[p]
    dom: np.ndarray         # unit index of dom(g), per arrow position
    ran: np.ndarray         # unit index of ran(g), per arrow position
    inverse: np.ndarray     # position of the inverse, per arrow position
    unit: np.ndarray        # position of the unit arrow, per unit index
    left: np.ndarray        # the composable pairs (left, right) and the
    right: np.ndarray       # positions of their products, in
    composite: np.ndarray   # compose_table order

    def __post_init__(self):
        for table in self.index_tables:
            table.flags.writeable = False

    @property
    def index_tables(self):
        """The seven arrays, in the argument order of :func:`from_index_tables`."""
        return self.dom, self.ran, self.inverse, self.unit, self.left, self.right, self.composite

    @functools.cached_property
    def position(self):
        """Arrow id -> its position, built on first use."""
        return {g: i for i, g in enumerate(self.arrows)}

    @functools.cached_property
    def product(self):
        """n x n: position of arrows[i] * arrows[j], or -1; built on first use."""
        product = np.full((len(self.arrows),) * 2, -1)
        product[self.left, self.right] = self.composite
        product.flags.writeable = False
        return product

    @functools.cached_property
    def pairs_by_right(self):
        """``(left, right, composite)`` sorted by ``right``, then ``left``;
        read-only, built on first use."""
        order = np.lexsort((self.left, self.right))
        pairs = tuple(table[order] for table in (self.left, self.right, self.composite))
        for table in pairs:
            table.flags.writeable = False
        return pairs

    def positions(self, ids):
        """Positions of the arrow ids ``ids``, as an int array."""
        try:
            return np.fromiter(map(self.position.__getitem__, ids), np.intp)
        except KeyError as exc:
            raise InputError(f"arrow {exc} lies outside the algebra") from None


def _resolve(index, keys):
    """index[k] for each key, -1 where the key is missing, as an int array."""
    return np.fromiter(map(index.get, keys, itertools.repeat(-1)), np.intp)


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
    # Well-formedness of the tables first; the axiom checks below assume it.
    # The constructor refused endpoints outside the units and recorded every
    # other reference it could not resolve.
    bad = [Violation("tables", detail) for detail in G._faults]
    if bad:
        return ValidationReport(tuple(bad))

    def add(rule, detail):
        bad.append(Violation(rule, detail))

    # Every axiom below is one comparison on the integer view; Python only
    # walks the flagged cells, in the order the report lists them.
    T = G.table
    P, ids = T.product, G.arrows
    every, units = np.arange(len(ids)), np.arange(len(G.units))

    for x in np.flatnonzero((T.dom[T.unit] != units) | (T.ran[T.unit] != units)):
        u = T.unit[x]
        add("unit-endpoints", f"unit arrow {ids[u]} of {G.units[x]!r} has endpoints "
            f"({G.units[T.dom[u]]!r},{G.units[T.ran[u]]!r})")

    def per_arrow(*rules):  # flagged arrows in order, each with its rules in order
        for i in np.flatnonzero(np.logical_or.reduce([fails for _, fails, _ in rules])):
            g, gi, gii = ids[i], ids[T.inverse[i]], ids[T.inverse[T.inverse[i]]]
            for rule, fails, detail in rules:
                if fails[i]:
                    add(rule, detail.format(g=g, gi=gi, gii=gii))

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
            if not np.array_equal(first, second):  # locate only in a run that fails
                a, b = (first != second).nonzero()
                failures += zip(gs[a], hs[a], ks[b], first[a, b], second[a, b])
    if failures:  # in compose_table order of (g, h), then by k
        rank = np.empty((n, n), np.intp)
        rank[T.left, T.right] = np.arange(len(T.left))
        failures.sort(key=lambda t: (rank[t[0], t[1]], t[2]))
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

    Arrow ids are inherited from G.  A mask on the endpoints picks the
    arrows; positions and unit indices are renumbered past the dropped ones.
    """
    A = _check_subset(G, A)
    T, in_A = G.table, np.array([x in A for x in G.units], dtype=bool)
    keep = in_A[T.dom] & in_A[T.ran]
    pairs = keep[T.left] & keep[T.right]
    at_unit, at = np.cumsum(in_A) - 1, np.where(keep, np.cumsum(keep) - 1, -1)
    tables = (at[T.inverse[keep]], at[T.unit[in_A]],
              at[T.left[pairs]], at[T.right[pairs]], at[T.composite[pairs]])
    if np.concatenate(tables).min(initial=0) < 0:  # an entry leaves A: G breaks an axiom
        raise InputError(f"cannot reduce a groupoid that fails validation: {validate(G).lines()[0]}")
    return from_index_tables(tuple(itertools.compress(G.units, in_A)),
                             np.asarray(G.arrows)[keep], at_unit[T.dom[keep]],
                             at_unit[T.ran[keep]], *tables)


def saturation(G, U):
    """All units reachable from U: { ran(g) : dom(g) in U }."""
    U, T = _check_subset(G, U), G._table
    reached = np.zeros(G.n_units(), dtype=bool)
    reached[T.ran[np.array([x in U for x in G.units], dtype=bool)[T.dom]]] = True
    return frozenset(itertools.compress(G.units, reached))


def orbits(G):
    """Partition of the units into reachability classes, listed by their
    first unit in unit order.  Computed once per groupoid, from one pass over
    the arrows; the groupoid must satisfy the axioms of :func:`validate`."""
    return G._orbits


def orbit_bases(G):
    """The unit index of each orbit's first unit in unit order (its base
    unit), listed as :func:`orbits` lists the orbits."""
    return G._orbit_bases


def isotropy(G, x):
    """The isotropy group at x: arrows with dom = ran = x, under composition."""
    if x not in G.units:
        raise InputError(f"{x!r} is not a unit")
    elements = tuple(g for g in G.fiber(x) if G.ran[g] == x)
    mul = {(a, b): G.compose_table[(a, b)] for a in elements for b in elements}
    return FiniteGroup(elements, mul, G.unit_arrow[x])


# -- builders ---------------------------------------------------------------


def pair_tables(n):
    """Index tables of the pair groupoid on n units: arrow i n + j runs from
    unit j to unit i."""
    i, j = np.indices((n, n)).reshape(2, -1)
    i3, j3, l3 = np.indices((n, n, n)).reshape(3, -1)
    return j, i, j * n + i, np.arange(n) * (n + 1), i3 * n + j3, j3 * n + l3, i3 * n + l3


def group_tables(group):
    """Index tables of a group over one unit: arrow e is group.elements[e]."""
    index = {x: e for e, x in enumerate(group.elements)}
    mul = np.array([[index[group.mul(x, y)] for y in group.elements] for x in group.elements])
    e, f = np.indices(mul.shape).reshape(2, -1)
    zero = np.zeros(len(index), np.intp)
    return (zero, zero, np.array([index[group.inv(x)] for x in group.elements]),
            np.array([index[group.identity]]), e, f, mul[e, f])


def product_tables(A, B, units_b, arrows_b):
    """Index tables of a direct product, from the factors' tables and B's unit
    and arrow counts: entry a of A's table with entry b of B's is
    a * count + b, for every a and then every b."""
    counts = (units_b,) * 2 + (arrows_b,) * 5
    return tuple((a[:, None] * n + b).ravel() for a, b, n in zip(A, B, counts))


def union_tables(pieces):
    """Index tables of a disjoint union of (index tables, unit count, arrow
    count) pieces: each piece offset past the units and arrows before it."""
    shifted, units, arrows = [], 0, 0
    for tables, n_units, n_arrows in pieces:
        shifted.append([t + s for t, s in zip(tables, (units,) * 2 + (arrows,) * 5)])
        units, arrows = units + n_units, arrows + n_arrows
    return tuple(map(np.concatenate, zip((np.zeros(0, np.intp),) * 7, *shifted)))


def from_index_tables(units, ids, dom, ran, inverse, unit, left, right, product):
    """The groupoid over ``units`` with these index tables; every builder of
    this module goes through here.

    The arrow at position p has id ids[p], domain units[dom[p]], range
    units[ran[p]] and its inverse at position inverse[p]; the unit arrow of
    units[x] is at position unit[x]; each composable pair (left[c], right[c])
    has its product at position product[c], in ``compose_table`` order.
    Positions are renumbered to ascending id order when ``ids`` are not.
    """
    ids, (dom, ran, inverse, unit, left, right, product) = np.asarray(ids), (
        np.asarray(t, dtype=np.intp) for t in (dom, ran, inverse, unit, left, right, product))
    if not (ids[1:] > ids[:-1]).all():
        order = np.argsort(ids)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        ids, dom, ran, inverse = ids[order], dom[order], ran[order], rank[inverse[order]]
        unit, left, right, product = rank[unit], rank[left], rank[right], rank[product]
    G = FiniteGroupoid.__new__(FiniteGroupoid)
    G._store(tuple(units), ArrowTable(tuple(ids.tolist()), dom, ran, inverse, unit, left, right,
                                      product))
    return G


def pair_groupoid(units):
    """The pair groupoid: exactly one arrow (a, b) from b to a, for all a, b."""
    units = tuple(units)  # arrow i*n + j is (units[i], units[j]) : units[j] -> units[i]
    return from_index_tables(units, np.arange(len(units) ** 2), *pair_tables(len(units)))


def group_groupoid(group, unit="*"):
    """A group viewed as a groupoid over a single unit; arrow i is elements[i]."""
    return from_index_tables((unit,), np.arange(len(group)), *group_tables(group))


def action_groupoid(units, group, act):
    """The transformation groupoid of a right action of ``group`` on ``units``.

    ``act`` maps (unit, element) to a unit and must satisfy the right-action
    laws  act(x, e) == x  and  act(act(x, g), h) == act(x, g*h).  The arrow
    (x, g), with id index(x) * |group| + index(g), runs from act(x, inv(g))
    to x, and (x, g) * (act(x, inv(g)), h) == (x, h*g).
    """
    units, elements = tuple(units), group.elements
    action = ({(x, g): act(x, g) for x in units for g in elements} if callable(act)
              else dict(act))
    missing = object()
    for x, g in itertools.product(units, elements):
        if action.get((x, g), missing) not in units:
            raise InputError(f"action undefined or escapes units at ({x!r},{g!r})")
    _, _, inv, (identity,), _, _, mul = group_tables(group)
    mul, index = mul.reshape(len(elements), -1), {x: i for i, x in enumerate(units)}
    at = np.array([index[action[key]] for key in itertools.product(units, elements)],
                  dtype=np.intp).reshape(len(units), len(elements))  # at[x, g] = act(x, g)
    wrong = np.flatnonzero(at[:, identity] != np.arange(len(units)))
    if len(wrong):
        raise InputError(f"action identity law fails at {units[wrong[0]]!r}")
    wrong = np.argwhere(at[at] != at[:, mul])  # act(act(x, g), h) against act(x, g h)
    if len(wrong):
        x, g, h = wrong[0]
        raise InputError("action compatibility fails at "
                         f"(x={units[x]!r}, g={elements[g]!r}, h={elements[h]!r}): "
                         f"act(act(x,g),h) != act(x, g*h)")

    source, n = at[:, inv].ravel(), len(elements)  # the arrow (x, g) starts at act(x, inv g)
    x, g, h = np.indices(at.shape + (n,)).reshape(3, -1)
    return from_index_tables(
        units, np.arange(len(source)), source, np.repeat(np.arange(len(units)), n),
        source * n + np.tile(inv, len(units)),
        np.arange(len(units)) * n + identity,
        x * n + g, source[x * n + g] * n + h, x * n + mul[h, g])


def disjoint_union(pieces):
    """Disjoint union of groupoids with pairwise disjoint unit sets.

    Arrow ids are renumbered densely, piece after piece in input order.
    """
    pieces = list(pieces)
    units = tuple(x for G in pieces for x in G.units)
    if len(set(units)) != len(units):
        raise InputError("pieces of a disjoint union share units")
    return from_index_tables(units, np.arange(sum(G.n_arrows() for G in pieces)), *union_tables(
        (G.table.index_tables, G.n_units(), G.n_arrows()) for G in pieces))


def direct_product(A, B):
    """Direct product groupoid over the product unit set.

    The arrow pair (g, h) gets id index(g) * |arrows B| + index(h), with
    indices taken in each factor's ascending id order.
    """
    return from_index_tables(tuple(itertools.product(A.units, B.units)),
                             np.arange(A.n_arrows() * B.n_arrows()),
                             *product_tables(A.table.index_tables, B.table.index_tables,
                                             B.n_units(), B.n_arrows()))


def relabel_units(G, mapping):
    """A copy of G with units renamed through ``mapping`` (a bijection)."""
    mapping = dict(mapping)
    if set(mapping) != set(G.units) or len(set(mapping.values())) != len(G.units):
        raise InputError("relabelling must be a bijection defined on all units")
    return from_index_tables((mapping[x] for x in G.units), G.arrows, *G.table.index_tables)


def permute_arrow_ids(G, perm):
    """A copy of G with arrow ids renamed through ``perm`` (a bijection)."""
    perm = dict(perm)
    if set(perm) != set(G.arrows) or len(set(perm.values())) != len(G.arrows):
        raise InputError("permutation must be a bijection defined on all arrows")
    return from_index_tables(G.units, [perm[g] for g in G.arrows], *G.table.index_tables)


# -- morphisms --------------------------------------------------------------


class GroupoidMorphism:
    """A morphism of finite groupoids given by unit and arrow maps."""

    def __init__(self, source, target, unit_map, arrow_map):
        self.source = source
        self.target = target
        self.unit_map = dict(unit_map)
        self.arrow_map = dict(arrow_map)

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
            if self.unit_map[x] not in T.units:
                continue  # reported above
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

    def __repr__(self):
        return (f"GroupoidMorphism({self.source!r} -> {self.target!r})")
