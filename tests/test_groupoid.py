import itertools
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcstar.errors import InputError
from gcstar.groupoid import (FiniteGroup, FiniteGroupoid, GroupoidMorphism,
                             action_groupoid, direct_product, disjoint_union,
                             group_groupoid, is_invariant, isotropy, orbits,
                             pair_groupoid, permute_arrow_ids, reduction,
                             relabel_units, saturation, validate)
from gcstar.fixtures import broken_pair3, swap_action, trivial_action_two_points
from gcstar.randgen import random_groupoid, random_subset, rng_from_seed


def test_validate_pair_groupoid_clean():
    assert validate(pair_groupoid(["1", "2", "3"])).ok


def test_validate_redirected_composition_lists_associativity():
    report = validate(broken_pair3())
    assert not report.ok
    assert report.lines() == (
        "[product-endpoints] 1*3 = 1 has wrong endpoints",
        "[inverse-law] 1*1^-1 != u(ran(1))",
        "[inverse-law] 3^-1*3 != u(dom(3))",
        "[associativity] (1*3)*0 = None but 1*(3*0) = 1",
        "[associativity] (1*3)*1 = None but 1*(3*1) = 1",
        "[associativity] (1*3)*2 = None but 1*(3*2) = 2",
        "[associativity] (1*5)*6 = 0 but 1*(5*6) = 1",
        "[associativity] (2*7)*3 = 1 but 2*(7*3) = 0",
        "[associativity] (3*1)*3 = 3 but 3*(1*3) = 4",
        "[associativity] (6*1)*3 = 6 but 6*(1*3) = 7",
    )


def _mutated(G, inverse=(), unit_arrow=(), compose=(), drop=None):
    inverse = {**G.inverse, **dict(inverse)}
    unit_arrow = {**G.unit_arrow, **dict(unit_arrow)}
    table = {**G.compose_table, **dict(compose)}
    if drop is not None:
        del table[drop]
    return FiniteGroupoid(G.units, G.dom, G.ran, inverse, unit_arrow, table)


# pair(1, 2): arrows 0 and 3 are units, 1: 2 -> 1 and 2: 1 -> 2 are inverse;
# Z3 over one unit: arrow k is k mod 3
_P2, _Z3 = pair_groupoid(["1", "2"]), group_groupoid(FiniteGroup.cyclic(3))


@pytest.mark.parametrize("bad, first", [
    (_mutated(_P2, inverse={1: 9}),
     "[tables] inverse entry 1->9 references unknown arrows"),
    (_mutated(_P2, unit_arrow={"1": 3}),
     "[unit-endpoints] unit arrow 3 of '1' has endpoints ('2','2')"),
    (_mutated(_Z3, inverse={2: 0}),
     "[inverse-involution] inverse(inverse(1)) = 0"),
    (_mutated(_P2, inverse={1: 1}),
     "[inverse-endpoints] inverse(1) = 1 does not swap endpoints"),
    (_mutated(_P2, compose={(1, 1): 0}),
     "[compose-domain] (1,1) is in the table but dom(1) != ran(1)"),
    (_mutated(_P2, drop=(1, 2)),
     "[compose-domain] (1,2) is composable but not in the table"),
    (_mutated(_P2, compose={(1, 2): 3}),
     "[product-endpoints] 1*2 = 3 has wrong endpoints"),
    (_mutated(_Z3, compose={(0, 1): 2}),
     "[unit-law] u(ran)*1 != 1"),
    (_mutated(_Z3, compose={(1, 0): 2}),
     "[unit-law] 1*u(dom) != 1"),
    (_mutated(_Z3, inverse={1: 1, 2: 2}),
     "[inverse-law] 1*1^-1 != u(ran(1))"),
    (_mutated(_Z3, compose={(1, 1): 0}),
     "[associativity] (1*1)*2 = 2 but 1*(1*2) = 1"),
    (_mutated(_P2, unit_arrow={"ghost": 0}),
     "[tables] unit arrow given for 'ghost', which is not a unit"),
    (_mutated(_P2, compose={(1, 2): 9}),
     "[tables] compose entry (1,2)->9 references unknown arrows"),
])
def test_validate_reports_each_rule(bad, first):
    assert validate(_P2).ok and validate(_Z3).ok
    report = validate(bad)
    assert report.lines()[0] == first
    assert str(report.violations[0]) == first


def test_validate_lists_every_table_fault_in_table_order():
    bad = _mutated(_P2, inverse={1: 9}, compose={(7, 2): 1, (1, 2): 8})
    assert validate(bad).lines() == (
        "[tables] inverse entry 1->9 references unknown arrows",
        "[tables] compose entry (1,2)->8 references unknown arrows",
        "[tables] compose entry (7,2)->1 references unknown arrows",
    )
    # unit faults come between the inverse and the compose faults
    bad = FiniteGroupoid(_P2.units, _P2.dom, _P2.ran, {**_P2.inverse, 1: 9},
                         {"ghost": 0, "2": 7}, {**_P2.compose_table, (1, 2): 8})
    assert validate(bad).lines() == (
        "[tables] inverse entry 1->9 references unknown arrows",
        "[tables] unit '1' has no unit arrow",
        "[tables] unit arrow of '2' is not an arrow",
        "[tables] unit arrow given for 'ghost', which is not a unit",
        "[tables] compose entry (1,2)->8 references unknown arrows",
    )


@pytest.mark.parametrize("side", ["dom", "ran"])
def test_constructor_refuses_an_endpoint_outside_the_units(side):
    tables = {"dom": dict(_P2.dom), "ran": dict(_P2.ran)}
    tables[side][1] = "ghost"
    with pytest.raises(InputError, match="arrow 1 has an endpoint outside the unit set"):
        FiniteGroupoid(_P2.units, tables["dom"], tables["ran"], _P2.inverse,
                       _P2.unit_arrow, _P2.compose_table)


def test_validate_swap_action_groupoid_clean():
    assert validate(swap_action()).ok


def test_validate_unit_law_fault():
    G = pair_groupoid(["1", "2"])
    inverse = dict(G.inverse)
    inverse[1] = 1  # (1,2) declared self-inverse
    bad = FiniteGroupoid(G.units, G.dom, G.ran, inverse, G.unit_arrow,
                         G.compose_table)
    report = validate(bad)
    assert not report.ok
    assert any(v.rule in ("inverse-endpoints", "inverse-law")
               for v in report.violations)


def test_reduction_of_pair_groupoid():
    G = pair_groupoid(["1", "2", "3"])
    R = reduction(G, {"1", "2"})
    assert set(R.units) == {"1", "2"}
    assert R.n_arrows() == 4
    assert validate(R).ok


def test_reduction_full_is_same_groupoid():
    G = pair_groupoid(["1", "2", "3"])
    R = reduction(G, set(G.units))
    assert R.units == G.units
    assert R.compose_table == G.compose_table


def test_reduction_of_swap_action_to_one_point_is_trivial():
    A = swap_action()
    R = reduction(A, {"a"})
    assert R.n_units() == 1 and R.n_arrows() == 1
    assert R.is_unit_arrow(R.arrows[0])


def test_reduction_rejects_strangers():
    with pytest.raises(InputError):
        reduction(pair_groupoid(["1"]), {"zz"})


def test_saturation_examples():
    P = pair_groupoid(["1", "2", "3"])
    assert saturation(P, {"1"}) == {"1", "2", "3"}
    D = disjoint_union([pair_groupoid(["1", "2"]),
                        group_groupoid(FiniteGroup.cyclic(2), unit="3")])
    assert saturation(D, {"3"}) == {"3"}
    assert saturation(swap_action(), {"a"}) == {"a", "b"}


def test_is_invariant_examples():
    P = pair_groupoid(["1", "2"])
    assert not is_invariant(P, {"1"})
    assert is_invariant(P, set(P.units))
    D = disjoint_union([pair_groupoid(["1", "2"]),
                        group_groupoid(FiniteGroup.cyclic(2), unit="3")])
    assert is_invariant(D, {"3"})


def test_orbits_and_isotropy_examples():
    P = pair_groupoid(["1", "2", "3"])
    assert orbits(P) == (frozenset({"1", "2", "3"}),)
    assert len(isotropy(P, "1")) == 1

    Z3 = group_groupoid(FiniteGroup.cyclic(3), unit="z")
    assert orbits(Z3) == (frozenset({"z"}),)
    assert isotropy(Z3, "z").order_profile() == (1, 3, 3)

    T = trivial_action_two_points()
    assert set(orbits(T)) == {frozenset({"p"}), frozenset({"q"})}
    assert len(isotropy(T, "p")) == 2
    assert len(isotropy(T, "q")) == 2


def test_action_groupoid_trivial_z3_is_group():
    Z3 = FiniteGroup.cyclic(3)
    A = action_groupoid(["p"], Z3, lambda x, g: x)
    assert validate(A).ok
    assert A.n_units() == 1 and A.n_arrows() == 3
    assert isotropy(A, "p").order_profile() == (1, 3, 3)


def test_action_groupoid_rejects_broken_action():
    Z2 = FiniteGroup.cyclic(2)
    # not a bijection for the nontrivial element: both points map to "a"
    act = {("a", 0): "a", ("b", 0): "b", ("a", 1): "a", ("b", 1): "a"}
    with pytest.raises(InputError, match="compatibility"):
        action_groupoid(["a", "b"], Z2, act)


def test_action_groupoid_rejects_broken_identity():
    Z2 = FiniteGroup.cyclic(2)
    act = {("a", 0): "b", ("b", 0): "a", ("a", 1): "b", ("b", 1): "a"}
    with pytest.raises(InputError, match="identity"):
        action_groupoid(["a", "b"], Z2, act)


def test_trivial_two_point_action_is_two_group_copies():
    from gcstar.isosearch import groupoid_isomorphism

    T = trivial_action_two_points()
    Z2 = FiniteGroup.cyclic(2)
    target = disjoint_union([group_groupoid(Z2, unit="p"),
                             group_groupoid(Z2, unit="q")])
    phi = groupoid_isomorphism(T, target)
    assert phi is not None and phi.check() == []


def test_saturation_rejects_strangers():
    with pytest.raises(InputError):
        saturation(pair_groupoid(["1"]), {"zz"})


def test_direct_product_and_disjoint_union_validate():
    G = direct_product(pair_groupoid(["x", "y"]),
                       group_groupoid(FiniteGroup.cyclic(2)))
    assert validate(G).ok
    assert G.n_arrows() == 8
    D = disjoint_union([pair_groupoid(["1", "2"]), pair_groupoid(["3"])])
    assert validate(D).ok
    assert D.n_arrows() == 5


def test_relabel_units_preserves_structure():
    G = pair_groupoid(["1", "2"])
    H = relabel_units(G, {"1": "a", "2": "b"})
    assert validate(H).ok
    assert set(H.units) == {"a", "b"}
    assert H.compose_table == G.compose_table


def test_morphism_identity_checks_clean():
    G = swap_action()
    phi = GroupoidMorphism.identity(G)
    assert phi.check() == []
    assert phi.is_isomorphism()
    composed = phi.then(phi)
    assert composed.arrow_map == phi.arrow_map
    assert composed.inverse_morphism().unit_map == phi.unit_map


def test_morphism_check_reports_a_unit_outside_the_target():
    P = pair_groupoid(["1", "2"])
    phi = GroupoidMorphism(P, P, {"1": "1", "2": "zz"}, {g: g for g in P.arrows})
    assert "unit '2' maps outside the target units" in phi.check()
    assert not phi.is_isomorphism()


def test_pairs_by_right_sorts_the_composable_pairs_read_only():
    rng = rng_from_seed(52)
    for _ in range(10):
        T = random_groupoid(rng, max_arrows=30).table
        left, right, composite = T.pairs_by_right
        assert sorted(zip(T.right.tolist(), T.left.tolist(), T.composite.tolist())) \
            == list(zip(right.tolist(), left.tolist(), composite.tolist()))
        assert T.pairs_by_right is T.pairs_by_right
        assert not any(table.flags.writeable for table in T.pairs_by_right)
        assert (T.product[left, right] == composite).all()


def test_isotropy_groups_satisfy_group_axioms():
    rng = rng_from_seed(45)
    for _ in range(10):
        G = random_groupoid(rng, max_arrows=30)
        for x in G.units:
            assert isotropy(G, x).check() == []


def test_klein_four_group_table():
    K = FiniteGroup.klein_four()
    assert K.check() == []
    assert K.order_profile() == (1, 2, 2, 2)


def test_randomized_saturation_and_reduction_properties():
    rng = rng_from_seed(42)
    for _ in range(30):
        G = random_groupoid(rng)
        assert validate(G).ok
        U = random_subset(rng, G)
        W = saturation(G, U)
        # idempotent, monotone, and a union of orbits containing U
        assert saturation(G, W) == W
        assert U <= W
        for orb in orbits(G):
            assert orb <= W or not (orb & W)
        bigger = U | random_subset(rng, G)
        assert W <= saturation(G, bigger)
        # reduction composes
        A = random_subset(rng, G)
        B = frozenset(x for x in A if rng.random() < 0.6)
        if B:
            R1 = reduction(reduction(G, A), B)
            R2 = reduction(G, B)
            assert R1.units == R2.units
            assert R1.compose_table == R2.compose_table


def test_action_groupoids_orbit_and_stabilizer_structure():
    cases = []
    for k in (2, 3, 4):
        H = FiniteGroup.cyclic(k)
        units = [f"p{i}" for i in range(k)]
        rotation = {(units[i], g): units[(i + g) % k]
                    for i in range(k) for g in H.elements}
        cases.append((units, H, rotation))
        trivial = {(x, g): x for x in units for g in H.elements}
        cases.append((units, H, trivial))
    # a mixed action: a fixed point next to a swapped pair
    Z2 = FiniteGroup.cyclic(2)
    mixed_units = ["f", "s1", "s2"]
    mixed = {("f", 0): "f", ("f", 1): "f", ("s1", 0): "s1", ("s1", 1): "s2",
             ("s2", 0): "s2", ("s2", 1): "s1"}
    cases.append((mixed_units, Z2, mixed))

    for units, H, act in cases:
        A = action_groupoid(units, H, act)
        assert validate(A).ok
        assert A.n_arrows() == len(units) * len(H)
        for x in units:
            orbit = {act[(x, g)] for g in H.elements}
            assert orbit == next(o for o in orbits(A) if x in o)
            stabilizer = sum(1 for g in H.elements if act[(x, g)] == x)
            assert len(isotropy(A, x)) == stabilizer


def test_counting_measure_right_invariance_by_bijection_replay():
    rng = rng_from_seed(44)
    for _ in range(10):
        G = random_groupoid(rng, max_arrows=30)
        for g in G.arrows:
            image = [G.compose(h, g) for h in G.fiber(G.ran[g])]
            assert sorted(image) == sorted(G.fiber(G.dom[g]))


def symmetric_group_3():
    elements = list(itertools.permutations(range(3)))
    table = {(a, b): tuple(a[b[i]] for i in range(3))
             for a in elements for b in elements}
    return FiniteGroup.from_table(elements, table, (0, 1, 2))


def _draws(seed, count):
    """Random groupoids, then pair(3) x S3 (non-abelian isotropy)."""
    rng = rng_from_seed(seed)
    draws = [random_groupoid(rng, max_arrows=40) for _ in range(count)]
    draws.append(direct_product(pair_groupoid(["1", "2", "3"]),
                                group_groupoid(symmetric_group_3())))
    return rng, draws


def test_reductions_validate():
    rng, draws = _draws(46, 20)
    for G in draws:
        assert validate(G).ok
        for _ in range(3):
            assert validate(reduction(G, random_subset(rng, G))).ok


def _holds_no_dict(obj):
    return not any(isinstance(v, Mapping) for v in vars(obj).values())


def test_integer_table_matches_the_dict_tables():
    rng, draws = _draws(47, 10)
    draws += [reduction(draws[0], random_subset(rng, draws[0])), swap_action(),
              relabel_units(draws[1], {x: ("r", x) for x in draws[1].units})]
    for G in draws:
        # built from arrays: no dict until one is read, neither view nor index
        assert _holds_no_dict(G) and _holds_no_dict(G.table)
        assert isinstance(G.dom, Mapping) and "dom" in vars(G)
        assert not {"ran", "inverse", "unit_arrow", "compose_table"} & set(vars(G))
        T = G.table
        assert T is G.table
        pos = {g: i for i, g in enumerate(G.arrows)}
        assert T.position == pos
        assert list(T.positions(reversed(G.arrows))) == list(range(G.n_arrows()))[::-1]
        assert [G.units[i] for i in T.dom] == [G.dom[g] for g in G.arrows]
        assert [G.units[i] for i in T.ran] == [G.ran[g] for g in G.arrows]
        assert [G.arrows[i] for i in T.inverse] == [G.inverse[g] for g in G.arrows]
        assert [G.arrows[i] for i in T.unit] == [G.unit_arrow[x] for x in G.units]
        for i, g in enumerate(G.arrows):
            for j, h in enumerate(G.arrows):
                k = G.try_compose(g, h)
                assert T.product[i, j] == (-1 if k is None else pos[k])


def test_integer_table_refuses_unknown_arrows():
    bad = _mutated(_P2, compose={(1, 2): 9})
    with pytest.raises(InputError, match="unknown arrow"):
        bad.table


def reference_associativity(G):
    """The associativity lines of validate(G), one gather per middle arrow h
    over the table entries (g, h) and the arrows k with ran k = dom h."""
    T, ids = G.table, G.arrows
    P, defined = T.product, T.product >= 0
    failures = []
    for j in range(len(ids)):
        gs, ks = defined[:, j].nonzero()[0], np.flatnonzero(T.ran == T.dom[j])
        hk = P[j, ks]
        first = P[P[gs, j][:, None], ks]
        second = np.where(hk >= 0, P[gs[:, None], hk], -1)
        failures += [(gs[a], j, ks[b], first[a, b], second[a, b])
                     for a, b in zip(*(first != second).nonzero())]
    rank = {pair: r for r, pair in enumerate(G.compose_table)}
    failures.sort(key=lambda t: (rank[(ids[t[0]], ids[t[1]])], t[2]))
    lines = []
    for i, j, k, first, second in failures:
        first, second = (ids[p] if p >= 0 else None for p in (first, second))
        lines.append(f"[associativity] ({ids[i]}*{ids[j]})*{ids[k]} = {first} "
                     f"but {ids[i]}*({ids[j]}*{ids[k]}) = {second}")
    return lines


def _random_mutant(rng, G):
    """G with one to three faults: rewired or added products, deleted
    entries, bad inverses or bad unit arrows, all naming existing arrows."""
    arrows, pairs = list(G.arrows), list(G.compose_table)
    inverse, unit_arrow, compose, drop = {}, {}, {}, None
    for kind in rng.integers(0, 5, size=int(rng.integers(1, 4))):
        g = arrows[rng.integers(len(arrows))]
        if kind == 0:
            compose[pairs[rng.integers(len(pairs))]] = g
        elif kind == 1:
            compose[(g, arrows[rng.integers(len(arrows))])] = arrows[rng.integers(len(arrows))]
        elif kind == 2:
            drop = pairs[rng.integers(len(pairs))]
        elif kind == 3:
            inverse[g] = arrows[rng.integers(len(arrows))]
        else:
            unit_arrow[G.units[rng.integers(G.n_units())]] = g
    if drop in compose:
        drop = None
    return _mutated(G, inverse, unit_arrow, compose, drop)


def test_associativity_gathers_match_the_per_arrow_reference():
    rng, draws = _draws(48, 12)
    # one unit (runs of one middle arrow), and pair(2) x Z4, whose units hold
    # two runs of four middle arrows each
    draws += [group_groupoid(FiniteGroup.cyclic(6)),
              direct_product(pair_groupoid(["1", "2"]),
                             group_groupoid(FiniteGroup.cyclic(4)))]
    broken = 0
    for trial in range(330):
        bad = _random_mutant(rng, draws[trial % len(draws)])
        lines = validate(bad).lines()
        others = [line for line in lines if not line.startswith("[associativity]")]
        expected = others + reference_associativity(bad)
        assert list(lines) == (expected or ["all groupoid axioms hold"])
        broken += any(line.startswith("[associativity]") for line in lines)
    assert broken >= 150


def test_validate_memory_stays_within_the_product_table_scale():
    G = group_groupoid(FiniteGroup.cyclic(96))
    tracemalloc.start()
    try:
        assert validate(G).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


# -- the builders against their dict definitions ------------------------------
# Each reference is the dict walk the builder is defined by; the dict
# constructor resolves it into index tables, and both must agree.


def ref_reduction(G, A):
    A = frozenset(A)
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


def ref_disjoint_union(pieces):
    units, dom, ran, inverse, unit_arrow, compose = [], {}, {}, {}, {}, {}
    offset = 0
    for G in pieces:
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


def ref_direct_product(A, B):
    aidx = {g: i for i, g in enumerate(A.arrows)}
    bidx = {h: i for i, h in enumerate(B.arrows)}

    def pid(g, h):
        return aidx[g] * B.n_arrows() + bidx[h]

    units = tuple((x, y) for x in A.units for y in B.units)
    pairs = list(enumerate(itertools.product(A.arrows, B.arrows)))
    return FiniteGroupoid(
        units, {a: (A.dom[g], B.dom[h]) for a, (g, h) in pairs},
        {a: (A.ran[g], B.ran[h]) for a, (g, h) in pairs},
        {a: pid(A.inverse[g], B.inverse[h]) for a, (g, h) in pairs},
        {(x, y): pid(A.unit_arrow[x], B.unit_arrow[y]) for (x, y) in units},
        {(pid(g1, g2), pid(h1, h2)): pid(k1, k2) for (g1, h1), k1 in A.compose_table.items()
         for (g2, h2), k2 in B.compose_table.items()})


def ref_relabel_units(G, mapping):
    return FiniteGroupoid(
        units=tuple(mapping[x] for x in G.units),
        dom={g: mapping[G.dom[g]] for g in G.arrows},
        ran={g: mapping[G.ran[g]] for g in G.arrows},
        inverse=G.inverse,
        unit_arrow={mapping[x]: a for x, a in G.unit_arrow.items()},
        compose=G.compose_table,
    )


def ref_permute_arrow_ids(G, perm):
    return FiniteGroupoid(
        units=G.units,
        dom={perm[g]: G.dom[g] for g in G.arrows},
        ran={perm[g]: G.ran[g] for g in G.arrows},
        inverse={perm[g]: perm[gi] for g, gi in G.inverse.items()},
        unit_arrow={x: perm[a] for x, a in G.unit_arrow.items()},
        compose={(perm[g], perm[h]): perm[k] for (g, h), k in G.compose_table.items()},
    )


def ref_action_groupoid(units, group, action):
    uidx = {x: i for i, x in enumerate(units)}
    gidx = {g: i for i, g in enumerate(group.elements)}

    def aid(x, g):
        return uidx[x] * len(group) + gidx[g]

    dom, ran, inverse, compose = {}, {}, {}, {}
    for x in units:
        for g in group.elements:
            a, y = aid(x, g), action[(x, group.inv(g))]
            ran[a], dom[a], inverse[a] = x, y, aid(y, group.inv(g))
            for h in group.elements:
                compose[(a, aid(y, h))] = aid(x, group.mul(h, g))
    return FiniteGroupoid(units, dom, ran, inverse,
                          {x: aid(x, group.identity) for x in units}, compose)


def tables(G):
    """Units, arrows and every view in its item order."""
    return (G.units, G.arrows, list(G.dom.items()), list(G.ran.items()),
            list(G.inverse.items()), list(G.unit_arrow.items()),
            list(G.compose_table.items()))


def _random_action(rng, non_abelian):
    """A right action: S3 permuting three points (x.g = g^-1(x)) beside two
    fixed points, or Z_k turning orbits Z_m (m | k) and fixing points."""
    if non_abelian:
        S3 = symmetric_group_3()
        return S3, {(x, g): (g.index(x) if x in (0, 1, 2) else x)
                    for x in (0, 1, 2, "a", "b") for g in S3.elements}
    k = int(rng.integers(1, 7))
    sizes = rng.choice([m for m in range(1, k + 1) if k % m == 0], size=int(rng.integers(1, 4)))
    Zk = FiniteGroup.cyclic(k)
    return Zk, {((i, r), g): (i, (r + g) % m) for i, m in enumerate(sizes.tolist())
                for r in range(m) for g in Zk.elements}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_every_builder_gives_the_tables_of_its_dict_definition(seed, non_abelian):
    rng = rng_from_seed(seed)
    G = (direct_product(pair_groupoid(["1", "2", "3"]), group_groupoid(symmetric_group_3()))
         if non_abelian else random_groupoid(rng, max_arrows=40))
    H = random_groupoid(rng, max_units=3, max_arrows=8)
    H = relabel_units(H, {x: ("h", x) for x in H.units})
    A = random_subset(rng, G, nonempty=False)
    pieces = [G, FiniteGroupoid((), {}, {}, {}, {}, {}), H]
    mapping = dict(zip(G.units, (f"n{i}" for i in rng.permutation(G.n_units()))))
    perm = dict(zip(G.arrows, rng.choice(10 * G.n_arrows(), G.n_arrows(), replace=False).tolist()))
    cases = [(reduction(G, A), ref_reduction(G, A)),
             (disjoint_union(pieces), ref_disjoint_union(pieces)),
             (direct_product(H, G), ref_direct_product(H, G)),
             (direct_product(G, H), ref_direct_product(G, H)),
             (relabel_units(G, mapping), ref_relabel_units(G, mapping)),
             (permute_arrow_ids(G, perm), ref_permute_arrow_ids(G, perm))]
    group, action = _random_action(rng, non_abelian)
    units = tuple(dict.fromkeys(x for x, _ in action))
    cases.append((action_groupoid(units, group, action), ref_action_groupoid(units, group, action)))
    for built, reference in cases:
        assert tables(built) == tables(reference)
        assert validate(built).ok
