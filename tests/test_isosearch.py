from gcstar.fixtures import swap_action
from gcstar.groupoid import (FiniteGroup, direct_product, disjoint_union,
                             group_groupoid, pair_groupoid, relabel_units,
                             permute_arrow_ids)
from gcstar.isosearch import group_isomorphism, groupoid_isomorphism
from gcstar.randgen import random_groupoid, rng_from_seed


def test_group_isomorphism_cyclic():
    A, B = FiniteGroup.cyclic(6), FiniteGroup.cyclic(6)
    iso = group_isomorphism(A, B)
    assert iso is not None
    for a in A.elements:
        for b in A.elements:
            assert iso[A.mul(a, b)] == B.mul(iso[a], iso[b])


def test_group_isomorphism_distinguishes_z4_from_klein():
    assert group_isomorphism(FiniteGroup.cyclic(4), FiniteGroup.klein_four()) is None


def test_groupoid_isomorphism_swap_action_vs_pair():
    phi = groupoid_isomorphism(swap_action(), pair_groupoid(["x", "y"]))
    assert phi is not None
    assert phi.is_isomorphism()


def test_groupoid_isomorphism_respects_isotropy():
    Z2 = group_groupoid(FiniteGroup.cyclic(2))
    assert groupoid_isomorphism(Z2, pair_groupoid(["x"])) is None
    assert groupoid_isomorphism(Z2, group_groupoid(FiniteGroup.cyclic(2), "w")) \
        is not None


def test_groupoid_isomorphism_invariant_under_relabelling():
    rng = rng_from_seed(10)
    for _ in range(10):
        G = random_groupoid(rng, max_arrows=40)
        names = {x: f"q{i}" for i, x in enumerate(reversed(G.units))}
        ids = {g: i for i, g in enumerate(sorted(G.arrows, reverse=True))}
        H = permute_arrow_ids(relabel_units(G, names), ids)
        phi = groupoid_isomorphism(G, H)
        assert phi is not None
        assert phi.check() == []


def test_product_local_isomorphism_echo():
    # a product of locally isomorphic groupoids is locally isomorphic to the
    # product, witnessed here on full reductions
    A1 = swap_action()
    H1 = pair_groupoid(["x", "y"])
    A2 = group_groupoid(FiniteGroup.cyclic(3), unit="z")
    H2 = group_groupoid(FiniteGroup.cyclic(3), unit="w")
    prod_a = direct_product(A1, A2)
    prod_h = direct_product(H1, H2)
    phi = groupoid_isomorphism(prod_a, prod_h)
    assert phi is not None and phi.check() == []
