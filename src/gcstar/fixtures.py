"""Canonical small instances used by the tests, the suite, and the CLI fixtures."""

from __future__ import annotations

from .bandops import BandOperator
from .gluing import GluingFamily, family_from_reductions
from .groupoid import (FiniteGroup, FiniteGroupoid, action_groupoid,
                       disjoint_union, group_groupoid, pair_groupoid,
                       reduction)
from .models import ModelOperatorSpec


def pair3():
    return pair_groupoid(["1", "2", "3"])


def pair2():
    return pair_groupoid(["1", "2"])


def z2_groupoid(unit="3"):
    return group_groupoid(FiniteGroup.cyclic(2), unit=unit)


def z3_groupoid(unit="z"):
    return group_groupoid(FiniteGroup.cyclic(3), unit=unit)


def disjoint_pair_z2():
    """Pair groupoid on {1, 2} next to a two-element group over {3}."""
    return disjoint_union([pair_groupoid(["1", "2"]), z2_groupoid("3")])


def swap_action():
    """The two-element group swapping two points; isomorphic to a pair groupoid."""
    Z2 = FiniteGroup.cyclic(2)
    act = {("a", 0): "a", ("a", 1): "b", ("b", 0): "b", ("b", 1): "a"}
    return action_groupoid(["a", "b"], Z2, act)


def trivial_action_two_points():
    Z2 = FiniteGroup.cyclic(2)
    act = {("p", 0): "p", ("p", 1): "p", ("q", 0): "q", ("q", 1): "q"}
    return action_groupoid(["p", "q"], Z2, act)


def broken_pair3():
    """Pair groupoid with one composition entry redirected to a wrong arrow."""
    G = pair3()
    table = dict(G.compose_table)
    g, h = None, None
    for (a, b), k in table.items():
        if a != k and b != k and G.dom[a] != G.ran[a]:
            g, h = a, b
            break
    wrong = next(x for x in G.arrows if x != table[(g, h)])
    table[(g, h)] = wrong
    return FiniteGroupoid(G.units, G.dom, G.ran, G.inverse, G.unit_arrow, table)


def nested_family():
    """Two overlapping charts of one pair groupoid; identity overlap maps."""
    return family_from_reductions(pair3(), [{"1", "2", "3"}, {"2", "3"}])


def faulty_family():
    """The nested family with one overlap map replaced by a unit swap."""
    base = nested_family()
    overlap = reduction(base.pieces[0], {"2", "3"})
    swap = {"2": "3", "3": "2"}
    maps = {pair: phi.arrow_map for pair, phi in base.isos.items()}
    maps[(0, 1)] = {g: overlap.hom(swap[overlap.dom[g]], swap[overlap.ran[g]])[0]
                    for g in overlap.arrows}
    return GluingFamily(base.cover, base.pieces, maps)


def unliftable_family():
    """Pair groupoids over {1,2} and {2,3}: composable cross pairs cannot lift."""
    return family_from_reductions(pair3(), [{"1", "2"}, {"2", "3"}])


def disjoint_cover_family():
    return family_from_reductions(disjoint_pair_z2(), [{"1", "2"}, {"3"}])


def bmodel_family():
    """A boundary collar with isotropy glued to an interior pair groupoid.

    The collar is the action groupoid of the two-element group on
    {b, i1, i2} fixing the endpoint b and swapping the interior points; the
    interior piece is the pair groupoid on {i1, i2, i3}.  Their overlap
    reductions are both the pair groupoid on {i1, i2}.
    """
    Z2 = FiniteGroup.cyclic(2)
    act = {("b", 0): "b", ("b", 1): "b",
           ("i1", 0): "i1", ("i1", 1): "i2",
           ("i2", 0): "i2", ("i2", 1): "i1"}
    collar = action_groupoid(["b", "i1", "i2"], Z2, act)
    interior = pair_groupoid(["i1", "i2", "i3"])
    src = reduction(collar, {"i1", "i2"})
    dst = reduction(interior, {"i1", "i2"})
    arrow_map = {g: dst.hom(src.dom[g], src.ran[g])[0] for g in src.arrows}
    return GluingFamily(
        [{"b", "i1", "i2"}, {"i1", "i2", "i3"}],
        [collar, interior],
        {(0, 1): arrow_map, (1, 0): {img: g for g, img in arrow_map.items()}},
    )


def laplacian_band():
    """The free lattice Laplacian: offsets (-1, 0, 1) with (1, -2, 1)."""
    return BandOperator.toeplitz({-1: 1.0, 0: -2.0, 1: 1.0})


def shifted_laplacian_band():
    """Laplacian plus a potential with limits -1 and +5: Fredholm, margins 1."""
    return BandOperator.from_limits({-1: (1, 1), 0: (-3, 3), 1: (1, 1)},
                                    core={0: {0: -2.0, 1: 1.5}})


def b_model_spec(shift=1.0, **grid):
    return ModelOperatorSpec("b", coefficients=(shift, 0.0, 1.0), **grid)


def cusp_model_spec(shift=1.0, **parameters):
    return ModelOperatorSpec("cusp", coefficients=(shift, 0.0, 1.0), **parameters)


def scattering_model_spec(shift=1.0, **grid):
    return ModelOperatorSpec("scattering", coefficients=(shift, 0.0, 1.0), **grid)
