"""The random generators against their definitions by the public builders.

``random_groupoid`` and ``random_selfadjoint_tridiagonal`` assemble each
draw directly; the oracles below build the same draws the long way, from
the same rng calls in the same order, and every table, float and dict order
must agree.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcstar import groupoid
from gcstar.bandops import BandOperator, Diagonal
from gcstar.groupoid import (FiniteGroup, direct_product, disjoint_union,
                             group_groupoid, pair_groupoid, permute_arrow_ids,
                             relabel_units)
from gcstar.randgen import (random_core, random_groupoid,
                            random_selfadjoint_tridiagonal, rng_from_seed)


def composed_groupoid(rng, max_units=12, max_arrows=60, max_orbit=4, max_isotropy=4):
    """The draw as pair(n) x Z_k pieces, disjoint union, relabel, permute."""
    pieces = []
    used_units = 0
    used_arrows = 0
    while True:
        n = int(rng.integers(1, max_orbit + 1))
        k = int(rng.integers(1, max_isotropy + 1))
        cost = n * n * k
        if used_units + n > max_units or used_arrows + cost > max_arrows:
            if pieces and (used_arrows >= max_arrows // 2 or rng.random() < 0.7):
                break
            n, k = 1, 1
            cost = 1
            if used_units + 1 > max_units or used_arrows + 1 > max_arrows:
                break
        members = [f"u{used_units + i}" for i in range(n)]
        piece = pair_groupoid(members)
        if k > 1:
            piece = direct_product(piece, group_groupoid(FiniteGroup.cyclic(k)))
            piece = relabel_units(piece, {(x, "*"): x for x, _ in piece.units})
        pieces.append(piece)
        used_units += n
        used_arrows += cost
    G = disjoint_union(pieces)
    names = [f"x{i}" for i in range(G.n_units())]
    rng.shuffle(names)
    G = relabel_units(G, dict(zip(G.units, names)))
    ids = np.asarray(G.arrows)
    rng.shuffle(ids)
    return permute_arrow_ids(G, dict(zip(G.arrows, (int(i) for i in ids))))


def tables(G):
    return (G.units, G.arrows, list(G.dom.items()), list(G.ran.items()),
            list(G.inverse.items()), list(G.unit_arrow.items()),
            list(G.compose_table.items()))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 60),
       st.integers(1, 4), st.integers(1, 5))
@example(101, 12, 60, 4, 4)  # the suite's three budgets
@example(101, 12, 40, 4, 4)
@example(101, 8, 36, 4, 4)
def test_random_groupoid_is_the_composition_of_the_builders(
        seed, max_units, max_arrows, max_orbit, max_isotropy):
    budgets = dict(max_units=max_units, max_arrows=max_arrows,
                   max_orbit=max_orbit, max_isotropy=max_isotropy)
    direct, composed = rng_from_seed(seed), rng_from_seed(seed)
    for _ in range(3):
        G, H = random_groupoid(direct, **budgets), composed_groupoid(composed, **budgets)
        assert tables(G) == tables(H)
        assert {type(g) for g in G.dom} | {type(h) for h in G.inverse.values()} <= {int}
    assert direct.random() == composed.random()


def test_random_groupoid_constructs_one_groupoid(monkeypatch):
    calls = []
    store = groupoid.FiniteGroupoid._store  # every construction, from dicts or arrays

    def counted(self, *args, **kwargs):
        calls.append(1)
        store(self, *args, **kwargs)

    monkeypatch.setattr(groupoid.FiniteGroupoid, "_store", counted)
    rng = rng_from_seed(101)
    for budgets in ({}, {"max_arrows": 40}, {"max_units": 8, "max_arrows": 36}):
        for _ in range(10):
            calls.clear()
            random_groupoid(rng, **budgets)
            assert len(calls) == 1


def summed_tridiagonal(rng, margin=0.25, rel_margin=0.08, core_width=6, core_scale=2.0):
    """The operator as diag + upper + upper.adjoint() in the band arithmetic."""
    while True:
        a = rng.normal(0.0, 2.0, size=2)
        b = rng.normal(0.0, 1.0, size=2) + 1j * rng.normal(0.0, 1.0, size=2)
        intervals = [(a[i] - 2 * abs(b[i]), a[i] + 2 * abs(b[i])) for i in range(2)]
        distances = []
        for lo, hi in intervals:
            if 0.0 < lo:
                distances.append(lo)
            elif 0.0 > hi:
                distances.append(-hi)
            else:
                distances.append(-min(hi, -lo))
        scale_proxy = max(abs(a[i]) + 2 * abs(b[i]) for i in range(2))
        if any(abs(d) < max(margin, rel_margin * scale_proxy) for d in distances):
            continue
        break
    diag = BandOperator({0: Diagonal(a[0], a[1],
                                     tuple({int(i): float(core_scale * rng.standard_normal())
                                            for i in range(-core_width, core_width)
                                            if rng.random() < 0.4}.items()))})
    upper = BandOperator({1: Diagonal(b[0], b[1],
                                      tuple(random_core(rng, core_width, core_scale).items()))})
    oracle = {"intervals": intervals, "distances": distances,
              "sided": (distances[0] > 0, distances[1] > 0)}
    return diag + upper + upper.adjoint(), all(d > 0 for d in distances), oracle


def bits(A):
    """Offsets in dict order, each diagonal as reprs (so -0.0 != 0.0)."""
    return [(k, repr(d.limit_minus), repr(d.limit_plus), repr(d.core))
            for k, d in A.diagonals.items()]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 8),
       st.sampled_from([0.5, 1.0, 2.0, 3.0]))
@example(101, 6, 2.0)
def test_random_selfadjoint_tridiagonal_is_diag_plus_upper_plus_adjoint(
        seed, core_width, core_scale):
    direct, summed = rng_from_seed(seed), rng_from_seed(seed)
    for _ in range(3):
        A, fredholm, oracle = random_selfadjoint_tridiagonal(
            direct, core_width=core_width, core_scale=core_scale)
        B, expected, expected_oracle = summed_tridiagonal(
            summed, core_width=core_width, core_scale=core_scale)
        assert bits(A) == bits(B)
        assert A.bandwidth == B.bandwidth == 1
        assert fredholm == expected
        assert repr(oracle) == repr(expected_oracle)
        assert A.is_selfadjoint()
    assert direct.random() == summed.random()
