"""Seeded random instances for property tests and the verification suite.

Every generator takes a numpy Generator; identical seeds give identical
instances.  Random groupoids are disjoint unions of transitive pieces, each
a pair groupoid times a cyclic isotropy group, with unit labels and arrow
ids shuffled afterwards so nothing downstream can lean on the construction
order.  Only cyclic isotropy is drawn, so the draws cover the finite
groupoids with cyclic isotropy groups, not all of them (item 3 of ROADMAP.md).
"""

from __future__ import annotations

import numpy as np

from .bandops import BandOperator, Diagonal
from .convolution import ArrowFunction
from .groupoid import (FiniteGroup, direct_product, disjoint_union,
                       group_groupoid, pair_groupoid, permute_arrow_ids,
                       relabel_units)


def rng_from_seed(seed):
    return np.random.default_rng(seed)


def random_groupoid(rng, max_units=12, max_arrows=60, max_orbit=4, max_isotropy=4):
    """A random finite groupoid within the unit and arrow budgets."""
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
            # shrink until something fits
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


def random_subset(rng, G, nonempty=True):
    units = list(G.units)
    keep = [x for x in units if rng.random() < 0.5]
    if nonempty and not keep:
        keep = [units[int(rng.integers(0, len(units)))]]
    return frozenset(keep)


def random_admissible_cover(rng, G, max_sets=3):
    """Unit subsets whose saturations cover the unit space.

    At least one member of every orbit appears in some subset, which is
    exactly the admissibility condition.
    """
    from .groupoid import orbits

    count = int(rng.integers(1, max_sets + 1))
    cover = [set() for _ in range(count)]
    for orb in orbits(G):
        members = sorted(orb, key=G.units.index)
        pick = members[int(rng.integers(0, len(members)))]
        cover[int(rng.integers(0, count))].add(pick)
    for x in G.units:
        if rng.random() < 0.3:
            cover[int(rng.integers(0, count))].add(x)
    return [frozenset(c) for c in cover if c]

def random_arrow_function(rng, G, arrows=None):
    at = np.arange(G.n_arrows()) if arrows is None else G.table.positions(arrows)
    vec = np.zeros(G.n_arrows(), dtype=complex)
    vec[at] = rng.standard_normal(len(at)) + 1j * rng.standard_normal(len(at))
    return ArrowFunction.from_vector(G, vec)


def random_core(rng, width=4, scale=1.0):
    positions = rng.choice(np.arange(-width, width + 1),
                           size=int(rng.integers(0, width + 1)), replace=False)
    return {int(i): complex(scale * rng.standard_normal()
                            + 1j * scale * rng.standard_normal())
            for i in positions}


def random_band_operator(rng, max_bandwidth=2, core_width=4):
    """A random complex band operator with eventually constant diagonals."""
    w = int(rng.integers(0, max_bandwidth + 1))
    diags = {}
    for k in range(-w, w + 1):
        lm = complex(rng.standard_normal() + 1j * rng.standard_normal())
        lp = complex(rng.standard_normal() + 1j * rng.standard_normal())
        diags[k] = Diagonal(lm, lp, tuple(random_core(rng, core_width).items()))
    return BandOperator(diags)


def random_selfadjoint_tridiagonal(rng, margin=0.25, rel_margin=0.08,
                                   core_width=6, core_scale=2.0):
    """(operator, oracle verdict, oracle data) with a guarded oracle margin.

    The oracle is closed-form: with diagonal limits a and off-diagonal
    limits b at each end, the limit symbols have ranges
    [a - 2|b|, a + 2|b|], and the operator is Fredholm exactly when neither
    interval contains zero.  Instances whose intervals come within
    ``margin`` of the boundary case -- absolutely, or relative to the
    coefficient scale -- are resampled, so verdicts are stable under the
    numerical tolerances and the finite-section windows.
    """
    while True:
        a = rng.normal(0.0, 2.0, size=2)
        b = rng.normal(0.0, 1.0, size=2) + 1j * rng.normal(0.0, 1.0, size=2)
        intervals = [(a[i] - 2 * abs(b[i]), a[i] + 2 * abs(b[i])) for i in range(2)]
        # signed distance of 0 from each interval: positive outside, negative inside
        distances = []
        for lo, hi in intervals:
            if 0.0 < lo:
                distances.append(lo)
            elif 0.0 > hi:
                distances.append(-hi)
            else:
                distances.append(-min(hi, -lo))
        scale_proxy = max(abs(a[i]) + 2 * abs(b[i]) for i in range(2))
        guard = max(margin, rel_margin * scale_proxy)
        if any(abs(d) < guard for d in distances):
            continue
        fredholm = all(d > 0 for d in distances)
        break

    diag = BandOperator({0: Diagonal(a[0], a[1],
                                     tuple({int(i): float(core_scale * rng.standard_normal())
                                            for i in range(-core_width, core_width)
                                            if rng.random() < 0.4}.items()))})
    upper = BandOperator({1: Diagonal(b[0], b[1],
                                      tuple(random_core(rng, core_width, core_scale).items()))})
    A = diag + upper + upper.adjoint()
    oracle = {
        "intervals": intervals,
        "distances": distances,
        "sided": (distances[0] > 0, distances[1] > 0),
    }
    return A, fredholm, oracle


def random_core_perturbation(rng, A, width=5, scale=3.0):
    """A finite-support perturbation of A (limits untouched)."""
    bump = {}
    for k in list(A.diagonals) or [0]:
        bump[k] = Diagonal(0.0, 0.0, tuple(random_core(rng, width, scale).items()))
    return A + BandOperator(bump)
