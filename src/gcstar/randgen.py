"""Seeded random instances for property tests and the verification suite.

Every generator takes a numpy Generator; identical seeds give identical
instances.  Random groupoids are disjoint unions of transitive pieces, each
a pair groupoid times a cyclic isotropy group, with unit labels and arrow
ids shuffled afterwards so nothing downstream can lean on the construction
order.  Only cyclic isotropy is drawn, so the draws cover the finite
groupoids with cyclic isotropy groups, not all of them (see "Non-abelian
isotropy in the random draws" in ROADMAP.md).
"""

from __future__ import annotations

import functools

import numpy as np

from .bandops import BandOperator, Diagonal
from .convolution import ArrowFunction
from .groupoid import (FiniteGroup, from_index_tables, group_tables, orbits, pair_tables,
                       product_tables, union_tables)


def rng_from_seed(seed):
    return np.random.default_rng(seed)


def random_groupoid(rng, max_units=12, max_arrows=60, max_orbit=4, max_isotropy=4):
    """A random finite groupoid within the unit and arrow budgets.

    One pass assembles the draw as index tables, the groupoid's stored form:
    the pieces pair(n) x Z_k are stacked by :func:`union_tables`, and
    :func:`from_index_tables` takes them with the shuffled unit names and
    arrow ids and constructs the groupoid once.  The tables are those of
    ``disjoint_union`` of ``direct_product(pair_groupoid, group_groupoid)``
    pieces passed through ``relabel_units`` and ``permute_arrow_ids``.
    """
    pieces, used_units, used_arrows = [], 0, 0
    while True:
        n = int(rng.integers(1, max_orbit + 1))
        k = int(rng.integers(1, max_isotropy + 1))
        cost = n * n * k
        if used_units + n > max_units or used_arrows + cost > max_arrows:
            if pieces and (used_arrows >= max_arrows // 2 or rng.random() < 0.7):
                break
            n, k, cost = 1, 1, 1  # shrink until something fits
            if used_units + 1 > max_units or used_arrows + 1 > max_arrows:
                break
        pieces.append((_cyclic_piece(n, k), n, cost))
        used_units += n
        used_arrows += cost
    names = [f"x{i}" for i in range(used_units)]
    rng.shuffle(names)
    ids = np.arange(used_arrows)
    rng.shuffle(ids)
    return from_index_tables(names, ids, *union_tables(pieces))


@functools.lru_cache(maxsize=64)
def _cyclic_piece(n, k):
    """Read-only index tables of pair(n) x Z_k."""
    tables = product_tables(pair_tables(n), group_tables(FiniteGroup.cyclic(k)), 1, k)
    for table in tables:
        table.flags.writeable = False
    return tables


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
        distances = [max(lo, -hi) for lo, hi in intervals]
        scale_proxy = max(abs(a[i]) + 2 * abs(b[i]) for i in range(2))
        if all(abs(d) >= max(margin, rel_margin * scale_proxy) for d in distances):
            break
    fredholm = all(d > 0 for d in distances)

    diag = Diagonal(a[0], a[1], tuple({int(i): float(core_scale * rng.standard_normal())
                                       for i in range(-core_width, core_width)
                                       if rng.random() < 0.4}.items()))
    upper = Diagonal(b[0], b[1], tuple(random_core(rng, core_width, core_scale).items()))
    # c_{-1}(n) = conj c_1(n + 1), with a core entry at n = -1 from c_1(0)
    lower = Diagonal(upper.limit_minus.conjugate(), upper.limit_plus.conjugate(),
                     tuple((i - 1, v.conjugate()) for i, v in upper.core)
                     + ((-1, upper.value(0).conjugate()),))
    oracle = {"intervals": intervals, "distances": distances,
              "sided": (distances[0] > 0, distances[1] > 0)}
    return BandOperator({0: diag, 1: upper, -1: lower}), fredholm, oracle

