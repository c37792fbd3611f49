"""Seeded inputs, timed calls and output checks of the three workloads.

A workload is built in set-up by ``build(seed, size)`` into a list of
instances.  Each instance has ``call()``, the only code that runs inside the
timed region and which goes through gcstar's public functions, and
``check(output)``, which runs after the pass and returns ``(ok, record)``:
whether the output passed checks that do not trust the code under test,
and a deterministic record for the output digest.

gcstar functions are always looked up on their module at call time
(``spectrum.verify_spectrum_decomposition``), never bound by name here, so
the tracer's wrappers see the benchmark's own top-level calls.
"""

from __future__ import annotations

import numpy as np

from gcstar import bandops, randgen, spectrum, suite
from gcstar.bandops import BandOperator, Diagonal
from gcstar.errors import AmbiguityError, GridRefinementNeeded, InputError
from gcstar.groupoid import (FiniteGroup, direct_product, disjoint_union,
                             group_groupoid, pair_groupoid, permute_arrow_ids,
                             relabel_units)

# An operation fails when it raises one of these, when its output check
# fails, or (on ``suite``) when a criterion reports FAIL.
OPERATION_ERRORS = (AmbiguityError, GridRefinementNeeded, InputError)


# -- isotropy groups ----------------------------------------------------------


def _closure(generators, mul, identity):
    """The group generated by ``generators``, as a checked FiniteGroup."""
    elements = [identity]
    frontier = [identity]
    while frontier:
        fresh = []
        for a in frontier:
            for g in generators:
                b = mul(a, g)
                if b not in elements:
                    elements.append(b)
                    fresh.append(b)
        frontier = fresh
    table = {(a, b): mul(a, b) for a in elements for b in elements}
    return FiniteGroup.from_table(elements, table, identity)


def _compose_perm(a, b):
    """The permutation "b, then a" on tuples of images."""
    return tuple(a[i] for i in b)


def _quaternion_mul(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def isotropy_group(name):
    """(group, irrep dimensions) for 'S3', 'D4', 'Q8' or 'Z<m>'."""
    if name == "S3":
        return _closure([(1, 0, 2), (1, 2, 0)], _compose_perm, (0, 1, 2)), (1, 1, 2)
    if name == "D4":
        return (_closure([(1, 2, 3, 0), (0, 3, 2, 1)], _compose_perm, (0, 1, 2, 3)),
                (1, 1, 1, 1, 2))
    if name == "Q8":
        return (_closure([(0, 1, 0, 0), (0, 0, 1, 0)], _quaternion_mul, (1, 0, 0, 0)),
                (1, 1, 1, 1, 2))
    m = int(name[1:])
    return FiniteGroup.cyclic(m), (1,) * m


# -- pass order ----------------------------------------------------------------


def _spread_out(instances, lanes=6):
    """Pass order that deals neighbours in plan order far apart in time.

    Plans list instances of similar cost together.  The machine's speed
    drifts over seconds, and a median or tail latency is read off one group
    of similar instances; spreading each group over the whole pass makes
    that reading average over the drift, as the pass wall time does.
    """
    return [x for lane in range(lanes) for x in instances[lane::lanes]]


# -- spectrum-ladder ------------------------------------------------------------

# One pass of the ladder: each entry is (copies, pieces), a piece being
# (isotropy group, n) for pair(n) x H.  Copies differ in their seeded labels,
# arrow ids, cover and decomposition seed.  Arrow counts run from 24 to 216;
# the last two entries are multi-orbit unions.  The copies are counted so
# that each latency statistic falls inside a group of instances of similar
# cost, not on a step between two groups, where machine noise would move it
# by the height of the step: sorted by cost, 21 cheap instances are followed
# by the 12 of pair(3) x {D4, Q8} and pair(4) x S3 (about 320 ms each on a
# 2-vCPU Xeon VM), which hold the median (0-based ranks 25 and 26 of 52),
# then pair(3) x Z8, then the 14 of pair(5) x S3 and pair(4) x {D4, Q8}
# (770-920 ms), which hold the tail (rank 41, the 11th largest).
LADDER = (
    (3, (("S3", 2),)),
    (3, (("Q8", 2),)),
    (3, (("D4", 2),)),
    (3, (("S3", 3),)),
    (3, (("Z8", 2),)),
    (3, (("Z4", 4),)),
    (3, (("Z6", 3),)),
    (5, (("D4", 3),)),
    (5, (("Q8", 3),)),
    (2, (("S3", 4),)),
    (1, (("Z8", 3),)),
    (5, (("Q8", 4),)),
    (5, (("D4", 4),)),
    (4, (("S3", 5),)),
    (1, (("S3", 6),)),
    (1, (("D4", 5),)),
    (1, (("S3", 2), ("Q8", 3), ("D4", 1))),
    (1, (("S3", 3), ("D4", 2), ("Z4", 3))),
)
LADDER_TINY = ((1, (("S3", 2),)), (1, (("Q8", 1), ("Z3", 2))))


# Every cover has COVER_SETS sets, each holding exactly one unit per orbit.
# Its reductions are then the isotropy group algebras, so an instance's
# cost is fixed by its rung rather than by how many units the cover draws:
# with randgen's free choice of 1-3 sets and extra units, the same pass
# spread by 22 % in run_s and 42 % in the tail latency across seeds.
COVER_SETS = 2


def _minimal_admissible_set(rng, G, n_orbits):
    """A set drawn by randgen.random_admissible_cover, kept when minimal."""
    while True:
        (U,) = randgen.random_admissible_cover(rng, G, max_sets=1)
        if len(U) == n_orbits:
            return U


def _pair_times(n, group, prefix):
    P = pair_groupoid([f"{prefix}{i}" for i in range(n)])
    G = direct_product(P, group_groupoid(group))
    return relabel_units(G, {(x, "*"): x for x, _ in G.units})


def _shuffled(rng, G):
    """G with unit labels and arrow ids permuted, as randgen does."""
    names = [f"x{i}" for i in range(G.n_units())]
    rng.shuffle(names)
    G = relabel_units(G, dict(zip(G.units, names)))
    ids = np.asarray(G.arrows)
    rng.shuffle(ids)
    return permute_arrow_ids(G, dict(zip(G.arrows, (int(i) for i in ids))))


class LadderInstance:
    def __init__(self, rng, pieces):
        self.name = "+".join(f"pair({n})x{h}" for h, n in pieces)
        parts, census = [], []
        for k, (h, n) in enumerate(pieces):
            group, irreps = isotropy_group(h)
            parts.append(_pair_times(n, group, f"p{k}u"))
            # each irrep r of H gives one block of dimension n*r, which the
            # regular representation at one unit contains r times
            census.extend((n * r, r) for r in irreps)
        self.census = sorted(census)
        self.G = _shuffled(rng, disjoint_union(parts))
        self.cover = [_minimal_admissible_set(rng, self.G, len(pieces))
                      for _ in range(COVER_SETS)]
        self.seed = int(rng.integers(0, 2 ** 31))

    def call(self):
        dec = spectrum.block_decomposition(self.G, seed=self.seed)
        rep = spectrum.verify_spectrum_decomposition(self.G, self.cover,
                                                     seed=self.seed, dec=dec)
        return dec, rep

    def check(self, output):
        dec, rep = output
        census = sorted((b.dim, b.multiplicity) for b in dec.blocks)
        record = [self.name, self.G.n_arrows(),
                  [[b.label, b.dim, b.multiplicity] for b in dec.blocks],
                  [sorted(img) for img in rep.images]]
        return rep.ok and census == self.census, record


def build_ladder(seed, size="full"):
    rng = randgen.rng_from_seed(seed)
    ladder = LADDER if size == "full" else LADDER_TINY
    return _spread_out([LadderInstance(rng, pieces)
                        for copies, pieces in ladder for _ in range(copies)])


# -- sections -------------------------------------------------------------------

DEFAULT_SIZES = (256, 512, 1024)   # the CLI default
LARGE_SIZES = (1024, 2048, 4096)
TINY_SIZES = (96, 192, 384)
# Instances per pass: (kind, Fredholm by construction, sizes, count).
# General sections cost about twice as much as Hermitian ones, so the median
# latency sits on the step between the kinds when they come in equal numbers;
# there it read from 284 to 457 ms across ten seeds on a 2-vCPU Xeon VM.  With
# 19 of 54 Hermitian, the median (0-based ranks 26 and 27) falls near the
# first quartile of the 34 general sections at the default sizes and the
# tail (rank 43) near their third quartile, inside the general cluster
# rather than at its edge.
SECTIONS = (
    ("hermitian", True, DEFAULT_SIZES, 5),
    ("hermitian", False, DEFAULT_SIZES, 13),
    ("general", True, DEFAULT_SIZES, 17),
    ("general", False, DEFAULT_SIZES, 17),
    ("hermitian", False, LARGE_SIZES, 1),
    ("general", True, LARGE_SIZES, 1),
)
SECTIONS_TINY = (
    ("hermitian", False, TINY_SIZES, 1),
    ("general", True, TINY_SIZES, 1),
)

# A general operator counts as Fredholm-guarded when both limit symbols stay
# at least this share of the coefficient scale away from zero: the same
# relative margin randgen.random_selfadjoint_tridiagonal keeps from the
# boundary case, and four times the finite-section window fraction, so the
# window cannot be filled by a symbol that merely comes close to zero.
GENERAL_GUARD = 0.08
SYMBOL_GRID = bandops.DEFAULT_GRID


def _symbol_values(A, end, waves):
    """Limit symbol of A on a grid, evaluated here with numpy.

    ``waves[k]`` holds exp(i k theta) on the grid angles theta.
    """
    return sum(waves[k] * (d.limit_minus if end == "minus" else d.limit_plus)
               for k, d in A.diagonals.items())


def _coefficient_scale(A):
    """Sum over diagonals of the largest entry: a bound on every section's norm."""
    return sum(max([abs(d.limit_minus), abs(d.limit_plus)]
                   + [abs(v) for _, v in d.core])
               for d in A.diagonals.values())


def _general_operator(rng, fredholm):
    """A bandwidth-2 complex non-Hermitian band operator of known verdict.

    Drawn with randgen.random_band_operator and redrawn until both limit
    symbols clear GENERAL_GUARD.  For a non-Fredholm instance the diagonal
    limit at one end is then shifted so that this end's symbol vanishes at
    a point of the certified scan grid.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, SYMBOL_GRID, endpoint=False)
    waves = {k: np.exp(1j * k * theta) for k in range(-2, 3)}
    while True:
        A = randgen.random_band_operator(rng, max_bandwidth=2)
        if A.bandwidth != 2:
            continue
        lipschitz = sum(abs(k) * max(abs(d.limit_minus), abs(d.limit_plus))
                        for k, d in A.diagonals.items())
        floor = GENERAL_GUARD * _coefficient_scale(A) + lipschitz * np.pi / SYMBOL_GRID
        if (all(np.abs(_symbol_values(A, end, waves)).min() > floor
                for end in ("minus", "plus"))
                and not A.is_selfadjoint()):
            break
    if fredholm:
        return A
    end = ("minus", "plus")[int(rng.integers(0, 2))]
    j = int(rng.integers(0, SYMBOL_GRID))
    zero = complex(_symbol_values(A, end, {k: w[j] for k, w in waves.items()}))
    shift = Diagonal(-zero if end == "minus" else 0j, -zero if end == "plus" else 0j)
    return A + BandOperator({0: shift})


def _hermitian_operator(rng, fredholm):
    while True:
        A, oracle_fredholm, _ = randgen.random_selfadjoint_tridiagonal(rng)
        if oracle_fredholm == fredholm:
            return A


class SectionInstance:
    def __init__(self, rng, kind, fredholm, sizes):
        make = _hermitian_operator if kind == "hermitian" else _general_operator
        self.A = make(rng, fredholm)
        self.kind = kind
        self.fredholm = fredholm     # interval oracle, or known by construction
        self.sizes = list(sizes)

    def call(self):
        report = bandops.finite_section_analysis(self.A, self.sizes)
        verdict = bandops.fredholm_verdict(self.A)
        return report, verdict

    def check(self, output):
        report, verdict = output
        opposite = ("CONSISTENT-NONFREDHOLM" if verdict.fredholm
                    else "CONSISTENT-FREDHOLM")
        record = [self.kind, self.sizes, list(report.counts),
                  list(report.window_counts), report.flag, verdict.fredholm]
        ok = verdict.fredholm == self.fredholm and report.flag != opposite
        return ok, record


def build_sections(seed, size="full"):
    rng = randgen.rng_from_seed(seed)
    plan = SECTIONS if size == "full" else SECTIONS_TINY
    return _spread_out([SectionInstance(rng, kind, fredholm, sizes)
                        for kind, fredholm, sizes, count in plan
                        for _ in range(count)])


# -- suite ------------------------------------------------------------------------


def tiny_suite(seed):
    """All nine criteria at smoke-test sizes, sub-seeded like run_suite."""
    return [
        suite.criterion_algebra_axioms(seed=seed, instances=3),
        suite.criterion_spectrum_decomposition(seed=seed + 1, instances=3),
        suite.criterion_phi_isometry(seed=seed + 2, instances=3),
        suite.criterion_norm_estimates(seed=seed + 3, instances=2, trials=2),
        suite.criterion_morita_data(seed=seed + 4, instances=3),
        suite.criterion_limit_operator_verdicts(seed=seed + 5, instances=5),
        suite.criterion_finite_sections(seed=seed + 6, per_class=1,
                                        sizes=TINY_SIZES),
        suite.criterion_model_geometries(),
        suite.criterion_gluing(seed=seed + 7),
    ]


class SuiteRun:
    """The whole suite as one call; each criterion is one instance."""

    def __init__(self, seed, size):
        self.seed = seed
        self.size = size

    def call(self):
        if self.size == "full":
            return suite.run_suite(self.seed)
        return tiny_suite(self.seed)


def build_suite(seed, size="full"):
    return [SuiteRun(seed, size)]
