"""The randomized verification suite: nine desk-scale criteria.

Each criterion is a function returning a CriterionResult; run_suite executes
all of them with one base seed and assembles a report.  The criteria mirror
the package's contract: algebra axioms, the spectrum decomposition through
induced blocks, the tensor-model unitary, norm estimates, the linking-space
data, limit-operator verdicts against the closed-form oracle, finite-section
cross-validation, the discretized boundary models, and gluing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import fixtures
from .bandops import (finite_section_analysis, limit_operator, locality_check,
                      symbol_invertible)
from .convolution import convolve, involution, left_regular_rep, reduced_norm
from .errors import GluingConditionError
from .gluing import check_weak_gluing, glue
from .groupoid import reduction
from .isosearch import groupoid_isomorphism
from .models import boundary_symbol, discretize_model
from .randgen import (random_admissible_cover, random_arrow_function,
                      random_groupoid, random_selfadjoint_tridiagonal,
                      random_subset, rng_from_seed)
from .spectrum import (check_norm_estimates, check_phi_isometry,
                       morita_reduction_data, verify_spectrum_decomposition)


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    ok: bool
    detail: str
    elapsed: float

    def line(self):
        status = "PASS" if self.ok else "FAIL"
        return (f"criterion {self.index} [{self.name}]: {status} "
                f"({self.detail}; {self.elapsed:.1f}s)")


def _timed(index, name, body):
    t0 = time.perf_counter()
    ok, detail = body()
    return CriterionResult(index, name, ok, detail, time.perf_counter() - t0)


def criterion_algebra_axioms(seed=0, instances=200, tol=1e-9):
    """Convolution associativity, involution, *-homomorphisms, C*-identity."""

    def body():
        rng = rng_from_seed(seed)
        worst = 0.0
        for _ in range(instances):
            G = random_groupoid(rng)
            f = random_arrow_function(rng, G)
            g = random_arrow_function(rng, G)
            h = random_arrow_function(rng, G)
            fg, fs = convolve(f, g), involution(f)
            assoc = convolve(fg, h).max_abs_difference(convolve(f, convolve(g, h)))
            anti = involution(fg).max_abs_difference(convolve(involution(g), fs))
            worst = max(worst, assoc, anti)
            # on l^2(G), the direct sum of the regular representations at all units
            Mf = left_regular_rep(G, f).matrix
            Mg = left_regular_rep(G, g).matrix
            Mfg = left_regular_rep(G, fg).matrix
            Mfs = left_regular_rep(G, fs).matrix
            worst = max(worst, float(np.max(np.abs(Mfg - Mf @ Mg))),
                        float(np.max(np.abs(Mfs - Mf.conj().T))))
            cstar = abs(reduced_norm(G, convolve(fs, f)) - reduced_norm(G, f) ** 2)
            worst = max(worst, cstar)
        return worst < tol, f"{instances} groupoids, worst residual {worst:.2e}"

    return _timed(1, "algebra-axioms", body)


def criterion_spectrum_decomposition(seed=0, instances=50):
    """Induced blocks over admissible covers exhaust the spectrum, exactly."""

    def body():
        rng = rng_from_seed(seed)
        checked = 0
        for _ in range(instances):
            G = random_groupoid(rng, max_arrows=40)
            cover = random_admissible_cover(rng, G)
            rep = verify_spectrum_decomposition(G, cover, seed=seed)
            if not rep.ok:
                return False, f"failure on a random instance with cover {cover}"
            checked += 1
        # pinned examples
        D = fixtures.disjoint_pair_z2()
        rep = verify_spectrum_decomposition(D, [{"1", "2"}, {"3"}], seed=seed)
        if not (rep.ok and len(rep.prim_all) == 3
                and sorted(len(i) for i in rep.images) == [1, 2]):
            return False, "disjoint-union example failed"
        P3 = fixtures.pair3()
        rep = verify_spectrum_decomposition(P3, [{"1"}, {"2"}], seed=seed)
        if not (rep.ok and len(rep.prim_all) == 1):
            return False, "pair-groupoid two-point-cover example failed"
        rep = verify_spectrum_decomposition(P3, [set(P3.units)], seed=seed)
        if not rep.ok:
            return False, "identity-cover example failed"
        return True, f"{checked} random instances + 3 pinned examples, exact"

    return _timed(2, "spectrum-decomposition", body)


def criterion_phi_isometry(seed=0, instances=50, tol=1e-8):
    """The induced-representation unitary: isometric, onto, intertwining."""

    def body():
        rng = rng_from_seed(seed)
        worst = 0.0
        for _ in range(instances):
            G = random_groupoid(rng, max_units=8, max_arrows=36)
            U = random_subset(rng, G)
            x = sorted(U, key=G.units.index)[int(rng.integers(0, len(U)))]
            rep = check_phi_isometry(G, U, x, seed=seed)
            if not rep.surjective:
                return False, "image of the tensor model missed the fiber"
            worst = max(worst, rep.max_residual())
        return worst < tol, f"{instances} instances, worst residual {worst:.2e}"

    return _timed(3, "induced-unitary", body)


def criterion_norm_estimates(seed=0, instances=20, trials=5, tol=1e-9):
    """Isometric corner inclusion and the induced-norm inequality."""

    def body():
        rng = rng_from_seed(seed)
        worst_gap = 0.0
        worst_slack = np.inf
        for _ in range(instances):
            G = random_groupoid(rng, max_units=8, max_arrows=36)
            U = random_subset(rng, G)
            rep = check_norm_estimates(G, U, trials=trials, seed=seed)
            worst_gap = max(worst_gap, rep.max_equality_gap,
                            rep.max_regular_consistency)
            worst_slack = min(worst_slack, rep.min_induction_slack)
        ok = worst_gap < tol and worst_slack > -tol
        return ok, (f"{instances}x{trials} functions, equality gap "
                    f"{worst_gap:.2e}, slack {worst_slack:.2e}")

    return _timed(4, "norm-estimates", body)


def criterion_morita_data(seed=0, instances=50):
    """Freeness of both linking actions and the two quotient bijections."""

    def body():
        rng = rng_from_seed(seed)
        for _ in range(instances):
            G = random_groupoid(rng, max_arrows=40)
            U = random_subset(rng, G)
            rep = morita_reduction_data(G, U)
            if not rep.ok:
                return False, f"linking data failed over {sorted(map(str, U))}"
        return True, f"{instances} instances, exact"

    return _timed(5, "linking-data", body)


def criterion_limit_operator_verdicts(seed=0, instances=100):
    """Verdicts agree with the interval oracle; locality conjunction holds."""

    def body():
        rng = rng_from_seed(seed)
        for i in range(instances):
            A, oracle_fredholm, oracle = random_selfadjoint_tridiagonal(rng)
            loc = locality_check(A)
            if loc.two_sided.fredholm != oracle_fredholm:
                return False, f"oracle disagreement at instance {i}"
            if not loc.conjunction_identity:
                return False, f"locality conjunction broke at instance {i}"
            if (loc.left_fredholm, loc.right_fredholm) != oracle["sided"]:
                return False, f"one-sided verdicts disagree at instance {i}"
        return True, f"{instances}/{instances} oracle agreements"

    return _timed(6, "limit-operator-verdicts", body)


FLAG_VERDICT = {"CONSISTENT-FREDHOLM": True, "CONSISTENT-NONFREDHOLM": False}


def criterion_finite_sections(seed=0, per_class=20, sizes=(256, 512, 1024),
                              eps=1e-6, required_rate=0.95):
    """Truncation diagnostics agree with the symbolic verdict."""

    def body():
        rng = rng_from_seed(seed)
        drawn = {True: 0, False: 0}   # instances kept, per oracle verdict
        consistent = opposite = 0
        while min(drawn.values()) < per_class:
            A, oracle_fredholm, _ = random_selfadjoint_tridiagonal(rng)
            if drawn[oracle_fredholm] >= per_class:
                continue
            drawn[oracle_fredholm] += 1
            flag = finite_section_analysis(A, list(sizes), eps).flag
            if flag in FLAG_VERDICT:
                consistent += FLAG_VERDICT[flag] == oracle_fredholm
                opposite += FLAG_VERDICT[flag] != oracle_fredholm
        total = 2 * per_class
        rate = consistent / total
        ok = rate >= required_rate and opposite == 0
        return ok, (f"{consistent}/{total} consistent, {opposite} opposite")

    return _timed(7, "finite-sections", body)


def criterion_model_geometries(grid=8192, tol=1e-8):
    """Boundary verdicts of the discretized models against closed forms."""

    def body():
        shifted = discretize_model(fixtures.b_model_spec(shift=1.0))
        chk = symbol_invertible(limit_operator(shifted, "plus"), grid=grid, tol=tol)
        if not (chk.invertible and chk.margin >= 0.9):
            return False, f"shifted cylinder model margin {chk.margin:.3f}"
        critical = discretize_model(fixtures.b_model_spec(shift=0.0))
        chk0 = symbol_invertible(limit_operator(critical, "plus"), grid=grid, tol=tol)
        if chk0.invertible:
            return False, "critical cylinder model came out invertible"
        sym_b = boundary_symbol(fixtures.b_model_spec(shift=1.0))
        sym_c = boundary_symbol(fixtures.cusp_model_spec(shift=1.0, r=2.0))
        gap = sym_b.max_abs_difference(sym_c)
        discretized_gap = limit_operator(
            discretize_model(fixtures.cusp_model_spec(shift=1.0, r=2.0)),
            "plus").max_abs_difference(limit_operator(shifted, "plus"))
        if max(gap, discretized_gap) > 1e-10:
            return False, f"cusp/cylinder symbols differ by {max(gap, discretized_gap):.2e}"
        return True, (f"margin {chk.margin:.3f}, critical min modulus "
                      f"{chk0.min_modulus:.2e}, cusp gap {discretized_gap:.2e}")

    return _timed(8, "model-geometries", body)


def criterion_gluing(seed=0):
    """Weak-gluing reports on the pinned families; glue-and-replay isomorphisms."""

    def body():
        clean = fixtures.nested_family()
        if not check_weak_gluing(clean).ok:
            return False, "clean nested family was rejected"
        faulty = fixtures.faulty_family()
        rep = check_weak_gluing(faulty)
        if rep.ok or not rep.cocycle_failures:
            return False, "fault injection went unnoticed"
        try:
            glue(faulty)
            return False, "glue accepted a family failing the condition"
        except GluingConditionError:
            pass
        unliftable = fixtures.unliftable_family()
        rep2 = check_weak_gluing(unliftable)
        if rep2.ok or not rep2.lifting_failures:
            return False, "missing lifting failure on the split pair cover"

        glued_count = 0
        for family in (clean, fixtures.disjoint_cover_family(),
                       fixtures.bmodel_family()):
            if not check_weak_gluing(family).ok:
                return False, "a clean family was rejected"
            G = glue(family)  # glue raises unless the result validates
            for U, piece in zip(family.cover, family.pieces):
                if groupoid_isomorphism(reduction(G, U), piece) is None:
                    return False, "a glued reduction is not isomorphic to its piece"
            glued_count += 1
        return True, f"3 reports as pinned, {glued_count} glue-and-replay successes"

    return _timed(9, "gluing", body)


def run_suite(seed=0):
    """All nine criteria with sub-seeds derived from one base seed."""
    return [
        criterion_algebra_axioms(seed=seed),
        criterion_spectrum_decomposition(seed=seed + 1),
        criterion_phi_isometry(seed=seed + 2),
        criterion_norm_estimates(seed=seed + 3),
        criterion_morita_data(seed=seed + 4),
        criterion_limit_operator_verdicts(seed=seed + 5),
        criterion_finite_sections(seed=seed + 6),
        criterion_model_geometries(),
        criterion_gluing(seed=seed + 7),
    ]
