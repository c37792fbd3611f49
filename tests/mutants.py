"""Mutation checks: each mutation breaks one law that named tests guard.

    python tests/mutants.py [--only NAME]

For each mutation the runner copies ``src/`` to a temporary directory,
replaces the mutation's exact old text (which must occur exactly once in its
file) with the new text, and runs the mutation's tests against that copy
with ``pytest -x -q``.  The mutation is *killed* when a test fails and
*survives* when they all pass.  Old text that is missing, or a test run that
errors out instead of failing (a collection error, say), is an error: the
table follows the code, and a refactor that moves a mutated line has to move
its entry too.  Before the mutations, the union of their tests runs once on
the unmutated tree, so a test that fails anyway cannot count as a kill.

Exit status: 0 when every mutation is killed, 1 when one survives, 2 on an
error.  Standard library only (plus pytest, which runs the tests).  The idea
is mutation testing: DeMillo, Lipton and Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978; Jia and Harman, IEEE TSE 37(5), 2011.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPECTRUM = "tests/test_spectrum.py::"
GLUING = "tests/test_gluing.py::"
BANDOPS = "tests/test_bandops.py::"

# (name, file under src/gcstar, old text, new text, test ids that must fail)
MUTANTS = [
    # -- the invariance certificate of the block split --------------------------
    ("eigenvector-rotated", "spectrum.py",
     "    eigenvalues, vectors = np.linalg.eigh(T)\n",
     "    eigenvalues, vectors = np.linalg.eigh(T)\n"
     "    for hi in np.flatnonzero(np.diff(eigenvalues) > CLUSTER_TOL)[:1] + 1:\n"
     "        c, s = np.cos(1e-6), np.sin(1e-6)\n"
     "        vectors[:, [hi - 1, hi]] = vectors[:, [hi - 1, hi]] @ np.array([[c, -s], [s, c]])\n",
     [SPECTRUM + "test_wedderburn_z3_matches_discrete_fourier_characters",
      SPECTRUM + "test_block_census_on_random_groupoids"]),
    ("commutant-rolled", "spectrum.py",
     "basis.append((coordinate[T.product[fiber, h]], coordinate[fiber]))",
     "basis.append((coordinate[T.product[fiber, h]], np.roll(coordinate[fiber], 1)))",
     [SPECTRUM + "test_commutant_dimension_equals_total_isotropy"]),
    ("weyl-slack-dropped", "spectrum.py",
     "w[hi + 1] - w[hi]) - 2 * slack for lo, hi in clusters]",
     "w[hi + 1] - w[hi]) for lo, hi in clusters]",
     [SPECTRUM + "test_invariance_bound_holds_for_an_inexact_eigenbasis"]),
    ("invariance-bound-ignored", "spectrum.py",
     "if not bound + defect <= BLOCK_TOL:",
     "if not defect <= BLOCK_TOL:",
     [SPECTRUM + "test_verify_blocks_rejects_a_subspace_rotated_off_its_orbit",
      SPECTRUM + "test_wedderburn_refuses_an_eigenvector_rotated_into_its_neighbouring_cluster"]),
    ("commutant-left-translation", "spectrum.py",
     "basis.append((coordinate[T.product[fiber, h]], coordinate[fiber]))",
     "basis.append((coordinate[T.product[h, fiber]], coordinate[fiber]))",
     [SPECTRUM + "test_commutant_dimension_equals_total_isotropy"]),
    # -- mutations described in CHANGES.md that still apply ----------------------
    ("character-norm-dropped", "spectrum.py",
     "if abs(chi2.sum() / np.count_nonzero(table.dom == x) - 1.0) > BLOCK_TOL:",
     "if False:",
     [SPECTRUM + "test_verify_blocks_rejects_a_reducible_block"]),
    ("character-norm-at-argmin", "spectrum.py",
     "x = np.argmax(chi2[table.unit])",
     "x = np.argmin(chi2[table.unit])",
     [SPECTRUM + "test_block_census_on_random_groupoids"]),
    # -- validation where a groupoid enters, traces in one pass -----------------
    ("cluster-trace-unconjugated", "spectrum.py",
     "Vc, step = Vz.conj(), max(",
     "Vc, step = Vz, max(",
     [SPECTRUM + "test_cluster_traces_match_the_images_they_replace"]),
    ("associativity-mismatch-unlocated", "groupoid.py",
     "if not np.array_equal(first, second):",
     "if False:",
     ["tests/test_groupoid.py::test_validate_redirected_composition_lists_associativity",
      "tests/test_groupoid.py::test_associativity_gathers_match_the_per_arrow_reference"]),
    ("decomposition-unvalidated", "spectrum.py",
     "    if not (report := validate(G)).ok:\n"
     "        raise InputError(\"groupoid fails validation: \" + report.lines()[0])\n"
     "    return wedderburn(",
     "    return wedderburn(",
     [SPECTRUM + "test_wedderburn_rejects_non_groupoid",
      "tests/test_cli.py::test_spectrum_commands_refuse_a_groupoid_that_fails_validation"]),
    ("validate-padding-zero", "groupoid.py",
     "padded = np.hstack([P, np.full((n, 1), -1)]).ravel()",
     "padded = np.hstack([P, np.full((n, 1), 0)]).ravel()",
     ["tests/test_groupoid.py::test_associativity_gathers_match_the_per_arrow_reference"]),
    ("orbits-by-maximum", "groupoid.py",
     "np.minimum.at(base, self._table.dom, self._table.ran)",
     "np.maximum.at(base, self._table.dom, self._table.ran)",
     ["tests/test_groupoid.py::test_orbits_match_a_union_find_over_the_arrows"]),
    ("pair-inverse-transposed", "groupoid.py",
     "return j, i, j * n + i, np.arange(n) * (n + 1),",
     "return j, i, i * n + j, np.arange(n) * (n + 1),",
     ["tests/test_groupoid.py::test_validate_pair_groupoid_clean"]),
    ("tridiagonal-core-entry-dropped", "randgen.py",
     "                     + ((-1, upper.value(0).conjugate()),))",
     "                     )",
     ["tests/test_randgen.py::"
      "test_random_selfadjoint_tridiagonal_is_diag_plus_upper_plus_adjoint"]),
    ("dstebz-interval-widened", "bandops.py",
     "dstebz(diag, off, 1, -t, t, 0, 0, 2 * t, b\"B\")",
     "dstebz(diag, off, 1, -2 * t, t, 0, 0, 2 * t, b\"B\")",
     ["tests/test_bandops.py"]),
    # -- one block cyclic reduction for every threshold --------------------------
    ("threshold-pools-merged", "bandops.py",
     "np.vstack([index + k * len(pool) for k in range(T)])",
     "np.vstack([index for k in range(T)])",
     [BANDOPS + "test_counts_do_not_depend_on_how_thresholds_are_grouped",
      BANDOPS + "test_general_band_sections_match_dense"]),
    ("threshold-split-reversed", "bandops.py",
     "for row in negative.reshape(T, len(sizes))]",
     "for row in negative.reshape(T, len(sizes))[::-1]]",
     [BANDOPS + "test_counts_do_not_depend_on_how_thresholds_are_grouped"]),
    ("threshold-live-counts-repeated", "bandops.py",
     "live, blocks = np.tile(live, T),",
     "live, blocks = np.repeat(live, T),",
     [BANDOPS + "test_counts_do_not_depend_on_how_thresholds_are_grouped"]),
    # -- each distinct block diagonalised once, carries paid only where taken ----
    ("block-eigenpairs-unmapped", "bandops.py",
     "lam, Vh = lam[at], V.conj().swapaxes(1, 2)[at]",
     "lam, Vh = lam[at[::-1]], V.conj().swapaxes(1, 2)[at[::-1]]",
     [BANDOPS + "test_reduction_diagonalises_each_distinct_block_once",
      BANDOPS + "test_general_band_sections_match_dense"]),
    ("carry-skipped-when-deferred", "bandops.py",
     "    if defer.any():\n",
     "    if defer.all():\n",
     [BANDOPS + "test_levels_with_and_without_carried_directions_match_dense",
      BANDOPS + "test_general_band_sections_match_dense"]),
    # -- sorts only where the reduction needs them --------------------------------
    ("run-head-first-unflagged", "bandops.py",
     "head = np.ones(codes.size, dtype=bool)",
     "head = np.zeros(codes.size, dtype=bool)",
     [BANDOPS + "test_distinct_matches_unique_over_every_code",
      BANDOPS + "test_general_band_sections_match_dense"]),
    ("links-reused-when-deferred", "bandops.py",
     "        links = at2 + 1\n",
     "",
     [BANDOPS + "test_levels_with_and_without_carried_directions_match_dense",
      BANDOPS + "test_general_band_sections_match_dense"]),
    ("level0-block-misnumbered", "bandops.py",
     "index = np.repeat(at, np.concatenate(runs))",
     "index = np.repeat(np.r_[at[1], at[1:]], np.concatenate(runs))",
     [BANDOPS + "test_level0_pool_matches_the_sort_numbered_reference",
      BANDOPS + "test_general_band_sections_match_dense"]),
    # -- the section window scaled by the essential norm --------------------------
    ("window-by-coefficient-bound", "bandops.py",
     "window = max(MODERATE_FRACTION * float(ess), 4.0 * eps)",
     "window = max(MODERATE_FRACTION * _coefficient_bound(A), 4.0 * eps)",
     [BANDOPS + "test_finite_section_counts_match_dense_singular_values"]),
    ("window-from-one-end", "bandops.py",
     "              for end in (\"minus\", \"plus\"))\n    window",
     "              for end in (\"plus\",))\n    window",
     [BANDOPS + "test_finite_section_counts_match_dense_singular_values"]),
    ("pivot-floors-by-ess", "bandops.py",
     "(eps, window),\n                                                 _coefficient_bound(A))",
     "(eps, window),\n                                                 float(ess))",
     [BANDOPS + "test_compact_operator_sections_take_their_pivot_scale_from_the_core"]),
    # -- gluing classes and linking-data orbits read one move wide ---------------
    ("glue-class-named-last", "gluing.py",
     "min(charts.items())",
     "max(charts.items())",
     [GLUING + "test_glue_nested_cover_recovers_the_groupoid"]),
    ("cocycle-via-own-chart", "gluing.py",
     "via = presented[j, charts[j]].get(k)",
     "via = charts.get(k)",
     [GLUING + "test_unit_swap_fault_is_reported_as_cocycle_failure"]),
    ("glue-class-assigned", "gluing.py",
     'put(first, token, min(charts.items()), "class of the arrow")',
     "first[token] = min(charts.items())",
     [GLUING + "test_glue_refuses_presentations_that_disagree_about_a_class"]),
    ("quotient-one-move-dropped", "spectrum.py",
     "np.array_equal(least[moves[i, j]], least[Z[i]])  # one move wide",
     "True  # one move wide",
     [SPECTRUM + "test_quotient_check_reads_false_when_moves_are_not_one_move_wide"]),
    # -- the exact flags of the induced-representation unitary -------------------
    ("unitary-isometric-forced", "spectrum.py",
     "isometric = (np.all(image[rows] == image[cols])",
     "isometric = True or (np.all(image[rows] == image[cols])",
     [SPECTRUM + "test_phi_isometry_reads_false_on_a_broken_table"]),
    ("unitary-intertwining-forced", "spectrum.py",
     "intertwining = all(",
     "intertwining = True or all(",
     [SPECTRUM + "test_phi_isometry_reads_false_on_a_broken_table"]),
    ("unitary-onto-forced", "spectrum.py",
     "onto = np.array_equal(np.unique(image[hit]), fiber_full)",
     "onto = True",
     [SPECTRUM + "test_phi_isometry_reads_false_on_a_broken_table"]),
    # -- each check in the one place that reads its value ------------------------
    ("symbol-tol-unchecked", "bandops.py",
     "    if not 0 < tol < np.inf:\n        raise InputError(\"tol must be finite and positive\")\n",
     "",
     [BANDOPS + "test_symbol_tolerance_must_be_finite_and_positive",
      "tests/test_cli.py::test_bad_tolerance_is_input_error"]),
    ("norm-report-regular-dropped", "spectrum.py",
     "\n                and self.max_regular_consistency < NORM_TOL)",
     ")",
     [SPECTRUM + "test_norm_report_fails_on_each_residual_past_the_tolerance"]),
    # -- the exact band arithmetic ------------------------------------------------
    ("product-index-unshifted", "bandops.py",
     "other.coefficient(k - i, n - i)",
     "other.coefficient(k - i, n)",
     [BANDOPS + "test_band_product_matches_dense_truncation_in_the_bulk"]),
    ("sum-window-without-other", "bandops.py",
     "lo, hi = self._safe_window(other)\n",
     "lo, hi = self._safe_window()\n",
     [BANDOPS + "test_adjoint_and_linearity"]),
    ("limit-symbol-reflected", "bandops.py",
     'table[k] = d.limit_minus if end == "minus" else d.limit_plus',
     'table[-k] = d.limit_minus if end == "minus" else d.limit_plus',
     [BANDOPS + "test_limit_operator_discards_core_and_reads_potential_limits"]),
]


def run_tests(src, tests):
    """pytest's exit status for ``tests`` with ``src`` first on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run_mutant(file, old, new, tests):
    """'killed', 'survived', or an error message."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "gcstar" / file
        text = path.read_text(encoding="utf-8")
        if text.count(old) != 1:
            return f"error: old text found {text.count(old)} times in {file}"
        path.write_text(text.replace(old, new), encoding="utf-8")
        status = run_tests(src, tests)
    return {0: "survived", 1: "killed"}.get(status, f"error: pytest exit status {status}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", help="run only the mutation of this name")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if args.only in (None, m[0])]
    if not mutants:
        parser.error(f"no mutation named {args.only!r}")
    baseline = sorted({t for *_, tests in mutants for t in tests})
    if run_tests(ROOT / "src", baseline) != 0:
        print("error: the tests fail on the unmutated tree", file=sys.stderr)
        return 2
    outcomes = []
    for mutant in mutants:
        outcome = run_mutant(*mutant[1:])
        outcomes.append(outcome)
        print(f"{mutant[0]}: {outcome}", flush=True)
    if any(o.startswith("error") for o in outcomes):
        return 2
    return 1 if "survived" in outcomes else 0


if __name__ == "__main__":
    sys.exit(main())
