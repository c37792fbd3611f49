"""The verification gate: every suite criterion at its stated tolerance.

Each test runs one criterion, prints its one-line verdict, and enforces the
stated runtime bound where the criterion carries one.
"""

from gcstar.suite import (criterion_algebra_axioms, criterion_finite_sections,
                          criterion_gluing, criterion_limit_operator_verdicts,
                          criterion_model_geometries, criterion_morita_data,
                          criterion_norm_estimates, criterion_phi_isometry,
                          criterion_spectrum_decomposition)

SEED = 0


def _report(result, budget=None):
    print(result.line())
    assert result.ok, result.detail
    if budget is not None:
        assert result.elapsed < budget, (
            f"criterion {result.index} took {result.elapsed:.1f}s "
            f"(budget {budget}s)")


def test_criterion_1_groupoid_algebra_axioms():
    _report(criterion_algebra_axioms(seed=SEED, instances=200),
            budget=60.0)


def test_criterion_2_spectrum_decomposition():
    _report(criterion_spectrum_decomposition(seed=SEED + 1, instances=50),
            budget=60.0)


def test_criterion_3_induced_representation_unitary():
    _report(criterion_phi_isometry(seed=SEED + 2, instances=50))


def test_criterion_4_norm_estimates():
    _report(criterion_norm_estimates(seed=SEED + 3, instances=20, trials=5))


def test_criterion_5_linking_data():
    _report(criterion_morita_data(seed=SEED + 4, instances=50))


def test_criterion_6_limit_operator_verdicts():
    _report(criterion_limit_operator_verdicts(seed=SEED + 5, instances=100))


def test_criterion_7_finite_section_cross_validation():
    _report(criterion_finite_sections(seed=SEED + 6, per_class=20,
                                      sizes=(256, 512, 1024)),
            budget=300.0)


def test_criterion_8_model_geometries():
    _report(criterion_model_geometries())


def test_criterion_9_gluing():
    _report(criterion_gluing(seed=SEED + 7))
