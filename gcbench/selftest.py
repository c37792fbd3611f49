"""Tests of the benchmark itself, at smoke-test sizes.

    python3 -m pytest gcbench/selftest.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, per_layer_metric_specs  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = sorted(harness.BUILDERS)


def _run(tmp_path, workload, seed=5, trace=0):
    return harness.run(workload, seed, 1, trace, SRC, str(tmp_path), 1,
                       size="tiny", setup_repeats=1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(tmp_path, workload):
    result, lines, record = _run(tmp_path, workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in harness.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["machine"]["blas_threads"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_digest(tmp_path, workload):
    first = _run(tmp_path, workload)[2]["digest"]
    second = _run(tmp_path, workload)[2]["digest"]
    assert first is not None and first == second


def test_other_seed_gives_other_inputs(tmp_path):
    assert _run(tmp_path, "sections", seed=1)[2]["digest"] != \
        _run(tmp_path, "sections", seed=2)[2]["digest"]


def _bound_objects():
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "gcstar" or name.startswith("gcstar."):
            for attr, value in vars(module).items():
                found[(name, attr)] = value
    for _, module_name, attr in TARGETS:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(sys.modules[module_name], cls_name)
            found[(module_name, attr)] = cls.__dict__[method]
    return found


def test_traced_run_reports_per_layer_metrics_and_removes_wrappers(tmp_path):
    before = _bound_objects()
    result, _, record = _run(tmp_path, "spectrum-ladder", trace=1)
    assert result["correct"]
    assert set(result["metrics"]) == {name for name, _, _ in per_layer_metric_specs()}
    layer = record["per_layer"]
    assert layer["spectrum.wedderburn.calls"] > 0
    assert layer["spectrum.wedderburn.busy_s"] >= layer["spectrum.wedderburn.self_s"] > 0
    assert 0 <= layer["trace.unaccounted_frac"] < 0.5
    assert _bound_objects() == before
    assert os.path.exists(tmp_path / "spans-spectrum-ladder-seed5.jsonl")


def test_tracer_wraps_every_namespace_that_bound_a_function():
    import gcstar.spectrum
    import gcstar.suite
    original = gcstar.spectrum.verify_spectrum_decomposition
    with Tracer():
        assert gcstar.suite.verify_spectrum_decomposition is not original
        assert gcstar.spectrum.verify_spectrum_decomposition is \
            gcstar.suite.verify_spectrum_decomposition
    assert gcstar.suite.verify_spectrum_decomposition is original


@pytest.mark.parametrize("name, order, irreps", [
    ("S3", 6, (1, 1, 2)), ("D4", 8, (1, 1, 1, 1, 2)), ("Q8", 8, (1, 1, 1, 1, 2))])
def test_isotropy_groups_are_the_named_non_abelian_groups(name, order, irreps):
    group, dims = workloads.isotropy_group(name)
    assert len(group) == order and dims == irreps
    assert sum(d * d for d in dims) == order
    assert any(group.mul(a, b) != group.mul(b, a)
               for a in group.elements for b in group.elements)
    # D4 and Q8 differ in their number of elements of order 2
    involutions = sum(group.element_order(a) == 2 for a in group.elements)
    assert involutions == {"S3": 3, "D4": 5, "Q8": 1}[name]
