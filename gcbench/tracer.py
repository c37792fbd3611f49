"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces each listed gcstar function, in every gcstar
module namespace that bound it, by a wrapper that records a span
(name, start, end, parent) in memory and feeds a few work counters.
``uninstall()`` puts the original objects back; an untraced run never
carries a wrapper.  Self times are derived from the spans afterwards: a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from gcstar.errors import AmbiguityError, GridRefinementNeeded

# (metric prefix, module, attribute); "Class.method" names a method.
TARGETS = (
    ("groupoid.validate", "gcstar.groupoid", "validate"),
    ("groupoid.reduction", "gcstar.groupoid", "reduction"),
    ("groupoid.saturation", "gcstar.groupoid", "saturation"),
    ("groupoid.orbits", "gcstar.groupoid", "orbits"),
    ("convolution.convolve", "gcstar.convolution", "convolve"),
    ("convolution.regular_rep", "gcstar.convolution", "regular_rep"),
    ("convolution.reduced_norm", "gcstar.convolution", "reduced_norm"),
    ("spectrum.concrete_algebra", "gcstar.spectrum", "concrete_algebra"),
    ("spectrum.commutant_basis", "gcstar.spectrum", "commutant_basis"),
    ("spectrum.wedderburn", "gcstar.spectrum", "wedderburn"),
    ("spectrum._verify_blocks", "gcstar.spectrum", "_verify_blocks"),
    ("spectrum.prim_partition", "gcstar.spectrum", "prim_partition"),
    ("spectrum.induction_map", "gcstar.spectrum", "induction_map"),
    ("spectrum.verify_spectrum_decomposition", "gcstar.spectrum",
     "verify_spectrum_decomposition"),
    ("spectrum.check_norm_estimates", "gcstar.spectrum", "check_norm_estimates"),
    ("spectrum.check_phi_isometry", "gcstar.spectrum", "check_phi_isometry"),
    ("spectrum.morita_reduction_data", "gcstar.spectrum", "morita_reduction_data"),
    ("bandops.gram_banded", "gcstar.bandops", "BandOperator.gram_banded"),
    ("bandops.eigvals_banded", "gcstar.bandops", "eigvals_banded"),
    ("bandops.finite_section_analysis", "gcstar.bandops", "finite_section_analysis"),
    ("bandops.symbol_invertible", "gcstar.bandops", "symbol_invertible"),
    ("bandops.fredholm_verdict", "gcstar.bandops", "fredholm_verdict"),
    ("bandops.locality_check", "gcstar.bandops", "locality_check"),
    ("models.discretize_model", "gcstar.models", "discretize_model"),
    ("models.boundary_symbol", "gcstar.models", "boundary_symbol"),
    ("gluing.check_weak_gluing", "gcstar.gluing", "check_weak_gluing"),
    ("gluing.glue", "gcstar.gluing", "glue"),
    ("isosearch.groupoid_isomorphism", "gcstar.isosearch", "groupoid_isomorphism"),
    ("suite.c1", "gcstar.suite", "criterion_algebra_axioms"),
    ("suite.c2", "gcstar.suite", "criterion_spectrum_decomposition"),
    ("suite.c3", "gcstar.suite", "criterion_phi_isometry"),
    ("suite.c4", "gcstar.suite", "criterion_norm_estimates"),
    ("suite.c5", "gcstar.suite", "criterion_morita_data"),
    ("suite.c6", "gcstar.suite", "criterion_limit_operator_verdicts"),
    ("suite.c7", "gcstar.suite", "criterion_finite_sections"),
    ("suite.c8", "gcstar.suite", "criterion_model_geometries"),
    ("suite.c9", "gcstar.suite", "criterion_gluing"),
)

# Functions whose spans can contain traced children; they also report self_s.
WITH_CHILDREN = frozenset((
    "convolution.reduced_norm",
    "spectrum.concrete_algebra", "spectrum.wedderburn", "spectrum.prim_partition",
    "spectrum.induction_map", "spectrum.verify_spectrum_decomposition",
    "spectrum.check_norm_estimates", "spectrum.check_phi_isometry",
    "spectrum.morita_reduction_data",
    "bandops.finite_section_analysis", "bandops.fredholm_verdict",
    "bandops.locality_check",
    "gluing.glue",
    "isosearch.groupoid_isomorphism",
))

COUNTERS = (
    ("spectrum.algebra_dim.sum", "count", "lower"),
    ("spectrum.eigh_flops_computed", "flop", "lower"),
    ("spectrum.commutant_basis.size_sum", "count", "lower"),
    ("spectrum.ambiguity_errors", "count", "lower"),
    ("spectrum.wedderburn.distinct_ratio", "ratio", "higher"),
    ("bandops.section_rows.sum", "count", "lower"),
    ("bandops.gram_bytes_computed", "B", "lower"),
    ("bandops.symbol_grid_points.sum", "count", "lower"),
    ("bandops.grid_refinement_errors", "count", "lower"),
    ("bandops.sections.inconclusive_ratio", "ratio", "lower"),
)


def per_layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for label, _, _ in TARGETS:
        if label.startswith("suite."):
            continue
        specs.append((f"{label}.calls", "count", "lower"))
        specs.append((f"{label}.busy_s", "s", "lower"))
        if label in WITH_CHILDREN:
            specs.append((f"{label}.self_s", "s", "lower"))
    specs.extend(COUNTERS)
    specs.extend((f"suite.c{i}.busy_s", "s", "lower") for i in range(1, 10))
    specs.append(("trace.unaccounted_frac", "ratio", "lower"))
    specs.append(("trace.overhead_frac", "ratio", "lower"))
    return specs


def _groupoid_key(G):
    return hash((G.units, tuple(sorted(G.dom.items())), tuple(sorted(G.ran.items())),
                 frozenset(G.compose_table.items())))


class Tracer:
    def __init__(self):
        self.labels = []          # label id -> metric prefix
        self.spans = []           # (label id, start, end, parent span index)
        self._stack = []
        self._patched = []        # (namespace, attribute, original object)
        self._wrappers = {}       # label -> wrapper
        self._errors = []         # exception objects already counted
        self.counts = {}
        self.decompositions = set()   # (groupoid structure, seed) decomposed
        self.inconclusive = 0

    # -- installation ---------------------------------------------------------

    def install(self):
        gcstar_modules = [m for name, m in sorted(sys.modules.items())
                          if name == "gcstar" or name.startswith("gcstar.")]
        for label, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(cls, method, original, self._wrapper(label, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(label, original)
            for m in gcstar_modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, original, wrapper)

    def _patch(self, namespace, name, original, wrapper):
        setattr(namespace, name, wrapper)
        self._patched.append((namespace, name, original))

    def uninstall(self):
        while self._patched:
            namespace, name, original = self._patched.pop()
            setattr(namespace, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrapper(self, label, original):
        """The wrapper of ``label``, made at the first install and reused."""
        if label not in self._wrappers:
            self._wrappers[label] = self._wrap(label, original)
        return self._wrappers[label]

    def _wrap(self, label, original):
        label_id = len(self.labels)
        self.labels.append(label)
        hook = getattr(self, "_on_" + label.replace(".", "_"), None)
        signature = inspect.signature(original) if hook else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            except (AmbiguityError, GridRefinementNeeded) as exc:
                self._count_error(exc)
                raise
            finally:
                spans[index] = (label_id, start, clock(), parent)
                stack.pop()
            if hook:
                hook(signature.bind(*args, **kwargs), result)
            return result

        return wrapper

    # -- counters -------------------------------------------------------------

    def _add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def _count_error(self, exc):
        if any(exc is seen for seen in self._errors):
            return
        self._errors.append(exc)
        name = ("spectrum.ambiguity_errors" if isinstance(exc, AmbiguityError)
                else "bandops.grid_refinement_errors")
        self._add(name, 1)

    def _on_spectrum_concrete_algebra(self, bound, alg):
        self._add("spectrum.algebra_dim.sum", alg.dim)

    def _on_spectrum_commutant_basis(self, bound, basis):
        self._add("spectrum.commutant_basis.size_sum", len(basis))

    def _on_spectrum_wedderburn(self, bound, dec):
        bound.apply_defaults()
        alg = bound.arguments["alg"]
        self._add("spectrum.eigh_flops_computed", alg.dim ** 3)
        self.decompositions.add((_groupoid_key(alg.groupoid), bound.arguments["seed"]))

    def _on_bandops_gram_banded(self, bound, result):
        bands, n = result
        self._add("bandops.section_rows.sum", n)
        self._add("bandops.gram_bytes_computed", bands.shape[0] * n * 16)

    def _on_bandops_symbol_invertible(self, bound, check):
        self._add("bandops.symbol_grid_points.sum", check.grid)

    def _on_bandops_finite_section_analysis(self, bound, report):
        self.inconclusive += report.flag == "INCONCLUSIVE"

    # -- results --------------------------------------------------------------

    def metrics(self, traced_run_s):
        """Per-layer metric values (without trace.overhead_frac)."""
        spans = self.spans
        n_labels = len(self.labels)
        child_time = [0.0] * len(spans)
        for label_id, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = [0] * n_labels
        busy = [0.0] * n_labels
        self_s = [0.0] * n_labels
        total_self = 0.0
        for i, (label_id, start, end, parent) in enumerate(spans):
            own = end - start - child_time[i]
            calls[label_id] += 1
            self_s[label_id] += own
            total_self += own
            # busy time counts a function once when it is nested in itself
            p = parent
            while p >= 0 and spans[p][0] != label_id:
                p = spans[p][3]
            if p < 0:
                busy[label_id] += end - start
        values = {}
        for label_id, label in enumerate(self.labels):
            if label.startswith("suite."):
                values[f"{label}.busy_s"] = busy[label_id]
                continue
            values[f"{label}.calls"] = calls[label_id]
            values[f"{label}.busy_s"] = busy[label_id]
            if label in WITH_CHILDREN:
                values[f"{label}.self_s"] = self_s[label_id]
        for name, _, _ in COUNTERS:
            values[name] = self.counts.get(name, 0)
        attempts = values["spectrum.wedderburn.calls"]
        values["spectrum.wedderburn.distinct_ratio"] = (
            len(self.decompositions) / attempts if attempts else 0.0)
        sections = values["bandops.finite_section_analysis.calls"]
        values["bandops.sections.inconclusive_ratio"] = (
            self.inconclusive / sections if sections else 0.0)
        values["trace.unaccounted_frac"] = (traced_run_s - total_self) / traced_run_s
        return values

    def write_spans(self, path):
        with open(path, "w") as fh:
            for label_id, start, end, parent in self.spans:
                fh.write(json.dumps([self.labels[label_id], start, end, parent]) + "\n")
