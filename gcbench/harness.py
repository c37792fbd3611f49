"""Set-up, timed passes, metrics and the machine record of one benchmark run.

A run builds its workload's inputs from the seed, then runs whole passes
over them back to back (a closed loop: one process, the next instance
starts when the previous one returns) for as long as another pass still
fits in the time budget, and at least once.  Every pass runs the same
instances in the same order, so each pass's latency sample has the same
composition and the per-pass statistics can be combined by median.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import workloads
from tracer import Tracer, per_layer_metric_specs

BUILDERS = {
    "suite": workloads.build_suite,
    "spectrum-ladder": workloads.build_ladder,
    "sections": workloads.build_sections,
}
SETUP_REPEATS = 5
TAIL_BEYOND = 10   # the tail percentile keeps at least this many instances beyond it

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("instances_per_s", "1/s"),
    ("instance_ms_p50", "ms"),
    ("instance_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)


def machine_record(blas_threads):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "blas_threads": blas_threads,
    }


# -- set-up -----------------------------------------------------------------------


def _import_gcstar_in_child(src_dir):
    """Cold import of the whole package (as the ``gcstar`` CLI does) in a child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    subprocess.run([sys.executable, "-c", "import gcstar.cli"], env=env,
                   check=True, stdout=subprocess.DEVNULL)


def set_up(workload, seed, size, src_dir, repeats=SETUP_REPEATS):
    """(median set-up seconds, inputs): child import plus seeded generation."""
    build = BUILDERS[workload]
    _import_gcstar_in_child(src_dir)   # unmeasured: writes the bytecode cache
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _import_gcstar_in_child(src_dir)
        inputs = build(seed, size)
        times.append(time.perf_counter() - start)
    return statistics.median(times), inputs


# -- timed passes -------------------------------------------------------------------


def warm_up(workload, seed):
    """One untimed, unchecked pass over the workload's tiny inputs.

    It runs every code path of a pass once (lazy imports, first-call set-up
    in numpy and scipy, allocator growth) before any timing starts.
    """
    _run_pass(workload, BUILDERS[workload](seed, "tiny"))


class Pass:
    """One pass over the inputs: wall time, per-instance latencies, outcomes."""

    def __init__(self, wall, latencies, outcomes, criteria=None):
        self.wall = wall
        self.latencies = latencies      # seconds, one per instance
        self.outcomes = outcomes        # (ok, record) per operation
        self.criteria = criteria        # suite only: seconds per criterion


def _run_pass(workload, inputs):
    if workload == "suite":
        (run,) = inputs
        start = time.perf_counter()
        try:
            results = run.call()
        except workloads.OPERATION_ERRORS as exc:
            wall = time.perf_counter() - start
            return Pass(wall, [wall], [(False, [type(exc).__name__])] * 9)
        wall = time.perf_counter() - start
        # nine criteria give no percentile: the latency sample is the whole
        # suite call, and each criterion counts as one attempted operation
        return Pass(wall, [wall],
                    [(r.ok, [r.index, r.name, r.ok, r.detail]) for r in results],
                    {f"c{r.index}": r.elapsed for r in results})

    latencies, outputs = [], []
    start = time.perf_counter()
    for instance in inputs:
        latency, output = _timed_call(instance)
        latencies.append(latency)
        outputs.append(output)
    return _checked_pass(inputs, time.perf_counter() - start, latencies, outputs)


def _timed_call(instance):
    start = time.perf_counter()
    try:
        output = instance.call()
    except workloads.OPERATION_ERRORS as exc:
        output = exc
    return time.perf_counter() - start, output


def _checked_pass(inputs, wall, latencies, outputs):
    outcomes = []
    for instance, output in zip(inputs, outputs):
        if isinstance(output, Exception):
            outcomes.append((False, [type(output).__name__]))
        else:
            outcomes.append(instance.check(output))
    return Pass(wall, latencies, outcomes)


def run_traced(workload, inputs, tracer):
    """(untraced passes, traced pass) over the same inputs.

    Outside ``suite`` each instance runs untraced and then traced, back to
    back, so that both see the same machine speed; the pass walls are then
    the sums of the call times.  ``suite`` is one call: it runs untraced,
    traced and untraced again, so that a steady drift in machine speed
    cancels from the comparison.
    """
    if workload == "suite":
        before = _run_pass(workload, inputs)
        with tracer:
            traced = _run_pass(workload, inputs)
        return [before, _run_pass(workload, inputs)], traced
    plain, traced = ([], []), ([], [])
    for instance in inputs:
        for (latencies, outputs), context in ((plain, contextlib.nullcontext()),
                                              (traced, tracer)):
            with context:
                latency, output = _timed_call(instance)
            latencies.append(latency)
            outputs.append(output)
    untraced, traced = (_checked_pass(inputs, sum(latencies), latencies, outputs)
                        for latencies, outputs in (plain, traced))
    return [untraced], traced


def run_passes(workload, inputs, seconds):
    """Whole passes while the next one is expected to fit in ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(_run_pass(workload, inputs))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def tail_rank(k):
    """(0-based rank in a sorted sample of k, percentile) of the tail statistic.

    The highest percentile with at least TAIL_BEYOND instances beyond it; a
    sample of TAIL_BEYOND or fewer has none, and its maximum stands in.
    """
    if k <= TAIL_BEYOND:
        return k - 1, 100.0
    return k - 1 - TAIL_BEYOND, 100.0 * (k - TAIL_BEYOND) / k


def digest(passes):
    """sha256 of the first pass's records; None when passes disagree."""
    texts = {json.dumps([rec for _, rec in p.outcomes], sort_keys=True)
             for p in passes}
    if len(texts) != 1:
        return None
    return hashlib.sha256(texts.pop().encode()).hexdigest()


def end_to_end(passes, setup_s):
    k = len(passes[0].latencies)
    rank, percentile = tail_rank(k)
    p50 = statistics.median(statistics.median(p.latencies) for p in passes)
    tail = statistics.median(sorted(p.latencies)[rank] for p in passes)
    total_wall = sum(p.wall for p in passes)
    values = {
        "setup_s": setup_s,
        "run_s": statistics.median(p.wall for p in passes),
        "instances_per_s": k * len(passes) / total_wall,
        "instance_ms_p50": 1e3 * p50,
        "instance_ms_tail": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "run_s": f"median pass wall time over {len(passes)} pass(es)",
        "instances_per_s": f"{k * len(passes)} instances",
        "instance_ms_p50": f"median of per-pass medians, {k} instances per pass",
        "instance_ms_tail": (f"p{percentile:.1f}, {k} instances per pass, "
                             f"median over {len(passes)} pass(es)"
                             + ("; fewer than 10 beyond any percentile, so the "
                                "maximum" if k <= TAIL_BEYOND else "")),
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "peak_rss_mb": "own process, ru_maxrss",
    }
    return values, notes


# -- one run ----------------------------------------------------------------------------


def run(workload, seed, seconds, trace, src_dir, out_dir, blas_threads,
        size="full", setup_repeats=SETUP_REPEATS):
    """Run one benchmark and return (result line dict, report lines, record)."""
    setup_s, inputs = set_up(workload, seed, size, src_dir, setup_repeats)
    warm_up(workload, seed)
    if trace:
        tracer = Tracer()
        passes, traced = run_traced(workload, inputs, tracer)
        checked = passes + [traced]
    else:
        passes = checked = run_passes(workload, inputs, seconds)
    failed = sum(not ok for p in checked for ok, _ in p.outcomes)
    attempted = sum(len(p.outcomes) for p in checked)
    out_digest = digest(checked)
    e2e, notes = end_to_end(passes, setup_s)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "machine": machine_record(blas_threads),
        "attempted": attempted, "failed": failed, "digest": out_digest,
        "end_to_end": e2e, "notes": notes,
        "records": [rec for _, rec in passes[0].outcomes],
        "latencies_ms": [[1e3 * t for t in p.latencies] for p in passes],
        "criteria_s": [p.criteria for p in passes if p.criteria],
    }
    lines = [f"gcbench workload={workload} seed={seed} seconds={seconds} "
             f"trace={trace} size={size}",
             "machine: " + json.dumps(record["machine"], sort_keys=True)]
    units = dict(END_TO_END)
    for name, value in e2e.items():
        lines.append(f"{name:18s} {value:14.6f} {units[name]:4s} ({notes[name]})")
    lines.append(f"{'failed_frac':18s} {failed / attempted:14.6f} {'':4s} "
                 f"({failed} failed of {attempted} attempted)")
    lines.append(f"digest: {out_digest}")
    if passes[0].criteria:
        lines.append("criteria (s): " + " ".join(
            f"{name}={t:.2f}" for name, t in passes[0].criteria.items()))

    if trace:
        layer = tracer.metrics(traced.wall)
        untraced_wall = statistics.mean(p.wall for p in passes)
        layer["trace.overhead_frac"] = traced.wall / untraced_wall - 1.0
        specs = per_layer_metric_specs()
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in specs}
        record["per_layer"] = layer
        record["traced_run_s"] = traced.wall
        spans_path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl")
        tracer.write_spans(spans_path)
        lines.append(f"traced pass {traced.wall:.3f} s against untraced "
                     f"{untraced_wall:.3f} s; {len(tracer.spans)} spans in {spans_path}")
        for name, unit, _ in specs:
            lines.append(f"{name:52s} {layer[name]:16.6f} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    correct = failed == 0 and out_digest is not None
    record["correct"] = correct
    with open(os.path.join(out_dir, f"result-{workload}-seed{seed}-trace{trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines, record
