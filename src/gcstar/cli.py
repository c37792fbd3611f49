"""Command-line front end for reproducible verification runs.

Exit status: 0 when every requested check passes, 1 when a verification
fails, 2 for malformed input or violated preconditions.  Identical
(command line, seed) pairs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bandops import (DEFAULT_GRID, DEFAULT_SECTION_EPS, DEFAULT_SECTION_SIZES,
                      DEFAULT_SYMBOL_TOL, FLAG_VERDICT, finite_section_analysis,
                      limit_operator, locality_check, symbol_invertible)
from .errors import (AmbiguityError, CoverPreconditionError,
                     GluingConditionError, GridRefinementNeeded, InputError)
from .gluing import glue
from .groupoid import orbits, reduction, validate
from .isosearch import groupoid_isomorphism
from .models import GEOMETRIES, MODEL_PARAMETERS, boundary_symbol, discretize_model
from .reports import Report
from .serialization import (groupoid_to_dict, dump_json, load_band_operator,
                            load_cover, load_gluing_family, load_groupoid,
                            load_model_spec, model_spec_from_dict)
from .spectrum import (block_decomposition, check_norm_estimates,
                       check_phi_isometry, verify_spectrum_decomposition)
from .suite import run_suite

FIXTURE_ENV = "GCSTAR_FIXTURES"


def resolve_input(path):
    """Use the path as given, or look it up in the fixture directory."""
    if os.path.exists(path):
        return path
    base = os.environ.get(FIXTURE_ENV)
    if base:
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    raise InputError(f"input file not found: {path}")


def _sizes(text):
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse sizes {text!r}") from None


def _emit(report, args):
    sys.stdout.write(report.write(args.out))


# -- subcommand bodies --------------------------------------------------------


def cmd_validate(args):
    G = load_groupoid(resolve_input(args.groupoid))
    result = validate(G)
    report = Report("validate")
    rows = report.section("groupoid")
    report.add(rows, "units", G.n_units())
    report.add(rows, "arrows", G.n_arrows())
    rows = report.section("axioms")
    report.add(rows, "ok", result.ok)
    for i, line in enumerate(result.lines() if not result.ok else ()):
        report.add(rows, f"violation{i}", line)
    _emit(report, args)
    return 0 if result.ok else 1


def cmd_spectrum(args):
    G = load_groupoid(resolve_input(args.groupoid))
    dec = block_decomposition(G, seed=args.seed)
    report = Report("spectrum", args.seed)
    rows = report.section("algebra")
    report.add(rows, "dimension", G.n_arrows())
    report.add(rows, "orbits", len(orbits(G)))
    report.add(rows, "blocks", len(dec.blocks))
    for b in dec.blocks:
        rows = report.section(f"block {b.label}")
        report.add(rows, "dimension", b.dim)
        report.add(rows, "multiplicity", b.multiplicity)
    _emit(report, args)
    return 0


def cmd_verify_decomposition(args):
    G = load_groupoid(resolve_input(args.groupoid))
    cover = load_cover(resolve_input(args.cover))
    result = verify_spectrum_decomposition(G, cover, seed=args.seed)
    report = Report("verify-decomposition", args.seed)
    rows = report.section("result")
    report.add(rows, "ok", result.ok)
    report.add(rows, "blocks", len(result.prim_all))
    for U, img in zip(result.cover, result.images):
        report.add(rows, f"induced from {sorted(map(str, U))}", img)
    _emit(report, args)
    return 0 if result.ok else 1


def cmd_induction_checks(args):
    G = load_groupoid(resolve_input(args.groupoid))
    subsets = load_cover(resolve_input(args.subsets))
    dec = block_decomposition(G, seed=args.seed)
    report = Report("induction-checks", args.seed)
    ok = True
    for U in subsets:
        rows = report.section(f"subset {sorted(map(str, U))}")
        norm_rep = check_norm_estimates(G, U, trials=args.trials, seed=args.seed, dec=dec)
        report.add(rows, "corner-equality-gap", norm_rep.max_equality_gap)
        report.add(rows, "induced-norm-slack", norm_rep.min_induction_slack)
        report.add(rows, "regular-consistency", norm_rep.max_regular_consistency)
        unitary = all(check_phi_isometry(G, U, x).ok for x in U)
        report.add(rows, "unitary", unitary)
        subset_ok = unitary and norm_rep.ok
        report.add(rows, "ok", subset_ok)
        ok = ok and subset_ok
    _emit(report, args)
    return 0 if ok else 1


def cmd_glue(args):
    family = load_gluing_family(resolve_input(args.family))
    report = Report("glue")
    rows = report.section("weak-gluing")
    try:
        G = glue(family)
    except GluingConditionError as exc:
        report.add(rows, "ok", False)
        for i, line in enumerate(exc.report.lines()):
            report.add(rows, f"failure{i}", line)
        _emit(report, args)
        return 1
    report.add(rows, "ok", True)
    rows = report.section("coproduct")
    report.add(rows, "units", G.n_units())
    report.add(rows, "arrows", G.n_arrows())
    report.add(rows, "orbits", len(orbits(G)))
    replay = all(groupoid_isomorphism(reduction(G, U), piece) is not None
                 for U, piece in zip(family.cover, family.pieces))
    report.add(rows, "reductions-isomorphic-to-pieces", replay)
    if args.emit:
        dump_json(args.emit, groupoid_to_dict(G))
        report.add(rows, "emitted", args.emit)
    _emit(report, args)
    return 0 if replay else 1


def cmd_fredholm(args):
    A = load_band_operator(resolve_input(args.operator))
    report = Report("fredholm")
    loc = locality_check(A, grid=args.grid, tol=args.tol_symbol)
    verdict = loc.two_sided
    rows = report.section("verdict")
    report.add(rows, "fredholm", verdict.fredholm)
    for end in ("minus", "plus"):
        chk = verdict.end(end)
        report.add(rows, f"{end}-min-modulus", chk.min_modulus)
        report.add(rows, f"{end}-certified-margin", chk.margin)
    rows = report.section("locality")
    report.add(rows, "left-fredholm", loc.left_fredholm)
    report.add(rows, "right-fredholm", loc.right_fredholm)
    sections = finite_section_analysis(A, args.sizes, args.eps)
    rows = report.section("finite-sections")
    report.add(rows, "sizes", sections.sizes)
    report.add(rows, "counts-below-eps", sections.counts)
    report.add(rows, "counts-below-window", sections.window_counts)
    report.add(rows, "window", sections.window)
    report.add(rows, "flag", sections.flag)
    consistent = FLAG_VERDICT.get(sections.flag, verdict.fredholm) == verdict.fredholm
    rows = report.section("consistency")
    report.add(rows, "ok", consistent)
    if args.emit_data:
        with open(args.emit_data, "w", encoding="utf-8") as fh:
            fh.write("# size count_eps count_window\n")
            for N, c, m in zip(sections.sizes, sections.counts,
                               sections.window_counts):
                fh.write(f"{N} {c} {m}\n")
    _emit(report, args)
    return 0 if consistent else 1


def cmd_model(args):
    names = ["geometry", "coefficients", *(key for key, _ in MODEL_PARAMETERS)]
    flags = {name: getattr(args, name) for name in names if getattr(args, name) is not None}
    if args.spec:
        if flags:
            raise InputError(f"--spec excludes --{', --'.join(flags)}")
        spec = load_model_spec(resolve_input(args.spec))
    else:
        if not args.geometry or not args.coefficients:
            raise InputError("either --spec or --geometry/--coefficients is required")
        try:
            flags["coefficients"] = [float(c) for c in args.coefficients.split(",")]
        except ValueError:
            raise InputError(f"cannot parse coefficients {args.coefficients!r}") from None
        spec = model_spec_from_dict(flags)
    A = discretize_model(spec)
    sym = limit_operator(A, "plus")
    closed = boundary_symbol(spec)
    report = Report("model")
    rows = report.section("model")
    report.add(rows, "geometry", spec.geometry)
    report.add(rows, "coefficients", list(spec.coefficients))
    report.add(rows, "step", spec.h)
    report.add(rows, "window", spec.n)
    rows = report.section("boundary-symbol")
    report.add(rows, "matches-closed-form", sym.max_abs_difference(closed) < 1e-12)
    chk = symbol_invertible(sym, grid=args.grid, tol=args.tol_symbol)
    report.add(rows, "invertible", chk.invertible)
    report.add(rows, "min-modulus", chk.min_modulus)
    report.add(rows, "certified-margin", chk.margin)
    if args.emit_data:
        theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
        values = np.abs(sym(theta))
        with open(args.emit_data, "w", encoding="utf-8") as fh:
            fh.write("# theta abs_symbol\n")
            for t, v in zip(theta, values):
                fh.write(f"{t:.10f} {v:.12g}\n")
    _emit(report, args)
    return 0


def cmd_suite(args):
    results = run_suite(seed=args.seed)
    report = Report("suite", args.seed)
    rows = report.section("criteria")
    for r in results:
        report.add(rows, f"criterion-{r.index}-{r.name}",
                   "PASS" if r.ok else "FAIL")
    rows = report.section("details")
    for r in results:
        report.add(rows, f"criterion-{r.index}", r.detail)
    for r in results:
        print(r.line())
        print(f"criterion {r.index} [{r.name}] took {r.elapsed:.1f}s", file=sys.stderr)
    report.write(args.out)
    if args.out:
        print(f"report written to {args.out}")
    return 0 if all(r.ok for r in results) else 1


# -- argument parsing -----------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gcstar",
        description="Exact and numerical verification for finite groupoid "
                    "algebras and lattice band operators.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="write the report here")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    symbol = argparse.ArgumentParser(add_help=False)
    symbol.add_argument("--tol-symbol", type=float, default=DEFAULT_SYMBOL_TOL)
    symbol.add_argument("--grid", type=int, default=DEFAULT_GRID)
    sections = argparse.ArgumentParser(add_help=False)
    sections.add_argument("--eps", type=float, default=DEFAULT_SECTION_EPS,
                          help="finite-section singular value threshold")
    sections.add_argument("--sizes", type=_sizes, default=DEFAULT_SECTION_SIZES,
                          help="comma-separated finite-section sizes")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check the groupoid axioms of a structure file")
    p.add_argument("groupoid")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("spectrum", parents=[common, seeded],
                       help="block decomposition and spectrum census")
    p.add_argument("groupoid")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify-decomposition", parents=[common, seeded],
                       help="spectrum decomposition over a cover")
    p.add_argument("groupoid")
    p.add_argument("--cover", required=True)
    p.set_defaults(func=cmd_verify_decomposition)

    p = sub.add_parser("induction-checks", parents=[common, seeded],
                       help="norm estimates and the induced-representation unitary")
    p.add_argument("groupoid")
    p.add_argument("--subsets", required=True,
                   help="JSON list of unit subsets to check")
    p.add_argument("--trials", type=int, default=10)
    p.set_defaults(func=cmd_induction_checks)

    p = sub.add_parser("glue", parents=[common],
                       help="weak gluing check and coproduct construction")
    p.add_argument("family")
    p.add_argument("--emit", default=None, help="write the glued groupoid here")
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("fredholm", parents=[common, symbol, sections],
                       help="limit-operator verdict, locality, finite sections")
    p.add_argument("operator")
    p.add_argument("--emit-data", default=None)
    p.set_defaults(func=cmd_fredholm)

    p = sub.add_parser("model", parents=[common, symbol],
                       help="discretize a boundary model and check its symbol")
    p.add_argument("--spec", default=None, help="model spec JSON file")
    p.add_argument("--geometry", choices=GEOMETRIES)
    p.add_argument("--coefficients", help="comma-separated, lowest power first")
    for key, kind in MODEL_PARAMETERS:
        p.add_argument(f"--{key}", type=kind)
    p.add_argument("--emit-data", default=None)
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("suite", parents=[common, seeded],
                       help="run the full randomized verification suite")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise InputError("seed must be non-negative")
        return args.func(args)
    except (InputError, CoverPreconditionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GridRefinementNeeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 2
    except (AmbiguityError, GluingConditionError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
