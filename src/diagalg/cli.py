"""Command-line surface.

Subcommands: ``classify`` (flag report for one hypersurface diagonal),
``hilbert`` (graded piece dimensions), ``lcdim`` (local-cohomology dimension
table), ``frobenius`` (characteristic-p certificates on explicit or sampled
polynomials), ``rees`` (Rees-diagonal criteria and exact dimensions), and
``figure`` (flag grid over a (d, e) rectangle at diagonal (1, 1)).

Output formats: json (single versioned document), csv (header plus one row
per cell or table entry), text.  Exit codes: 0 success, 1 stdout closed
before the output was written, 2 precondition or parse error, 3 internal
defect.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import frobenius as frob
from . import hypersurface as hyp
from . import rees
from .errors import InternalDefectError, PreconditionError
from .gradedcomb import DiagonalSpec
from .parsing import parse_polynomial

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3


def _schema(command: str) -> str:
    return f"diagalg/{command}/{SCHEMA_VERSION}"


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _emit_csv(header, rows) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    print(buffer.getvalue(), end="")


# ---------------------------------------------------------------------------
# classify

def _hyp_spec(args) -> tuple[hyp.HypersurfaceSpec, DiagonalSpec]:
    return (
        hyp.HypersurfaceSpec(args.m, args.n, args.d, args.e),
        DiagonalSpec(args.g, args.h),
    )


def cmd_classify(args) -> None:
    spec, diag = _hyp_spec(args)
    report = hyp.classify(spec, diag)
    inputs = {"m": args.m, "n": args.n, "d": args.d, "e": args.e,
              "g": args.g, "h": args.h}
    if args.format == "json":
        _emit_json({"schema": _schema("classify"), "inputs": inputs,
                    "report": report.to_dict()})
    elif args.format == "csv":
        _emit_csv(
            ["m", "n", "d", "e", "g", "h", "cohen_macaulay", "gorenstein",
             "rational_singularities", "f_regular_type", "a_invariant",
             "canonical_shift_x", "canonical_shift_y", "cm_obstruction"],
            [[args.m, args.n, args.d, args.e, args.g, args.h,
              report.cohen_macaulay, report.gorenstein,
              report.rational_singularities_generic,
              report.f_regular_type_generic, report.a_invariant,
              report.canonical_shift[0], report.canonical_shift[1],
              "" if report.cm_obstruction is None else report.cm_obstruction]],
        )
    else:
        print(f"diagonal subalgebra of a bidegree-({args.d},{args.e}) "
              f"hypersurface in {args.m}+{args.n} variables, "
              f"diagonal ({args.g},{args.h}):")
        print(f"  Cohen-Macaulay:         {report.cohen_macaulay}")
        if report.cm_obstruction is not None:
            print(f"  CM obstruction index:   {report.cm_obstruction}")
        print(f"  Gorenstein:             {report.gorenstein}")
        print(f"  rational singularities: {report.rational_singularities_generic}")
        print(f"  F-regular type:         {report.f_regular_type_generic}")
        print(f"  canonical shift:        {report.canonical_shift}")
        print(f"  a-invariant:            {report.a_invariant}")
        for caveat in report.caveats:
            print(f"  caveat: {caveat}")


# ---------------------------------------------------------------------------
# hilbert

def cmd_hilbert(args) -> None:
    spec, diag = _hyp_spec(args)
    values = [(k, hyp.dim_piece(spec, diag, k)) for k in range(args.k_max + 1)]
    if args.format == "json":
        _emit_json({
            "schema": _schema("hilbert"),
            "inputs": {"m": args.m, "n": args.n, "d": args.d, "e": args.e,
                       "g": args.g, "h": args.h, "k_max": args.k_max},
            "values": [{"k": k, "dim": dim} for k, dim in values],
        })
    elif args.format == "csv":
        _emit_csv(["k", "dim"], values)
    else:
        print("k    dim")
        for k, dim in values:
            print(f"{k:<4} {dim}")


# ---------------------------------------------------------------------------
# lcdim

def cmd_lcdim(args) -> None:
    spec, diag = _hyp_spec(args)
    table = hyp.lc_dim_table(spec, diag, k_lo=args.k_min, k_hi=args.k_max)
    entries = sorted(table.items())
    a_inv = hyp.a_invariant(spec, diag)
    if args.format == "json":
        _emit_json({
            "schema": _schema("lcdim"),
            "inputs": {"m": args.m, "n": args.n, "d": args.d, "e": args.e,
                       "g": args.g, "h": args.h,
                       "k_min": args.k_min, "k_max": args.k_max},
            "a_invariant": a_inv,
            "top_q": spec.m + spec.n - 2,
            "entries": [{"q": q, "k": k, "dim": dim}
                        for (q, k), dim in entries],
        })
    elif args.format == "csv":
        _emit_csv(["q", "k", "dim"], [(q, k, dim) for (q, k), dim in entries])
    else:
        top = spec.m + spec.n - 2
        print(f"nonzero local-cohomology dimensions (top q = {top}, "
              f"a-invariant = {a_inv}):")
        if not entries:
            print("  (none in range)")
        for (q, k), dim in entries:
            print(f"  q={q:<3} k={k:<5} dim={dim}")
        print(f"note: the q={top} row is nonzero for every k <= {a_inv}; "
              "rows shown are truncated to the requested range")


# ---------------------------------------------------------------------------
# frobenius

def cmd_frobenius(args) -> None:
    p = args.p
    if args.mode == "fpure":
        if args.poly is None:
            raise PreconditionError("--poly is required for --mode fpure")
        f = parse_polynomial(args.poly, args.m, args.n, p)
        result = frob.fedder_is_f_pure(f)
        if args.format == "json":
            _emit_json({"schema": _schema("frobenius"), "mode": "fpure",
                        "inputs": {"m": args.m, "n": args.n, "p": p,
                                   "poly": str(f)},
                        "f_pure": result})
        else:
            print(f"f = {f}")
            print(f"F-pure over F_{p}: {result}")
        return

    if args.mode == "graded":
        if args.n:
            raise PreconditionError("graded mode takes --n 0")
        if args.poly is not None:
            f = parse_polynomial(args.poly, args.m, 0, p)
            if f.is_zero or not f.is_homogeneous():
                raise PreconditionError("--poly must be nonzero homogeneous")
            d = f.total_degree()
        else:
            if args.d is None:
                raise PreconditionError("--d is required when sampling a form")
            d = args.d
            f = frob.random_biform(args.m, 0, d, 0, p, args.seed)
        cert = frob.f_regular_certificate_graded(f, d, args.m, p, args.q_max)
    else:  # bigraded
        if args.poly is not None:
            f = parse_polynomial(args.poly, args.m, args.n, p)
            if f.is_zero or not f.is_bihomogeneous():
                raise PreconditionError("--poly must be nonzero bihomogeneous")
            d, e = f.bidegree()
        else:
            if args.d is None or args.e is None:
                raise PreconditionError(
                    "--d and --e are required when sampling a form")
            d, e = args.d, args.e
            f = frob.random_biform(args.m, args.n, d, e, p, args.seed)
        cert = frob.f_regular_certificate_bigraded(
            f, d, e, args.m, args.n, p, args.q_max)

    if args.format == "json":
        _emit_json({"schema": _schema("frobenius"), "mode": args.mode,
                    "f": str(f), "certificate": cert.to_dict()})
    else:
        print(f"f = {f}")
        print(f"verdict: {cert.verdict}")
        if cert.q_used is not None:
            print(f"q used: {cert.q_used}")
        if cert.normal_form is not None:
            print(f"socle: {cert.socle}")
            print(f"normal form: {cert.normal_form}")
        if cert.details:
            print(f"details: {cert.details}")
        for assumption in cert.assumptions:
            print(f"assumption: {assumption}")


# ---------------------------------------------------------------------------
# rees

def _parse_degrees(text: str) -> tuple[int, ...]:
    degrees = []
    for part in text.split(","):
        try:
            degrees.append(int(part))
        except ValueError:
            raise PreconditionError(
                f"--degrees part is not an integer: {part!r}") from None
    return tuple(degrees)


def cmd_rees(args) -> None:
    if args.degrees is not None:
        degrees = _parse_degrees(args.degrees)
        if args.m is None:
            raise PreconditionError("--m is required with --degrees")
        ci = rees.CISpec(args.m, degrees)
        result = rees.ci_diagonal_is_cm(ci, args.g, args.h)
        if args.format == "json":
            _emit_json({"schema": _schema("rees"), "mode": "ci",
                        "inputs": {"m": args.m, "degrees": list(degrees),
                                   "g": args.g, "h": args.h},
                        "cohen_macaulay": result})
        else:
            print(f"complete intersection of degrees {degrees} in "
                  f"{args.m} variables, diagonal ({args.g},{args.h}):")
            print(f"  Cohen-Macaulay: {result}")
        return

    if args.k is None or args.s is None:
        raise PreconditionError("rigidity mode requires --k and --s")
    if args.m is not None:
        # Given --a or --dim must agree with the polynomial base; ReesSpec
        # checks that.
        spec = rees.ReesSpec(a=-args.m if args.a is None else args.a,
                             dimA=args.m if args.dim is None else args.dim,
                             s=args.s, k=args.k, m=args.m)
    else:
        if args.a is None or args.dim is None:
            raise PreconditionError("need either --m or both --a and --dim")
        spec = rees.ReesSpec(a=args.a, dimA=args.dim, s=args.s, k=args.k)
    if args.g < 1 or args.h < 1:
        raise PreconditionError(f"need g, h >= 1: ({args.g}, {args.h})")

    window = rees.rigidity_window(spec.a, spec.k, spec.s, args.g)
    is_cm = rees.rigidity_is_cm(spec.a, spec.k, spec.s, args.g)
    powers = [{"r": r, "a_invariant": rees.a_inv_quotient_power(
        spec.a, spec.k, spec.s, r)} for r in range(1, 4)]
    payload = {
        "schema": _schema("rees"),
        "mode": "rigidity",
        "inputs": {"a": spec.a, "dim": spec.dimA, "s": spec.s, "k": spec.k,
                   "g": args.g, "h": args.h, "m": spec.m},
        "cohen_macaulay": is_cm,
        "nonvanishing_window": {"lo": window.start,
                                "hi": window.stop - 1},
        "possibly_nonzero_q": [spec.dimA - spec.s + 1, spec.dimA],
        "power_a_invariants": powers,
    }
    if spec.m is not None:
        payload["dims"] = [
            {"i": i, "dim": rees.dim_lc_rees_diag(spec, args.g, args.h, i)}
            for i in range(1, args.i_max + 1)
        ]
        if not rees.cm_criteria_consistent(spec.m, spec.k, spec.s, args.g,
                                           args.h):
            raise InternalDefectError(
                f"Rees Cohen-Macaulay criteria disagree for {spec} at "
                f"diagonal ({args.g},{args.h}); please report")
        payload["criteria_consistent"] = True
    if args.format == "json":
        _emit_json(payload)
    else:
        print(f"Rees diagonal: a={spec.a}, dim={spec.dimA}, s={spec.s}, "
              f"k={spec.k}, diagonal ({args.g},{args.h})")
        print(f"  Cohen-Macaulay: {is_cm}")
        lo, hi = window.start, window.stop - 1
        shown = "empty" if lo > hi else f"[{lo}, {hi}]"
        print(f"  nonvanishing window for q={spec.dimA - spec.s + 1}: {shown}")
        print(f"  possibly nonzero q: {payload['possibly_nonzero_q']}")
        for entry in powers:
            print(f"  a-invariant of power r={entry['r']}: "
                  f"{entry['a_invariant']}")
        if spec.m is not None:
            for entry in payload["dims"]:
                print(f"  dim at i={entry['i']}: {entry['dim']}")
            print(f"  criteria consistent: {payload['criteria_consistent']}")


# ---------------------------------------------------------------------------
# figure

def figure_grid(m: int, n: int, d_max: int, e_max: int) -> dict:
    """Classification reports for every (d, e) in [1, d_max] x [1, e_max]
    at the diagonal (1, 1).  Needs m, n >= 3."""
    if m < 3 or n < 3:
        raise PreconditionError(f"the flag grid needs m, n >= 3: ({m}, {n})")
    diag = DiagonalSpec(1, 1)
    return {
        (d, e): hyp.classify(hyp.HypersurfaceSpec(m, n, d, e), diag)
        for d in range(1, d_max + 1) for e in range(1, e_max + 1)
    }


def _figure_cell(report: hyp.ClassificationReport) -> str:
    if report.f_regular_type_generic:
        symbol = "F"
    elif report.rational_singularities_generic:
        symbol = "R"
    elif report.cohen_macaulay:
        symbol = "C"
    else:
        symbol = "."
    return symbol + ("*" if report.gorenstein else " ")


def cmd_figure(args) -> None:
    grid = figure_grid(args.m, args.n, args.d_max, args.e_max)
    if args.format == "json":
        _emit_json({
            "schema": _schema("figure"),
            "inputs": {"m": args.m, "n": args.n, "d_max": args.d_max,
                       "e_max": args.e_max, "g": 1, "h": 1},
            "cells": [{"d": d, "e": e,
                       "cohen_macaulay": rep.cohen_macaulay,
                       "gorenstein": rep.gorenstein,
                       "rational_singularities": rep.rational_singularities_generic,
                       "f_regular_type": rep.f_regular_type_generic}
                      for (d, e), rep in sorted(grid.items())],
        })
    elif args.format == "csv":
        _emit_csv(
            ["d", "e", "cohen_macaulay", "gorenstein",
             "rational_singularities", "f_regular_type"],
            [(d, e, rep.cohen_macaulay, rep.gorenstein,
              rep.rational_singularities_generic, rep.f_regular_type_generic)
             for (d, e), rep in sorted(grid.items())],
        )
    else:
        print(f"flags over d in [1,{args.d_max}], e in [1,{args.e_max}] "
              f"for m={args.m}, n={args.n}, diagonal (1,1)")
        width = max(2, len(str(args.e_max)))
        for e in range(args.e_max, 0, -1):
            row = " ".join(_figure_cell(grid[(d, e)])
                           for d in range(1, args.d_max + 1))
            print(f"e={e:<{width}} {row}")
        labels = " ".join(f"{d:<2}" for d in range(1, args.d_max + 1))
        print(f"  d={' ' * (width - 2)} {labels}")
        print("legend: F = F-regular type, R = rational singularities, "
              "C = Cohen-Macaulay, . = none; * marks Gorenstein")


# ---------------------------------------------------------------------------
# parser and dispatch

def _add_hyp_flags(sub):
    sub.add_argument("--m", type=int, required=True, help="number of x-variables")
    sub.add_argument("--n", type=int, required=True, help="number of y-variables")
    sub.add_argument("--d", type=int, required=True, help="x-degree of the form")
    sub.add_argument("--e", type=int, required=True, help="y-degree of the form")
    sub.add_argument("--g", type=int, default=1, help="diagonal x-step (default 1)")
    sub.add_argument("--h", type=int, default=1, help="diagonal y-step (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagalg",
        description="Exact calculators for diagonal subalgebras of bigraded "
                    "rings and characteristic-p singularity certificates.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser(
        "classify", help="flag report for one hypersurface diagonal")
    _add_hyp_flags(sub)
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sub.set_defaults(func=cmd_classify)

    sub = subparsers.add_parser(
        "hilbert", help="graded piece dimensions of the diagonal subalgebra")
    _add_hyp_flags(sub)
    sub.add_argument("--k-max", type=int, default=8, dest="k_max")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sub.set_defaults(func=cmd_hilbert)

    sub = subparsers.add_parser(
        "lcdim", help="local-cohomology dimension table of the diagonal")
    _add_hyp_flags(sub)
    sub.add_argument("--k-min", type=int, default=None, dest="k_min")
    sub.add_argument("--k-max", type=int, default=None, dest="k_max")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sub.set_defaults(func=cmd_lcdim)

    sub = subparsers.add_parser(
        "frobenius", help="characteristic-p F-purity / F-regularity certificates")
    sub.add_argument("--mode", choices=("graded", "bigraded", "fpure"),
                     default="bigraded")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--n", type=int, default=0)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--e", type=int, default=None)
    sub.add_argument("--p", type=int, required=True, help="prime characteristic")
    sub.add_argument("--poly", type=str, default=None,
                     help="explicit polynomial; omit to sample a dense form")
    sub.add_argument("--q-max", type=int, default=4, dest="q_max",
                     help="test Frobenius powers up to p^q_max (default 4)")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for the sampled form (default 0)")
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.set_defaults(func=cmd_frobenius)

    sub = subparsers.add_parser(
        "rees", help="Rees-diagonal criteria, windows, and exact dimensions")
    sub.add_argument("--a", type=int, default=None,
                     help="a-invariant of the base ring")
    sub.add_argument("--dim", type=int, default=None,
                     help="dimension of the base ring")
    sub.add_argument("--m", type=int, default=None,
                     help="polynomial base with m variables (a = -m)")
    sub.add_argument("--k", type=int, default=None, help="common form degree")
    sub.add_argument("--s", type=int, default=None, help="number of forms")
    sub.add_argument("--g", type=int, default=1)
    sub.add_argument("--h", type=int, default=1)
    sub.add_argument("--i-max", type=int, default=6, dest="i_max")
    sub.add_argument("--degrees", type=str, default=None,
                     help="comma-separated degrees: run the complete-"
                          "intersection criterion instead")
    sub.add_argument("--format", choices=("json", "text"), default="text")
    sub.set_defaults(func=cmd_rees)

    sub = subparsers.add_parser(
        "figure", help="flag grid over a (d, e) rectangle at diagonal (1, 1)")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d-max", type=int, default=12, dest="d_max")
    sub.add_argument("--e-max", type=int, default=12, dest="e_max")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")
    sub.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Send what is still buffered
        # to devnull, so the flush at interpreter exit raises nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalDefectError as exc:
        print(f"internal defect: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
