"""Command-line surface.

Subcommands: ``classify`` (flag report for one hypersurface diagonal),
``hilbert`` (graded piece dimensions), ``lcdim`` (local-cohomology dimension
table), ``frobenius`` (characteristic-p certificates on explicit or sampled
polynomials), ``rees`` (Rees-diagonal criteria and exact dimensions), and
``figure`` (flag grid over a (d, e) rectangle at diagonal (1, 1)).

``main`` parses the arguments in one pass.  When the first names a
subcommand, that subcommand's own parser reads the rest
(``parse_known_args``), and the top parser reports any it leaves as
unrecognized, with the text and exit code 2 of a nested parse through the
top parser; anything else (no argument, ``--help``, an unknown name) goes
to the top parser.  The parser is built on the first call and kept
(``build_parser``).

Each ``cmd_*`` computes its result once and returns ``(doc, table, lines)``:
the JSON document without its ``schema`` key, the CSV ``(header, rows)`` (or
None where ``--format csv`` is not offered), and the text lines.  After
the parse, ``_dispatch`` alone renders one of them and writes it to stdout
in one piece, after the computation, so an error leaves stdout empty.

Output formats: json (single versioned document), csv (header plus one row
per cell or table entry), text.  Exit codes: 0 success, 1 stdout closed
before the output was written, 2 precondition or parse error, 3 internal
defect.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from gettext import gettext

from . import frobenius as frob
from . import hypersurface as hyp
from . import rees
from .errors import InternalDefectError, PreconditionError, check_rows
from .gradedcomb import DiagonalSpec
from .parsing import parse_polynomial

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3


def _check_printable(*values) -> None:
    """Refuse, before any text is built, an integer with more digits than
    the interpreter converts to text (``sys.get_int_max_str_digits``; a
    limit of 0, or no such function, means no limit)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for v in values:
        # 2^(3 * limit) < 10^limit, so a shorter value needs no power of 10.
        if limit and v.bit_length() > 3 * limit and abs(v) >= 10 ** limit:
            raise PreconditionError(
                f"a computed value has more than {limit} digits, too many "
                "to print")


# ---------------------------------------------------------------------------
# classify

def _hyp_spec(args) -> tuple[hyp.HypersurfaceSpec, DiagonalSpec, dict]:
    # The hypersurface and diagonal of the six shape flags, and the flags
    # as the document's "inputs".
    return (hyp.HypersurfaceSpec(args.m, args.n, args.d, args.e),
            DiagonalSpec(args.g, args.h),
            {"m": args.m, "n": args.n, "d": args.d, "e": args.e,
             "g": args.g, "h": args.h})


def cmd_classify(args):
    spec, diag, inputs = _hyp_spec(args)
    report = hyp.classify(spec, diag)
    obstruction = report.cm_obstruction
    table = (["m", "n", "d", "e", "g", "h", "cohen_macaulay", "gorenstein",
              "rational_singularities", "f_regular_type", "a_invariant",
              "canonical_shift_x", "canonical_shift_y", "cm_obstruction"],
             [[*inputs.values(), report.cohen_macaulay, report.gorenstein,
               report.rational_singularities_generic,
               report.f_regular_type_generic, report.a_invariant,
               *report.canonical_shift,
               "" if obstruction is None else obstruction]])
    lines = [f"diagonal subalgebra of a bidegree-({args.d},{args.e}) "
             f"hypersurface in {args.m}+{args.n} variables, "
             f"diagonal ({args.g},{args.h}):",
             f"  Cohen-Macaulay:         {report.cohen_macaulay}"]
    if obstruction is not None:
        lines.append(f"  CM obstruction index:   {obstruction}")
    lines += [f"  Gorenstein:             {report.gorenstein}",
              f"  rational singularities: {report.rational_singularities_generic}",
              f"  F-regular type:         {report.f_regular_type_generic}",
              f"  canonical shift:        {report.canonical_shift}",
              f"  a-invariant:            {report.a_invariant}"]
    lines += [f"  caveat: {caveat}" for caveat in report.caveats]
    return {"inputs": inputs, "report": report.to_dict()}, table, lines


# ---------------------------------------------------------------------------
# hilbert

def cmd_hilbert(args):
    spec, diag, inputs = _hyp_spec(args)
    check_rows(args.k_max + 1, "a Hilbert range")
    values = [(k, hyp.dim_piece(spec, diag, k)) for k in range(args.k_max + 1)]
    _check_printable(*(dim for _, dim in values))
    doc = {"inputs": inputs | {"k_max": args.k_max},
           "values": [{"k": k, "dim": dim} for k, dim in values]}
    return doc, (["k", "dim"], values), [
        "k    dim", *(f"{k:<4} {dim}" for k, dim in values)]


# ---------------------------------------------------------------------------
# lcdim

def cmd_lcdim(args):
    spec, diag, inputs = _hyp_spec(args)
    dims = hyp.lc_dim_table(spec, diag, k_lo=args.k_min, k_hi=args.k_max)
    rows = [(q, k, dim) for (q, k), dim in sorted(dims.items())]
    a_inv = hyp.a_invariant(spec, diag)
    top = spec.m + spec.n - 2
    _check_printable(a_inv, top, *(v for row in rows for v in row))
    doc = {"inputs": inputs | {"k_min": args.k_min, "k_max": args.k_max},
           "a_invariant": a_inv,
           "top_q": top,
           "entries": [{"q": q, "k": k, "dim": dim} for q, k, dim in rows]}
    lines = [f"nonzero local-cohomology dimensions (top q = {top}, "
             f"a-invariant = {a_inv}):",
             *([f"  q={q:<3} k={k:<5} dim={dim}" for q, k, dim in rows]
               or ["  (none in range)"]),
             f"note: the q={top} row is nonzero for every k <= {a_inv}; "
             "rows shown are truncated to the requested range"]
    return doc, (["q", "k", "dim"], rows), lines


# ---------------------------------------------------------------------------
# frobenius

def cmd_frobenius(args):
    if args.q_max is not None and args.q_max < 1:
        raise PreconditionError(
            f"--q-max must be an integer >= 1: {args.q_max}")
    p = args.p
    if args.mode == "graded" and args.n:
        raise PreconditionError("graded mode takes --n 0")
    if args.mode == "fpure" and (args.d is not None or args.e is not None):
        # Fedder's test takes any form: there is no degree to match.
        raise PreconditionError("fpure mode takes no --d or --e")
    if args.mode == "fpure" and args.q_max is not None:
        raise PreconditionError("fpure mode takes no --q-max")
    if args.poly is not None and args.seed is not None:
        raise PreconditionError(
            "--poly takes no --seed, which seeds a sampled form")
    if args.poly is not None:
        f = parse_polynomial(args.poly, args.m, args.n, p)
    elif args.mode == "fpure":
        raise PreconditionError("--poly is required for --mode fpure")
    elif args.mode == "graded" and args.d is None:
        raise PreconditionError("--d is required when sampling a form")
    elif args.mode == "bigraded" and (args.d is None or args.e is None):
        raise PreconditionError("--d and --e are required when sampling a form")
    else:
        f = frob.random_biform(args.m, args.n, args.d, args.e or 0, p,
                               args.seed or 0)

    if args.mode == "fpure":
        result = frob.fedder_is_f_pure(f)
        doc = {"mode": "fpure",
               "inputs": {"m": args.m, "n": args.n, "p": p, "poly": str(f)},
               "f_pure": result}
        return doc, None, [f"f = {f}", f"F-pure over F_{p}: {result}"]

    # With n = 0, bihomogeneous means homogeneous and the bidegree is (d, 0).
    if f.is_zero or not f.is_bihomogeneous():
        kind = "homogeneous" if args.mode == "graded" else "bihomogeneous"
        raise PreconditionError(f"--poly must be nonzero {kind}")
    d, e = f.bidegree()
    for flag, given, degree in (("--d", args.d, d), ("--e", args.e, e)):
        if given is not None and given != degree:
            raise PreconditionError(
                f"{flag} {given} differs from the form's bidegree ({d}, {e})")
    # Graded mode is the case n = 0, which the bigraded certificate covers.
    cert = frob.f_regular_certificate_bigraded(
        f, d, e, args.m, args.n, p, 4 if args.q_max is None else args.q_max)

    lines = [f"f = {f}", f"verdict: {cert.verdict}"]
    if cert.q_used is not None:
        lines.append(f"q used: {cert.q_used}")
    if cert.normal_form is not None:
        lines += [f"socle: {cert.socle}", f"normal form: {cert.normal_form}"]
    if cert.details:
        lines.append(f"details: {cert.details}")
    lines += [f"assumption: {assumption}" for assumption in cert.assumptions]
    return ({"mode": args.mode, "f": str(f), "certificate": cert.to_dict()},
            None, lines)


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


def cmd_rees(args):
    if args.degrees is not None:
        degrees = _parse_degrees(args.degrees)
        if args.m is None:
            raise PreconditionError("--m is required with --degrees")
        ci = rees.CISpec(args.m, degrees)
        result = rees.ci_diagonal_is_cm(ci, args.g, args.h)
        doc = {"mode": "ci",
               "inputs": {"m": args.m, "degrees": list(degrees),
                          "g": args.g, "h": args.h},
               "cohen_macaulay": result}
        return doc, None, [
            f"complete intersection of degrees {degrees} in "
            f"{args.m} variables, diagonal ({args.g},{args.h}):",
            f"  Cohen-Macaulay: {result}"]

    if args.k is None or args.s is None:
        raise PreconditionError("rigidity mode requires --k and --s")
    if args.m is None and (args.a is None or args.dim is None):
        raise PreconditionError("need either --m or both --a and --dim")
    # With --m, a given --a or --dim must agree with the polynomial base;
    # ReesSpec checks that.
    spec = rees.ReesSpec(a=-args.m if args.a is None else args.a,
                         dimA=args.m if args.dim is None else args.dim,
                         s=args.s, k=args.k, m=args.m)
    if args.g < 1 or args.h < 1:
        raise PreconditionError(f"need g, h >= 1: ({args.g}, {args.h})")

    window = rees.rigidity_window(spec.a, spec.k, spec.s, args.g)
    is_cm = not window
    powers = [{"r": r, "a_invariant": rees.a_inv_quotient_power(
        spec.a, spec.k, spec.s, r)} for r in range(1, 4)]
    lo, hi = window.start, window.stop - 1
    dims = []
    if spec.m is not None:
        check_rows(args.i_max, "a Rees dimension range")
        dims = [{"i": i, "dim": rees.dim_lc_rees_diag(spec, args.g, args.h, i)}
                for i in range(1, args.i_max + 1)]
        if not rees.cm_criteria_consistent(spec.m, spec.k, spec.s, args.g,
                                           args.h):
            raise InternalDefectError(
                f"Rees Cohen-Macaulay criteria disagree for {spec} at "
                f"diagonal ({args.g},{args.h}); please report")
    _check_printable(lo, hi, *(entry["a_invariant"] for entry in powers),
                     *(entry["dim"] for entry in dims))
    doc = {
        "mode": "rigidity",
        "inputs": {"a": spec.a, "dim": spec.dimA, "s": spec.s, "k": spec.k,
                   "g": args.g, "h": args.h, "m": spec.m},
        "cohen_macaulay": is_cm,
        "nonvanishing_window": {"lo": lo, "hi": hi},
        "possibly_nonzero_q": [spec.dimA - spec.s + 1, spec.dimA],
        "power_a_invariants": powers,
    }
    lines = [f"Rees diagonal: a={spec.a}, dim={spec.dimA}, s={spec.s}, "
             f"k={spec.k}, diagonal ({args.g},{args.h})",
             f"  Cohen-Macaulay: {is_cm}",
             f"  nonvanishing window for q={spec.dimA - spec.s + 1}: "
             + ("empty" if lo > hi else f"[{lo}, {hi}]"),
             f"  possibly nonzero q: {doc['possibly_nonzero_q']}",
             *(f"  a-invariant of power r={entry['r']}: {entry['a_invariant']}"
               for entry in powers)]
    if spec.m is not None:
        doc["dims"] = dims
        doc["criteria_consistent"] = True
        lines += [f"  dim at i={entry['i']}: {entry['dim']}" for entry in dims]
        lines.append("  criteria consistent: True")
    return doc, None, lines


# ---------------------------------------------------------------------------
# figure

def figure_grid(m: int, n: int, d_max: int, e_max: int) -> dict:
    """Classification reports for every (d, e) in [1, d_max] x [1, e_max]
    at the diagonal (1, 1).  Needs m, n >= 3 and at most
    ``errors.ROW_CAP`` cells."""
    if m < 3 or n < 3:
        raise PreconditionError(f"the flag grid needs m, n >= 3: ({m}, {n})")
    check_rows(max(d_max, 0) * max(e_max, 0), "a flag grid")
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


def cmd_figure(args):
    grid = figure_grid(args.m, args.n, args.d_max, args.e_max)
    header = ["d", "e", "cohen_macaulay", "gorenstein",
              "rational_singularities", "f_regular_type"]
    rows = [(d, e, rep.cohen_macaulay, rep.gorenstein,
             rep.rational_singularities_generic, rep.f_regular_type_generic)
            for (d, e), rep in sorted(grid.items())]
    doc = {"inputs": {"m": args.m, "n": args.n, "d_max": args.d_max,
                      "e_max": args.e_max, "g": 1, "h": 1},
           "cells": [dict(zip(header, row)) for row in rows]}
    width = max(2, len(str(args.e_max)))
    lines = [f"flags over d in [1,{args.d_max}], e in [1,{args.e_max}] "
             f"for m={args.m}, n={args.n}, diagonal (1,1)"]
    for e in range(args.e_max, 0, -1):
        row = " ".join(_figure_cell(grid[(d, e)])
                       for d in range(1, args.d_max + 1))
        lines.append(f"e={e:<{width}} {row}")
    labels = " ".join(f"{d:<2}" for d in range(1, args.d_max + 1))
    lines += [f"  d={' ' * (width - 2)} {labels}",
              "legend: F = F-regular type, R = rational singularities, "
              "C = Cohen-Macaulay, . = none; * marks Gorenstein"]
    return doc, (header, rows), lines


# ---------------------------------------------------------------------------
# parser and dispatch

def _add_hyp_flags(sub):
    sub.add_argument("--m", type=int, required=True, help="number of x-variables")
    sub.add_argument("--n", type=int, required=True, help="number of y-variables")
    sub.add_argument("--d", type=int, required=True, help="x-degree of the form")
    sub.add_argument("--e", type=int, required=True, help="y-degree of the form")
    sub.add_argument("--g", type=int, default=1, help="diagonal x-step (default 1)")
    sub.add_argument("--h", type=int, default=1, help="diagonal y-step (default 1)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built on the first main() call and kept for the process: parsing does
    # not change the parser, and no caller may.  main() looks up each
    # subcommand's function by name at dispatch, so a replaced cmd_* still
    # takes effect.
    parser = argparse.ArgumentParser(
        prog="diagalg",
        description="Exact calculators for diagonal subalgebras of bigraded "
                    "rings and characteristic-p singularity certificates.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    # Each subcommand's own parser by name, for main()'s one-pass parse.
    parser.subcommands = subparsers.choices

    sub = subparsers.add_parser(
        "classify", help="flag report for one hypersurface diagonal")
    _add_hyp_flags(sub)
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")

    sub = subparsers.add_parser(
        "hilbert", help="graded piece dimensions of the diagonal subalgebra")
    _add_hyp_flags(sub)
    sub.add_argument("--k-max", type=int, default=8, dest="k_max")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")

    sub = subparsers.add_parser(
        "lcdim", help="local-cohomology dimension table of the diagonal")
    _add_hyp_flags(sub)
    sub.add_argument("--k-min", type=int, default=None, dest="k_min")
    sub.add_argument("--k-max", type=int, default=None, dest="k_max")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")

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
    sub.add_argument("--q-max", type=int, default=None, dest="q_max",
                     help="test Frobenius powers up to p^q_max (default 4)")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed for the sampled form (default 0)")
    sub.add_argument("--format", choices=("json", "text"), default="text")

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

    sub = subparsers.add_parser(
        "figure", help="flag grid over a (d, e) rectangle at diagonal (1, 1)")
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d-max", type=int, default=12, dest="d_max")
    sub.add_argument("--e-max", type=int, default=12, dest="e_max")
    sub.add_argument("--format", choices=("json", "csv", "text"), default="text")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        args = parser.parse_args(argv)
    else:
        # The subcommand's parser reads its flags once; the top parser
        # reports what it leaves, in the words of a nested parse.
        args, extras = sub.parse_known_args(argv[1:])
        if extras:
            parser.error(gettext("unrecognized arguments: %s")
                         % " ".join(extras))
        args.command = argv[0]
    return _dispatch(args)


def _dispatch(args) -> int:
    # Run the parsed command, write its output and return the exit code.
    try:
        doc, table, lines = globals()["cmd_" + args.command](args)
        if args.format == "json":
            out = json.dumps({"schema": f"diagalg/{args.command}/{SCHEMA_VERSION}",
                              **doc}, indent=2) + "\n"
        elif args.format == "csv":
            header, rows = table
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows([header, *rows])
            out = buffer.getvalue()
        else:
            out = "\n".join(lines) + "\n"
        sys.stdout.write(out)
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
