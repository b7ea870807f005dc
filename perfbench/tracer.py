"""In-memory span tracer that wraps diagalg's public functions from outside.

``Tracer.install()`` replaces every wrapped function in every ``diagalg``
module namespace that binds it (for example ``normal_form`` is bound in both
``exactalg`` and ``frobenius``), so internal calls such as
``groebner_basis`` -> ``normal_form`` are caught as well: module globals
resolve at call time.  ``uninstall()`` puts the originals back.

Each span records name, start, end, parent span and op id, plus the work
counts that its ``count`` hook derives from the call's arguments and result.
Self time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from math import comb

from diagalg import (cli, exactalg, frobenius, gradedcomb, hypersurface,
                     parsing, rees)


def _count_normal_form(args, kwargs, result):
    return {"terms_in": len(args[0].terms), "terms_out": len(result.terms),
            "zero": int(result.is_zero)}


def _count_groebner(args, kwargs, result):
    return {"gens_in": len(args[0]), "basis_out": len(result)}


def _count_pow(args, kwargs, result):
    return {"terms_out": len(result.terms)}


def _ambient(ring, degree):
    if isinstance(degree, int):
        return comb(degree + ring.nvars - 1, ring.nvars - 1) if degree >= 0 else 0
    a, b = degree
    if a < 0 or b < 0:
        return 0
    return comb(a + ring.m - 1, ring.m - 1) * comb(b + ring.n - 1, ring.n - 1)


def _count_standard(args, kwargs, result):
    gb = args[0]
    ring = kwargs.get("ring") or (args[3] if len(args) > 3 else None) or gb[0].ring
    return {"ambient": _ambient(ring, args[1]), "hits": result}


def _count_fedder(args, kwargs, result):
    return {"true": int(result)}


def _count_certificate(args, kwargs, result):
    return {"powers_tested": len(result.tested_powers),
            "f_regular": int(result.verdict == frobenius.VERDICT_F_REGULAR)}


def _count_lc_table(args, kwargs, result):
    return {"entries": len(result)}


def _count_parse(args, kwargs, result):
    return {"chars": len(args[0])}


# (module, attribute, span name, count hook).  MultiPoly operators are
# patched on the class; everything else in every module namespace binding it.
FUNCTIONS = [
    (exactalg, "normal_form", "exactalg.normal_form", _count_normal_form),
    (exactalg, "groebner_basis", "exactalg.groebner_basis", _count_groebner),
    (exactalg, "s_polynomial", "exactalg.s_polynomial", None),
    (exactalg, "standard_monomial_count", "exactalg.standard_monomial_count",
     _count_standard),
    (exactalg, "is_regular_sequence", "exactalg.is_regular_sequence", None),
    (frobenius, "random_biform", "frobenius.random_biform", None),
    (frobenius, "fedder_is_f_pure", "frobenius.fedder_is_f_pure", _count_fedder),
    (frobenius, "f_regular_certificate_graded", "frobenius.certificate",
     _count_certificate),
    (frobenius, "f_regular_certificate_bigraded", "frobenius.certificate",
     _count_certificate),
    (hypersurface, "classify", "hypersurface.classify", None),
    (hypersurface, "a_invariant", "hypersurface.a_invariant", None),
    (hypersurface, "lc_dim_table", "hypersurface.lc_dim_table", _count_lc_table),
    (hypersurface, "dim_piece", "hypersurface.dim_piece", None),
    (hypersurface, "dim_lc_piece", "hypersurface.dim_lc_piece", None),
    (hypersurface, "canonical_piece_dim", "hypersurface.canonical_piece_dim", None),
    (gradedcomb, "dim_tensor_diag", "gradedcomb.dim_tensor_diag", None),
    (gradedcomb, "dim_lc_tensor_diag", "gradedcomb.dim_lc_tensor_diag", None),
    (rees, "ci_quotient_hilbert", "rees.ci_quotient_hilbert", None),
    (rees, "dim_lc_rees_diag", "rees.dim_lc_rees_diag", None),
    (parsing, "parse_polynomial", "parsing.parse_polynomial", _count_parse),
    (cli, "main", "cli.main", None),
]
OPERATORS = [
    ("__mul__", "exactalg.mul", None),
    ("__rmul__", "exactalg.mul", None),
    ("__pow__", "exactalg.pow", _count_pow),
]

# Per-layer metrics read off the spans: (metric, unit, span name, field).
# Field "calls" and "self_s" are span counts and summed self time; "frac:x"
# divides the summed count x by the number of calls; "ratio:x/y" divides two
# summed counts; anything else is a summed count.
SPAN_METRICS = []
for _name, _fields in [
    ("exactalg.normal_form", "calls self_s terms_in terms_out frac:zero"),
    ("exactalg.groebner_basis", "calls self_s gens_in basis_out"),
    ("exactalg.s_polynomial", "calls self_s"),
    ("exactalg.pow", "calls self_s terms_out"),
    ("exactalg.mul", "calls self_s"),
    ("exactalg.standard_monomial_count", "calls self_s ambient ratio:hits/ambient"),
    ("exactalg.is_regular_sequence", "calls self_s"),
    ("frobenius.random_biform", "calls self_s"),
    ("frobenius.fedder_is_f_pure", "calls self_s frac:true"),
    ("frobenius.certificate", "calls self_s powers_tested frac:f_regular"),
    ("hypersurface.classify", "calls self_s"),
    ("hypersurface.a_invariant", "calls self_s"),
    ("hypersurface.lc_dim_table", "calls self_s entries"),
    ("hypersurface.dim_piece", "calls self_s"),
    ("hypersurface.dim_lc_piece", "calls self_s"),
    ("hypersurface.canonical_piece_dim", "calls"),
    ("gradedcomb.dim_tensor_diag", "calls"),
    ("gradedcomb.dim_lc_tensor_diag", "calls"),
    ("rees.ci_quotient_hilbert", "calls self_s"),
    ("rees.dim_lc_rees_diag", "calls self_s"),
    ("parsing.parse_polynomial", "calls self_s chars"),
]:
    for _field in _fields.split():
        _label = {"frac:zero": "zero_frac", "frac:true": "true_frac",
                  "frac:f_regular": "f_regular_frac",
                  "ratio:hits/ambient": "hit_ratio"}.get(_field, _field)
        _unit = "s" if _field == "self_s" else (
            "frac" if ":" in _field else "count")
        SPAN_METRICS.append((f"{_name}.{_label}", _unit, _name, _field))

INPUT_LAYERS = ("frobenius.random_biform", "exactalg.is_regular_sequence")
CLI_METRICS = ["cli.interpreter_s", "cli.import_s", "cli.main.self_s",
               "cli.compute_s", "cli.process_s"]
PER_LAYER = ([(metric, unit) for metric, unit, _, _ in SPAN_METRICS]
             + [(metric, "s") for metric in CLI_METRICS]
             + [("trace.overhead_frac", "frac")])


class Tracer:
    """Collects spans in memory while installed and ``recording``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, counts]
        self.op = "setup"
        self.recording = True
        self._stack = []
        self._patches = []

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "diagalg" or key.startswith("diagalg.")]
        for module, attr, name, count in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        cls = exactalg.MultiPoly
        wrappers = {}
        for attr, name, count in OPERATORS:
            original = cls.__dict__[attr]
            if original not in wrappers:
                wrappers[original] = self._wrap(original, name, count)
            self._patches.append((cls, attr, original))
            setattr(cls, attr, wrappers[original])

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps([index, *span]) + "\n")


def self_times(spans):
    """Self time of every span: duration minus its direct children's."""
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] is not None:
            own[span[3]] -= span[2] - span[1]
    return own


def layer_metrics(spans) -> dict:
    """Aggregate spans into the per-layer metrics of ``SPAN_METRICS``.

    Spans of the timed ops count, and set-up spans count only inside input
    generation (``INPUT_LAYERS`` and what they call), not inside the
    computation of expected values."""
    own = self_times(spans)
    counted = []
    for span in spans:
        counted.append(span[4] != "setup" or span[0] in INPUT_LAYERS
                       or (span[3] is not None and counted[span[3]]))
    totals: dict = {}
    for span, self_s, keep in zip(spans, own, counted):
        if not keep:
            continue
        entry = totals.setdefault(span[0], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        for key, value in (span[5] or {}).items():
            entry[key] = entry.get(key, 0) + value
    metrics = {}
    for metric, _, name, field in SPAN_METRICS:
        entry = totals.get(name, {})
        if field.startswith("frac:"):
            calls = entry.get("calls", 0)
            value = entry.get(field[5:], 0) / calls if calls else 0.0
        elif field.startswith("ratio:"):
            num, den = field[6:].split("/")
            value = entry.get(num, 0) / entry[den] if entry.get(den) else 0.0
        else:
            value = entry.get(field, 0)
        metrics[metric] = value
    return metrics
