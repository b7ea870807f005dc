"""Seeded op lists for the four benchmark workloads.

``build(workload, seed, round_index)`` returns one round: a list of ``Op``
with every input and every expected value generated.  A run measures rounds
0, 1, 2, ... in turn.  The same seed and round give the same ops; the op
mix of a round (which shapes, which commands, how many of each) is fixed per
workload, and the seed and round draw coefficients, parameters and order, so
that every round, and every run, measures comparable work.

Every op calls the library through module attributes (``frobenius.x``, not
a name imported once), so a tracer that patches the modules sees the call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

from diagalg import cli, exactalg, frobenius, hypersurface, rees
from diagalg.gradedcomb import DiagonalSpec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0


@dataclass
class Op:
    """One timed library call and the check of its result.

    ``key`` spells out the whole input, so equal keys mean equal ops.
    ``argv`` is set for ``cli`` ops: the arguments after ``python -m diagalg``,
    which ``run`` passes to ``diagalg.cli.main``.
    """

    kind: str
    key: str
    run: object
    check: object
    argv: list | None = None


def build(workload: str, seed: int, round_index: int = 0) -> list:
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    if workload == "certify":
        digests = _load_digests() if seed == DEFAULT_SEED else {}
        return build_certify(rng, digests.get(str(round_index), {}))
    return BUILDERS[workload](rng)


# ---------------------------------------------------------------------------
# certify: F-purity tests and F-regularity certificates.

# One round of certify: (op, form, (m, n, d, e, p), copies).  Certificates
# are graded when n = 0; "dense" forms come from random_biform and
# "pth-power" forms from pth_power_form.  Ops under 0.05 s on the seed code
# get 5 copies (2 for the cheapest Fedder shapes), the rest one, so that a
# round has 101 ops.  Left out, because one op takes longer than about 1.5 s
# on the seed code: graded (5,3) and (5,4) at p=5 and p=7, bigraded
# (4,4,1,1) and (3,3,2,2) at p=7 and (3,3,2,2) at p=5.  Bigraded (3,2,2,1)
# at p=7 is left out because its cost swings from 0.4 s to 1.3 s with the
# sampled coefficients.
CERTIFY_DECK = [
    ("certificate", "dense", (2, 2, 1, 1, 3), 5),
    ("certificate", "dense", (2, 3, 1, 2, 3), 5),
    ("certificate", "dense", (3, 2, 2, 1, 3), 5),
    ("certificate", "dense", (3, 3, 1, 1, 3), 5),
    ("certificate", "dense", (4, 4, 1, 1, 3), 5),
    ("certificate", "dense", (3, 3, 2, 2, 3), 1),
    ("certificate", "dense", (2, 2, 1, 1, 5), 5),
    ("certificate", "dense", (2, 3, 1, 2, 5), 5),
    ("certificate", "dense", (3, 2, 2, 1, 5), 1),
    ("certificate", "dense", (3, 3, 1, 1, 5), 5),
    ("certificate", "dense", (4, 4, 1, 1, 5), 1),
    ("certificate", "dense", (2, 2, 1, 1, 7), 5),
    ("certificate", "dense", (2, 3, 1, 2, 7), 1),
    ("certificate", "dense", (3, 3, 1, 1, 7), 1),
    ("certificate", "dense", (4, 0, 2, 0, 3), 5),
    ("certificate", "dense", (4, 0, 3, 0, 3), 5),
    ("certificate", "dense", (5, 0, 3, 0, 3), 5),
    ("certificate", "dense", (5, 0, 4, 0, 3), 1),
    ("certificate", "dense", (4, 0, 2, 0, 5), 5),
    ("certificate", "dense", (4, 0, 3, 0, 5), 1),
    ("certificate", "dense", (4, 0, 2, 0, 7), 1),
    ("certificate", "dense", (4, 0, 3, 0, 7), 1),
    # Early exits: d >= m gives not_f_regular before any Groebner work, and
    # a p-th power gives not_f_pure after the Fedder test.
    ("certificate", "dense", (2, 2, 2, 1, 3), 5),
    ("certificate", "dense", (3, 0, 3, 0, 5), 5),
    ("certificate", "pth-power", (4, 4, 3, 3, 3), 2),
    ("certificate", "pth-power", (4, 0, 3, 0, 3), 2),
    # fedder_is_f_pure alone; (3, 0, 4, 0, 3) has d > m, never F-pure.
    ("fedder", "dense", (3, 3, 1, 1, 7), 1),
    ("fedder", "dense", (2, 3, 1, 2, 7), 1),
    ("fedder", "dense", (4, 0, 3, 0, 5), 1),
    ("fedder", "dense", (5, 0, 4, 0, 3), 1),
    ("fedder", "dense", (4, 0, 2, 0, 7), 1),
    ("fedder", "dense", (3, 2, 2, 1, 5), 2),
    ("fedder", "dense", (3, 3, 2, 2, 3), 2),
    ("fedder", "dense", (3, 0, 4, 0, 3), 2),
    ("fedder", "pth-power", (4, 0, 3, 0, 3), 2),
]


def fpure_termwise(f) -> bool:
    """Fedder's criterion computed termwise: the hypersurface is F-pure iff
    some term of f^(p-1) has every exponent below p.  A product of monomials
    with every exponent below p needs factors with the same property, so
    terms with an exponent >= p are dropped as soon as they appear."""
    p = f.ring.p
    power = {(0,) * f.ring.nvars: 1}
    for _ in range(p - 1):
        out: dict = {}
        for ea, ca in power.items():
            for eb, cb in f.terms.items():
                mono = tuple(x + y for x, y in zip(ea, eb))
                if max(mono) < p:
                    out[mono] = (out.get(mono, 0) + ca * cb) % p
        power = {mono: c for mono, c in out.items() if c}
    return bool(power)


def pth_power_form(m: int, n: int, p: int, rng: random.Random):
    """(x1*y1 + a*x2*y2)^p, or (x1 + a2*x2 + a3*x3)^p when n = 0, written
    out termwise.  Never F-pure, and its distinguished monomial has
    coefficient 1."""
    ring = exactalg.PolyRing(p, m, n)
    terms = {}
    for i in range(2 if n else 3):
        mono = [0] * (m + n)
        mono[i] = p
        if n:
            mono[m + i] = p
        terms[tuple(mono)] = 1 if i == 0 else rng.randrange(1, p)
    return ring.poly(terms)


def _load_digests() -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get("certify", {})


def cert_digest(cert) -> str:
    return hashlib.sha256(cert.to_json().encode()).hexdigest()


def _certificate_op(shape, f, digest):
    m, n, d, e, p = shape
    if n:
        def run():
            return frobenius.f_regular_certificate_bigraded(f, d, e, m, n, p, 1)
    else:
        def run():
            return frobenius.f_regular_certificate_graded(f, d, m, p, 1)
    early = d >= m or (n > 0 and e >= n)
    f_pure = fpure_termwise(f)

    def check(cert):
        if digest is not None and cert_digest(cert) != digest:
            return False
        if early:
            return cert.verdict == frobenius.VERDICT_NOT_F_REGULAR
        if not f_pure:
            return cert.verdict == frobenius.VERDICT_NOT_F_PURE
        if cert.verdict == frobenius.VERDICT_F_REGULAR:
            return cert.q_used == p and frobenius.recheck_certificate(cert)
        return cert.verdict == frobenius.VERDICT_INCONCLUSIVE

    return Op("certificate", f"certificate {shape} f={f}", run, check)


def _fedder_op(f):
    expected = fpure_termwise(f)
    return Op("fedder", f"fedder p={f.ring.p} f={f}",
              lambda: frobenius.fedder_is_f_pure(f),
              lambda result: result is expected)


def build_certify(rng: random.Random, digests: dict) -> list:
    deck = []
    for kind, form, (m, n, d, e, p), copies in CERTIFY_DECK:
        for _ in range(copies):
            f = (frobenius.random_biform(m, n, d, e, p, rng.randrange(2**31))
                 if form == "dense" else pth_power_form(m, n, p, rng))
            deck.append((kind, (m, n, d, e, p), f))
    rng.shuffle(deck)
    return [_fedder_op(f) if kind == "fedder"
            else _certificate_op(shape, f, digests.get(str(index)))
            for index, (kind, shape, f) in enumerate(deck)]


# ---------------------------------------------------------------------------
# oracle: Groebner and Hilbert-function cross-checks.

ORACLE_P = 101
# (m, k, s, r) for I^r with I generated by s k-forms in m variables.  Left
# out: (3,3,3,3) and (4,3,3,3), at 3.3 s and 19 s on the seed code, and
# (4,3,3,2) and (4,2,3,3), at 1.6 s each, which would nearly double a
# round.  (3,2,3,3) and (3,3,3,2) still reach bases of 28 and 29 elements.
GB_SHAPES = [(m, k, s, r) for m in (3, 4) for k in (2, 3) for s in (2, 3)
             for r in (1, 2, 3)
             if (k, s, r) != (3, 3, 3) and (m, k, s, r) not in {(4, 3, 3, 2),
                                                              (4, 2, 3, 3)}]
# Hilbert-value ops per round: SMALL_COUNTS with ambient sizes spread
# log-uniformly over COUNT_RANGE, plus LARGE_COUNTS over LARGE_RANGE, so
# that a round has 200 ops.  About half the gb ops cost more than the
# largest small count op; with 200 ops they and the large count op make up
# about 5% of a round, so the 90th percentile falls among the small count
# ops, whose costs spread evenly, and not in the gap above them.  The large
# op takes a tenth of a round, so its range is narrow: over 1.5*10^5 to
# 4*10^5 it alone moved round times by up to 15%.
SMALL_COUNTS, COUNT_RANGE = 179, (1_000, 20_000)
LARGE_COUNTS, LARGE_RANGE = 1, (230_000, 260_000)


def regular_sequence(m: int, k: int, s: int, rng: random.Random) -> list:
    """s dense k-forms in m variables, redrawn until is_regular_sequence."""
    while True:
        forms = [frobenius.random_biform(m, 0, k, 0, ORACLE_P,
                                         rng.randrange(2**31)) for _ in range(s)]
        if exactalg.is_regular_sequence(forms):
            return forms


def _gb_op(m, k, s, r, forms):
    top = rees.a_inv_quotient_power(-m, k, s, r) + 4
    expected = [sum(comb(s - 1 + rho, rho)
                    * rees.ci_quotient_hilbert(m, (k,) * s, j - rho * k)
                    for rho in range(r)) for j in range(top + 1)]

    def run():
        gb = exactalg.groebner_basis(exactalg.power_ideal_gens(forms, r))
        return [exactalg.standard_monomial_count(gb, j) for j in range(top + 1)]

    return Op("gb", f"gb m={m} k={k} s={s} r={r} forms={forms}", run,
              lambda values: values == expected)


def _ambient(m, n, a, b):
    return comb(a + m - 1, m - 1) * comb(b + n - 1, n - 1)


def _count_op(m: int, target: float, rng: random.Random):
    """A bidegree (gK, hK) Hilbert value of T/fT in m + m variables whose
    ambient monomial count lies within 20% of ``target`` (or is the closest
    one) for a seeded bidegree (d, e) and diagonal (g, h)."""
    d, e = rng.randint(1, 3), rng.randint(1, 3)
    shapes = [(abs(_ambient(m, m, g * K, h * K) / target - 1), g, h, K)
              for g in (1, 2, 3) for h in (1, 2, 3) for K in range(1, 60)]
    near = [shape for shape in shapes if shape[0] <= 0.2] or [min(shapes)]
    _, g, h, K = rng.choice(near)
    f = frobenius.random_biform(m, m, d, e, ORACLE_P, rng.randrange(2**31))
    expected = hypersurface.dim_piece(
        hypersurface.HypersurfaceSpec(m, m, d, e), DiagonalSpec(g, h), K)
    degree = (g * K, h * K)

    def run():
        return exactalg.standard_monomial_count(exactalg.groebner_basis([f]), degree)

    return Op("count", f"count degree={degree} f={f}", run,
              lambda value: value == expected)


def build_oracle(rng: random.Random) -> list:
    """One gb op per shape in GB_SHAPES and the Hilbert-value ops."""
    ops = [_gb_op(m, k, s, r, regular_sequence(m, k, s, rng))
           for m, k, s, r in GB_SHAPES]
    for count, (lo, hi) in ((SMALL_COUNTS, COUNT_RANGE),
                            (LARGE_COUNTS, LARGE_RANGE)):
        for i in range(count):
            target = lo * (hi / lo) ** ((i + rng.random()) / count)
            # Alternate m so that every round enumerates as many 3+3 as
            # 4+4 monomials at each size; their costs differ.
            ops.append(_count_op(3 + i % 2, target, rng))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# sweep: closed-form queries over seeded shapes.

SWEEP_OPS = 1000


def sweep_shape(rng: random.Random):
    m, n = rng.randint(2, 6), rng.randint(2, 6)
    d, e = rng.randint(0, 8), rng.randint(0, 8)
    while d + e == 0:
        d, e = rng.randint(0, 8), rng.randint(0, 8)
    return m, n, d, e, rng.randint(1, 4), rng.randint(1, 4)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _sweep_op(m, n, d, e, g, h):
    spec = hypersurface.HypersurfaceSpec(m, n, d, e)
    diag = DiagonalSpec(g, h)
    # The Rees side uses a polynomial base in m variables with s = min(m, n)
    # forms of degree max(d, 1) on the same diagonal.
    s, k = min(m, n), max(d, 1)
    rspec = rees.ReesSpec.polynomial_base(m, s, k)
    a_inv = -max(_ceil_div(m - d, g), _ceil_div(n - e, h))

    def run():
        return (hypersurface.classify(spec, diag),
                hypersurface.lc_dim_table(spec, diag),
                [hypersurface.dim_piece(spec, diag, i) for i in range(8)],
                rees.rigidity_window(-m, k, s, g),
                [rees.dim_lc_rees_diag(rspec, g, h, i) for i in range(1, 5)],
                rees.cm_criteria_consistent(m, k, s, g, h))

    def check(result):
        report, table, _, window, rees_dims, consistent = result
        below_top = any(q < m + n - 2 for q, _ in table)
        return (report.cohen_macaulay == (not below_top)
                and hypersurface.is_cohen_macaulay(spec, diag)
                == hypersurface.cm_no_integer_window(spec, diag)
                and report.a_invariant == a_inv
                and consistent is True
                and all((dim > 0) == (i in window)
                        for i, dim in enumerate(rees_dims, start=1)))

    return Op("sweep", f"sweep {(m, n, d, e, g, h)}", run, check)


def build_sweep(rng: random.Random) -> list:
    return [_sweep_op(*sweep_shape(rng)) for _ in range(SWEEP_OPS)]


# ---------------------------------------------------------------------------
# cli: `diagalg.cli.main` on README-style argument lists, run in-process as
# `python -m diagalg` runs it once started, and checked against direct
# library calls.  Whole `python -m diagalg` processes are timed only in the
# traced run (cli.process_s, cli.interpreter_s, cli.import_s): their time
# follows the shared machine's speed by far more than the bounds allow, and
# an in-process reference does not track it (see WORKLOADS.md).

# (subcommand variant, format); each appears once per round.
CLI_KINDS = [("classify", "json"), ("classify", "csv"), ("classify", "text"),
             ("hilbert", "json"), ("hilbert", "csv"), ("hilbert", "text"),
             ("lcdim", "json"), ("lcdim", "csv"),
             ("frobenius-graded", "json"), ("frobenius-graded", "text"),
             ("frobenius-fpure", "json"), ("frobenius-bigraded", "json"),
             ("rees", "json"), ("rees", "text"), ("rees-ci", "json"),
             ("figure", "json"), ("figure", "csv"), ("figure", "text")]


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    return env


def _json_normal(value):
    return json.loads(json.dumps(value))


def _cells(values) -> list:
    return [str(v) for v in values]


def _poly_text(terms: dict, m: int) -> str:
    """Render {exponents: coeff} with '*' and '^' for the CLI's parser."""
    parts = []
    for mono, c in terms.items():
        factors = [f"x{i + 1}" if x == 1 else f"x{i + 1}^{x}"
                   for i, x in enumerate(mono) if x]
        parts.append("*".join(([str(c)] if c != 1 else []) + factors))
    return " + ".join(parts)


def _random_terms(m: int, degree: int, count: int, p: int, rng, lead=None) -> dict:
    monos = list(exactalg.exponent_vectors(degree, m))
    picked = rng.sample(monos, count)
    if lead is not None and lead not in picked:
        picked[0] = lead
    return {mono: 1 if mono == lead else rng.randrange(1, p) for mono in picked}


def _hyp_args(rng):
    m, n, d, e, g, h = sweep_shape(rng)
    argv = ["--m", str(m), "--n", str(n), "--d", str(d), "--e", str(e),
            "--g", str(g), "--h", str(h)]
    spec = hypersurface.HypersurfaceSpec(m, n, d, e)
    return argv, spec, DiagonalSpec(g, h), (m, n, d, e, g, h)


def _cli_case(variant: str, fmt: str, rng: random.Random):
    """argv after the subcommand, and what the output must contain: a dict
    of JSON fields, a list of CSV rows, or a list of text lines as tokens."""
    if variant in ("classify", "hilbert", "lcdim"):
        argv, spec, diag, shape = _hyp_args(rng)
    if variant == "classify":
        report = hypersurface.classify(spec, diag)
        obstruction = report.cm_obstruction
        return argv, {
            "json": {"report": _json_normal(report.to_dict())},
            "csv": [_cells([*shape, report.cohen_macaulay, report.gorenstein,
                            report.rational_singularities_generic,
                            report.f_regular_type_generic, report.a_invariant,
                            *report.canonical_shift,
                            "" if obstruction is None else obstruction])],
            "text": [["Cohen-Macaulay:", str(report.cohen_macaulay)],
                     ["Gorenstein:", str(report.gorenstein)],
                     ["a-invariant:", str(report.a_invariant)]],
        }[fmt]
    if variant == "hilbert":
        k_max = rng.randint(4, 12)
        values = [(k, hypersurface.dim_piece(spec, diag, k)) for k in range(k_max + 1)]
        return argv + ["--k-max", str(k_max)], {
            "json": {"values": [{"k": k, "dim": v} for k, v in values]},
            "csv": [_cells(row) for row in values],
            "text": [_cells(row) for row in values],
        }[fmt]
    if variant == "lcdim":
        entries = sorted(hypersurface.lc_dim_table(spec, diag).items())
        return argv, {
            "json": {"a_invariant": hypersurface.a_invariant(spec, diag),
                     "entries": [{"q": q, "k": k, "dim": v}
                                 for (q, k), v in entries]},
            "csv": [_cells([q, k, v]) for (q, k), v in entries],
        }[fmt]
    if variant == "frobenius-graded":
        m, p = rng.choice((3, 4)), rng.choice((3, 5, 7))
        lead = (2,) + (0,) * (m - 1)
        terms = _random_terms(m, 2, rng.randint(2, 4), p, rng, lead)
        f = exactalg.PolyRing(p, m).poly(terms)
        cert = frobenius.f_regular_certificate_graded(f, 2, m, p, 1)
        argv = ["--mode", "graded", "--m", str(m), "--p", str(p),
                "--q-max", "1", "--poly", _poly_text(terms, m)]
        if fmt == "json":
            return argv, {"f": str(f), "certificate": _json_normal(cert.to_dict())}
        return argv, [["verdict:", cert.verdict], ["f", "=", *str(f).split()]]
    if variant == "frobenius-fpure":
        m, p = rng.choice((3, 4)), rng.choice((3, 5))
        terms = _random_terms(m, rng.randint(2, m), rng.randint(1, 3), p, rng)
        f = exactalg.PolyRing(p, m).poly(terms)
        argv = ["--mode", "fpure", "--m", str(m), "--n", "0", "--p", str(p),
                "--poly", _poly_text(terms, m)]
        return argv, {"f_pure": frobenius.fedder_is_f_pure(f),
                      "inputs": {"m": m, "n": 0, "p": p, "poly": str(f)}}
    if variant == "frobenius-bigraded":
        form_seed = rng.randrange(1000)
        f = frobenius.random_biform(3, 3, 1, 1, 5, form_seed)
        cert = frobenius.f_regular_certificate_bigraded(f, 1, 1, 3, 3, 5, 1)
        return ["--mode", "bigraded", "--m", "3", "--n", "3", "--d", "1",
                "--e", "1", "--p", "5", "--q-max", "1", "--seed", str(form_seed)], {
            "f": str(f), "certificate": _json_normal(cert.to_dict())}
    if variant == "rees":
        m = rng.randint(2, 6)
        s, k = rng.randint(2, m), rng.randint(1, 5)
        g, h, i_max = rng.randint(1, 4), rng.randint(1, 4), rng.randint(2, 6)
        spec = rees.ReesSpec.polynomial_base(m, s, k)
        window = rees.rigidity_window(-m, k, s, g)
        is_cm = rees.rigidity_is_cm(-m, k, s, g)
        dims = [rees.dim_lc_rees_diag(spec, g, h, i) for i in range(1, i_max + 1)]
        consistent = rees.cm_criteria_consistent(m, k, s, g, h)
        argv = ["--m", str(m), "--k", str(k), "--s", str(s), "--g", str(g),
                "--h", str(h), "--i-max", str(i_max)]
        if fmt == "json":
            return argv, {"cohen_macaulay": is_cm,
                          "nonvanishing_window": {"lo": window.start,
                                                  "hi": window.stop - 1},
                          "dims": [{"i": i, "dim": v}
                                   for i, v in enumerate(dims, start=1)],
                          "criteria_consistent": consistent}
        return argv, ([["Cohen-Macaulay:", str(is_cm)],
                       ["criteria", "consistent:", str(consistent)]]
                      + [["dim", "at", f"i={i}:", str(v)]
                         for i, v in enumerate(dims, start=1)])
    if variant == "rees-ci":
        m = rng.randint(2, 6)
        degrees = [rng.randint(1, 4) for _ in range(rng.randint(1, m))]
        h = rng.randint(1, 3)
        g = h * max(degrees) + rng.randint(1, 6)
        ci = rees.CISpec(m, tuple(degrees))
        return ["--m", str(m), "--degrees", ",".join(map(str, degrees)),
                "--g", str(g), "--h", str(h)], {
            "cohen_macaulay": rees.ci_diagonal_is_cm(ci, g, h)}
    # figure
    m, n = rng.randint(3, 6), rng.randint(3, 6)
    d_max, e_max = rng.randint(3, 12), rng.randint(3, 12)
    diag = DiagonalSpec(1, 1)
    grid = {(d, e): hypersurface.classify(hypersurface.HypersurfaceSpec(m, n, d, e), diag)
            for d in range(1, d_max + 1) for e in range(1, e_max + 1)}
    argv = ["--m", str(m), "--n", str(n), "--d-max", str(d_max),
            "--e-max", str(e_max)]
    flags = [(d, e, r.cohen_macaulay, r.gorenstein,
              r.rational_singularities_generic, r.f_regular_type_generic)
             for (d, e), r in sorted(grid.items())]
    if fmt == "json":
        keys = ("d", "e", "cohen_macaulay", "gorenstein",
                "rational_singularities", "f_regular_type")
        return argv, {"cells": [dict(zip(keys, row)) for row in flags]}
    if fmt == "csv":
        return argv, [_cells(row) for row in flags]

    def symbol(r):
        mark = ("F" if r.f_regular_type_generic else
                "R" if r.rational_singularities_generic else
                "C" if r.cohen_macaulay else ".")
        return mark + ("*" if r.gorenstein else "")

    return argv, [[f"e={e}"] + [symbol(grid[(d, e)]) for d in range(1, d_max + 1)]
                  for e in range(1, e_max + 1)]


def output_matches(fmt: str, stdout: str, expected) -> bool:
    if fmt == "json":
        payload = json.loads(stdout)
        return all(payload.get(key) == value for key, value in expected.items())
    if fmt == "csv":
        return list(csv.reader(io.StringIO(stdout)))[1:] == expected
    lines = [line.split() for line in stdout.splitlines()]
    return all(tokens in lines for tokens in expected)


def _cli_op(variant: str, fmt: str, rng: random.Random):
    args, expected = _cli_case(variant, fmt, rng)
    command = variant.split("-")[0]
    argv = [command, *args, "--format", fmt]

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result):
        code, stdout = result
        return code == 0 and output_matches(fmt, stdout, expected)

    return Op(f"cli-{variant}-{fmt}", "diagalg " + " ".join(argv), run, check, argv)


def build_cli(rng: random.Random) -> list:
    ops = [_cli_op(variant, fmt, rng) for variant, fmt in CLI_KINDS]
    rng.shuffle(ops)
    return ops


WORKLOADS = ("certify", "oracle", "sweep", "cli")
BUILDERS = {"oracle": build_oracle, "sweep": build_sweep, "cli": build_cli}
