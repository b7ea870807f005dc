"""Self-tests for the benchmark harness.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
from pathlib import Path

import worker  # puts the source tree on sys.path
import run
import workloads

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _keys(workload, seed, round_index=0):
    return [op.key for op in workloads.build(workload, seed, round_index)]


def test_same_seed_same_ops_other_seed_or_round_other_ops():
    for workload in workloads.WORKLOADS:
        first = _keys(workload, 3)
        assert first == _keys(workload, 3), workload
        assert first != _keys(workload, 4), workload
        assert first != _keys(workload, 3, 1), workload


def test_tampered_or_raising_op_counts_as_failed():
    ops = workloads.build("sweep", 0)[:10]
    honest = ops[0].run

    def tampered():
        report, *rest = honest()
        return (dataclasses.replace(report, a_invariant=report.a_invariant + 1),
                *rest)

    def raising():
        raise ZeroDivisionError("injected")

    ops[0] = dataclasses.replace(ops[0], run=tampered)
    ops[1] = dataclasses.replace(ops[1], run=raising)
    out = worker.measure(None, ops, 0, min_ops=0)
    out["peak_rss_mb"] = worker.peak_rss_mb()
    result = run.summarize("sweep", out, [0.1])
    assert (result["attempted"], result["failed"]) == (10, 2)
    assert result["correct"] is False
    assert result["metrics"]["passed_frac"]["value"] == 0.8


def test_trace_emits_every_per_layer_metric(tmp_path):
    import tracer as tracing

    names = {metric["name"] for metric in BENCHMARK["per_layer"]}
    units = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    for workload, count, nonzero in [("sweep", 20, "hypersurface.classify.calls"),
                                     ("cli", 2, "cli.process_s")]:
        tracer = tracing.Tracer()
        tracer.install()
        ops = workloads.build(workload, 0)[:count]
        result = worker.trace(workload, ops, tracer, tmp_path)
        assert set(result["metrics"]) == names
        assert all(units[name] == metric["unit"]
                   for name, metric in result["metrics"].items())
        assert result["metrics"][nonzero]["value"] > 0
        assert result["failed"] == 0
        assert (tmp_path / f"spans-{workload}.jsonl").stat().st_size > 0


def test_default_seed_certificates_match_recorded_digests():
    digests = workloads._load_digests()["0"]
    ops = workloads.build("certify", workloads.DEFAULT_SEED)
    cheap = [index for index, op in enumerate(ops)
             if op.kind != "fedder" and op.key.split(" f=")[0].endswith(", 3)")]
    assert cheap and all(str(index) in digests for index in cheap)
    for index in cheap:
        cert = ops[index].run()
        assert workloads.cert_digest(cert) == digests[str(index)], ops[index].key
        assert ops[index].check(cert), ops[index].key
