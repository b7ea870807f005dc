"""One workload process: build round 0, then time or trace the workload.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode M

``--mode setup`` builds round 0 and stops; ``measure`` then runs rounds 0,
1, 2, ..., one op at a time, for about S seconds and at least MIN_OPS ops;
``trace`` runs round 0 once untraced and once traced and derives the
per-layer metrics.  The last line of standard output is one JSON object;
``ready`` in it is the ``time.monotonic()`` reading just before the first
timed op, less the time spent timing the machine-speed reference, and
``started`` the reading once the interpreter has started.  The parent
subtracts its own reading taken before it started this process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Interpreter start ends here; run.py leaves that part of set-up unscaled.
STARTED = time.monotonic()

import calibrate  # noqa: E402

# Set-up is scaled for machine speed by reference timings taken here, before
# the package import, and again once the first round is built.
SETUP_REFS = 10


def _setup_refs() -> tuple:
    """SETUP_REFS reference times, and the wall time spent taking them."""
    began = time.monotonic()
    refs = [calibrate.time_reference() for _ in range(SETUP_REFS)]
    return refs, time.monotonic() - began


_start_refs, _start_refs_s = _setup_refs()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the source tree on sys.path)

SPANS_DIR = ROOT / ".perfbench"
MIN_OPS = 100  # so that latency_p90_s has at least ten samples beyond it


def _passes(op, result) -> bool:
    try:
        return bool(op.check(result))
    except Exception as exc:  # a check that raises is a failed op
        print(f"check raised on {op.key[:120]}: {exc!r}", file=sys.stderr)
        return False


def run_pass(ops, before=None, after=None) -> tuple:
    """Run every op once, timing only ``op.run``; return the per-op times,
    the machine-speed scale of each, from reference timings taken before
    each op, and the failure flags."""
    times, failures, refs = [], [], []
    for index, op in enumerate(ops):
        refs.append(calibrate.time_reference())
        if before is not None:
            before(index)
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # an op that raises counts as failed
            times.append(time.perf_counter() - start)
            if after is not None:
                after(index)
            print(f"op raised on {op.key[:120]}: {exc!r}", file=sys.stderr)
            failures.append(True)
            continue
        times.append(time.perf_counter() - start)
        if after is not None:
            after(index)
        failures.append(not _passes(op, result))
    return times, calibrate.local_scales(refs), failures


def measure(next_round, ops, seconds: float, min_ops: int = MIN_OPS) -> dict:
    """Closed loop, one client: run rounds, one op at a time, until at least
    ``min_ops`` ops have run and the round boundary nearest to ``seconds``
    is reached.  ``ops`` is round 0 and ``next_round(r)`` builds round r;
    building is not timed.  Latencies are scaled for machine speed, and
    ``scale`` is the median factor they were scaled by."""
    latencies: list = []
    round_rates: list = []
    scales: list = []
    failed = 0
    start = time.perf_counter()
    for index in itertools.count(1):
        began = time.perf_counter()
        times, factors, flags = run_pass(ops)
        round_times = [t * f for t, f in zip(times, factors)]
        failed += sum(flags)
        scales += factors
        latencies += round_times
        round_rates.append(len(round_times) / sum(round_times))
        now = time.perf_counter()
        if len(latencies) >= min_ops and now - start + (now - began) / 2 >= seconds:
            break
        ops = next_round(index)
    return {"latencies": latencies, "round_rates": round_rates,
            "scale": statistics.median(scales),
            "failed": failed}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB


IMPORT_CLI = ("import time; start = time.perf_counter(); import diagalg.cli; "
              "print(time.perf_counter() - start)")


def cli_process_metrics(ops) -> tuple:
    """Time whole processes, one of each per op: ``python -m diagalg`` with
    the op's arguments (checked like the op), a bare interpreter, and an
    interpreter that imports ``diagalg.cli``.  Return the medians, which are
    not scaled for machine speed, and the number of failed invocations."""
    env = workloads.cli_env()

    def timed(args):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env, timeout=120)
        return time.perf_counter() - start, proc

    process, bare, imports, failed = [], [], [], 0
    for op in ops:
        elapsed, proc = timed(["-m", "diagalg", *op.argv])
        process.append(elapsed)
        failed += not _passes(op, (proc.returncode, proc.stdout))
        bare.append(timed(["-c", "pass"])[0])
        imports.append(float(timed(["-c", IMPORT_CLI])[1].stdout))
    return {"cli.process_s": statistics.median(process),
            "cli.interpreter_s": statistics.median(bare),
            "cli.import_s": statistics.median(imports)}, failed


def cli_main_metrics(spans) -> dict:
    """Median per ``cli.main`` call of its self time (argument parsing and
    rendering) and of the time in the wrapped library calls under it."""
    own, compute = [], []
    for index, span in enumerate(spans):
        if span[0] == "cli.main":
            inner = sum(s[2] - s[1] for s in spans if s[3] == index)
            compute.append(inner)
            own.append(span[2] - span[1] - inner)
    return {"cli.main.self_s": statistics.median(own),
            "cli.compute_s": statistics.median(compute)}


def trace(workload: str, ops, tracer, spans_dir: Path) -> dict:
    """One untraced pass, then one traced pass of the same ops; for cli
    also the whole-process timings of ``cli_process_metrics``."""
    import tracer as tracing

    tracer.uninstall()
    times, factors, flags = run_pass(ops)
    failed = sum(flags)
    tracer.install()
    tracer.recording = False

    def before(index):
        tracer.op = index
        tracer.recording = True

    def after(index):
        tracer.recording = False

    traced = run_pass(ops, before, after)
    tracer.uninstall()
    failed += sum(traced[2])
    metrics = tracing.layer_metrics(tracer.spans)
    metrics.update({name: 0.0 for name in tracing.CLI_METRICS})
    if workload == "cli":
        metrics.update(cli_main_metrics(tracer.spans))
        process_metrics, process_failed = cli_process_metrics(ops)
        metrics.update(process_metrics)
        failed += process_failed
    # Both passes scaled for machine speed, so that a slow stretch during
    # one of them does not read as tracing overhead.
    metrics["trace.overhead_frac"] = (
        sum(t * f for t, f in zip(traced[0], traced[1]))
        / sum(t * f for t, f in zip(times, factors)) - 1)
    tracer.write(spans_dir / f"spans-{workload}.jsonl")
    return {"metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in tracing.PER_LAYER},
            "attempted": (3 if workload == "cli" else 2) * len(ops),
            "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    args = parser.parse_args(argv)
    # One CPU for this process and the processes it starts, so that the
    # reference timings see the same core as the ops they scale.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ops = workloads.build(args.workload, args.seed)
    end_refs, end_refs_s = _setup_refs()
    # The reference runs are not set-up work: leave their time out.
    out = {"started": STARTED,
           "ready": time.monotonic() - _start_refs_s - end_refs_s,
           "setup_scale": calibrate.scale(_start_refs + end_refs)}
    if args.mode == "measure":
        out.update(measure(lambda index: workloads.build(
            args.workload, args.seed, index), ops, args.seconds))
        out["peak_rss_mb"] = peak_rss_mb()
    elif args.mode == "trace":
        SPANS_DIR.mkdir(exist_ok=True)
        out.update(trace(args.workload, ops, tracer, SPANS_DIR))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
