"""Benchmark for diagalg: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {certify,oracle,sweep,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the workload runs untraced in a fresh process and the
end-to-end metrics are printed; set-up time is the median over
SETUP_TRIALS fresh processes.  With ``--trace 1`` one traced process prints
the per-layer metrics.  A human-readable summary goes to standard error;
the last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# workloads.WORKLOADS; not imported, because that module needs the sources.
WORKLOADS = ("certify", "oracle", "sweep", "cli")
SETUP_TRIALS = 7
BUDGET_S = 170  # every run must end within 180 s


def _worker(args, mode: str, deadline: float) -> tuple:
    """Run worker.py in its own process group; return (spawn time, result)."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--mode", mode]
    spawned = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{mode} worker for {args.workload} ran out of time")
    if proc.returncode != 0 or not stdout.strip():
        raise SystemExit(f"{mode} worker for {args.workload} failed "
                         f"with exit code {proc.returncode}")
    return spawned, json.loads(stdout.strip().splitlines()[-1])


def _setup_time(args, mode: str, deadline: float) -> tuple:
    """Spawn-to-first-op time of one worker, and the worker's output.  The
    part after interpreter start is scaled for machine speed by the
    reference timings the worker took; interpreter start is not, because
    it slows by less than the reference in a slow stretch (see
    WORKLOADS.md)."""
    spawned, out = _worker(args, mode, deadline)
    return ((out["started"] - spawned)
            + (out["ready"] - out["started"]) * out["setup_scale"]), out


def end_to_end(args, deadline: float) -> dict:
    trials = [_setup_time(args, "setup", deadline)
              for _ in range(SETUP_TRIALS - 1)]
    trials.append(_setup_time(args, "measure", deadline))
    out = trials[-1][1]
    # The median factors the figures were scaled by: about 1 on an idle
    # machine.  steady.py records this line with each run.
    scale = {"ops": out["scale"],
             "setup": statistics.median(o["setup_scale"] for _, o in trials)}
    print("machine-speed scale: " + json.dumps(scale), file=sys.stderr)
    return summarize(args.workload, out, [setup for setup, _ in trials])


def summarize(workload: str, out: dict, setups: list) -> dict:
    """The end-to-end result from a measure worker's output and the set-up
    times of the trials."""
    latencies, failed = out["latencies"], out["failed"]
    attempted = len(latencies)
    p90 = statistics.quantiles(latencies, n=10)[8]
    print(f"{workload}: {attempted} ops in {len(out['round_rates'])} rounds; "
          f"latency_p90_s from {attempted} samples, "
          f"{sum(t > p90 for t in latencies)} beyond it; set-up trials "
          + ", ".join(f"{s:.3f}" for s in setups) + " s",
          file=sys.stderr)
    if attempted < 100:
        print("warning: fewer than 100 ops, so latency_p90_s rests on fewer "
              "than ten samples beyond it", file=sys.stderr)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (statistics.median(out["round_rates"]), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (p90, "s"),
        "passed_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in values.items()}}


def traced(args, deadline: float) -> dict:
    _, out = _worker(args, "trace", deadline)
    return {"correct": out["failed"] == 0, "attempted": out["attempted"],
            "failed": out["failed"], "metrics": out["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "diagalg" / "__init__.py").is_file():
        print(f"error: no diagalg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = traced(args, deadline) if args.trace else end_to_end(args, deadline)
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"  failed {result['failed']} of {result['attempted']} ops",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
