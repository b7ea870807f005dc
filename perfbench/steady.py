"""Run the benchmark once per seed, seeds 1 to 10, on each workload of
BENCHMARK.json and report, per end-to-end metric, the median and the spread:
the distance between the first and third quartiles as a share of the median.

    python3 perfbench/steady.py [--out perfbench/steadiness.json]

Each run's machine-speed scale factors (see calibrate.py) are recorded with
its metrics.  Each call appends one record to ``--out``; that file is the
steadiness record that the bounds in BENCHMARK.json rest on.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
SCALE_LINE = "machine-speed scale: "


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    record = {"seeds": [SEEDS[0], SEEDS[-1]],
              "run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        values = {name: [] for name in bounds}
        scales = []
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
                 "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops",
                      file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            scales.append(json.loads(next(
                line for line in proc.stderr.splitlines()
                if line.startswith(SCALE_LINE))[len(SCALE_LINE):]))
        summary = {}
        for name, series in values.items():
            summary[name] = {"median": statistics.median(series),
                             "spread": spread(series), "bound": bounds[name],
                             "values": series}
            print(f"{workload:8} {name:17} median {statistics.median(series):.6g}"
                  f"  spread {spread(series):.4f}  bound {bounds[name]}",
                  flush=True)
        summary["machine_speed_scale"] = scales
        print(f"{workload:8} scale ops "
              + " ".join(f"{s['ops']:.3f}" for s in scales)
              + "; setup " + " ".join(f"{s['setup']:.3f}" for s in scales),
              flush=True)
        record["workloads"][workload] = summary
    if args.out:
        out = Path(args.out)
        records = json.loads(out.read_text()) if out.exists() else []
        out.write_text(json.dumps(records + [record], indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
