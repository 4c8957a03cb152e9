"""Run every workload once per seed and report each metric's spread between runs.

    python3 perfbench/spread.py --seeds 1,2,3,4,5

Each run is a fresh `run.py` process with --trace 0, measuring for the
`run_seconds` of BENCHMARK.json, on every workload.  For every end-to-end
metric, gated (xref units) and raw (seconds), this prints the median over the
runs and the spread: the distance between the first and third quartile as a
share of the median.  Raw times follow the host's CPU speed; the xref metrics
divide it out, and the two spreads side by side are the evidence for gating
on xref.  With one seed it simply runs every workload and prints every metric.
"""
from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# raw metric -> the gated xref metric it is the host-dependent twin of
RAW_TWIN = {"work_s": "work_xref", "small_p50_ms": "small_p50_xref",
            "large_p50_ms": "large_p50_xref"}
# run.py prints every metric, gated or not, as "<name> = <value> <unit>"
METRIC_LINE = re.compile(r"^([A-Za-z0-9][\w.-]*) = (\S+) (\S+)$")


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    if q3 == q1:
        return 0.0   # also covers metrics that are 0 on every run, like fail_frac
    return (q3 - q1) / abs(statistics.median(values))


def one_run(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    values = {m[1]: {"value": float(m[2]), "unit": m[3]}
              for m in map(METRIC_LINE.match, lines[:-1]) if m}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1", help="comma-separated seeds")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    summary = {}
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            run = one_run(workload, seed, seconds)
            runs.append(run)
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"attempted={run['attempted']} failed={run['failed']}", flush=True)
        rows = {}
        for name, first in runs[0]["values"].items():
            values = [r["values"][name]["value"] for r in runs]
            rows[name] = {"unit": first["unit"], "median": statistics.median(values),
                          "spread": spread(values), "values": values}
            print(f"  {name:18s} median {rows[name]['median']:<12.6g} "
                  f"spread {rows[name]['spread']:<8.4f} {first['unit']}")
        for raw, xref in RAW_TWIN.items():
            print(f"  spread {raw} {rows[raw]['spread']:.4f} vs {xref} {rows[xref]['spread']:.4f}")
        summary[workload] = {"seeds": seeds, "metrics": rows,
                             "all_correct": all(r["correct"] for r in runs)}
    out = HERE.parent / ".perfbench" / "spread.json"
    out.write_text(json.dumps(summary, indent=1))
    print(f"wrote {out.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
