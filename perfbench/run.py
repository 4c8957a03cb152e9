"""Run one benchmark workload against the `spectral_torsion` sources beside this directory.

    python3 perfbench/run.py --workload torsion_sweep --seed 1 --seconds 20 --trace 0

One caller, one thread, closed loop: the next evaluation starts when the last
one returns.  The run sets up (timing fresh-interpreter imports), warms up,
then runs rounds of its workload until --seconds have passed, checking every
result exactly.  With --trace 0 it reports the end-to-end metrics.  With
--trace 1 it runs every round twice, first with the program's layers wrapped
(see tracer.py), then unwrapped, and reports the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it list every metric by name and unit, including
the raw-time ones that are not gated, and the run's provenance; the same
record goes to .perfbench/<workload>-seed<seed>-trace<t>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Context, digest  # noqa: E402
from xref import Meter, kernel_cpu_seconds  # noqa: E402

# (name, unit): the gated end-to-end metrics.  Cost is gated in xref units
# because raw seconds follow the host's CPU speed, which drifts by up to 2x.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_xref", "xref"),
    ("small_p50_xref", "xref"),
    ("small_tail_xref", "xref"),
    ("large_p50_xref", "xref"),
    ("large_tail_xref", "xref"),
]
# (name, unit): reported for people to read, not gated.  fail_frac is 0 on a
# correct program; failures gate through the result's "correct" and "failed".
REPORTED = [
    ("setup_wall_s", "s"),
    ("fail_frac", "1"),
    ("evals_per_s", "1/s"),
    ("work_s", "s"),
    ("small_p50_ms", "ms"),
    ("large_p50_ms", "ms"),
    ("small_tail_pct", "%"),
    ("large_tail_pct", "%"),
    ("small_samples", "count"),
    ("large_samples", "count"),
    ("rounds", "count"),
    ("kernel_cpu_ms", "ms"),
]
SETUP_REPEATS = 6
# Converts set-up cost from xref units back to seconds: the reference kernel's
# median CPU time on the 2-core Xeon VM the benchmark was tuned on.
REFERENCE_KERNEL_S = 0.003


def measure_setup(src: Path) -> Tuple[float, float]:
    """Set-up time of a fresh interpreter importing the package: (normalised, wall).

    The gated figure is the child's CPU seconds over the mean CPU seconds of
    the kernel runs before and after it, times REFERENCE_KERNEL_S: seconds at
    a fixed host speed.  Raw import time differed by up to 30% between sets
    of runs a few minutes apart, more than its bound."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    cmd = [sys.executable, "-c", "import spectral_torsion"]
    subprocess.run(cmd, env=env, check=True, timeout=120)   # fills the bytecode cache
    ratios, walls = [], []
    kernel = kernel_cpu_seconds()
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=120)
        walls.append(perf_counter() - t0)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        kernel, previous = kernel_cpu_seconds(), kernel
        ratios.append(cpu / ((previous + kernel) / 2))
    return REFERENCE_KERNEL_S * statistics.median(ratios), statistics.median(walls)


def git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else "unavailable"


def run_round(workload, ctx: Context, meter: Meter, seed: int, r: int, tracer=None) -> None:
    """Run round r of the workload, timed by `meter`."""
    ctx.meter, ctx.tracer = meter, tracer
    meter.round = r
    if tracer is not None:
        tracer.start_round(r)
    workload.run(ctx, workload.inputs(seed, "main", r))
    meter.close()


def round_work(meter: Meter, rounds: int, attr: str) -> List[float]:
    """Each round's summed evaluation cost."""
    totals = [0.0] * rounds
    for s in meter.samples:
        totals[s.round] += getattr(s, attr)
    return totals


def work(meter: Meter, rounds: int, attr: str) -> float:
    """Median over rounds of the round's summed evaluation cost."""
    return statistics.median(round_work(meter, rounds, attr))


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest order statistic with at least 10 samples above it (never
    below the median), and its percentile."""
    xs = sorted(values)
    k = max(len(xs) - 11, len(xs) // 2)
    return xs[k], 100.0 * k / max(len(xs) - 1, 1)


def end_to_end(meter: Meter, rounds: int, ctx: Context) -> Dict[str, float]:
    out: Dict[str, float] = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_xref": work(meter, rounds, "xref"),
        "work_s": work(meter, rounds, "seconds"),
        "fail_frac": ctx.failed / ctx.attempted,
        "evals_per_s": sum(s.evals for s in meter.samples) / sum(s.seconds for s in meter.samples),
        "rounds": rounds,
        "kernel_cpu_ms": 1000 * statistics.median(meter.kernel_cpu),
    }
    for label in ("small", "large"):
        groups: Dict = {}
        for s in meter.samples:
            if s.label == label:
                g = groups.setdefault(s.group, [0.0, 0.0, 0])
                g[0] += s.xref
                g[1] += s.seconds
                g[2] += s.evals
        if not groups:
            raise RuntimeError(f"no {label}-class samples")
        xref = [x / n for x, _, n in groups.values()]
        out[f"{label}_p50_xref"] = statistics.median(xref)
        out[f"{label}_tail_xref"], out[f"{label}_tail_pct"] = tail(xref)
        out[f"{label}_p50_ms"] = 1000 * statistics.median(w / n for _, w, n in groups.values())
        out[f"{label}_samples"] = len(groups)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "spectral_torsion" / "__init__.py").is_file():
        print(f"error: no spectral_torsion sources under {src}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]

    setup = None if args.trace else measure_setup(src)
    sys.path.insert(0, str(src))
    import spectral_torsion as st
    import spectral_torsion.cli as cli
    if Path(st.__file__).resolve().parent != (src / "spectral_torsion").resolve():
        print(f"error: imported spectral_torsion from {st.__file__}", file=sys.stderr)
        return 2

    ctx = Context(st, cli, Meter(), scratch)
    workload.warmup(ctx)   # its meter is discarded

    record: Dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace}
    # whole rounds until --seconds have passed, at least one
    t_end = perf_counter() + args.seconds
    rounds = 0
    if args.trace:
        # Each round runs traced, then again untraced on the same inputs, so
        # the overhead compares like with like over equal numbers of rounds.
        # Traced first: the per-layer counts come from inputs the process
        # has not seen before, as in an untraced run.
        tracer = Tracer()
        traced, plain = Meter(tracer), Meter()
        while rounds == 0 or perf_counter() < t_end:
            tracer.install()
            try:
                run_round(workload, ctx, traced, args.seed, rounds, tracer)
            finally:
                tracer.uninstall()
            run_round(workload, ctx, plain, args.seed, rounds)
            rounds += 1
        metrics = tracer.metrics()
        metrics["bench.trace_overhead"] = statistics.median(
            t / u for t, u in zip(round_work(traced, rounds, "xref"),
                                  round_work(plain, rounds, "xref")))
        missing = [name for name in workload.reaches if not metrics[name]]
        if missing:
            print(f"error: traced run of {args.workload} recorded zero for: {', '.join(missing)}",
                  file=sys.stderr)
            return 3
        spans = scratch / f"{args.workload}-seed{args.seed}-spans.jsonl"
        tracer.write_spans(spans)
        record["spans_file"] = str(spans.relative_to(ROOT))
        listed, shown = [(name, unit) for name, unit, _ in PER_LAYER], []
    else:
        meter = Meter()
        while rounds == 0 or perf_counter() < t_end:
            run_round(workload, ctx, meter, args.seed, rounds)
            rounds += 1
        metrics = end_to_end(meter, rounds, ctx)
        metrics["setup_s"], metrics["setup_wall_s"] = setup
        listed, shown = END_TO_END, REPORTED

    record["provenance"] = {
        "package_version": st.__version__,
        "python": platform.python_version(),
        "git_revision": git_revision(ROOT),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "input_digest": digest(workload.inputs(args.seed, "main", 0)),
        "rounds": rounds,
    }
    record["metrics"] = {name: {"value": metrics[name], "unit": unit} for name, unit in listed}
    record["reported"] = {name: {"value": metrics[name], "unit": unit} for name, unit in shown}
    record["failures"] = ctx.failures
    (scratch / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    ctx.config_path.unlink(missing_ok=True)

    for key, value in record["provenance"].items():
        print(f"# {key}: {value}")
    for name, unit in listed + shown:
        print(f"{name} = {metrics[name]!r} {unit}")
    for failure in ctx.failures:
        print(f"FAILED: {failure}")
    result = {"correct": ctx.failed == 0, "attempted": ctx.attempted, "failed": ctx.failed,
              "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
