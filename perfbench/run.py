"""sfctok benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload dense-50k --seed 1 --seconds 10 --trace 0

Run from a source checkout; the package is imported from ``src/``. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_tmp")
SPAN_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

# name -> (unit, better); these form the JSON of an untraced run
END_TO_END = {
    "scene_s": ("s", "lower"),
    "points_per_s": ("1/s", "higher"),
    "request_p50_ms": ("ms", "lower"),
    "request_tail_ms": ("ms", "lower"),
    "requests_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "transport_residual": ("1", "lower"),
}
# printed with the others; 0 on a healthy run, and carried in the JSON as
# attempted/failed rather than as a metric
REPORT_ONLY = {"failed_frac": ("1", "lower")}


def per_layer_units():
    """name -> (unit, better) for every metric of a traced run."""
    from tracing import COUNTS, TIMED_SPANS

    units = {name + ".s": ("s", "lower") for name in TIMED_SPANS}
    units["pipeline.run_pipeline.self_s"] = ("s", "lower")
    for name in COUNTS:
        unit = "bytes" if "bytes" in name else "count"
        units[name] = (unit, "lower")
    for name in ("tokenizer.points", "tokenizer.superpoints", "graph.edges"):
        units[name] = ("count", "higher")
    units["enhancer.gate_pass_frac"] = ("1", "lower")
    units["graph.edge_yield"] = ("1", "higher")
    units["trace.overhead_s"] = ("s", "lower")
    units["trace.wrapper_s"] = ("s", "lower")
    units["trace.stage_gap_s"] = ("s", "lower")
    return units


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup_probe(name):
    """Fresh-process set-up: import sfctok, build config and weights."""
    t0 = time.perf_counter()
    import workloads

    workloads.setup(workloads.WORKLOADS[name])
    print(time.perf_counter() - t0)


def measure_setup(name):
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--setup-probe"],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times), times


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cross_check(tracer, overhead_s):
    """Compare each stage's span total with PipelineResult.stage_seconds.

    The allowed gap per op is the larger of trace.overhead_s and the time
    the wrappers themselves took in that op. Returns (largest gap, one line
    per mismatch).
    """
    worst, mismatches = 0.0, []
    for op, stage, gap in tracer.stage_gaps():
        tol = max(overhead_s, tracer.own_seconds[op])
        worst = max(worst, abs(gap))
        if not abs(gap) <= tol:
            mismatches.append(
                f"crosscheck MISMATCH op={op} stage={stage} gap_s={gap:.6f} tol_s={tol:.6f}"
            )
    return worst, mismatches


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "sfctok", "__init__.py")):
        log(f"error: no sfctok sources under {SRC}; run from a source checkout")
        return 2
    import envstamp

    envstamp.pin_blas_threads()
    sys.path.insert(0, SRC)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0

    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        log(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
        return 2

    reference = workloads.load_reference(workload.name)
    if reference is None:
        log(f"error: no reference output for {workload.name} in {workloads.REFERENCE_PATH}")
        return 2

    setup_s, setup_runs = measure_setup(workload.name)
    stamp = envstamp.stamp()
    print("env " + json.dumps(stamp, sort_keys=True))
    print(f"workload {workload.name}: {workload.why}")

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    try:
        summary = workloads.run(
            workload, args.seed, args.seconds, bool(args.trace), work_dir, log, reference
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only if no other run is using it
        except OSError:
            pass
    if summary is None:
        log("error: no operation completed")
        return 1

    e2e = dict(summary["e2e"], setup_s=setup_s)
    print(
        f"run seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"ops={summary['ops']} attempted={summary['attempted']} failed={summary['failed']} "
        f"env_id={stamp['id']}"
    )
    print(f"setup_runs_s {' '.join(f'{t:.4f}' for t in setup_runs)}")
    units = dict(END_TO_END, **REPORT_ONLY)
    for name, value in e2e.items():
        unit, better = units[name]
        note = ""
        if name == "request_tail_ms":
            note = f"  (p{summary['tail_percentile']:.1f} of {summary['ops']} samples)"
        print(f"metric {name} = {value:.6g} {unit} ({better} is better){note}")

    if not args.trace:
        metrics = {name: {"value": e2e[name], "unit": END_TO_END[name][0]} for name in END_TO_END}
    else:
        tracer = summary["tracer"]
        traced = summary["traced_outcomes"]
        if workload.serve:
            t_plain = e2e["request_p50_ms"] / 1000.0
            t_traced = statistics.median(o.latency_s for o in traced) if traced else t_plain
        else:
            t_plain = e2e["scene_s"]
            t_traced = statistics.median(o.pipeline_s for o in traced) if traced else t_plain
        layer = tracer.metrics()
        layer["trace.overhead_s"] = t_traced - t_plain
        worst, mismatches = cross_check(tracer, layer["trace.overhead_s"])
        layer["trace.stage_gap_s"] = worst
        for line in mismatches:
            print(line)
        print(
            f"crosscheck {'ok' if not mismatches else 'FAILED'}: stage span totals vs "
            f"PipelineResult.stage_seconds over {tracer.op + 1} traced ops, "
            f"largest gap {worst:.6f} s"
        )
        shares = tracer.module_shares()
        print("attribution " + " ".join(f"{m}={s:.3f}" for m, s in shares.items()))
        span_path = os.path.join(SPAN_ROOT, f"{workload.name}-seed{args.seed}.spans.jsonl")
        tracer.write(span_path)
        print(f"spans written to {os.path.relpath(span_path, ROOT)}")
        units = per_layer_units()
        for name, value in layer.items():
            print(f"layer {name} = {value:.6g} {units[name][0]}")
        metrics = {name: {"value": layer[name], "unit": units[name][0]} for name in units}

    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
