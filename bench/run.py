"""Benchmark for foldocp: one workload per run, timed in-process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload stabilize --seed 1 --seconds 25 --trace 0

The package is imported from the checkout's `src/`. Set-up builds the
workload's inputs from the seed; then whole operations run back to back for
`--seconds`, the outputs are checked, and the last line of standard output
is one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
`--trace 0` the metrics are the end-to-end ones named in BENCHMARK.json; with
`--trace 1` the package's module-level functions are wrapped by
`tracer.Tracer` and the metrics are the per-layer ones, per operation.
Files the workloads write go under `.bench_out/` in the checkout.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

_SCRIPT_START = time.perf_counter()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _since_process_start():
    """Seconds since this process started (kernel start time, 10 ms ticks);
    falls back to the time since this script began."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        age = -1.0
    script = time.perf_counter() - _SCRIPT_START
    return age if age >= script else script


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _trace_targets():
    from foldocp import harness, liealg, ocp, solver, svgplot, varint

    spans = (
        ("harness.load_config", harness, "load_config"),
        ("harness.run_scenario", harness, "run_scenario"),
        ("harness.simulate", harness, "simulate"),
        ("harness.free_body_trajectory", harness, "_free_body_trajectory"),
        ("harness.feasibility_column", harness, "_feasibility_column"),
        ("harness.kkt_column", harness, "_kkt_column"),
        ("harness.records", harness, "_records_from_trajectory"),
        ("harness.export_csv", harness, "export_csv"),
        ("harness.export_svg_plots", harness, "export_svg_plots"),
        ("svgplot.line_chart", svgplot, "line_chart"),
        ("solver.continuation_solve", solver, "continuation_solve"),
        ("solver.newton_solve", solver, "newton_solve"),
        ("solver.jacobian_fd", solver, "jacobian_fd"),
        ("solver.full_residual", solver, "_full_residual"),
        ("solver.unpack", solver, "unpack"),
        ("solver.pack", solver, "pack"),
        ("solver.splu", solver, "splu"),
        ("solver.condition_estimate", solver, "_condition_estimate"),
        ("solver.march", solver, "march"),
        ("solver.step_map", solver, "step_map"),
        ("varint.kkt_residuals_exact", varint, "kkt_residuals_exact"),
        ("varint.extended_cost", varint, "extended_cost"),
        ("varint.constraint_residuals", varint, "constraint_residuals"),
        ("varint.total_cost", varint, "total_cost"),
        ("varint.free_dlp_step", varint, "free_dlp_step"),
        ("ocp.running_cost", ocp, "running_cost"),
    )
    counts = (("liealg.retract", liealg, "retract"),)
    return spans, counts


def _layer_metrics(summary, extras, rounds):
    """Per-operation self times and counts from the tracer's summary."""
    out = {}
    for name, entry in summary.items():
        if "self_s" in entry:
            out[f"{name}.self_s"] = entry["self_s"] / rounds
        out[f"{name}.calls"] = entry["calls"] / rounds

    def under(child, parent):
        return summary.get(child, {}).get("parents", {}).get(parent, 0) / rounds

    out["solver.line_search.evals"] = under("solver.full_residual", "solver.newton_solve")
    out["solver.continuation.stages"] = under(
        "solver.newton_solve", "solver.continuation_solve"
    )
    for name in ("solver.newton.iterations", "harness.export_csv.bytes"):
        out[name] = extras.get(name, 0) / rounds
    return out


def _declared_metrics(section):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "foldocp" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    # single-threaded runs: BLAS pinned before numpy loads, and the
    # Jacobian's column pool left at its default of one worker
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("FOLDOCP_THREADS", None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import foldocp
    from tracer import Tracer
    from workloads import WORKLOADS

    if Path(foldocp.__file__).resolve().parent != SRC / "foldocp":
        print(f"error: foldocp imported from {foldocp.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    setup_s = _since_process_start()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(*_trace_targets())
        for name in tracer.missing:
            print(f"note: {name} is not in the package; not traced", file=sys.stderr)
    times, extras, failed = [], {}, 0
    window = time.perf_counter()
    while True:
        t = time.perf_counter()
        try:
            counts = workload.round()
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            traceback.print_exc()
            failed += 1
        else:
            times.append(time.perf_counter() - t)
            for name, value in counts.items():
                extras[name] = extras.get(name, 0) + value
        if time.perf_counter() - window >= args.seconds:
            break
    attempted = len(times) + failed
    if tracer is not None:
        tracer.uninstall()

    checks = workload.check() if times else {}
    layer = None
    if tracer is not None:
        layer = _layer_metrics(tracer.summary(), extras, attempted)
        if hasattr(workload, "trace_checks"):
            checks.update(workload.trace_checks(layer))
        trace_dir = ROOT / ".bench_out" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        stem = trace_dir / f"{args.workload}-seed{args.seed}"
        tracer.save(f"{stem}.npz")
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump({"rounds": attempted, "op_s": times, "layers": layer}, fh, indent=1)
    for name, (ok, value) in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({value:.3g})")
    correct = bool(times) and all(bool(ok) for ok, _ in checks.values())

    items_per_s = workload.items * len(times) / sum(times) if times else 0.0
    if tracer is None:
        computed = {
            "setup_s": setup_s,
            "items_per_s": items_per_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = _declared_metrics("end_to_end")
    else:
        computed = layer
        declared = _declared_metrics("per_layer")
        print(f"traced items_per_s {items_per_s:.6g} over {len(times)} ops", file=sys.stderr)
    metrics = {
        name: {"value": float(computed.get(name, 0.0)), "unit": unit}
        for name, unit in declared
    }
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
