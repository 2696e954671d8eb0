"""rotape benchmark: one workload, one seed, one measuring window.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root (the package is imported from ./src).  The last
line of standard output is the result, one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, taken from
units run with spans.py's wrappers installed, alternating with untraced
units so the tracing overhead is measured in the same window.  Earlier lines
carry the environment record and sample counts.

Exit code 0 when every gate passed, 1 when a result was printed with a failed
gate, 2 when no result could be produced (e.g. the package is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 3
PROBE_TIMEOUT_S = 120

# per-layer metric -> unit; run.py emits exactly these with --trace 1
COUNT_METRICS = [
    "pe_solver.rhs_rotating.calls",
    "spectral.product.calls",
    "numpy_fft.calls",
    "norms.norm_rst.calls",
    "norms.norm_rst.failed",
    "norms.fit_radius.calls",
    "norms.fit_radius.failed",
    "lemmas.check.calls",
    "io.write_snapshot.calls",
]
BYTE_METRICS = ["spectral.bytes_computed", "io.write_snapshot.bytes", "io.write_diagnostics_csv.bytes"]
PER_STEP_METRICS = ["spectral.values_from_coeffs.calls_per_step", "spectral.coeffs_from_values.calls_per_step"]
P50_METRICS = [
    "pe_solver.rhs_rotating", "pe_solver.rhs_direct", "pe_solver.cfl_limit", "spectral.product",
    "limit_solver.step_limit", "limit_solver.euler2d_rhs", "limit_solver.transport_rhs", "lemmas.check",
]
TOTAL_METRICS = [
    "pe_solver.rhs_rotating", "pe_solver.rhs_direct", "pe_solver.cfl_limit",
    "spectral.values_from_coeffs", "spectral.coeffs_from_values", "numpy_fft", "norms.norm_rst",
    "norms.fit_radius", "theory.TauTracker.step", "theory.perturbation_diagnostics",
    "initial_data.random_vector", "io.write_snapshot", "io.write_diagnostics_csv",
]


def per_layer_units() -> dict[str, str]:
    units = {}
    units.update({m: "count" for m in COUNT_METRICS})
    units.update({m: "bytes" for m in BYTE_METRICS})
    units.update({m: "calls/op" for m in PER_STEP_METRICS})
    units.update({f"{m}.ms_p50": "ms" for m in P50_METRICS})
    units.update({f"{m}.ms_total": "ms" for m in TOTAL_METRICS})
    units.update({
        "pe_solver.integrate.step_ms_p50": "ms",
        "pe_solver.integrate.step_ms_p90": "ms",
        "pe_solver.integrate.self_ms": "ms",
        "grid.cache.hits": "count",
        "grid.cache.misses": "count",
        "trace.overhead_s": "s",
    })
    return units


END_TO_END_UNITS = {"setup_s": "s", "unit_cpu_s": "s", "ops_per_cpu_s": "1/s", "peak_rss_mb": "MB"}


def _p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def environment(wl_name: str) -> dict:
    from rotape import spectral
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    lines = sum(len(p.read_text().splitlines()) for p in sorted((SRC / "rotape").glob("*.py")))
    return {
        "workload": wl_name,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "fft_workers": spectral._WORKERS,
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "src_rotape_lines": lines,
    }


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Fresh-interpreter set-ups (import, input generation, one warm-up step
    or check): (CPU seconds, wall seconds) of each repetition."""
    cpu, wall = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    for _ in range(SETUP_REPS):
        t0, c0 = time.perf_counter(), _children_cpu()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - t0)
        cpu.append(_children_cpu() - c0)
    return cpu, wall


class Unit:
    __slots__ = ("wall", "cpu", "steps", "attempted", "failed", "reasons", "step_ms", "summary")


def run_unit(wl, seed: int, index: int, tracer=None) -> Unit:
    u = Unit()
    u.summary = None
    data = wl.inputs(seed, index)
    unit_dir = OUT / f"{wl.name}-{os.getpid()}-{index}"
    unit_dir.mkdir(parents=True, exist_ok=True)
    first = len(tracer.spans) if tracer else 0
    if tracer:
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        res = wl.run(data, unit_dir)
        u.attempted, u.failed, u.reasons = wl.verify(res)
        u.steps, u.step_ms = res.steps, res.step_ms
    except Exception:
        traceback.print_exc()
        u.attempted = u.failed = wl.operations
        u.reasons = ["raised"]
        u.steps, u.step_ms = 0, []
    finally:
        u.wall = time.perf_counter() - t0
        u.cpu = time.process_time() - c0
        if tracer:
            tracer.uninstall()
        shutil.rmtree(unit_dir, ignore_errors=True)
    if tracer:
        u.summary = tracer.summarize(first, u.steps)
    return u


def measure(wl, args, tracer=None):
    """Warm-up unit, then units until --seconds have passed (traced/untraced
    alternating when a tracer is given)."""
    from spans import grid_cache_totals

    warm = run_unit(wl, args.seed, 0)
    cache = grid_cache_totals()
    units, traced_flags = [], []
    t_start = time.perf_counter()
    min_units = 3 if tracer else 1
    i = 1
    while len(units) < min_units or time.perf_counter() - t_start < args.seconds:
        traced = tracer is not None and i % 2 == 1
        units.append(run_unit(wl, args.seed, i, tracer if traced else None))
        traced_flags.append(traced)
        i += 1
    return warm, units, traced_flags, cache


def end_to_end(units, setup_cpu) -> dict:
    return {
        "setup_s": statistics.median(setup_cpu),
        "unit_cpu_s": statistics.median(u.cpu for u in units),
        "ops_per_cpu_s": statistics.median(u.steps / u.cpu for u in units),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def wall_figures(units) -> dict:
    """Wall-clock counterparts of unit_cpu_s / ops_per_cpu_s, printed for reference."""
    walls = [u.wall for u in units]
    return {"wall_s_p50": statistics.median(walls), "wall_s_max": max(walls),
            "ops_per_s_p50": statistics.median(u.steps / u.wall for u in units),
            "samples": len(walls)}


def per_layer(units, traced_flags, cache) -> dict:
    traced = [u for u, t in zip(units, traced_flags) if t]
    plain = [u for u, t in zip(units, traced_flags) if not t]
    first = traced[0].summary
    out = {m: first[m] for m in COUNT_METRICS + BYTE_METRICS + PER_STEP_METRICS}
    for m in P50_METRICS:
        pooled = [d for u in traced for d in u.summary[f"{m}.durations"]]
        out[f"{m}.ms_p50"] = statistics.median(pooled) if pooled else 0.0
    for m in TOTAL_METRICS:
        out[f"{m}.ms_total"] = statistics.median(u.summary[f"{m}.ms_total"] for u in traced)
    step_ms = [d for u in traced for d in u.step_ms]
    out["pe_solver.integrate.step_ms_p50"] = statistics.median(step_ms) if step_ms else 0.0
    out["pe_solver.integrate.step_ms_p90"] = _p90(step_ms)
    out["pe_solver.integrate.self_ms"] = statistics.median(
        u.summary["pe_solver.integrate.self_ms_sum"] / len(u.step_ms) if u.step_ms else 0.0 for u in traced
    )
    out["grid.cache.hits"], out["grid.cache.misses"] = cache
    out["trace.overhead_s"] = statistics.median(u.cpu for u in traced) - statistics.median(u.cpu for u in plain)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import rotape
    except ImportError as exc:
        print(f"perfbench: cannot import rotape from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(rotape.__file__).resolve().parent != (SRC / "rotape").resolve():
        print(f"perfbench: rotape imported from {rotape.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.probe:
        wl.warmup(wl.inputs(args.seed, 0))
        return 0

    print(json.dumps({"environment": environment(wl.name)}))
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    setup_cpu, setup_wall = ([], []) if args.trace else measure_setup(args)
    try:
        warm, units, traced_flags, cache = measure(wl, args, tracer)
    finally:
        try:
            OUT.rmdir()  # only when empty: every unit removes its own directory
        except OSError:
            pass
    everything = [warm] + units
    attempted = sum(u.attempted for u in everything)
    failed = sum(u.failed for u in everything)
    for u in everything:
        for reason in u.reasons:
            print(f"perfbench: gate failed: {reason}", file=sys.stderr)

    if args.trace:
        values = per_layer(units, traced_flags, cache)
        units_of = per_layer_units()
        print(json.dumps({"traced_units": sum(traced_flags), "untraced_units": len(units) - sum(traced_flags)}))
    else:
        values = end_to_end(units, setup_cpu)
        units_of = END_TO_END_UNITS
        print(json.dumps({"setup_cpu_s": setup_cpu, "setup_wall_s": setup_wall,
                          "unit_cpu_s": [u.cpu for u in units], "wall_clock": wall_figures(units)}))
    metrics = {k: {"value": float(values[k]), "unit": units_of[k]} for k in units_of}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
