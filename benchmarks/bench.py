#!/usr/bin/env python3
"""countgrad benchmark: train, infer and guide workloads, plain or traced.

Run from the repository root:

    python3 benchmarks/bench.py --workload train --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` next to this directory. The run sets
up a reference model (five times, reporting the median), then issues
requests of the chosen workload in a closed loop for ``--seconds``. The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
instrumentation. With ``--trace 1`` the run first issues requests untraced
for half the time, then repeats exactly the same requests with every traced
layer wrapped (see tracing.py), and reports per-layer metrics plus the
tracing overhead. The exit status is 0 only when every operation returned
and every output check passed. README.md in this directory explains the
workloads and metrics.
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
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("train", "infer", "guide")
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "raw_throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_share": "ratio",
}

# per-path figures printed by the plain run: op kind -> (name, unit)
PATH_NAMES = {
    "gen": ("gen_scenes_per_s", "scenes/s"),
    "train_strong": ("strong_images_per_s", "images/s"),
    "train_weak": ("weak_images_per_s", "images/s"),
    "evaluate": ("eval_images_per_s", "images/s"),
    "threshold_sweep": ("sweep_images_per_s", "images/s"),
    "size_bias_sweep": ("size_bias_images_per_s", "images/s"),
    "evaluate_tiled": ("tiled_images_per_s", "images/s"),
    "guide_optimize": ("guide_steps_per_s", "steps/s"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="work per request; tiny is for the smoke test")
    return p.parse_args(argv)


def load_program():
    """Import countgrad from this checkout's src/, never from site-packages."""
    if not (SRC / "countgrad" / "__init__.py").is_file():
        raise SystemExit(f"bench: no countgrad sources at {SRC / 'countgrad'}")
    sys.path.insert(0, str(SRC))
    import countgrad

    if not Path(countgrad.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported countgrad from {countgrad.__file__}, not {SRC}")


# -- environment ---------------------------------------------------------------


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return getattr(lib, sym)()
    return None


def _git_commit():
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
    }


# -- measurement ---------------------------------------------------------------


def run_requests(W, rt, ctx, request, seconds=None, count=None) -> list:
    """Closed loop: each request starts after the previous one returned."""
    digests = []
    deadline = perf_counter() + (seconds or 0.0)
    i = 0
    while (i < count) if count is not None else (i == 0 or perf_counter() < deadline):
        try:
            digests.append(request(rt, ctx, i))
        except W.OpFailed:
            digests.append(None)
        rt.end_request()
        i += 1
    return digests


def path_rates(requests, units) -> dict[str, float]:
    """Median over requests of units per second, for each op kind with units."""
    out = {}
    for kind, n in units.items():
        rates = [n / r[kind] for r in requests if r.get(kind)]
        if rates:
            out[kind] = statistics.median(rates)
    return out


def throughput(requests, units, kinds) -> float:
    """Median over requests of counted units per second of all op time."""
    n = sum(units[k] for k in kinds)
    return statistics.median(n / sum(r.values()) for r in requests)


def describe_paths(workload, rt, units, ctx) -> list[str]:
    """The per-path figures behind the end-to-end metrics; printed, not gated."""
    raw = path_rates(rt.requests, units)
    lines = []
    for kind, rate in path_rates(rt.scaled, units).items():
        name, unit = PATH_NAMES[kind]
        lines.append(f"path {name} {rate:.6g} {unit} (raw {raw[kind]:.6g}; "
                     f"median of {len(rt.requests)} requests)")
    if workload == "guide" and len(ctx.step_seconds) >= 2:
        cuts = statistics.quantiles(ctx.step_seconds, n=100)
        for q in (50, 90):
            lines.append(f"path guide_step_ms_p{q} {1000.0 * cuts[q - 1]:.6g} ms "
                         f"({len(ctx.step_seconds)} step samples)")
        lines.append(f"info guide oracle count matched the request in {ctx.oracle_hits}/"
                     f"{ctx.oracle_total} requests (recorded, not gated)")
    p = rt.probe.samples
    lines.append(f"info host probe median {1000 * statistics.median(p):.3f} ms over {len(p)} samples "
                 f"(reference {1000 * rt.probe.REFERENCE_S:.3f} ms)")
    return lines


def layer_metrics(tracer, layer_spans, n_req, units_done, traced_raw_s, traced_s, untraced_s) -> dict:
    """Per-request span counts and self times from the traced pass, plus derived counts."""
    m = {}
    for span in layer_spans:
        calls, self_s = tracer.stats.get(span, (0, 0.0))
        m[f"{span}.calls_per_req"] = (calls / n_req, "count")
        m[f"{span}.self_ms_per_req"] = (1000.0 * self_s / n_req, "ms")
    strong = units_done.get("train_strong", 0)
    sweep = units_done.get("threshold_sweep", 0)
    c = tracer.counters
    m["autodiff.new_param_per_image"] = (c["strong_new_param"] / strong if strong else 0.0, "count")
    m["autodiff.tape_nodes_per_image"] = (c["strong_tape_nodes"] / strong if strong else 0.0, "count")
    m["model.forwards_per_image"] = (c["sweep_forwards"] / sweep if sweep else 0.0, "count")
    layer_self = sum(s for name, (_, s) in tracer.stats.items() if not name.startswith("op."))
    m["trace.coverage"] = (layer_self / traced_raw_s, "ratio")
    m["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    m["trace.overhead_ms_per_req"] = (1000.0 * (traced_s - untraced_s) / n_req, "ms")
    return m


def op_seconds(requests) -> float:
    return sum(sum(r.values()) for r in requests)


def setup(W, rt, sz):
    """Build the reference model SETUP_REPEATS times; returns it and the scaled build times."""
    import numpy as np

    models = []
    for _ in range(SETUP_REPEATS):
        try:
            models.append(rt.op("setup", W.build_reference_model, sz))
        except W.OpFailed:
            pass
        rt.end_request()
    rt.check("setup", len(models) == SETUP_REPEATS and all(
        all(np.array_equal(m.weights[k], models[0].weights[k]) for k in m.weights)
        for m in models), "reference model differs between identical builds")
    rt.end_request()
    times = [r["setup"] for r in rt.scaled if "setup" in r]
    raw = [r["setup"] for r in rt.requests if "setup" in r]
    print("setup " + " ".join(f"{t:.4f}" for t in times) + " s (raw "
          + " ".join(f"{t:.4f}" for t in raw) + ")", flush=True)
    rt.requests.clear()
    rt.scaled.clear()
    if not models:
        raise SystemExit("bench: reference model could not be built:\n" + "\n".join(rt.problems))
    return models[0], times


def traced_run(W, tracing, probe, ctx, request, units, seconds):
    """Untraced pass for half the time, then a traced replay of the same requests."""
    plain = W.Runner(probe)
    digests = run_requests(W, plain, ctx, request, seconds=seconds / 2)
    n_req = len(digests)
    tracer = tracing.Tracer(ctx.model)
    traced = W.Runner(probe, tracer)
    tracing.install(tracer)
    try:
        replay = run_requests(W, traced, ctx, request, count=n_req)
    finally:
        tracer.restore()
    traced.check("trace", replay == digests, "traced outputs differ from untraced outputs")
    # host-speed-scaled, so drift between the two passes does not read as overhead
    untraced_s, traced_s = op_seconds(plain.scaled), op_seconds(traced.scaled)
    units_done = {k: n * n_req for k, n in units.items()}
    metrics = layer_metrics(tracer, tracing.LAYER_SPANS, n_req, units_done,
                            op_seconds(traced.requests), traced_s, untraced_s)
    print(f"trace {n_req} requests: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s "
          f"(host-speed scaled); spans cover {metrics['trace.coverage'][0]:.1%} of traced op time")
    for name, (calls, self_s) in sorted(tracer.stats.items(), key=lambda kv: -kv[1][1]):
        listed = name in tracing.LAYER_SPANS or name.startswith("op.")
        print(f"span {name} calls {calls} self_s {self_s:.6f}"
              + ("" if listed else " (not a reported metric)"))
    return (plain, traced), digests, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import tracing
    import workloads as W

    print("env " + " ".join(f"{k}={v}" for k, v in environment().items()), flush=True)
    sz = W.SIZES[args.size]
    workload = W.WORKLOADS[args.workload]
    request, kinds = workload.request, workload.counted
    units = workload.units(sz)
    workdir = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    probe = W.HostProbe()
    rt = W.Runner(probe)
    try:
        model, setup_s = setup(W, rt, sz)
        ctx = SimpleNamespace(
            sizes=sz, seed=args.seed, model=model, workdir=workdir, clock=W.StepClock(model),
            step_seconds=[], oracle_hits=0, oracle_total=0,
        )
        if args.trace:
            runners, digests, metrics = traced_run(W, tracing, probe, ctx, request, units, args.seconds)
            runners = (rt, *runners)
        else:
            digests = run_requests(W, rt, ctx, request, seconds=args.seconds)
            runners = (rt,)
            for line in describe_paths(args.workload, rt, units, ctx):
                print(line)
            metrics = {
                "throughput_per_s": throughput(rt.scaled, units, kinds) if all(digests) else 0.0,
                "raw_throughput_per_s": throughput(rt.requests, units, kinds) if all(digests) else 0.0,
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    checks = sum(r.checks for r in runners)
    problems = [p for r in runners for p in r.problems]
    if not args.trace:
        metrics["ops_ok_share"] = (attempted - failed) / attempted
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(digests)} requests, {attempted} operations, {checks} checks, {failed} failed")
    for p in problems[:20]:
        print(f"problem {p}")
    correct = failed == 0 and checks > 0 and not problems
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
