"""jamloc benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workloads (see ``workloads.py``) are
``simfeat_desk``, ``train_fusion`` and ``train_mcaff``. Every invocation runs
the correctness checks in ``checks.py``. The process uses one BLAS thread and
asks glibc to keep freed memory; both make runs on shared hosts comparable
(see ``_single_blas_thread`` and ``_keep_freed_memory``).

With ``--trace 0`` the run sets up ``SETUP_REPEATS`` times, measures once and
reports the end-to-end metrics. With ``--trace 1`` it also sets up afresh,
measures again with spans recorded around every call into a layer (every
second train step runs untraced, for comparison), and then times each layer
from outside (``layers.py``); it reports the per-layer metrics, the self
time of each layer from the spans, and the tracing overhead: the measured
cost of one span times the spans recorded.

The last line of standard output is the result,
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
report with the machine record, the checks, and details of the run. Both,
and the spans of a traced run, are also written under ``.perfbench_out/``.
``--tiny`` shrinks every size for the bench-local tests.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import gc
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("simfeat_desk", "train_fusion", "train_mcaff")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3        # glibc mallopt parameters
MMAP_THRESHOLD_MAX = 32 << 20                      # glibc's ceiling on 64-bit hosts
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "featurize_snapshots_per_s": "1/s",
    "train_samples_per_s": "1/s",
    "train_step_ms_p50": "ms",
    "train_step_ms_tail": "ms",
    "eval_snapshots_per_s": "1/s",
}
TRACE_LAYERS = ("bench", "sigsim", "dsp", "models", "nn")
STEP_PARTS = {"forward": "models.forward", "loss": "nn.loss", "backward": "nn.backward",
              "sgd": "nn.sgd_step", "self": "self"}
STEP_WORK = ("forward", "loss", "backward", "sgd")     # the child spans of a train step


def _single_blas_thread() -> int:
    """One BLAS thread; must run before numpy loads. On the 2-vCPU shared
    hosts the benchmark was written on, a second OpenBLAS thread, which
    spins between calls, doubled the run-to-run spread of the
    interpreter-bound layers (simulation, small training steps)."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return 1


def _keep_freed_memory() -> bool:
    """Ask glibc to keep freed memory (up to 32 MiB blocks) in the heap rather
    than hand it back to the OS. On the virtual machines the benchmark was
    written on, re-faulting returned pages cost a host-dependent amount that
    changed the time of allocation-heavy code (simulation, small training
    steps) by up to 2x from run to run. Every run and commit gets the same
    policy; ``peak_rss_mb`` is measured under it. False where not glibc."""
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c")).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(M_TRIM_THRESHOLD, 2**31 - 1)) and \
        bool(mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX))


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas_threads(np, configured: int) -> int:
    """Threads OpenBLAS reports, or the configured count if it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return configured


def machine_record(np, nproc: int, configured_threads: int, kept_memory: bool, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(np, configured_threads),
        "malloc_keeps_freed_memory": kept_memory,
        "git_revision": _git_revision(),
        "seed": seed,
    }


def trace_metrics(tracer, traced, span_ns: float) -> tuple[dict, dict]:
    """Per-layer self times, the train-step breakdown and the tracing overhead.

    The overhead is the measured cost of one span (``span_cost_ns``) times
    the spans recorded. The breakdown is compared with the untraced steps
    that alternate with the traced ones in the traced phase, so that both
    see the same host state; ``self_s_by_layer`` in the report also holds
    their total, under ``untraced``."""
    out = {"trace.overhead_s": (1e-9 * span_ns * len(tracer.spans), "s"),
           "trace.spans": (len(tracer.spans), "count")}
    selfs = tracer.self_s_by_layer()
    for layer in TRACE_LAYERS:
        out[f"trace.self_s.{layer}"] = (selfs.get(layer, 0.0), "s")
    steps = tracer.per_parent_ms("bench.train_step")
    for part, child in STEP_PARTS.items():
        out[f"trace.train_step.{part}_ms_p50"] = (statistics.median(s.get(child, 0.0) for s in steps),
                                                  "ms")
    accounted = statistics.median(sum(s.get(STEP_PARTS[p], 0.0) for p in STEP_WORK) for s in steps)
    plain_ms = [1e3 * s for s in traced.info["untraced_step_s"]] or [float("nan")]
    untraced = statistics.median(plain_ms)
    overhead_ms = 1e-6 * span_ns * len(STEP_WORK)     # the spans a traced step has in addition
    q1, _, q3 = statistics.quantiles(plain_ms, n=4) if len(plain_ms) > 1 else (untraced,) * 3
    report = {
        "untraced_step_ms_p50": untraced,
        "untraced_step_ms_iqr": q3 - q1,
        "traced_step_ms_p50": traced.metrics["train_step_ms_p50"],
        "forward_loss_backward_sgd_ms_p50": accounted,
        "unaccounted_ms": untraced - accounted,
        "overhead_ms_per_step": overhead_ms,
        "breakdown_within_overhead": abs(untraced - accounted) <= overhead_ms,
        "span_cost_ns": span_ns,
        "self_s_by_layer": selfs,
    }
    return out, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="test sizes")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    nproc = len(os.sched_getaffinity(0))
    threads = _single_blas_thread()
    kept_memory = _keep_freed_memory()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np
        import jamloc  # noqa: F401
    except ImportError as e:
        print(f"perfbench: cannot import jamloc from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    import checks
    import layers
    import workloads as W
    from spans import NullTracer, Tracer, span_cost_ns

    OUT_DIR.mkdir(exist_ok=True)
    ctx = W.Context(seed=args.seed, seconds=args.seconds, tiny=args.tiny,
                    checks=checks.Checks(), ref=checks.load_reference(), workdir=str(OUT_DIR))
    wl = W.SimFeat(ctx) if args.workload == "simfeat_desk" else \
        W.Train(ctx, args.workload.split("_", 1)[1])

    setup_s = []
    for _ in range(W.SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup()
        setup_s.append(time.perf_counter() - t0 - wl.setup_check_s)
    gc.collect()
    untraced = wl.measure(state, NullTracer())
    e2e = dict(untraced.metrics, setup_s=statistics.median(setup_s),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    phases = [untraced]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny,
              "machine": machine_record(np, nproc, threads, kept_memory, args.seed),
              "setup_s_each": setup_s, "end_to_end": e2e, "run": untraced.info}

    if args.trace:
        state = wl.setup()
        gc.collect()
        tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        traced = wl.measure(state, tracer, alternate=True)
        phases.append(traced)
        n = min(len(traced.losses), len(untraced.losses))
        ctx.checks.check("trace_keeps_losses", traced.losses[:n] == untraced.losses[:n],
                         "traced training gave other losses than the untraced run")
        per_layer, report["trace_summary"] = trace_metrics(tracer, traced, span_cost_ns())
        per_layer.update(layers.sweep(ctx, "tiny" if args.tiny else "desk",
                                      "tiny" if args.tiny else "paper"))
        stats = wl.stats
        per_layer.update({
            # bimodal between processes on shared hosts, too wide for a bound
            "sigsim.simulate_snapshots_per_s": (e2e["simulate_snapshots_per_s"], "1/s"),
            "dsp.spec_clamp_lo_frac": (stats.clamp_lo / stats.bins, "fraction"),
            "dsp.spec_clamp_hi_frac": (stats.clamp_hi / stats.bins, "fraction"),
            "dsp.dead_channels": (stats.dead_channels, "count"),
            "nn.nonfinite_trips": (untraced.info["nonfinite_trips"], "count"),
        })
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(per_layer.items())}
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}

    report["checks"] = ctx.checks.results
    result = {"correct": ctx.checks.ok,
              "attempted": sum(p.attempted for p in phases),
              "failed": sum(p.failed for p in phases),
              "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"report-{stem}.json", "w") as f:
        json.dump({"report": report, "result": result}, f, indent=1)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
