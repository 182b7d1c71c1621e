"""Performance-trajectory bench harness (``python -m repro bench``).

Re-measures the paper's two headline result sets with full provenance
on and emits them as machine-diffable JSON:

* **BENCH_fig11.json** — per-kernel speedups (LOCUS / best single patch
  / best stitched pair), plus the compile wall time and the simulator's
  sustained cycles/second for each kernel,
* **BENCH_fig12.json** — per-application normalized throughput of the
  four architectures.

:func:`compare_bench` diffs a fresh run against a committed baseline
(``benchmarks/baselines/``): *simulated* numbers — speedups, cycle
counts, throughputs — must stay within a relative tolerance, while
wall-clock fields (machine-dependent) are reported but never compared.
CI runs the comparison on every push, so a change that silently costs
simulated performance fails the build instead of drifting the figures.
"""

import json
from concurrent.futures import ProcessPoolExecutor

from repro.provenance import CompileReport, StitchTrace

SCHEMA_VERSION = 1

# Wall-clock fields: recorded for trend plots, excluded from comparison.
WALL_FIELDS = frozenset({
    "compile_wall_seconds",
    "simulated_cycles_per_second",
    "wall_seconds",
})


def _bench_one_kernel(name, seed):
    """One Fig. 11 row; top-level so a process pool can run it."""
    from repro.compiler.driver import (
        ALL_OPTIONS,
        FUSED_OPTIONS,
        KernelCompiler,
        LOCUS_OPTION,
        SINGLE_OPTIONS,
    )
    from repro.workloads import make_kernel

    kernel = make_kernel(name, seed=seed)
    report = CompileReport(name)
    compiler = KernelCompiler(kernel, allow_replication=True,
                              report=report)
    compiled = compiler.compile_options(ALL_OPTIONS + (LOCUS_OPTION,))

    def best(options):
        return max(
            (compiled[o.name] for o in options), key=lambda c: c.speedup
        )

    best_single = best(SINGLE_OPTIONS)
    best_fused = best(FUSED_OPTIONS)
    best_any = best(ALL_OPTIONS)
    measure_seconds = sum(
        span.seconds
        for version in report.versions.values()
        for span in version.phases
        if span.name == "measure"
    )
    simulated = sum(
        version.cycles or 0 for version in report.versions.values()
    )
    return name, {
        "baseline_cycles": compiler.baseline_cycles,
        "locus_speedup": round(compiled[LOCUS_OPTION.name].speedup, 4),
        "best_single": {
            "option": best_single.option.name,
            "speedup": round(best_single.speedup, 4),
        },
        "best_fused": {
            "option": best_fused.option.name,
            "speedup": round(best_fused.speedup, 4),
        },
        "best_speedup": round(best_any.speedup, 4),
        "candidates_accounted": report.accounted(),
        # wall-clock (trend-only, never compared):
        "compile_wall_seconds": round(report.total_wall_seconds(), 3),
        "simulated_cycles_per_second": (
            round(simulated / measure_seconds) if measure_seconds else None
        ),
    }


def _bench_one_kernel_star(args):
    return _bench_one_kernel(*args)


def _bench_one_app(name, seed):
    """One Fig. 12 row; top-level so a process pool can run it."""
    import time

    from repro.sim.baselines import ARCHITECTURES, ARCH_STITCH
    from repro.target import Target

    start = time.perf_counter()
    evaluator = Target.resolve(name, seed=seed).evaluator
    throughputs = evaluator.normalized_throughputs()
    trace = StitchTrace(name)
    plan = evaluator.plan(ARCH_STITCH, trace=trace)
    return name, {
        "throughputs": {
            arch: round(throughputs[arch], 4) for arch in ARCHITECTURES
        },
        "bottleneck_cycles": plan.bottleneck_cycles(),
        "fused_pairs": len(plan.fused_pairs()),
        "winning_variant": getattr(trace.winner(), "name", None),
        # wall-clock (trend-only, never compared):
        "wall_seconds": round(time.perf_counter() - start, 3),
    }


def _bench_one_app_star(args):
    return _bench_one_app(*args)


def _fan_out(worker, names, seed, workers):
    """Per-item process fan-out with a deterministic, submission-ordered
    merge (and ``write_bench`` sorts keys on disk anyway).

    Every item is an independent measurement (Fig. 11 rows bypass the
    compile store, whose entries are pure functions of their keys), so
    farming items out to fresh processes produces bit-identical
    simulated numbers — only the wall-clock fields (never compared)
    differ from a serial run.
    """
    if workers is not None and workers > 1 and len(names) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(worker, [(name, seed) for name in names]))
    else:
        rows = [worker((name, seed)) for name in names]
    return dict(rows)


def bench_fig11(kernels=None, seed=1, workers=None):
    """Per-kernel speedup + compile-cost table (Figure 11 axis)."""
    from repro.analysis.experiments.kernels import FIG11_KERNELS

    names = tuple(kernels) if kernels is not None else FIG11_KERNELS
    return {
        "bench": "fig11",
        "schema": SCHEMA_VERSION,
        "kernels": _fan_out(_bench_one_kernel_star, names, seed, workers),
    }


def bench_fig12(apps=None, seed=1, workers=None):
    """Per-app architecture throughput table (Figure 12 axis)."""
    from repro.workloads.apps import APP_FACTORIES

    names = tuple(apps) if apps is not None else tuple(sorted(APP_FACTORIES))
    return {
        "bench": "fig12",
        "schema": SCHEMA_VERSION,
        "apps": _fan_out(_bench_one_app_star, names, seed, workers),
    }


def write_bench(payload, path):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bench(path):
    with open(path) as handle:
        return json.load(handle)


def _flatten(value, prefix=""):
    """``{dotted.path: leaf}`` over nested dicts, wall fields dropped."""
    flat = {}
    if isinstance(value, dict):
        for key, child in value.items():
            if key in WALL_FIELDS:
                continue
            flat.update(_flatten(child, f"{prefix}.{key}" if prefix else key))
    else:
        flat[prefix] = value
    return flat


def compare_bench(current, baseline, tolerance=0.03):
    """Diff two bench payloads; returns (regressions, notes).

    ``regressions`` lists human-readable strings for every simulated
    metric that got *worse* than the baseline by more than the relative
    ``tolerance`` (or appeared/disappeared/changed kind); improvements
    and in-tolerance drift land in ``notes``.  Wall-clock fields are
    never compared.
    """
    regressions = []
    notes = []
    flat_current = _flatten(current)
    flat_baseline = _flatten(baseline)
    for key in sorted(flat_baseline):
        if key not in flat_current:
            regressions.append(f"{key}: present in baseline, missing now")
            continue
        base, cur = flat_baseline[key], flat_current[key]
        if isinstance(base, bool) or not isinstance(base, (int, float)):
            if cur != base:
                regressions.append(f"{key}: {base!r} -> {cur!r}")
            continue
        if not isinstance(cur, (int, float)) or isinstance(cur, bool):
            regressions.append(f"{key}: {base!r} -> non-numeric {cur!r}")
            continue
        if base == cur:
            continue
        drift = (cur - base) / abs(base) if base else float("inf")
        # Lower is worse for speedups/throughputs; higher is worse for
        # cycle counts.
        worse = drift > tolerance if "cycles" in key else drift < -tolerance
        line = f"{key}: {base} -> {cur} ({drift:+.1%})"
        if worse:
            regressions.append(line)
        else:
            notes.append(line)
    for key in sorted(set(flat_current) - set(flat_baseline)):
        notes.append(f"{key}: new metric (not in baseline)")
    return regressions, notes
