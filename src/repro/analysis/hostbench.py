"""Host-side simulator-throughput bench (``BENCH_host.json``).

Measures simulated-instructions-per-second of the execution engines on
a fixed workload set — three Figure-11 kernels spanning the op-mix
space plus the APP4 16-tile co-simulation — for both the retained
reference interpreter and the pre-decoded fast loop, and records the
ratio.  The simulated cycle counts are bit-identical across engines
(the differential suite proves that); this bench tracks only how fast
the host gets them.

Gating (:func:`compare_host`) is direction-aware like
:func:`repro.analysis.bench.compare_bench`: absolute instr/s values are
machine-dependent, so CI compares them against a committed baseline
with a generous relative tolerance and only fails on *drops*; the
machine-independent ``fast_speedup`` ratio (fast loop vs reference
interpreter on the same host, same process) additionally gates against
a floor — the refactor's "≥2× faster than the pre-refactor
interpreter" claim, re-proven on every run.
"""

import statistics

SCHEMA_VERSION = 1

#: The fixed kernel trio: FIR (dense MAC loop), FFT (butterflies +
#: bit-reversal, heavier control) and 2D convolution (largest body,
#: nested loops) — together they cover the ALU/shift/mem/branch mix.
HOST_KERNELS = ("fir", "fft", "2dconv")
HOST_APP = "APP4"

#: The fast loop must beat the reference interpreter by at least this
#: factor (machine-independent ratio, measured in-process).
MIN_FAST_SPEEDUP = 2.0

#: Relative drop in instr/s vs the committed baseline that fails the
#: regression gate (absolute throughputs are machine-dependent, so the
#: tolerance is loose; the ratio gate above is the sharp one).
DEFAULT_TOLERANCE = 0.10


def _measure(name, engine, repeats, seed, items):
    """Simulated instructions and median simulation-loop host seconds."""
    from repro.target import Target

    target = Target.resolve(name, seed=seed)
    times = []
    for _ in range(repeats):
        run = target.run(items=items, engine=engine)
        times.append(run.host_seconds)
    return sum(core.instret for core in run.cores), statistics.median(times)


def bench_host(kernels=HOST_KERNELS, app=HOST_APP, repeats=3, seed=1,
               items=4, engines=("reference", "fast")):
    """Measure simulated-instr/s per target per engine.

    Returns the ``BENCH_host.json`` payload: per-target instruction
    counts and throughputs per engine, plus an aggregate (total
    instructions / total median time) and the ``fast_speedup`` ratio
    when both the ``fast`` and ``reference`` engines are measured.
    """
    targets = {}
    totals = {engine: [0, 0.0] for engine in engines}  # instr, seconds
    for name in tuple(kernels) + ((app,) if app else ()):
        row = {}
        for engine in engines:
            instructions, seconds = _measure(name, engine, repeats, seed,
                                             items)
            if row.get("instructions", instructions) != instructions:
                raise RuntimeError(
                    f"{name!r}: engines disagree on instruction count "
                    f"({row['instructions']} vs {instructions}) — "
                    f"cycle-exactness broke; run the differential suite"
                )
            row["instructions"] = instructions
            row[f"{engine}_instr_per_second"] = round(
                instructions / seconds
            ) if seconds else None
            totals[engine][0] += instructions
            totals[engine][1] += seconds
        if "reference" in engines and "fast" in engines:
            ref = row["reference_instr_per_second"]
            fast = row["fast_instr_per_second"]
            row["fast_speedup"] = round(fast / ref, 3) if ref else None
        targets[name] = row
    aggregate = {}
    for engine in engines:
        instructions, seconds = totals[engine]
        aggregate[f"{engine}_instr_per_second"] = round(
            instructions / seconds
        ) if seconds else None
    if "reference" in engines and "fast" in engines:
        ref = aggregate["reference_instr_per_second"]
        fast = aggregate["fast_instr_per_second"]
        aggregate["fast_speedup"] = round(fast / ref, 3) if ref else None
    return {
        "bench": "host",
        "schema": SCHEMA_VERSION,
        "repeats": repeats,
        "targets": targets,
        "aggregate": aggregate,
    }


def compare_host(current, baseline, tolerance=DEFAULT_TOLERANCE,
                 min_speedup=MIN_FAST_SPEEDUP):
    """Diff a fresh host bench against a baseline; ``(regressions, notes)``.

    Three things gate (everything else is a note, so single-target
    timing noise cannot fail CI):

    * per-target simulated instruction *counts* must match the baseline
      exactly — a drifting count means the workload changed under the
      bench, silently invalidating the throughput trend;
    * the *aggregate* fast-engine instr/s may not drop more than
      ``tolerance`` below the baseline (direction-aware: improvements
      never fail; the aggregate pools every target's samples, so it is
      far less noisy than any single row);
    * the aggregate ``fast_speedup`` ratio must stay above
      ``min_speedup`` — the machine-independent floor, compared against
      the floor rather than the baseline value because both engines run
      on the same host in the same process.

    Per-target throughputs and the reference engine's own speed are
    reported as notes only: the reference interpreter is the oracle,
    not the product, and single-kernel wall times on shared CI runners
    swing well beyond any useful tolerance.
    """
    regressions = []
    notes = []

    base_targets = baseline.get("targets", {})
    cur_targets = current.get("targets", {})
    for name in sorted(base_targets):
        base_row = base_targets[name]
        cur_row = cur_targets.get(name)
        if cur_row is None:
            regressions.append(
                f"targets.{name}: present in baseline, missing now"
            )
            continue
        base_count = base_row.get("instructions")
        cur_count = cur_row.get("instructions")
        if base_count != cur_count:
            regressions.append(
                f"targets.{name}.instructions: simulated count changed "
                f"{base_count} -> {cur_count}"
            )
        for key in sorted(base_row):
            base_value = base_row[key]
            cur_value = cur_row.get(key)
            if key == "instructions" or not isinstance(
                base_value, (int, float)
            ):
                continue
            if isinstance(cur_value, (int, float)) and base_value:
                drift = (cur_value - base_value) / abs(base_value)
                notes.append(
                    f"targets.{name}.{key}: {base_value} -> {cur_value} "
                    f"({drift:+.1%})"
                )

    base_agg = baseline.get("aggregate", {})
    cur_agg = current.get("aggregate", {})
    for key in sorted(base_agg):
        base_value = base_agg[key]
        cur_value = cur_agg.get(key)
        path = f"aggregate.{key}"
        if cur_value is None:
            regressions.append(f"{path}: present in baseline, missing now")
            continue
        if key == "fast_speedup":
            if cur_value < min_speedup:
                regressions.append(
                    f"{path}: {cur_value} below the {min_speedup}x floor "
                    f"(baseline {base_value})"
                )
            else:
                notes.append(f"{path}: {base_value} -> {cur_value}")
            continue
        if not isinstance(base_value, (int, float)) or not base_value:
            continue
        drift = (cur_value - base_value) / abs(base_value)
        line = f"{path}: {base_value} -> {cur_value} ({drift:+.1%})"
        if key.startswith("fast") and drift < -tolerance:
            regressions.append(line)  # instr/s: lower is worse
        else:
            notes.append(line)

    cur_speedup = cur_agg.get("fast_speedup")
    if (cur_speedup is not None and "fast_speedup" not in base_agg
            and cur_speedup < min_speedup):
        regressions.append(
            f"aggregate.fast_speedup: {cur_speedup} below the "
            f"{min_speedup}x floor"
        )
    return regressions, notes


def render_host(payload):
    """Human-readable table of one host-bench payload."""
    lines = []
    header = f"{'target':<10} {'instr':>9} {'ref M/s':>8} {'fast M/s':>9} {'speedup':>8}"
    lines.append(header)
    rows = list(payload["targets"].items()) + [
        ("TOTAL", dict(payload["aggregate"], instructions=""))
    ]
    for name, row in rows:
        ref = row.get("reference_instr_per_second")
        fast = row.get("fast_instr_per_second")
        speedup = row.get("fast_speedup")
        lines.append(
            f"{name:<10} {row.get('instructions', ''):>9} "
            f"{ref / 1e6 if ref else 0:>8.2f} "
            f"{fast / 1e6 if fast else 0:>9.2f} "
            f"{speedup if speedup is not None else '':>8}"
        )
    return "\n".join(lines)
