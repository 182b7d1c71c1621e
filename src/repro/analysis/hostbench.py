"""Host-side simulator-throughput bench (``BENCH_host.json``).

Measures simulated-instructions-per-second of the two execution
engines on a fixed workload set — three Figure-11 kernels spanning the
op-mix space plus the APP4 16-tile co-simulation — for both the
instrumented loop (the timing model's executable specification, which
every observed run uses) and the hook-free fast loop, and records the
ratio.  The simulated cycle counts are bit-identical across engines
(the differential suite proves that); this bench tracks only how fast
the host gets them.

Gating (:func:`compare_host`) is direction-aware like
:func:`repro.analysis.bench.compare_bench`: absolute instr/s values are
machine-dependent, so CI compares them against a committed baseline
with a generous relative tolerance and only fails on *drops*; the
machine-independent ``fast_speedup`` ratio (fast loop vs instrumented
loop on the same host, same process) additionally gates against a
floor.
"""

SCHEMA_VERSION = 1

#: The fixed kernel trio: FIR (dense MAC loop), FFT (butterflies +
#: bit-reversal, heavier control) and 2D convolution (largest body,
#: nested loops) — together they cover the ALU/shift/mem/branch mix.
HOST_KERNELS = ("fir", "fft", "2dconv")
HOST_APP = "APP4"

#: The fast loop must beat the instrumented loop by at least this
#: factor (machine-independent ratio, measured in-process).  Aggregate
#: runs on a 2-vCPU host spread over 1.7-3.1x; the instrumented loop
#: itself runs at 2.1-2.6x the original per-retire-decoding
#: interpreter, so 1.5x here still means more than 3x that interpreter.
MIN_FAST_SPEEDUP = 1.5

ENGINES = ("instrumented", "fast")

#: Relative drop in instr/s vs the committed baseline that fails the
#: regression gate (absolute throughputs are machine-dependent, so the
#: tolerance is loose; the ratio gate above is the sharp one).
DEFAULT_TOLERANCE = 0.10


def _measure(name, repeats, seed, items):
    """``(instructions, {engine: min loop seconds})``.  Each repeat runs
    both engines back to back, alternating their order, so host-load
    swings land on both; the min is each engine's least-disturbed run."""
    from repro.target import Target

    target = Target.resolve(name, seed=seed)
    counts = set()
    times = {engine: [] for engine in ENGINES}
    for repeat in range(repeats):
        for engine in ENGINES if repeat % 2 == 0 else ENGINES[::-1]:
            run = target.run(items=items, engine=engine)
            counts.add(sum(core.instret for core in run.cores))
            times[engine].append(run.host_seconds)
    if len(counts) != 1:
        raise RuntimeError(
            f"{name!r}: engines disagree on instruction count "
            f"{sorted(counts)} — cycle-exactness broke; run the "
            f"differential suite"
        )
    return counts.pop(), {engine: min(times[engine]) for engine in ENGINES}


def _rates(instructions, seconds):
    row = {
        f"{engine}_instr_per_second":
            round(instructions / seconds[engine]) if seconds[engine] else None
        for engine in ENGINES
    }
    spec = row["instrumented_instr_per_second"]
    fast = row["fast_instr_per_second"]
    row["fast_speedup"] = round(fast / spec, 3) if spec and fast else None
    return row


def bench_host(kernels=HOST_KERNELS, app=HOST_APP, repeats=3, seed=1,
               items=4):
    """Measure simulated-instr/s per target on both engines.

    Returns the ``BENCH_host.json`` payload: per-target instruction
    counts and throughputs per engine plus the ``fast_speedup`` ratio
    (fast / instrumented), and the same three figures in aggregate
    (total instructions / total of the per-target minimum times).
    """
    measured = {
        name: _measure(name, repeats, seed, items)
        for name in tuple(kernels) + ((app,) if app else ())
    }
    targets = {
        name: dict(_rates(instructions, seconds), instructions=instructions)
        for name, (instructions, seconds) in measured.items()
    }
    aggregate = _rates(
        sum(instructions for instructions, _ in measured.values()),
        {e: sum(s[e] for _, s in measured.values()) for e in ENGINES},
    )
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

    Per-target throughputs and the instrumented loop's own speed are
    reported as notes only: the ratio floor already guards it relative
    to the fast loop, and single-kernel wall times on shared CI runners
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
    header = (f"{'target':<10} {'instr':>9} {'instr. M/s':>10} "
              f"{'fast M/s':>9} {'speedup':>8}")
    lines.append(header)
    rows = list(payload["targets"].items()) + [
        ("TOTAL", dict(payload["aggregate"], instructions=""))
    ]
    for name, row in rows:
        spec = row.get("instrumented_instr_per_second")
        fast = row.get("fast_instr_per_second")
        speedup = row.get("fast_speedup")
        lines.append(
            f"{name:<10} {row.get('instructions', ''):>9} "
            f"{spec / 1e6 if spec else 0:>10.2f} "
            f"{fast / 1e6 if fast else 0:>9.2f} "
            f"{speedup if speedup is not None else '':>8}"
        )
    return "\n".join(lines)
