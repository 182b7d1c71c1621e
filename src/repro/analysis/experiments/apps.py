"""Application-level experiments: Table I, Figures 10, 12, 14 and 15."""

from repro.analysis.records import ExperimentReport
from repro.analysis.tables import render_table
from repro.power.chip import ChipModel
from repro.power.efficiency import EfficiencyModel
from repro.power.platforms import (
    CORTEX_A7,
    GESTURE_DEADLINE_MS,
    SENSORTAG,
    WINDOWS_PER_GESTURE,
    stitch_platform,
)
from repro.sim.baselines import (
    ARCH_BASELINE,
    ARCH_LOCUS,
    ARCH_NOFUSE,
    ARCH_STITCH,
    ARCHITECTURES,
    AppEvaluator,
)
from repro.workloads.apps import all_apps, app1_gesture

# Paper anchors.
PAPER_FIG12 = {ARCH_LOCUS: 1.14, ARCH_NOFUSE: 1.53, ARCH_STITCH: 2.30}
PAPER_TABLE1 = {
    "SensorTag": 577.0, "Cortex-A7": 13.0,
    "Stitch w/o fusion": 11.49, "Stitch": 7.62,
}
PAPER_FIG14 = {"perf/W": 1.77, "perf/area": 2.28}
PAPER_FIG15 = {"throughput": 1.65, "perf/W": 6.04}

def _geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))


def run_fig12_app_throughput(seed=1):
    """Figure 12: per-app throughput normalized to the baseline."""
    report = ExperimentReport(
        "Fig. 12", "Normalized application throughput per architecture"
    )
    rows = []
    per_arch = {arch: [] for arch in ARCHITECTURES}
    for app in all_apps(seed=seed):
        speedups = AppEvaluator(app).normalized_throughputs()
        rows.append((app.name,) + tuple(
            round(speedups[arch], 2) for arch in ARCHITECTURES
        ))
        for arch in ARCHITECTURES:
            per_arch[arch].append(speedups[arch])
    means = {arch: _geomean(per_arch[arch]) for arch in ARCHITECTURES}
    rows.append(("geomean",) + tuple(
        round(means[arch], 2) for arch in ARCHITECTURES
    ))
    report.table = render_table(("app",) + ARCHITECTURES, rows)
    for arch, paper in PAPER_FIG12.items():
        report.add(f"{arch} average speedup", paper, means[arch], "x",
                   tolerance=0.6,
                   note="shape: baseline < LOCUS < w/o fusion < Stitch")
    ordered = (
        means[ARCH_BASELINE] <= means[ARCH_LOCUS]
        <= means[ARCH_NOFUSE] <= means[ARCH_STITCH]
    )
    report.add("architecture ordering preserved", 1.0,
               1.0 if ordered else 0.0, compare="exact")
    return report


def run_fig10_fusion_maps(seed=1):
    """Figure 10: which patches Algorithm 1 stitches per application."""
    report = ExperimentReport(
        "Fig. 10", "Patch fusion maps chosen by Algorithm 1"
    )
    from repro.analysis.viz import plan_map, stitch_paths

    sections = []
    fused_counts = {}
    for app in all_apps(seed=seed):
        plan = AppEvaluator(app).plan(ARCH_STITCH)
        fused_counts[app.name] = len(plan.fused_pairs())
        sections.append(
            f"--- {app.name} ---\n"
            + plan_map(plan, app=app)
            + "\n" + stitch_paths(plan)
        )
    report.table = "\n\n".join(sections)
    for name, count in fused_counts.items():
        report.add(f"{name}: fused pairs placed", None, count,
                   compare="info")
    report.add("at least one app uses fusion", 1.0,
               1.0 if any(fused_counts.values()) else 0.0, compare="exact")
    report.add(
        "stitchings are contention free", 1.0, 1.0, compare="exact",
        note="InterPatchNetwork rejects conflicting reservations by construction",
    )
    return report


def run_fig13_time_breakdown(seed=1):
    """Execution-time breakdown per app, from the attribution counters.

    The paper's utilization argument (Fig. 13 / Section VI) rests on
    *where cycles go*.  This driver co-simulates every app's Stitch
    plan on all 16 tiles with telemetry enabled and reports the
    breakdown straight from the per-tile cycle-attribution counters —
    the same ground truth the V500 verifier rule cross-checks — instead
    of any side computation.
    """
    from repro.telemetry import Telemetry
    from repro.verify import check_run

    report = ExperimentReport(
        "Fig. 13 (time)",
        "Execution-time breakdown from the cycle-attribution counters",
    )
    columns = ("scalar_compute", "patch", "communication",
               "memory_stall", "icache_stall", "branch_bubble")
    rows = []
    exact = True
    comm_shares = []
    patch_shares = []
    for app in all_apps(seed=seed):
        telemetry = Telemetry()
        system, _ = AppEvaluator(app).build_system(
            ARCH_STITCH, items=2, telemetry=telemetry
        )
        results = system.run()
        breakdown = results.stats.breakdown()
        exact = exact and check_run(results).ok(strict=True)
        comm_shares.append(breakdown["communication"])
        patch_shares.append(breakdown["patch"])
        rows.append(
            (app.name,)
            + tuple(f"{breakdown[column]:.1%}" for column in columns)
            + (f"{sum(breakdown.values()):.3f}",)
        )
    report.table = render_table(("app",) + columns + ("sum",), rows)
    report.add(
        "every tile's buckets sum to its cycles exactly", 1.0,
        1.0 if exact else 0.0, compare="exact",
        note="V500 cross-check over all apps x 16 tiles",
    )
    report.add(
        "patches execute a visible share of cycles", 1.0,
        1.0 if all(share > 0 for share in patch_shares) else 0.0,
        compare="exact",
    )
    report.add(
        "communication share (geomean)", None,
        round(_geomean([max(share, 1e-9) for share in comm_shares]), 4),
        compare="info",
        note="blocked-receive + injection cycles per the attribution counters",
    )
    return report


def gesture_platforms(seed=1):
    """The four Table I platforms with our measured Stitch timings."""
    evaluator = AppEvaluator(app1_gesture(seed=seed))
    freq = 200e6

    def per_gesture_ms(arch):
        cycles = evaluator.cycles_per_item(arch)
        return cycles * WINDOWS_PER_GESTURE / freq * 1e3

    return {
        "SensorTag": SENSORTAG,
        "Cortex-A7": CORTEX_A7,
        "Stitch w/o fusion": stitch_platform(
            per_gesture_ms(ARCH_NOFUSE),
            power_mw=ChipModel().nofusion_power_mw(),
            name="Stitch w/o fusion",
        ),
        "Stitch": stitch_platform(per_gesture_ms(ARCH_STITCH)),
        "baseline (16-core)": stitch_platform(
            per_gesture_ms(ARCH_BASELINE),
            power_mw=ChipModel().baseline_power_mw(),
            name="baseline",
        ),
    }


def run_table1_gesture(seed=1):
    """Table I: gesture recognition across platforms + the deadline."""
    report = ExperimentReport(
        "Table I", "Power-performance of gesture recognition per platform"
    )
    platforms = gesture_platforms(seed=seed)
    rows = []
    for name in ("SensorTag", "Cortex-A7", "Stitch w/o fusion", "Stitch"):
        p = platforms[name]
        rows.append((
            name,
            "yes" if p.meets_deadline() else "no",
            round(p.gesture_ms, 2),
            p.power_mw,
            p.freq_mhz,
        ))
    report.table = render_table(
        ["platform", f"meets {GESTURE_DEADLINE_MS} ms", "ms/gesture",
         "power (mW)", "freq (MHz)"], rows,
    )
    stitch = platforms["Stitch"]
    nofuse = platforms["Stitch w/o fusion"]
    report.add("only Stitch meets the 7.81 ms deadline", 1.0,
               1.0 if (stitch.meets_deadline()
                       and not nofuse.meets_deadline()
                       and not CORTEX_A7.meets_deadline()
                       and not SENSORTAG.meets_deadline()) else 0.0,
               compare="exact",
               note=f"per-gesture work calibrated to {WINDOWS_PER_GESTURE} windows")
    report.add("Stitch ms/gesture", PAPER_TABLE1["Stitch"],
               stitch.gesture_ms, "ms", tolerance=0.25)
    report.add("w/o-fusion ms/gesture", PAPER_TABLE1["Stitch w/o fusion"],
               nofuse.gesture_ms, "ms", tolerance=0.4)
    from repro.platform import DEFAULT_PLATFORM

    report.add("Stitch power", DEFAULT_PLATFORM.power.stitch_power_mw,
               stitch.power_mw, "mW", compare="exact")
    return report


def run_fig14_efficiency(seed=1):
    """Figure 14: power- and area-efficiency vs the baseline."""
    report = ExperimentReport(
        "Fig. 14", "Normalized power- and area-efficiency of Stitch"
    )
    model = EfficiencyModel()
    rows = []
    ppws, ppas = [], []
    for app in all_apps(seed=seed):
        speedup = AppEvaluator(app).normalized_throughputs()[ARCH_STITCH]
        ppw = model.perf_per_watt_vs_baseline(speedup)
        ppa = model.perf_per_area_vs_baseline(speedup)
        ppws.append(ppw)
        ppas.append(ppa)
        rows.append((app.name, round(speedup, 2), round(ppw, 2), round(ppa, 2)))
    report.table = render_table(
        ["app", "speedup", "perf/W vs baseline", "perf/area vs baseline"],
        rows,
    )
    report.add("average perf/W improvement", PAPER_FIG14["perf/W"],
               _geomean(ppws), "x", tolerance=0.6,
               note="= speedup / 1.30 power ratio; tracks Fig. 12's gap")
    report.add("average perf/area improvement", PAPER_FIG14["perf/area"],
               _geomean(ppas), "x", tolerance=0.6,
               note="~= speedup: the 0.5% area overhead is negligible")
    speedups = [row[1] for row in rows]
    report.add("perf/area ~ speedup (area overhead tiny)",
               _geomean(speedups), _geomean(ppas), "x", tolerance=0.02,
               note="paper: 2.28x vs 2.30x — nearly identical")
    return report


def run_fig15_vs_wearables(seed=1):
    """Figure 15: Stitch vs the quad-A7 smartwatch class."""
    report = ExperimentReport(
        "Fig. 15", "Throughput / power / perf-per-watt vs quad Cortex-A7"
    )
    model = EfficiencyModel()
    platforms = gesture_platforms(seed=seed)
    # Calibration: the A7's measured gesture time anchors its speed
    # relative to our simulated baseline; other apps assume the same
    # A7-to-baseline ratio (no hardware; see DESIGN.md).
    base_ms = platforms["baseline (16-core)"].gesture_ms
    a7_scale = CORTEX_A7.gesture_ms / base_ms
    rows = []
    tputs, ppws = [], []
    for app in all_apps(seed=seed):
        evaluator = AppEvaluator(app)
        stitch_cycles = evaluator.cycles_per_item(ARCH_STITCH)
        base_cycles = evaluator.cycles_per_item(ARCH_BASELINE)
        stitch_time = stitch_cycles / 200e6
        a7_time = base_cycles / 200e6 * a7_scale
        tput = model.throughput_vs_a7(stitch_time, a7_time)
        ppw = model.perf_per_watt_vs_a7(stitch_time, a7_time)
        tputs.append(tput)
        ppws.append(ppw)
        rows.append((app.name, round(tput, 2),
                     round(model.power_vs_a7(), 2), round(ppw, 2)))
    report.table = render_table(
        ["app", "throughput vs A7", "power vs A7", "perf/W vs A7"], rows,
    )
    report.add("average throughput vs A7", PAPER_FIG15["throughput"],
               _geomean(tputs), "x", tolerance=0.8,
               note="A7 anchored to Table I's 13 ms gesture measurement")
    report.add("average perf/W vs A7", PAPER_FIG15["perf/W"],
               _geomean(ppws), "x", tolerance=0.8,
               note="Stitch draws 139.5 mW vs the A7's 469 mW")
    report.add("Stitch power below the wearable budget", 1.0,
               1.0 if ChipModel().total_power_mw() < 200 else 0.0,
               compare="exact", note="hundreds-of-mW budget (Section II)")
    return report
