"""Ablations over Stitch's design choices (DESIGN.md §5).

Not in the paper; these probe the decisions the paper makes implicitly:
the 3-hop (6 traversal) fusion radius, the heterogeneous 8/4/4 patch
mix, the 4 KB SPM size, and the 4-input/2-output register-file ports.
"""

from repro.analysis.records import ExperimentReport
from repro.analysis.tables import render_table
from repro.compiler.driver import KernelCompiler, SINGLE_OPTIONS
from repro.core import AT_AS, AT_MA, AT_SA, FusionTiming, Placement
from repro.mem.spm import SPM_BASE
from repro.sim.baselines import ARCH_STITCH, AppEvaluator, compile_kernel_options
from repro.workloads import kernel_suite, make_kernel
from repro.workloads.apps import app1_gesture


def run_ablation_hoplimit():
    """Fusion radius vs achievable clock frequency."""
    report = ExperimentReport(
        "Ablation: hop limit", "Fusion radius against the clock period"
    )
    rows = []
    for hops in range(1, 7):
        worst = max(
            FusionTiming.fused_delay(a, b, hops)
            for a in (AT_MA, AT_AS, AT_SA)
            for b in (AT_MA, AT_AS, AT_SA)
        )
        freq = 1e3 / worst
        rows.append((hops, round(worst, 2), round(freq, 1),
                     "yes" if worst <= FusionTiming.clock_ns else "no"))
    report.table = render_table(
        ["hops (each way)", "worst fused delay (ns)", "max clock (MHz)",
         "fits 200 MHz"], rows,
    )
    report.add("3 hops is the largest radius fitting 200 MHz", 3,
               max(h for h, d, f, fits in rows if fits == "yes"),
               compare="exact",
               note="the paper's <= 6 traversal hops = 3 each way")
    return report


def run_ablation_patchmix(seed=1):
    """Heterogeneous 8/4/4 vs homogeneous placements (APP1 throughput)."""
    report = ExperimentReport(
        "Ablation: patch mix", "Heterogeneous vs homogeneous placements"
    )
    rows = []
    results = {}
    layouts = {
        "8/4/4 heterogeneous (paper)": None,
        "16x AT-MA": Placement.homogeneous(AT_MA),
        "16x AT-AS": Placement.homogeneous(AT_AS),
        "16x AT-SA": Placement.homogeneous(AT_SA),
    }
    for name, placement in layouts.items():
        evaluator = AppEvaluator(app1_gesture(seed=seed), placement=placement)
        speedup = evaluator.normalized_throughputs()[ARCH_STITCH]
        results[name] = speedup
        rows.append((name, round(speedup, 3)))
    report.table = render_table(["placement", "APP1 Stitch speedup"], rows)
    hetero = results["8/4/4 heterogeneous (paper)"]
    best_homo = max(v for k, v in results.items() if k.startswith("16x"))
    report.add("heterogeneous mix >= best homogeneous", 1.0,
               hetero / best_homo, "x", compare="direction",
               note="diverse kernels want diverse patch tails")
    return report


def run_ablation_spm(seed=1):
    """SPM size needed per kernel (the paper's 256 B .. 4 KB claim)."""
    report = ExperimentReport(
        "Ablation: SPM size", "Scratchpad footprint of every kernel"
    )
    rows = []
    footprints = {}
    for kernel in kernel_suite(seed=seed):
        regions = [r for r, _ in kernel.inputs + kernel.consts] + kernel.outputs
        top = max(region.end for region in regions)
        footprint = top - SPM_BASE
        footprints[kernel.name] = footprint
        rows.append((kernel.name, footprint,
                     "yes" if footprint <= 4096 else "no"))
    rows.sort(key=lambda r: -r[1])
    report.table = render_table(
        ["kernel", "SPM bytes", "fits 4 KB"], rows,
    )
    report.add("4 KB SPM fits every kernel", 1.0,
               1.0 if max(footprints.values()) <= 4096 else 0.0,
               compare="exact", note="Section III-C's sizing argument")
    report.add("largest footprint", 4096, max(footprints.values()), "B",
               tolerance=0.15, note="paper: histogram needs the full 4 KB")
    report.add("smallest footprint", 256, min(footprints.values()), "B",
               compare="info", note="paper: AES needs only 256 B (its S-box)")
    return report


def run_ablation_ports(seed=1, names=("fir", "update", "2dconv", "histogram")):
    """4-input/2-output vs a 2-input/1-output register-file budget."""
    report = ExperimentReport(
        "Ablation: RF ports", "Custom-instruction operand budget"
    )
    rows = []
    ratios = []
    for name in names:
        kernel = make_kernel(name, seed=seed)
        _, versions = compile_kernel_options(
            kernel, options=SINGLE_OPTIONS, allow_replication=True
        )
        wide = max(versions.values(), key=lambda c: c.speedup)
        # The store keys only the default 4/2 budget.
        narrow = KernelCompiler(
            kernel, max_inputs=2, max_outputs=1
        ).best_option(SINGLE_OPTIONS)
        ratios.append(wide.speedup / narrow.speedup)
        rows.append((name, round(narrow.speedup, 2), round(wide.speedup, 2)))
    report.table = render_table(
        ["kernel", "2-in/1-out speedup", "4-in/2-out speedup"], rows,
    )
    report.add("wider ports never hurt", 1.0,
               1.0 if all(r >= 1.0 - 1e-9 for r in ratios) else 0.0,
               compare="exact")
    report.add("average benefit of 4/2 over 2/1", None,
               sum(ratios) / len(ratios), "x", compare="info")
    return report


def run_ablation_replication(seed=1, names=("2dconv", "svm", "fir", "classify")):
    """Const-region replication for fused remote loads on/off.

    The paper's compiler places arrays across tiles' scratchpads
    (Section III-C); our equivalent replicates read-only regions into
    the remote tile so a fused pattern's second load runs on the remote
    LMAU.  This ablation measures what that is worth per kernel.
    """
    from repro.compiler.driver import ALL_OPTIONS
    from repro.core.stitching import BASELINE

    report = ExperimentReport(
        "Ablation: load replication",
        "Fused patterns with remote read-only loads on/off",
    )
    rows = []
    gains = []
    for name in names:
        on_cycles, _ = compile_kernel_options(
            make_kernel(name, seed=seed), allow_replication=True
        )
        off_cycles, _ = compile_kernel_options(
            make_kernel(name, seed=seed), allow_replication=False
        )
        option_names = [o.name for o in ALL_OPTIONS]
        on = on_cycles[BASELINE] / min(on_cycles[n] for n in option_names)
        off = off_cycles[BASELINE] / min(off_cycles[n] for n in option_names)
        gains.append(on / off)
        rows.append((name, round(off, 2), round(on, 2), round(on / off, 2)))
    report.table = render_table(
        ["kernel", "stitched w/o replication", "with replication", "gain"],
        rows,
    )
    report.add("replication never hurts", 1.0,
               1.0 if all(g >= 1.0 - 1e-9 for g in gains) else 0.0,
               compare="exact")
    report.add("average stitched gain from replication", None,
               sum(gains) / len(gains), "x", compare="info",
               note="kernel-level; app binaries disable it (SPM space)")
    return report


ABLATIONS = {
    "hop limit": run_ablation_hoplimit,
    "patch mix": run_ablation_patchmix,
    "SPM size": run_ablation_spm,
    "RF ports": run_ablation_ports,
    "load replication": run_ablation_replication,
}
