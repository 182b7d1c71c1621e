"""Kernel-level experiments: Figures 4 and 11, Sections III-A/III-C/VI-D."""

from repro.analysis.records import ExperimentReport
from repro.analysis.tables import render_table
from repro.compiler import DFG, critical_path_classes, lcs_rounds, profile_kernel
from repro.compiler.driver import (
    ALL_OPTIONS,
    FUSED_OPTIONS,
    KernelCompiler,
    LOCUS_OPTION,
    SINGLE_OPTIONS,
)
from repro.compiler.opchain import patch_mix_from_rounds
from repro.cpu import Core
from repro.isa import Asm, Op
from repro.mem import MemorySystem, SPM_BASE
from repro.sim.baselines import compile_kernel_options
from repro.workloads import kernel_suite, make_kernel

# Figure 11's kernel axis (our suite).
FIG11_KERNELS = (
    "fft", "ifft", "2dconv", "dtw", "aes", "aesdec", "histogram", "svm",
    "pool", "fc", "fir", "specfilter", "update", "classify", "astar",
)

PAPER_AVG_SINGLE = 1.56      # Section VI-C
PAPER_FFT_STITCHED = 1.99
PAPER_FFT_SINGLE = 1.37
PAPER_SPM_DEGRADATION = 0.015
PAPER_FREQ_PERF = 1.03       # Section VI-D: Stitch@200 vs LOCUS@400


def _suite_tables(names=FIG11_KERNELS, seed=1):
    tables = {}
    for name in names:
        kernel = make_kernel(name, seed=seed)
        tables[name], _ = compile_kernel_options(kernel, allow_replication=True)
    return tables


def _best(table, options):
    names = [o.name for o in options if o.name in table]
    return min((table[n] for n in names), default=table["baseline"])


def run_fig11_kernel_speedups(seed=1):
    """Per-kernel speedup: LOCUS ISE vs single patch vs stitched."""
    report = ExperimentReport(
        "Fig. 11",
        "Normalized per-kernel speedup over software-only execution",
    )
    tables = _suite_tables(seed=seed)
    rows = []
    singles, stitches, locuses = [], [], []
    for name, table in tables.items():
        base = table["baseline"]
        locus = base / table[LOCUS_OPTION.name]
        single = base / _best(table, SINGLE_OPTIONS)
        stitched = base / _best(table, ALL_OPTIONS)
        rows.append((name, locus, single, stitched))
        locuses.append(locus)
        singles.append(single)
        stitches.append(stitched)
    avg = lambda xs: sum(xs) / len(xs)
    report.table = render_table(
        ["kernel", "LOCUS ISE", "single patch", "stitched"], rows,
        title="Speedup over software-only (x)",
    )
    report.add("average single-patch speedup", PAPER_AVG_SINGLE, avg(singles),
               "x", tolerance=0.35,
               note="paper kernels differ; shape = meaningful speedup >1")
    all_monotone = all(stitched >= single - 1e-9
                       for _name, _locus, single, stitched in rows)
    report.add("stitched >= single (every kernel)", 1.0,
               1.0 if all_monotone else 0.0, compare="exact")
    report.add("single patch beats LOCUS ISE on average", 1.1,
               avg(singles) / avg(locuses), "x", compare="direction",
               note="patches add SPM load/store inside ISEs")
    astar = next(r for r in rows if r[0] == "astar")
    report.add("astar gains ~nothing from stitching", 1.0,
               astar[3] / astar[2], "x", tolerance=0.1,
               note="small patterns; Section VI-C observation")
    return report


def run_fig4_pattern():
    """Figure 4: one pattern on {AT-MA} vs {AT-AS} vs fused pair."""
    report = ExperimentReport(
        "Fig. 4", "A computational pattern accelerated by different patches"
    )

    def pattern_kernel():
        asm = Asm("fig4")
        asm.movi("r1", SPM_BASE)
        asm.movi("r8", SPM_BASE + 4 * 64)
        loop = asm.label("loop")
        asm.lw("r2", 0, "r1")
        asm.add("r3", "r2", "r6")    # t1 = x + c1
        asm.slli("r4", "r3", 2)      # t2 = t1 << 2
        asm.add("r5", "r4", "r2")    # t3 = t2 + x
        asm.srai("r7", "r5", 1)      # t4 = t3 >> 1
        asm.sw("r7", 0, "r1")
        asm.addi("r1", "r1", 4)
        asm.bne("r1", "r8", loop)
        asm.halt()
        program = asm.assemble()

        class K:
            name = "fig4"
            live_out_regs = frozenset()

            def __init__(self):
                self.program = program

            def setup(self, core):
                core.memory.load(SPM_BASE, list(range(64)))
                core.write_reg(6, 3)

            def result(self, core):
                return core.memory.dump(SPM_BASE, 64)

        return K()

    def loop_instructions(compiled):
        ops = [i.op for i in compiled.program]
        body = ops[ops.index(Op.LW):]  # from first load to the end
        return len(body)

    compiler = KernelCompiler(pattern_kernel())
    results = {}
    for option in (
        next(o for o in SINGLE_OPTIONS if o.name == "AT-MA"),
        next(o for o in SINGLE_OPTIONS if o.name == "AT-AS"),
        next(o for o in FUSED_OPTIONS if o.name == "AT-AS+AT-AS"),
    ):
        compiled = compiler.compile(option)
        results[option.name] = compiled
    rows = [
        (name, c.cycles, round(c.speedup, 2), len(c.mappings))
        for name, c in results.items()
    ]
    report.table = render_table(
        ["patch option", "kernel cycles", "speedup", "custom instrs"], rows,
        title="The Fig. 4 pattern inside a 64-iteration loop",
    )
    report.add(
        "{AT-AS} beats {AT-MA} on this pattern", 2.0,
        results["AT-MA"].cycles / results["AT-AS"].cycles * 2,
        compare="direction", note="paper: 2 cycles vs 4 cycles",
    )
    report.add(
        "fused {AT-AS,AT-AS} beats single {AT-AS}", 2.0,
        results["AT-AS"].cycles / results["AT-AS+AT-AS"].cycles * 2,
        compare="direction", note="paper: 1 cycle vs 2 cycles",
    )
    return report


def run_sec3a_opchains(seed=1):
    """Section III-A: multi-round LCS op-chain study + patch mix."""
    report = ExperimentReport(
        "Sec. III-A", "Hot op-chain identification and the patch mix"
    )
    patterns = {}
    for kernel in kernel_suite(seed=seed):
        profile = profile_kernel(kernel.program, kernel.setup)
        chains = []
        for hot in profile.hot_blocks():
            dfg = DFG(hot.block, spm_only=profile.spm_only)
            path = critical_path_classes(dfg)
            if path:
                chains.append(path)
        patterns[kernel.name] = chains
    rounds = lcs_rounds(patterns, max_len=2, max_rounds=8)
    rows = [(f"{{{r.chain}}}", f"{r.rate:.1%}", r.count) for r in rounds]
    report.table = render_table(
        ["op-chain", "occurrence rate", "kernels"], rows,
        title="LCS rounds over our kernel suite (paper suite differs)",
    )
    top = rounds[0]
    report.add("{AT} is the most common chain", "AT", top.chain,
               compare="exact", note=f"paper: 95.7%, ours {top.rate:.0%}")
    from repro.compiler.opchain import OpChainRound
    paper_rounds = [
        OpChainRound("MA", 0.478, 11),
        OpChainRound("AS", 0.217, 5),
        OpChainRound("SA", 0.217, 5),
    ]
    mix = patch_mix_from_rounds(paper_rounds)
    report.add("patch mix from the paper's rates", "8/4/4",
               f"{mix['MA']}/{mix['AS']}/{mix['SA']}", compare="exact",
               note="reproduces the 8 {AT-MA} / 4 {AT-AS} / 4 {AT-SA} split")
    return report


def run_sec3c_spm_tradeoff(seed=1, items=10,
                           names=("fir", "histogram", "update", "2dconv", "fft")):
    """Section III-C: 4KB D$ + 4KB SPM vs 8KB D$ (no custom instrs).

    Kernels loop ``items`` times so cold misses amortize — the paper's
    ~1.5 % claim is about steady-state behaviour, where the big cache
    and the scratchpad both serve the hot data in one cycle.
    """
    from repro.sim.streaming import wrap_streaming

    report = ExperimentReport(
        "Sec. III-C", "Replacing half the data cache with a scratchpad"
    )
    rows = []
    deltas = []
    for name in names:
        kernel = make_kernel(name, seed=seed)
        program = wrap_streaming(kernel.program, [], [], items=items)
        spm_core = Core(program, MemorySystem.stitch())
        kernel.setup(spm_core)
        spm_core.run(max_instructions=50_000_000)
        cache_core = Core(program, MemorySystem.baseline())
        kernel.setup(cache_core)
        cache_core.run(max_instructions=50_000_000)
        delta = spm_core.cycles / cache_core.cycles - 1.0
        deltas.append(delta)
        rows.append((name, cache_core.cycles, spm_core.cycles, f"{delta:+.2%}"))
    avg_delta = sum(deltas) / len(deltas)
    report.table = render_table(
        ["kernel", "8KB D$ cycles", "4KB D$ + SPM cycles", "delta"], rows,
        title=f"{items} iterations per kernel (steady state)",
    )
    report.add("average |cycle delta| (SPM vs big D$)", PAPER_SPM_DEGRADATION,
               abs(avg_delta), tolerance=2.0,
               note="paper: ~1.5% degradation; ours slightly favors the "
                    "SPM (no conflict misses on perfectly-mapped data)")
    report.add("worst per-kernel degradation", 0.05, max(deltas),
               compare="info")
    return report


def run_sec6d_frequency(seed=1):
    """Section VI-D: LOCUS at its 400 MHz max vs Stitch at 200 MHz."""
    report = ExperimentReport(
        "Sec. VI-D", "Frequency-adjusted comparison with LOCUS"
    )
    tables = _suite_tables(seed=seed)
    rows = []
    ratios = []
    for name, table in tables.items():
        stitch_time = _best(table, ALL_OPTIONS) / 200e6
        locus_time = table[LOCUS_OPTION.name] / 400e6
        ratio = locus_time / stitch_time   # >1 -> Stitch faster
        ratios.append(ratio)
        rows.append((name, f"{stitch_time*1e6:.1f}", f"{locus_time*1e6:.1f}",
                     round(ratio, 2)))
    avg_ratio = sum(ratios) / len(ratios)
    report.table = render_table(
        ["kernel", "Stitch@200MHz (us)", "LOCUS@400MHz (us)",
         "Stitch speedup"], rows,
    )
    report.add(
        "Stitch@200 vs LOCUS@400 average speedup", PAPER_FREQ_PERF, avg_ratio,
        "x", tolerance=0.6,
        note=(
            "paper: 1.03x. Our LOCUS SFU is stronger (captures paired "
            "independent ops) and our fusion omits remote-SPM data "
            "placement, so clock-doubled LOCUS wins here; see "
            "EXPERIMENTS.md for the analysis"
        ),
    )
    # Perf/W at the two clocks: power scales ~linearly with frequency.
    from repro.power.chip import ChipModel
    chip = ChipModel()
    locus_power_400 = chip.locus_power_mw() * 2
    ppw_ratio = avg_ratio * (locus_power_400 / chip.total_power_mw())
    report.add("Stitch perf/W vs LOCUS@400", 1.16, ppw_ratio, "x",
               compare="direction",
               note="paper: 1.16x; LOCUS's large SFUs burn power")
    return report
