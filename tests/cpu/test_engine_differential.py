"""Differential suite: the fast loop vs the instrumented loop.

``repro.cpu.engine.run_instrumented`` is the executable specification
of the cycle model and ``run_fast`` an independent re-implementation.
These tests pin the two to bit-identical *complete* final state —
registers, cycles, instret, every stall counter, cache/SPM/DRAM
counters and contents, and the kernel's computed result — over the
full Figure 11 suite, both as plain scalar binaries and as compiled
artifacts executing custom instructions through a
:class:`PatchExecutor`.

Any timing-model edit that touches only one loop fails here first; an
edit that touches both alike fails the golden digests of
``tests/cpu/test_engine_golden.py``.
"""

import pytest

from repro.cpu.core import Core, STOP_HALT
from repro.mem.hierarchy import MemorySystem
from repro.workloads import KERNEL_FACTORIES, make_kernel

ENGINES = ("instrumented", "fast")

#: Kernels whose hot loops map onto patches: one single-patch and one
#: fused option each, so the cix path (including LMAU loads and fused
#: remote execution) is covered without compiling the full 15x12 grid
#: on every CI run — ``repro bench --check`` covers that grid.
COMPILED_CASES = [
    ("fir", "AT-MA"),
    ("fir", "AT-MA+AT-SA"),
    ("fft", "AT-AS"),
    ("2dconv", "AT-MA+AT-MA"),
    ("histogram", "AT-SA"),
    ("dtw", "AT-AS+AT-MA"),
]


def full_state(core, kernel=None):
    """Everything an engine can get wrong, in one comparable dict
    (plus ``kernel``'s computed result when given)."""
    memory = core.memory
    state = {
        "regs": list(core.regs),
        "pc": core.pc,
        "halted": core.halted,
        "cycles": core.cycles,
        "instret": core.instret,
        "stall_memory": core.stall_memory,
        "stall_icache": core.stall_icache,
        "stall_branch": core.stall_branch,
        "stall_comm": core.stall_comm,
        "cix_retired": core.cix_retired,
        "icache": (memory.icache.hits, memory.icache.misses,
                   memory.icache.writebacks),
        "dcache": (memory.dcache.hits, memory.dcache.misses,
                   memory.dcache.writebacks),
        "dram_words": dict(memory.dram._words),
        "dram_counters": (memory.dram.reads, memory.dram.writes),
    }
    if memory.spm is not None:
        state["spm"] = (memory.spm.reads, memory.spm.writes,
                        list(memory.spm._words))
    # Last: result() may dump memory untimed, so counters are already
    # captured above.
    if kernel is not None:
        state["result"] = kernel.result(core)
    return state


def run_engine(kernel, program, engine, cfg_table=None, replica=None):
    memory = MemorySystem.stitch()
    patch = None
    if cfg_table:
        from repro.core.executor import PatchExecutor

        patch = PatchExecutor(cfg_table, memory, replica_memory=replica)
    core = Core(program, memory, patch=patch, engine=engine)
    kernel.setup(core)
    outcome = core.run(max_instructions=20_000_000)
    assert outcome.reason == STOP_HALT, (kernel.name, engine, outcome.reason)
    assert core.selected_engine() == engine
    return full_state(core, kernel)


def assert_states_equal(states, context):
    spec = states["instrumented"]
    fast = states["fast"]
    diverged = [key for key in spec if fast[key] != spec[key]]
    assert not diverged, (
        f"{context}: the fast loop diverged from the instrumented one on "
        f"{diverged}: "
        + ", ".join(
            f"{key}={spec[key]!r} vs {fast[key]!r}" for key in diverged[:3]
        )
    )


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_scalar_kernel_state_identical(name):
    states = {}
    for engine in ENGINES:
        kernel = make_kernel(name, seed=1)
        states[engine] = run_engine(kernel, kernel.program, engine)
    assert_states_equal(states, f"kernel {name}")


def compiled_states(name, option_name, engines):
    """``{engine: full_state}`` of ``name`` compiled for ``option_name``
    and run through a :class:`PatchExecutor` on each engine."""
    from repro.compiler.driver import ALL_OPTIONS, KernelCompiler

    option = next(o for o in ALL_OPTIONS if o.name == option_name)
    compiler = KernelCompiler(make_kernel(name, seed=1))
    compiled = compiler.compile(option)
    if not compiled.cfg_table:
        pytest.skip(f"{name} maps nothing onto {option_name}")
    states = {}
    for engine in engines:
        kernel = make_kernel(name, seed=1)
        replica = None
        if compiled.replicated_regions:
            replica = MemorySystem.stitch()
            for region, words in getattr(kernel, "consts", []):
                replica.load(region.addr, words)
        states[engine] = run_engine(
            kernel, compiled.program, engine,
            cfg_table=compiled.cfg_table, replica=replica,
        )
        assert states[engine]["cix_retired"] > 0
    return states


@pytest.mark.parametrize("name,option_name", COMPILED_CASES,
                         ids=[f"{k}-{o}" for k, o in COMPILED_CASES])
def test_compiled_kernel_state_identical(name, option_name):
    states = compiled_states(name, option_name, ENGINES)
    assert_states_equal(states, f"compiled {name} @ {option_name}")


def test_fast_loop_is_actually_faster():
    # Not a timing gate (`repro bench --host` owns that) — just a
    # sanity check that the fast path engages on a real kernel: the
    # resident memo must have skipped most fetches.
    kernel = make_kernel("fir", seed=1)
    core = Core(kernel.program, MemorySystem.stitch(), engine="fast")
    kernel.setup(core)
    core.run(max_instructions=20_000_000)
    assert core._decoded.resident_ok
    assert any(core._resident)
