"""Golden engine digests: the timing model's verdicts, frozen as data.

The digests in ``golden_engine.json`` were recorded from the original
interpreter, which re-decoded every retired instruction and shared no
code with :mod:`repro.isa.decoded`.  Both remaining loops
(``instrumented`` and ``fast``) must reproduce every one of them, so
the differential strength of that third implementation survives its
deletion.  Each digest is the SHA-256 of a :func:`full_state` dict —
registers, pc, cycles, instret, every stall bucket, cache/SPM/DRAM
counters and contents — for:

* ``kernels`` — the 15 Figure 11 kernels as scalar binaries;
* ``compiled`` — the six :data:`COMPILED_CASES` executing custom
  instructions through a :class:`PatchExecutor`;
* ``APP4`` — every tile of the APP4 Stitch co-simulation (2 items);
* ``corpus`` — about 200 seeded random straight-line and counted-loop
  programs over the scalar ISA (plus a digest of their source text, so
  a drifting generator is told apart from a drifting engine).

The digests do not depend on ``PYTHONHASHSEED``.  Regenerate (only for
an intended timing-model change) with::

    PYTHONPATH=src python -m tests.cpu.test_engine_golden --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.cpu.core import Core
from repro.isa import assemble
from repro.mem import MemorySystem, SPM_BASE
from repro.workloads import KERNEL_FACTORIES, make_kernel

from tests.cpu.test_engine_differential import (
    COMPILED_CASES, compiled_states, full_state, run_engine,
)

GOLDEN = Path(__file__).with_name("golden_engine.json")
ENGINES = ("instrumented", "fast")
#: The engine ``--write`` records with (the committed digests came
#: from the original interpreter before it was removed).
RECORD_ENGINE = "instrumented"

CORPUS_SEED = 20181015
CORPUS_STRAIGHT = 120
CORPUS_LOOPS = 80

_R3_OPS = ("add", "sub", "and", "or", "xor", "slt", "sltu", "seq", "mul",
           "mulh", "sll", "srl", "sra")
_IMM_OPS = ("addi", "andi", "ori", "xori", "slti")
_SHIFT_OPS = ("slli", "srli", "srai")
_FORMS = ("r3", "imm", "shift", "movi", "mov", "lw", "sw")


def _i32(rng):
    # Bias towards the edges the kernels never reach.
    return rng.choice((
        rng.randint(-(1 << 31), (1 << 31) - 1),
        rng.choice((0, 1, -1, 31, 32, (1 << 31) - 1, -(1 << 31))),
    ))


def random_instruction(rng, max_dest=13):
    """One scalar instruction as text; r14 is the SPM base pointer,
    destinations stay in r0..``max_dest``."""
    dest = rng.randint(0, max_dest)
    src_a = rng.randint(0, 13)
    src_b = rng.randint(0, 13)
    form = rng.choice(_FORMS)
    if form == "r3":
        return f"{rng.choice(_R3_OPS)} r{dest}, r{src_a}, r{src_b}"
    if form == "imm":
        imm = rng.choice((rng.randint(-2048, 2047), -2048, 2047, 0, -1))
        return f"{rng.choice(_IMM_OPS)} r{dest}, r{src_a}, {imm}"
    if form == "shift":
        amount = rng.choice((rng.randint(0, 31), 0, 31))
        return f"{rng.choice(_SHIFT_OPS)} r{dest}, r{src_a}, {amount}"
    if form == "movi":
        return f"movi r{dest}, {_i32(rng)}"
    if form == "mov":
        return f"mov r{dest}, r{src_a}"
    offset = rng.randint(0, 15) * 4
    if form == "lw":
        return f"lw r{dest}, {offset}(r14)"
    return f"sw r{src_a}, {offset}(r14)"


def corpus(seed=CORPUS_SEED):
    """``[(source, init_regs, spm_words)]``: straight-line bodies, then
    counted loops whose trip counters r12/r13 the body never writes."""
    rng = random.Random(seed)
    programs = []
    for index in range(CORPUS_STRAIGHT + CORPUS_LOOPS):
        if index < CORPUS_STRAIGHT:
            body = [random_instruction(rng)
                    for _ in range(rng.randint(1, 40))]
            source = "\n".join(body + ["halt"])
        else:
            body = [random_instruction(rng, max_dest=11)
                    for _ in range(rng.randint(1, 12))]
            trips = rng.randint(1, 50)
            source = "\n".join(
                ["movi r12, 0", f"movi r13, {trips}", "loop:"] + body
                + ["addi r12, r12, 1", "bne r12, r13, loop", "halt"]
            )
        init_regs = [_i32(rng) for _ in range(13)]
        spm_words = [_i32(rng) for _ in range(16)]
        programs.append((source, init_regs, spm_words))
    return programs


def corpus_state(source, init_regs, spm_words, engine):
    memory = MemorySystem.stitch()
    memory.load(SPM_BASE, spm_words)
    core = Core(assemble(source), memory, engine=engine)
    for index, value in enumerate(init_regs, start=1):
        core.regs[index] = value
    core.regs[14] = SPM_BASE
    outcome = core.run(max_instructions=200_000)
    state = full_state(core)
    state["reason"] = outcome.reason
    return state


def app4_states(engine):
    """``{tile id: full_state}`` of the APP4 Stitch co-simulation."""
    from repro.target import Target

    run = Target.resolve("APP4").run(items=2, engine=engine)
    return {str(core.core_id): full_state(core) for core in run.cores}


def digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def kernel_digest(name, engine):
    kernel = make_kernel(name, seed=1)
    return digest(run_engine(kernel, kernel.program, engine))


def compiled_digest(name, option_name, engine):
    return digest(compiled_states(name, option_name, (engine,))[engine])


def corpus_digests(engine):
    return [digest(corpus_state(*program, engine)) for program in corpus()]


def record(engine=RECORD_ENGINE):
    return {
        "kernels": {name: kernel_digest(name, engine)
                    for name in sorted(KERNEL_FACTORIES)},
        "compiled": {f"{name}@{option}": compiled_digest(name, option, engine)
                     for name, option in COMPILED_CASES},
        "APP4": {tile: digest(state)
                 for tile, state in app4_states(engine).items()},
        "corpus": {
            "source": digest(corpus()),
            "programs": corpus_digests(engine),
        },
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_suite(golden):
    assert sorted(golden["kernels"]) == sorted(KERNEL_FACTORIES)
    assert sorted(golden["compiled"]) == sorted(
        f"{name}@{option}" for name, option in COMPILED_CASES
    )
    assert len(golden["APP4"]) == 16


def test_corpus_generator_is_stable(golden):
    # A drifting generator would make every corpus digest below fail
    # for a reason that has nothing to do with the engines.
    programs = corpus()
    assert len(programs) == CORPUS_STRAIGHT + CORPUS_LOOPS
    assert digest(programs) == golden["corpus"]["source"]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_scalar_kernel_matches_golden(golden, name, engine):
    assert kernel_digest(name, engine) == golden["kernels"][name], (
        f"kernel {name}: engine {engine!r} drifted from the golden state"
    )


@pytest.mark.parametrize("name,option_name", COMPILED_CASES,
                         ids=[f"{k}-{o}" for k, o in COMPILED_CASES])
def test_compiled_kernel_matches_golden(golden, name, option_name):
    states = compiled_states(name, option_name, ENGINES)
    for engine in ENGINES:
        assert digest(states[engine]) == \
            golden["compiled"][f"{name}@{option_name}"], (
                f"compiled {name} @ {option_name}: engine {engine!r} "
                f"drifted from the golden state"
            )


@pytest.mark.parametrize("engine", ENGINES)
def test_app4_tiles_match_golden(golden, engine):
    digests = {tile: digest(state)
               for tile, state in app4_states(engine).items()}
    drifted = sorted(tile for tile in golden["APP4"]
                     if digests.get(tile) != golden["APP4"][tile])
    assert not drifted, f"APP4: engine {engine!r} drifted on tiles {drifted}"


@pytest.mark.parametrize("engine", ENGINES)
def test_random_corpus_matches_golden(golden, engine):
    expected = golden["corpus"]["programs"]
    drifted = [index for index, (got, want)
               in enumerate(zip(corpus_digests(engine), expected))
               if got != want]
    assert len(expected) == CORPUS_STRAIGHT + CORPUS_LOOPS
    assert not drifted, (
        f"engine {engine!r} drifted on corpus programs {drifted[:10]}; "
        f"first: {corpus()[drifted[0]][0]!r}"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_engine_golden.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
