"""Golden digests: compiling the Fig. 11 suite is bit-for-bit stable.

For every kernel (seed 1) and every patch option (the 12 Stitch options
plus the LOCUS SFU) two SHA-256 digests are pinned:

* ``program`` — every option's rewritten instruction slots, cfg table
  and measured cycles;
* ``report`` — the kernel's :class:`CompileReport` dict with the
  host-time fields (``seconds``, ``wall_seconds``) stripped.

Any change to candidate enumeration, convexity, selection order or
constant-register allocation shows up here as a digest mismatch.
Regenerate (only for an intended output change) with::

    PYTHONPATH=src python tests/compiler/test_compile_golden.py --write
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.compiler.driver import ALL_OPTIONS, LOCUS_OPTION, KernelCompiler
from repro.core.fusion import FusedConfig
from repro.provenance import CompileReport
from repro.workloads.suite import KERNEL_FACTORIES, make_kernel

GOLDEN = Path(__file__).with_name("golden_compile.json")
OPTIONS = ALL_OPTIONS + (LOCUS_OPTION,)
WALL_KEYS = frozenset({"seconds", "wall_seconds"})


def _instruction_slots(instr):
    return [
        instr.op.value, instr.rd, instr.ra, instr.rb, instr.imm,
        instr.target, instr.cfg, instr.outs, instr.ins,
    ]


def _config_key(config):
    if isinstance(config, FusedConfig):
        return [
            repr(config.cfg_a), repr(config.cfg_b), list(config.b_ext),
            list(config.outs), config.remote_tile,
        ]
    return repr(config)


def strip_wall(value):
    """``value`` with every host-time field removed, recursively."""
    if isinstance(value, dict):
        return {
            key: strip_wall(child) for key, child in value.items()
            if key not in WALL_KEYS
        }
    if isinstance(value, list):
        return [strip_wall(child) for child in value]
    return value


def _digest(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def kernel_digests(name, seed=1):
    """``{"program": sha, "report": sha}`` for one kernel, all options."""
    report = CompileReport(name)
    compiler = KernelCompiler(make_kernel(name, seed=seed), report=report)
    versions = {}
    for option in OPTIONS:
        compiled = compiler.compile(option)
        versions[option.name] = {
            "instructions": [
                _instruction_slots(instr)
                for instr in compiled.program.instructions
            ],
            "cfg_table": [_config_key(cfg) for cfg in compiled.cfg_table],
            "cycles": compiled.cycles,
        }
    return {
        "program": _digest(versions),
        "report": _digest(strip_wall(report.to_dict())),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_suite(golden):
    assert sorted(golden) == sorted(KERNEL_FACTORIES)


@pytest.mark.parametrize("name", sorted(KERNEL_FACTORIES))
def test_compile_matches_golden(golden, name):
    assert kernel_digests(name) == golden[name], (
        f"{name}: compiled programs or provenance drifted from the "
        f"committed golden digests"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_compile_golden.py --write")
    digests = {name: kernel_digests(name) for name in sorted(KERNEL_FACTORIES)}
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
