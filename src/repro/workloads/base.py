"""Kernel framework: regions, the Kernel base class, stream wrapping.

Register convention: kernel bodies use ``r1``-``r10`` and ``r12``-
``r15`` freely but must re-initialize every register before reading it
within an iteration (no cross-iteration register state); ``r11`` is the
streaming wrapper's item counter and is never touched by bodies.  The
wrapper's receive/send sequences use ``r1``-``r3``, which is safe under
the re-initialization rule.  Registers the ISE compiler's constant pool
claims are untouched by construction (the pool only takes registers the
program never references).
"""

from repro.isa.assembler import assemble
from repro.isa.builder import Asm
from repro.mem.spm import SPM_BASE, SPM_SIZE

STREAM_COUNT_REG = "r11"
_COMM_PEER_REG = "r1"
_COMM_ARG_REG = "r2"
_COMM_COUNT_REG = "r3"


class Region:
    """A named word region in the tile's memory (usually the SPM)."""

    __slots__ = ("name", "addr", "nwords")

    def __init__(self, name, addr, nwords):
        if addr % 4 != 0:
            raise ValueError(f"region {name!r} must be word aligned")
        self.name = name
        self.addr = addr
        self.nwords = nwords

    @property
    def end(self):
        return self.addr + 4 * self.nwords

    def __repr__(self):
        return f"Region({self.name}@{self.addr:#x}, {self.nwords}w)"


class Kernel:
    """Base class for workload kernels.

    Subclasses implement :meth:`build` (emit the body, no ``halt``),
    declare ``inputs`` / ``outputs`` / ``consts`` regions plus the data
    for them, and implement :meth:`reference` returning the expected
    output words.
    """

    name = "kernel"
    live_out_regs = frozenset()  # results live in memory regions

    def __init__(self, seed=1):
        self.seed = seed
        self.inputs = []     # (Region, list of words) streamed per item
        self.consts = []     # (Region, list of words) loaded once
        self.outputs = []    # Region
        self.composites = {}  # name -> Region spanning adjacent regions
        self.configure()
        self._check_layout()
        asm = Asm(self.name)
        self.build(asm)
        self._body_lines = list(asm.lines)
        self._program = None

    # -- subclass API --------------------------------------------------------

    def configure(self):
        """Set up regions and input data (runs before build)."""
        raise NotImplementedError

    def build(self, asm):
        """Emit the kernel body (no halt)."""
        raise NotImplementedError

    def reference(self):
        """Expected output words (concatenated over output regions)."""
        raise NotImplementedError

    # -- helpers for subclasses ------------------------------------------------

    _cursor = None

    def region(self, name, nwords):
        """Allocate the next ``nwords`` of SPM as a region."""
        if self._cursor is None:
            self._cursor = SPM_BASE
        region = Region(name, self._cursor, nwords)
        self._cursor += 4 * nwords
        return region

    def _check_layout(self):
        regions = [r for r, _ in self.inputs] + [r for r, _ in self.consts]
        regions += list(self.outputs)
        for region in regions:
            if region.end > SPM_BASE + SPM_SIZE:
                raise ValueError(
                    f"{self.name}: region {region.name} exceeds the 4 KB SPM"
                )

    # -- programs -----------------------------------------------------------------

    @property
    def program(self):
        """Standalone program (cached)."""
        if self._program is None:
            source = "\n".join(self._body_lines + ["    halt"])
            self._program = assemble(source, name=self.name)
        return self._program

    def streaming_program(self, sources, sinks, items):
        """Wrap the body in a recv/compute/send loop.

        ``sources`` — list of ``(peer tile, Region)`` received per item,
        ``sinks`` — list of ``(peer tile, Region)`` sent per item,
        ``items`` — iterations before halting.
        """
        asm = Asm(f"{self.name}.stream")
        asm.movi(STREAM_COUNT_REG, items)
        loop = asm.label("stream_loop")
        for peer, region in sources:
            asm.movi(_COMM_PEER_REG, peer)
            asm.movi(_COMM_ARG_REG, region.addr)
            asm.movi(_COMM_COUNT_REG, region.nwords)
            asm.recv(_COMM_PEER_REG, _COMM_ARG_REG, _COMM_COUNT_REG)
        asm.lines.extend(self._body_lines)
        for peer, region in sinks:
            asm.movi(_COMM_PEER_REG, peer)
            asm.movi(_COMM_ARG_REG, region.addr)
            asm.movi(_COMM_COUNT_REG, region.nwords)
            asm.send(_COMM_PEER_REG, _COMM_ARG_REG, _COMM_COUNT_REG)
        asm.addi(STREAM_COUNT_REG, STREAM_COUNT_REG, -1)
        asm.bne(STREAM_COUNT_REG, "r0", loop)
        asm.halt()
        return asm.assemble()

    # -- harness hooks ---------------------------------------------------------------

    def load_consts(self, core):
        for region, words in self.consts:
            if len(words) != region.nwords:
                raise ValueError(f"{region.name}: data/region size mismatch")
            core.memory.load(region.addr, words)

    def load_inputs(self, core):
        for region, words in self.inputs:
            if len(words) != region.nwords:
                raise ValueError(f"{region.name}: data/region size mismatch")
            core.memory.load(region.addr, words)

    def setup(self, core):
        self.load_consts(core)
        self.load_inputs(core)

    def result(self, core):
        values = []
        for region in self.outputs:
            values.extend(core.memory.dump(region.addr, region.nwords))
        return values

    def get_region(self, name):
        """Look up a region by name (inputs, outputs or composites)."""
        if name in self.composites:
            return self.composites[name]
        for region, _ in self.inputs + self.consts:
            if region.name == name:
                return region
        for region in self.outputs:
            if region.name == name:
                return region
        raise KeyError(f"{self.name} has no region named {name!r}")

    def cache_key(self):
        """Structural, seed-free key of this build (for the compile
        store): the seed picks input data, never the program."""
        return (type(self).__name__, tuple(
            sorted(
                (k, v) for k, v in vars(self).items()
                if isinstance(v, (int, str)) and not k.startswith("_")
                and k != "seed"
            )
        ))

    def __repr__(self):
        return f"Kernel({self.name})"
