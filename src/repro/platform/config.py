"""The composed, validated :class:`PlatformConfig` and its presets.

Every hardware number of the reproduction — Table II tile memories,
Table IV fabric delays, the NoC pipeline, the 16-tile mesh — lives in
exactly two places: the :meth:`PlatformConfig.stitch` preset and the
:meth:`PlatformConfig.baseline` preset derived from it (Section VI-B:
the baseline folds the SPM budget back into the data cache).  Each
simulator layer receives its parameter group from a config instance,
so a sweep can fan out over whole *families* of machines by deriving
variants::

    cfg = PlatformConfig.stitch().derive(
        "dram50", mem={"dram_latency": 50})

Configs round-trip through JSON (:meth:`to_dict` / :meth:`from_dict`)
and are validated for internal consistency (:meth:`validate`, the
stitch-lint V700+ family).
"""

import dataclasses

from repro.platform.params import (
    CoreParams,
    FabricParams,
    MemParams,
    NoCParams,
    PARAM_GROUPS,
    PlatformConfigError,
    PowerParams,
    group_from_dict,
    group_to_dict,
)


def _is_pow2(value):
    return value > 0 and value & (value - 1) == 0


_PRESET_CACHE = {}


@dataclasses.dataclass(frozen=True)
class PlatformConfig:
    """One complete machine description (immutable, hashable)."""

    name: str
    core: CoreParams
    mem: MemParams
    noc: NoCParams
    fabric: FabricParams
    power: PowerParams

    # -- presets -------------------------------------------------------------

    @classmethod
    def stitch(cls):
        """The paper's machine: Table II tiles on a 4x4 mesh.

        This preset (and :meth:`baseline`, derived from it) is the
        single place the paper's hardware numbers are written down.
        """
        cached = _PRESET_CACHE.get("stitch")
        if cached is None:
            cached = cls(
                name="stitch",
                core=CoreParams(
                    num_regs=16,
                    taken_branch_penalty=1,
                ),
                mem=MemParams(               # Table II / Section III-C
                    icache_bytes=8 * 1024,
                    dcache_bytes=4 * 1024,
                    cache_assoc=2,
                    cache_line_bytes=64,
                    cache_hit_latency=1,
                    spm_base=0x1000_0000,
                    spm_bytes=4 * 1024,
                    spm_latency=1,
                    dram_latency=30,
                    dram_size_bytes=512 * 1024 * 1024,
                    code_base=0x0800_0000,
                    code_window_bytes=1024 * 1024,
                ),
                noc=NoCParams(               # Table II NoC row
                    mesh_width=4,
                    mesh_height=4,
                    router_stages=5,
                    link_cycles=1,
                    flit_bytes=16,
                    payload_flits_per_packet=4,
                ),
                fabric=FabricParams(         # Table IV / Section VI-D (40 nm)
                    switch_delay_ns=0.17,
                    wire_delay_per_hop_ns=0.1,
                    clock_ns=5.0,            # 200 MHz
                    max_fusion_hops=3,       # <= 6 traversals round trip
                    link_data_bits=4 * 32,   # four operand words
                    link_control_bits=38,    # two 19-bit patch configs
                    switch_area_um2=7423,
                ),
                power=PowerParams(           # Table I / Figure 13
                    clock_mhz=200,
                    stitch_power_mw=139.5,
                    nofusion_power_mw=108.0,
                    accel_power_fraction=0.23,
                    accel_area_fraction=0.005,
                ),
            )
            _PRESET_CACHE["stitch"] = cached
        return cached

    @classmethod
    def baseline(cls):
        """The no-accelerator baseline: SPM budget folded into the D$."""
        cached = _PRESET_CACHE.get("baseline")
        if cached is None:
            cached = cls.stitch().derive(
                "baseline",
                mem={"dcache_bytes": 8 * 1024, "spm_bytes": 0},
            )
            _PRESET_CACHE["baseline"] = cached
        return cached

    # -- derivation ----------------------------------------------------------

    def derive(self, name=None, **group_updates):
        """A new config with per-group field overrides.

        ``cfg.derive("big", noc={"mesh_width": 8, "mesh_height": 8})``
        replaces fields inside a group; groups not named are shared.
        """
        unknown = sorted(set(group_updates) - set(PARAM_GROUPS))
        if unknown:
            raise PlatformConfigError(
                [("V706", self.name,
                  f"unknown parameter group(s): {', '.join(unknown)}")]
            )
        changes = {"name": name if name is not None else self.name}
        for group, updates in group_updates.items():
            changes[group] = group_from_dict(
                PARAM_GROUPS[group], updates,
                base=getattr(self, group), loc=f"{self.name}.{group}",
            )
        return dataclasses.replace(self, **changes)

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        payload = {"name": self.name}
        for group in PARAM_GROUPS:
            payload[group] = group_to_dict(getattr(self, group))
        return payload

    @classmethod
    def from_dict(cls, payload, validate=True):
        """Rebuild a config from :meth:`to_dict` output.

        Partial dicts overlay the ``stitch`` preset (so a config JSON
        only needs the knobs it changes); unknown groups or fields are
        rejected rather than ignored.
        """
        payload = dict(payload)
        name = payload.pop("name", "custom")
        base_name = payload.pop("base", "stitch")
        base = get_preset(base_name)
        unknown = sorted(set(payload) - set(PARAM_GROUPS))
        if unknown:
            raise PlatformConfigError(
                [("V706", name,
                  f"unknown parameter group(s): {', '.join(unknown)}")]
            )
        config = base.derive(name, **payload)
        if validate:
            config.validate()
        return config

    def cache_key(self):
        """A stable hashable identity (the compile store keys on this)."""
        def flatten(value, prefix):
            if isinstance(value, dict):
                for key in sorted(value):
                    yield from flatten(value[key], f"{prefix}.{key}")
            else:
                yield (prefix, value)
        return tuple(flatten(self.to_dict(), "platform"))

    # -- validation ----------------------------------------------------------

    def issues(self):
        """Config-consistency findings as ``(code, loc, message)``.

        These are the pure-config half of the stitch-lint V700 family;
        :func:`repro.verify.platform_checks.check_platform` adds the
        cross-layer checks that need the patch library.
        """
        found = []
        mem, noc, fabric = self.mem, self.noc, self.fabric
        loc = self.name

        # V700: the SPM window must not overlap the code window.
        if mem.spm_bytes > 0:
            code_end = mem.code_base + mem.code_window_bytes
            if mem.spm_base < code_end and mem.code_base < mem.spm_end:
                found.append((
                    "V700", f"{loc}.mem",
                    f"SPM window [{mem.spm_base:#x}, {mem.spm_end:#x}) "
                    f"overlaps the code window [{mem.code_base:#x}, "
                    f"{code_end:#x})",
                ))

        # V701: the inter-patch link must carry whole NoC flits.
        if fabric.link_data_bits != noc.flit_bytes * 8:
            found.append((
                "V701", f"{loc}.fabric",
                f"inter-patch link carries {fabric.link_data_bits} data "
                f"bits but a NoC flit is {noc.flit_bytes * 8} bits",
            ))

        # V702: cache geometry must be realizable.
        for label, size in (("icache", mem.icache_bytes),
                            ("dcache", mem.dcache_bytes)):
            if size <= 0:
                continue  # a cacheless tile is legal (baseline has SPM=0)
            if not (_is_pow2(size) and _is_pow2(mem.cache_assoc)
                    and _is_pow2(mem.cache_line_bytes)):
                found.append((
                    "V702", f"{loc}.mem.{label}",
                    f"{label} geometry must be powers of two "
                    f"({size}B, {mem.cache_assoc}-way, "
                    f"{mem.cache_line_bytes}B lines)",
                ))
            elif size % (mem.cache_assoc * mem.cache_line_bytes) != 0:
                found.append((
                    "V702", f"{loc}.mem.{label}",
                    f"{label} size {size}B is not a multiple of "
                    f"assoc x line ({mem.cache_assoc} x "
                    f"{mem.cache_line_bytes}B)",
                ))

        # V704: non-physical parameters.
        positive = (
            ("core.num_regs", self.core.num_regs),
            ("mem.cache_hit_latency", mem.cache_hit_latency),
            ("mem.dram_latency", mem.dram_latency),
            ("noc.mesh_width", noc.mesh_width),
            ("noc.mesh_height", noc.mesh_height),
            ("noc.router_stages", noc.router_stages),
            ("noc.link_cycles", noc.link_cycles),
            ("noc.flit_bytes", noc.flit_bytes),
            ("noc.payload_flits_per_packet", noc.payload_flits_per_packet),
            ("fabric.clock_ns", fabric.clock_ns),
            ("fabric.max_fusion_hops", fabric.max_fusion_hops),
        )
        for field, value in positive:
            if value < 1:
                found.append((
                    "V704", f"{loc}.{field}",
                    f"{field} must be >= 1, got {value}",
                ))
        if self.core.taken_branch_penalty < 0:
            found.append((
                "V704", f"{loc}.core.taken_branch_penalty",
                "taken_branch_penalty must be >= 0",
            ))
        if mem.spm_bytes > 0 and mem.spm_latency < 1:
            found.append((
                "V704", f"{loc}.mem.spm_latency",
                f"spm_latency must be >= 1, got {mem.spm_latency}",
            ))

        # V705: word alignment of the address map.
        for field, value in (("mem.spm_base", mem.spm_base),
                             ("mem.code_base", mem.code_base)):
            if value % 4 != 0:
                found.append((
                    "V705", f"{loc}.{field}",
                    f"{field} {value:#x} is not word-aligned",
                ))
        if mem.spm_bytes % 4 != 0:
            found.append((
                "V705", f"{loc}.mem.spm_bytes",
                f"spm_bytes {mem.spm_bytes} is not a whole number of words",
            ))
        if noc.flit_bytes % 4 != 0:
            found.append((
                "V705", f"{loc}.noc.flit_bytes",
                f"flit_bytes {noc.flit_bytes} is not a whole number of words",
            ))
        return found

    def validate(self):
        """Raise :class:`PlatformConfigError` unless consistent."""
        found = self.issues()
        if found:
            raise PlatformConfigError(found)
        return self

    def describe(self):
        """One human line per group (the sweep runner's log format)."""
        mem, noc = self.mem, self.noc
        spm = f"{mem.spm_bytes // 1024} KB SPM" if mem.has_spm else "no SPM"
        return (
            f"{self.name}: {noc.mesh_width}x{noc.mesh_height} mesh, "
            f"{mem.icache_bytes // 1024} KB I$ / "
            f"{mem.dcache_bytes // 1024} KB D$ / {spm}, "
            f"DRAM {mem.dram_latency} cy, "
            f"{self.fabric.clock_mhz:.0f} MHz"
        )


def get_preset(name):
    """Resolve a named preset ("stitch" | "baseline")."""
    presets = {"stitch": PlatformConfig.stitch,
               "baseline": PlatformConfig.baseline}
    factory = presets.get(name)
    if factory is None:
        raise PlatformConfigError(
            [("V706", name,
              f"unknown platform preset; choose from {sorted(presets)}")]
        )
    return factory()


PRESET_NAMES = ("stitch", "baseline")
