"""Cycle-attribution profiler (``repro profile``).

Folds each core's retired-cycle PC histogram onto basic blocks and
natural loops; cycle totals reconcile *exactly* with the simulator's
attribution counters (rule V900 enforces this).
"""

from repro.profile.profiler import (
    BlockProfile,
    CycleProfile,
    LoopProfile,
    profile_target,
)
from repro.profile.report import (
    render_annotated,
    render_folded,
    render_summary,
)

__all__ = [
    "BlockProfile",
    "CycleProfile",
    "LoopProfile",
    "profile_target",
    "render_annotated",
    "render_folded",
    "render_summary",
]
