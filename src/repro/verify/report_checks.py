"""Compile-provenance consistency checks (``V6xx``).

A :class:`~repro.provenance.CompileReport` claims to account for every
decision the tool chain made; these rules prove the claim instead of
trusting it:

* **V600** — candidate accounting: per hot block, selected plus
  rejected decisions must equal the enumerated candidate total, so no
  candidate silently disappears between enumeration and selection,
* **V601** — every rejected candidate must carry a reason from the
  documented rejection vocabulary (an empty reason means the selector
  grew a new rejection path without naming it),
* **V602** — plan cross-check: a stitch plan's accelerated assignment
  must point at a version the report measured, with matching cycles
  and a passing bit-exact validation verdict,
* **V603** (warning) — a hot block's candidate enumeration hit its
  subgraph ``limit``, so the candidate set (and every decision built on
  it) covers only part of the block's search space.

Like the V5xx telemetry rules these inspect dynamic artifacts, but the
checks themselves are pure: nothing is compiled or simulated here.
"""

from repro.provenance.records import (
    REJECT_CONVEXITY,
    REJECT_IMM_POOL,
    REJECT_INPUTS,
    REJECT_MAX_PER_BLOCK,
    REJECT_OUTPUTS,
    REJECT_OVERLAP,
    REJECT_UNMAPPABLE,
    REJECT_UNSCHEDULABLE,
    REJECTED,
    SELECTED,
)
from repro.verify.diagnostics import Report, Severity, register_rule

register_rule(
    "V600", Severity.ERROR,
    "compile report does not account for every enumerated ISE candidate",
    "report-checks",
)
register_rule(
    "V601", Severity.ERROR,
    "rejected ISE candidate without a documented reason",
    "report-checks",
)
register_rule(
    "V602", Severity.ERROR,
    "stitch plan assignment disagrees with the compile report",
    "report-checks",
)
register_rule(
    "V603", Severity.WARNING,
    "ISE candidate enumeration truncated at its subgraph limit",
    "report-checks",
)

# The complete selection-time rejection vocabulary; enumeration-time
# reasons are included because EnumerationLog buckets use them too.
KNOWN_REASONS = frozenset({
    REJECT_CONVEXITY,
    REJECT_INPUTS,
    REJECT_OUTPUTS,
    REJECT_MAX_PER_BLOCK,
    REJECT_OVERLAP,
    REJECT_IMM_POOL,
    REJECT_UNMAPPABLE,
    REJECT_UNSCHEDULABLE,
})


def check_compile_report(compile_report, report=None):
    """Verify one kernel's provenance record (V600, V601, V603)."""
    subject = f"compile report {compile_report.kernel_name}"
    report = report if report is not None else Report(subject)
    for name, version in sorted(compile_report.versions.items()):
        for block in version.blocks:
            loc = f"{compile_report.kernel_name}@{name} block {block.block_index}"
            if block.enumeration.truncated:
                report.emit(
                    "V603", loc,
                    f"enumeration hit its subgraph limit "
                    f"({block.enumeration.visited} subgraphs examined); "
                    f"the candidate set is incomplete",
                )
            decided = len(block.candidates)
            if block.enumerated is None:
                report.emit(
                    "V600", loc,
                    "no enumerated-candidate total recorded (driver did "
                    "not close the block record)",
                )
            elif decided != block.enumerated:
                report.emit(
                    "V600", loc,
                    f"{block.enumerated} candidates enumerated but only "
                    f"{decided} decided ({len(block.selected())} selected + "
                    f"{len(block.rejected())} rejected)",
                )
            for record in block.candidates:
                if record.status == SELECTED:
                    continue
                if record.status != REJECTED or not record.reason:
                    report.emit(
                        "V601", loc,
                        f"candidate {record.signature} over nodes "
                        f"{list(record.node_ids)} is "
                        f"{record.status or 'undecided'} without a reason",
                    )
                elif record.reason not in KNOWN_REASONS:
                    report.emit(
                        "V601", loc,
                        f"candidate {record.signature} rejected with "
                        f"unknown reason {record.reason!r} (extend the "
                        f"vocabulary in repro.provenance.records)",
                    )
    return report


def check_report_against_plan(plan, compile_reports, stage_kernels,
                              report=None):
    """Cross-check a stitch plan against per-kernel provenance (V602).

    ``compile_reports`` maps kernel name to its
    :class:`~repro.provenance.CompileReport`; ``stage_kernels`` maps
    stage id to kernel name (several stages may share one structurally
    identical kernel and hence one report).
    """
    subject = f"plan {plan.app_name}"
    report = report if report is not None else Report(subject)
    for stage_id in sorted(plan.assignments):
        assignment = plan.assignments[stage_id]
        if assignment.option == "baseline":
            continue
        kernel_name = stage_kernels.get(stage_id)
        loc = f"stage {stage_id} ({kernel_name}@{assignment.option})"
        compile_report = compile_reports.get(kernel_name)
        if compile_report is None:
            report.emit(
                "V602", loc,
                f"no compile report for kernel {kernel_name!r}",
            )
            continue
        version = compile_report.versions.get(assignment.option)
        if version is None:
            report.emit(
                "V602", loc,
                f"plan uses option {assignment.option!r} but the report "
                f"measured only {sorted(compile_report.versions)}",
            )
            continue
        if version.cycles != assignment.cycles:
            report.emit(
                "V602", loc,
                f"plan assumes {assignment.cycles} cycles but the report "
                f"measured {version.cycles}",
            )
        if version.validated is not True:
            report.emit(
                "V602", loc,
                "assigned version has no passing bit-exact validation "
                f"verdict (validated={version.validated})",
            )
    return report
