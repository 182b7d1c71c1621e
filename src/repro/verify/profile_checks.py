"""Profiler/time-series consistency checks (``V9xx``).

The PC-attribution profiler and the interval sampler are *derived*
views of the same counters the V500 rules guard, so they get their own
reconciliation rules:

* **V900** — a tile's profiled cycle total (the sum of its retired-
  cycle PC histogram) disagrees with the simulator's attribution total
  for that tile.  Every simulated cycle lands on exactly one PC, so any
  drift means a timing-model change forgot to feed the histogram.
* **V901** — a time-series capture is malformed: non-positive sampling
  interval, non-monotonic interval indices within one series, or a
  sample whose ``[start, end)`` window does not match its index.

Like the V5xx pass these inspect dynamic artifacts (profiles, captures,
run roll-ups) but simulate nothing themselves.
"""

from repro.verify.diagnostics import Report, Severity, register_rule

register_rule(
    "V900", Severity.ERROR,
    "profiler cycle total disagrees with the simulator's attribution",
    "profile-checks",
)
register_rule(
    "V901", Severity.ERROR,
    "time-series sample intervals non-monotonic or overlapping",
    "profile-checks",
)


def check_profile(profile, total_cycles=None, report=None):
    """Reconcile one :class:`~repro.profile.CycleProfile` (V900).

    ``total_cycles`` overrides the profile's own recorded total — pass
    the tile's attribution total from a :class:`SystemStats` roll-up to
    cross-check two independently maintained counters.
    """
    loc = f"tile {profile.tile}"
    report = report if report is not None else Report(loc)
    expected = total_cycles if total_cycles is not None else profile.total_cycles
    profiled = profile.profiled_cycles()
    if profiled != expected:
        report.emit(
            "V900", loc,
            f"PC histogram holds {profiled} cycles but the simulator "
            f"attributed {expected} (drift {profiled - expected:+d}; did a "
            f"timing-model change bypass the profiler?)",
        )
    return report


def check_profile_run(profiles, results, report=None):
    """Reconcile every tile of an app profile against the run roll-up.

    ``profiles`` is the ``{tile: CycleProfile}`` map of
    :func:`repro.profile.profile_target`; ``results`` the
    :class:`~repro.sim.system.RunResults` (or a bare
    :class:`~repro.telemetry.SystemStats`) of the same run.
    """
    report = report if report is not None else Report("profile run")
    stats = getattr(results, "stats", results)
    for tile in sorted(profiles):
        attributed = stats.tiles.get(tile, {}).get("total")
        if attributed is None:
            report.emit(
                "V900", f"tile {tile}",
                "tile has a profile but no attribution in the run roll-up",
            )
            continue
        check_profile(profiles[tile], total_cycles=attributed, report=report)
    return report


def _check_series(samples, interval, loc, report):
    last_index = None
    for sample in samples:
        index = sample["index"]
        if last_index is not None and index <= last_index:
            report.emit(
                "V901", loc,
                f"interval index {index} follows {last_index} "
                f"(samples must be strictly increasing)",
            )
        last_index = index
        start, end = sample["start"], sample["end"]
        if start != index * interval or end != start + interval:
            report.emit(
                "V901", loc,
                f"sample {index} spans [{start}, {end}) but interval "
                f"{interval} puts it at [{index * interval}, "
                f"{(index + 1) * interval})",
            )


def check_timeseries(capture, report=None):
    """Validate a time-series capture's interval structure (V901).

    Accepts a live :class:`~repro.telemetry.TimeSeries` or its
    ``to_dict()`` payload (i.e. a loaded ``--timeseries`` JSON file).
    """
    payload = capture.to_dict() if hasattr(capture, "to_dict") else capture
    report = report if report is not None else Report("timeseries")
    interval = payload.get("interval")
    if not interval or interval <= 0:
        report.emit(
            "V901", "timeseries",
            f"non-positive sampling interval {interval!r}",
        )
        return report
    for tile, samples in sorted(payload.get("tiles", {}).items()):
        _check_series(samples, interval, f"tile {tile}", report)
    for link, samples in sorted(
        payload.get("noc", {}).get("links", {}).items()
    ):
        _check_series(samples, interval, f"link {link}", report)
    for chan, samples in sorted(
        payload.get("fabric", {}).get("channels", {}).items()
    ):
        _check_series(samples, interval, f"channel {chan}", report)
    return report
