"""Smoke tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_run_command(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text(
            "movi r1, 6\nmovi r2, 7\nmul r3, r1, r2\nhalt\n"
        )
        main(["run", str(source)])
        out = capsys.readouterr().out
        assert "stopped: halt" in out
        assert "'r3': 42" in out

    def test_compile_command_single_option(self, capsys):
        main(["compile", "fir", "--option", "AT-MA"])
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "AT-MA" in out
        assert "x" in out

    def test_compile_unknown_option_exits(self):
        with pytest.raises(SystemExit) as exc:
            main(["compile", "fir", "--option", "NOPE"])
        assert exc.value.code == "unknown option 'NOPE'"

    def test_explain_unknown_option_exits(self):
        with pytest.raises(SystemExit) as exc:
            main(["explain", "fir", "--option", "NOPE"])
        assert exc.value.code == "unknown option 'NOPE'"

    def test_unknown_app_exits(self):
        with pytest.raises(SystemExit):
            main(["app", "APP9"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


KERNEL_SOURCE = """\
    movi r1, 0x100
    movi r5, 0
    movi r6, 4
loop:
    lw   r2, 0(r1)
    add  r5, r5, r2
    addi r1, r1, 4
    addi r6, r6, -1
    bne  r6, r0, loop
    halt
"""


class TestTelemetryCli:
    def run_traced(self, tmp_path, capsys, extra=()):
        source = tmp_path / "kernel.s"
        source.write_text(KERNEL_SOURCE)
        trace = tmp_path / "out.json"
        main(["run", str(source), "--trace", str(trace), *extra])
        return trace, capsys.readouterr().out

    def test_run_stats_prints_exact_attribution(self, tmp_path, capsys):
        source = tmp_path / "kernel.s"
        source.write_text(KERNEL_SOURCE)
        main(["run", str(source), "--stats"])
        out = capsys.readouterr().out
        assert "compute" in out and "memory_stall" in out
        assert "attribution" in out
        assert "V500" not in out  # measured run verifies clean

    def test_run_trace_is_valid_chrome_json(self, tmp_path, capsys):
        import json

        trace, out = self.run_traced(tmp_path, capsys)
        assert "chrome trace written" in out
        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        # Track structure: a metadata event names the tile's thread and
        # every span/instant carries the Chrome-required fields.
        meta = [e for e in events if e["ph"] == "M"]
        assert any(e["name"] == "thread_name"
                   and e["args"]["name"] == "tile 0" for e in meta)
        spans = [e for e in events if e["ph"] == "X"]
        assert spans, "the run slice must appear as a span"
        for span in spans:
            assert span["dur"] >= 0 and span["ts"] >= 0
            assert {"pid", "tid", "name"} <= set(span)
        instants = [e for e in events if e["ph"] == "i"]
        assert instants, "cache misses must appear as instants"

    def test_app_stats_reports_rollup(self, capsys):
        main(["app", "APP4", "--stats", "--items", "1"])
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "attribution" in out
        assert "V500" not in out

    def test_run_gz_trace(self, tmp_path, capsys):
        import gzip
        import json

        source = tmp_path / "kernel.s"
        source.write_text(KERNEL_SOURCE)
        trace = tmp_path / "out.json.gz"
        main(["run", str(source), "--trace", str(trace)])
        assert trace.read_bytes()[:2] == b"\x1f\x8b"
        with gzip.open(trace, "rt", encoding="utf-8") as handle:
            assert json.load(handle)["traceEvents"]

    def test_run_timeseries_is_monotonic(self, tmp_path, capsys):
        import json

        source = tmp_path / "kernel.s"
        source.write_text(KERNEL_SOURCE)
        out_path = tmp_path / "series.json"
        main(["run", str(source), "--timeseries", str(out_path),
              "--interval", "16"])
        out = capsys.readouterr().out
        assert "time series written" in out
        payload = json.loads(out_path.read_text())
        assert payload["interval"] == 16
        samples = payload["tiles"]["0"]
        indices = [s["index"] for s in samples]
        assert indices == sorted(indices)
        assert all(s["end"] - s["start"] == 16 for s in samples)
        assert all("energy_nj" in s for s in samples)


class TestProfileCli:
    def test_profile_kernel_summary(self, capsys):
        main(["profile", "fft"])
        out = capsys.readouterr().out
        assert "reconciled" in out
        assert "loop@fft_bf" in out
        assert "V900" not in out

    def test_profile_annotate(self, capsys):
        main(["profile", "fir", "--annotate"])
        out = capsys.readouterr().out
        assert "cycles" in out and "share" in out and "retired" in out
        assert "fir" in out and "halt" in out

    def test_profile_json_reconciles(self, capsys):
        import json

        main(["profile", "fir", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["reconciled"] is True
        assert doc["target"] == "fir"
        tile = doc["tiles"]["0"]
        assert tile["total_cycles"] == tile["profiled_cycles"]
        assert not doc["diagnostics"]["diagnostics"]

    def test_profile_folded(self, capsys):
        main(["profile", "fir", "--folded"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all(line.rsplit(" ", 1)[1].isdigit() for line in lines)

    def test_profile_unknown_target_exits(self):
        with pytest.raises(SystemExit):
            main(["profile", "no-such-thing"])


class TestCritpathCli:
    def test_critpath_kernel_summary(self, capsys):
        main(["critpath", "fir"])
        out = capsys.readouterr().out
        assert "makespan:" in out and "(complete)" in out
        assert "critical path:" in out
        assert "DOES NOT RECONCILE" not in out

    def test_critpath_json_reconciles(self, capsys):
        import json

        main(["critpath", "fir", "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["target"] == "fir"
        assert doc["partial"] is False
        analysis = doc["analysis"]
        assert analysis["reconciled"] is True
        assert analysis["consistent"] is True
        assert analysis["critical_cycles"] == doc["measured_cycles"]
        assert not doc["diagnostics"]["diagnostics"]

    def test_critpath_gantt(self, capsys):
        main(["critpath", "fir", "--gantt", "--width", "40"])
        out = capsys.readouterr().out
        assert "tile   0 |" in out
        assert "uppercase = critical path" in out

    def test_critpath_whatif_and_validation(self, capsys):
        main(["critpath", "fir", "--what-if", "dram_latency*2",
              "--validate", "dram_latency*2"])
        out = capsys.readouterr().out
        assert "what-if ['dram_latency*2']" in out
        assert "drift +0.0000%" in out

    def test_critpath_out_artifact(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "capture.json"
        main(["critpath", "fir", "--out", str(out_path)])
        capsys.readouterr()
        doc = json.loads(out_path.read_text())
        assert doc["analysis"]["reconciled"] is True
        from repro.verify import check_critpath_capture

        assert check_critpath_capture(doc).ok(strict=True)

    def test_critpath_bad_whatif_exits(self):
        with pytest.raises(SystemExit):
            main(["critpath", "fir", "--what-if", "warp_drive*9"])

    def test_critpath_unknown_target_exits(self):
        with pytest.raises(SystemExit):
            main(["critpath", "no-such-thing"])


class TestMonitorCli:
    def test_monitor_kernel(self, capsys):
        main(["monitor", "fir", "--interval", "64"])
        out = capsys.readouterr().out
        assert "stall timeline" in out
        assert "tile 0" in out
        assert "V901" not in out

    def test_monitor_saved_capture(self, tmp_path, capsys):
        source = tmp_path / "kernel.s"
        source.write_text(KERNEL_SOURCE)
        series = tmp_path / "series.json"
        main(["run", str(source), "--timeseries", str(series),
              "--interval", "16"])
        capsys.readouterr()
        main(["monitor", str(series)])
        out = capsys.readouterr().out
        assert "stall timeline" in out

    def test_monitor_reads_gzipped_capture(self, tmp_path, capsys):
        import gzip
        import json

        from repro.telemetry import TimeSeries

        ts = TimeSeries(interval=100)
        ts.tile_sample(0, 0, {"cycles": 100, "instructions": 90,
                              "memory_stall": 10})
        path = tmp_path / "series.json.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(ts.to_dict(), handle)
        main(["monitor", str(path)])
        out = capsys.readouterr().out
        assert "stall timeline" in out
        assert "tile 0" in out

    def test_monitor_rejects_bad_capture(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"interval": 0, "tiles": {}}')
        with pytest.raises(SystemExit):
            main(["monitor", str(bad)])
        assert "V901" in capsys.readouterr().out
