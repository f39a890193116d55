"""Unit tests for the benchmark layer: profiles, harness, reporting."""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import RunRecord, run_latency, run_matrix, run_query
from repro.bench.profiles import (
    BACKEND_NAMES,
    DEFAULT_PROFILE,
    QUICK_PROFILE,
    TINY_PROFILE,
    active_profile,
)
from repro.bench.report import (
    breakdown_rows,
    format_cell,
    format_table,
    latency_rows,
    throughput_rows,
)


class TestProfiles:
    def test_all_backends_constructible(self):
        for backend in BACKEND_NAMES:
            factory = TINY_PROFILE.backend_factory(backend)
            assert callable(factory)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            TINY_PROFILE.backend_factory("leveldb")

    def test_flowkv_overrides_apply(self):
        config = TINY_PROFILE.flowkv_config(read_batch_ratio=0.07)
        assert config.read_batch_ratio == 0.07
        assert config.write_buffer_bytes == TINY_PROFILE.flowkv_write_buffer

    def test_generator_overrides(self):
        generator = TINY_PROFILE.generator(seed=5, duration=10.0, events_per_second=7.0)
        assert generator.seed == 5
        assert generator.duration == 10.0
        assert generator.events_per_second == 7.0

    def test_with_workers(self):
        scaled = TINY_PROFILE.with_workers(4)
        assert scaled.workers == 4
        assert scaled.events_per_second == TINY_PROFILE.events_per_second

    def test_active_profile_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "tiny")
        assert active_profile() is TINY_PROFILE
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "default")
        assert active_profile() is DEFAULT_PROFILE
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "bogus")
        assert active_profile() is QUICK_PROFILE

    def test_profiles_preserve_paper_ratios(self):
        """Window labels map to the paper's 500/1000/2000 s axis."""
        for profile in (TINY_PROFILE, QUICK_PROFILE, DEFAULT_PROFILE):
            assert len(profile.window_sizes) == 3
            assert profile.paper_window_labels == ("500s", "1000s", "2000s")
            ratios = [b / a for a, b in zip(profile.window_sizes, profile.window_sizes[1:])]
            assert all(r == pytest.approx(2.0) for r in ratios)


class TestHarness:
    def test_run_query_produces_record(self):
        record = run_query(TINY_PROFILE, "q11", "flowkv", TINY_PROFILE.window_sizes[0])
        assert record.ok
        assert record.throughput > 0
        assert record.input_records > 0
        assert record.results > 0
        assert record.metrics is not None
        assert record.n_instances == TINY_PROFILE.parallelism

    def test_run_query_oom_failure_captured(self):
        record = run_query(TINY_PROFILE, "q7", "memory", TINY_PROFILE.window_sizes[-1])
        assert record.failure == "oom"
        assert not record.ok

    def test_run_query_timeout_captured(self):
        record = run_query(
            TINY_PROFILE, "q11", "rocksdb", TINY_PROFILE.window_sizes[0],
            sim_timeout=1e-9,
        )
        assert record.failure == "timeout"

    def test_run_matrix_shape(self):
        records = run_matrix(
            TINY_PROFILE, ["q11"], ["flowkv", "rocksdb"],
            window_sizes=[TINY_PROFILE.window_sizes[0]],
        )
        assert len(records) == 2
        assert {r.backend for r in records} == {"flowkv", "rocksdb"}

    def test_run_latency_collects_p95(self):
        records = run_latency(TINY_PROFILE, "q11", ["flowkv"], rates=[10.0])
        (record,) = records
        assert record.arrival_rate == 10.0
        if record.ok:
            assert record.p95_latency is not None

    def test_stat_sum(self):
        record = RunRecord(
            "q", "b", 1.0,
            operator_stats={"a": {"x": 2}, "b": {"x": 3}, "c": {}},
        )
        assert record.stat_sum("x") == 5
        assert record.stat_sum("absent") == 0


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["col", "value"], [["a", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_format_cell_failures(self):
        record = RunRecord("q", "b", 1.0, failure="oom")
        assert "OOM" in format_cell(record)
        record = RunRecord("q", "b", 1.0, failure="timeout")
        assert "DNF" in format_cell(record)

    def test_format_cell_normalized(self):
        record = RunRecord("q", "b", 1.0, throughput=500.0)
        assert format_cell(record, normalize_to=250.0) == "2.00x"

    def test_throughput_rows_include_gain(self):
        flow = RunRecord("q11", "flowkv", 1.0, throughput=100.0, job_seconds=1.0)
        rock = RunRecord("q11", "rocksdb", 1.0, throughput=50.0, job_seconds=2.0)
        rows = throughput_rows([flow, rock], ["q11"], ["flowkv", "rocksdb"], [1.0])
        assert rows[0][-1] == "2.00x"

    def test_breakdown_rows_handle_failures(self):
        rows = breakdown_rows([RunRecord("q", "b", 1.0, failure="timeout")])
        assert "DNF" in rows[0][2]

    def test_latency_rows(self):
        record = RunRecord("q", "b", 1.0, arrival_rate=10.0, p95_latency=0.5)
        rows = latency_rows([record])
        assert rows[0][-1] == "500.0 ms"


class TestBenchSmoke:
    """The CI wall-clock regression gate (repro.bench.smoke)."""

    def test_clean_pass(self):
        from repro.bench.smoke import compare

        failures, report = compare(
            {"fig4": 1.0, "fig8": 2.0}, {"fig4": 1.0, "fig8": 2.0}
        )
        assert failures == []
        assert len(report) == 2

    def test_single_figure_regression_fails(self):
        from repro.bench.smoke import compare

        failures, _ = compare(
            {"fig4": 1.0, "fig8": 2.0, "fig9": 5.0},
            {"fig4": 1.0, "fig8": 2.0, "fig9": 3.0},
            threshold=0.25,
        )
        assert len(failures) == 1
        assert failures[0].startswith("fig9:")

    def test_uniformly_slower_machine_passes_normalized(self):
        from repro.bench.smoke import compare

        # Everything 2x slower: a different machine, not a regression.
        failures, _ = compare(
            {"fig4": 2.0, "fig8": 4.0, "fig9": 6.0},
            {"fig4": 1.0, "fig8": 2.0, "fig9": 3.0},
        )
        assert failures == []

    def test_uniformly_slower_machine_fails_absolute(self):
        from repro.bench.smoke import compare

        failures, _ = compare(
            {"fig4": 2.0, "fig8": 4.0}, {"fig4": 1.0, "fig8": 2.0},
            absolute=True,
        )
        assert len(failures) == 2

    def test_new_and_missing_figures_reported_not_failed(self):
        from repro.bench.smoke import compare

        failures, report = compare({"new_fig": 1.0}, {"old_fig": 1.0})
        assert failures == []
        assert any("new figure" in line for line in report)
        assert any("missing" in line for line in report)

    @staticmethod
    def _summaries(tmp_path, runs):
        """Write ``runs`` (figure -> seconds maps) as summary documents."""
        paths = []
        for i, run in enumerate(runs):
            path = tmp_path / f"run{i}.json"
            path.write_text(json.dumps({"profile": "tiny", "figures": {
                name: {"elapsed_seconds": secs} for name, secs in run.items()
            }}))
            paths.append(str(path))
        return paths

    def _gate(self, tmp_path, runs, baseline):
        from repro.bench.smoke import main

        base = tmp_path / "baseline.json"
        base.write_text(json.dumps({"profile": "tiny", "figures": baseline}))
        return main([*self._summaries(tmp_path, runs), "--baseline", str(base)])

    def test_figure_slow_in_every_run_fails_min_of_n(self, tmp_path):
        baseline = {"fig4": 1.0, "fig8": 2.0, "fig9": 3.0}
        slow = {"fig4": 1.0, "fig8": 2.0, "fig9": 4.5}  # fig9 1.5x slower
        assert self._gate(tmp_path, [slow, dict(slow)], baseline) == 1

    def test_figure_slow_in_one_run_passes_min_of_n(self, tmp_path):
        baseline = {"fig4": 1.0, "fig8": 2.0, "fig9": 3.0}
        slow = {"fig4": 1.0, "fig8": 2.0, "fig9": 4.5}
        assert self._gate(tmp_path, [slow, dict(baseline)], baseline) == 0
        # ... while that one run alone trips the gate.
        assert self._gate(tmp_path, [slow], baseline) == 1

    def test_update_writes_min_of_n(self, tmp_path):
        from repro.bench.smoke import main

        runs = self._summaries(
            tmp_path, [{"fig4": 1.2, "fig8": 2.0}, {"fig4": 1.0, "fig8": 2.5}]
        )
        out = tmp_path / "baseline.json"
        assert main([*runs, "--update", "--baseline", str(out)]) == 0
        written = json.loads(out.read_text())
        assert written["profile"] == "tiny"
        assert written["figures"] == {"fig4": 1.0, "fig8": 2.0}

    def test_elapsed_extraction_skips_untimed_figures(self):
        from repro.bench.smoke import elapsed_by_figure

        summary = {"figures": {
            "fig4": {"elapsed_seconds": 1.5, "rows": []},
            "untimed": {"rows": []},
        }}
        assert elapsed_by_figure(summary) == {"fig4": 1.5}
