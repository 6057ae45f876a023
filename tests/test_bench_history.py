"""Tests for :mod:`repro.bench.history` and its regression-gate hooks.

Three contracts:

* **Recording** — ``BENCH_*.json``-shaped payloads reduce to one compact
  record per run via the same ratio spec the gate uses; appends are
  best-effort JSONL and loading skips malformed lines.
* **Rendering** — ``trend`` output counts runs, shows per-ratio
  trajectories oldest-first with overall drift, and degrades gracefully
  on an empty history.
* **Gate integration** — a loaded history adds a trend column to gate
  lines, and a ratio registered in ``EXPECTED_REGRESSIONS`` is reported
  (with its reason) instead of failing, while unregistered regressions
  still fail.
"""

from __future__ import annotations

import json

from repro.bench.history import (
    append_payload,
    append_record,
    load_history,
    ratio_series,
    record_from_payload,
    render_trend,
    result_payload,
    trend_cell,
)
from repro.bench.regression import EXPECTED_REGRESSIONS, compare_payloads


def _service_payload(speedup: float, with_percentiles: bool = True) -> dict:
    payload = {
        "experiment": "service",
        "rows": [
            {"graph": "social", "mode": "thread", "workers": 4,
             "speedup": speedup},
            {"graph": "social", "mode": "fork", "workers": 4,
             "speedup": 0.18},
            # Non-numeric / NaN / bool values never become ratios.
            {"graph": "social", "mode": "stress", "workers": 1,
             "speedup": float("nan")},
            {"graph": "social", "mode": "noop", "workers": 0,
             "speedup": True},
        ],
        "checks": [
            {"description": "identical answers", "passed": True, "gate": True},
            {"description": "advisory", "passed": False, "gate": False},
        ],
    }
    if with_percentiles:
        payload["percentiles"] = {
            "reachability": {"tail_ratio": 3.5, "count": 200},
            "broken": {"tail_ratio": "n/a"},
        }
    return payload


class TestRecording:
    def test_record_from_payload_reduces_via_spec(self):
        record = record_from_payload(_service_payload(2.0), "run")
        assert record["experiment"] == "service"
        assert record["source"] == "run"
        assert record["ratios"]["social/thread/4"] == {"speedup": 2.0}
        assert record["ratios"]["social/fork/4"] == {"speedup": 0.18}
        assert "social/stress/1" not in record["ratios"]  # NaN filtered
        assert "social/noop/0" not in record["ratios"]    # bool filtered
        assert record["checks"] == {"passed": 1, "failed": 1}
        assert record["percentiles"] == {"reachability": 3.5}

    def test_unknown_experiment_yields_none(self):
        assert record_from_payload({"experiment": "mystery", "rows": []},
                                   "run") is None
        assert record_from_payload({}, "run") is None

    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "history.jsonl"
        for speedup in (2.0, 1.9):
            assert append_payload(_service_payload(speedup), "run",
                                  path) is not None
        # No-spec payloads are not recorded (and do not error).
        assert append_payload({"experiment": "mystery"}, "run", path) is None
        records = load_history(path)
        assert [r["ratios"]["social/thread/4"]["speedup"]
                for r in records] == [2.0, 1.9]

    def test_load_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "history.jsonl"
        good = record_from_payload(_service_payload(1.5), "check")
        path.write_text(
            "not json\n"
            + json.dumps(good) + "\n"
            + json.dumps(["a", "list"]) + "\n"
            + json.dumps({"no-experiment": True}) + "\n"
            + "\n"
        )
        records = load_history(path)
        assert len(records) == 1 and records[0]["source"] == "check"

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_append_record_best_effort(self, tmp_path):
        # A directory where the file should be: open() fails, returns False.
        path = tmp_path / "history.jsonl"
        path.mkdir()
        assert append_record({"experiment": "service"}, path) is False

    def test_result_payload_adapts_check_tuples(self):
        class FakeResult:
            experiment = "service"
            rows = [{"graph": "g", "mode": "thread", "workers": 2,
                     "speedup": 1.0}]
            checks = [("all good", True), ("not so", False)]

        payload = result_payload(FakeResult())
        assert payload["checks"] == [
            {"description": "all good", "passed": True},
            {"description": "not so", "passed": False},
        ]
        record = record_from_payload(payload, "run")
        assert record["checks"] == {"passed": 1, "failed": 1}


class TestRendering:
    def _records(self, *speedups):
        return [record_from_payload(_service_payload(s), "run")
                for s in speedups]

    def test_ratio_series_and_trend_cell(self):
        records = self._records(2.0, 1.9, 1.8)
        series = ratio_series(records, "service", "social/thread/4", "speedup")
        assert series == [2.0, 1.9, 1.8]
        assert trend_cell(series) == "2.00→1.90→1.80"
        assert trend_cell(series, width=2) == "1.90→1.80"
        assert trend_cell([]) == ""
        assert ratio_series(records, "service", "no/such/key", "speedup") == []

    def test_render_trend_counts_runs_and_shows_drift(self):
        lines = render_trend(self._records(2.0, 1.0))
        assert lines[0].startswith("bench history: 2 recorded run(s)")
        thread_line = next(ln for ln in lines if "social/thread/4" in ln)
        assert "2 → 1" in thread_line
        assert "(-50.0% since first)" in thread_line

    def test_render_trend_empty_and_filtered(self):
        assert "history is empty" in render_trend([])[0]
        lines = render_trend(self._records(2.0), experiment="kernels")
        assert "no history records" in lines[0]

    def test_render_trend_limit(self):
        lines = render_trend(self._records(*range(1, 16)), limit=3)
        thread_line = next(ln for ln in lines if "social/thread/4" in ln)
        # Only the 3 most recent values appear.
        assert thread_line.count("→") == 2
        assert "13 → 14 → 15" in thread_line


class TestGateIntegration:
    def test_trend_column_appears_with_history(self):
        baseline = _service_payload(2.0, with_percentiles=False)
        current = _service_payload(1.9, with_percentiles=False)
        history = [record_from_payload(_service_payload(s), "run")
                   for s in (2.0, 1.9)]
        ok, lines = compare_payloads(baseline, current, tolerance=0.5,
                                     history=history)
        thread_line = next(ln for ln in lines if "social/thread/4" in ln)
        assert "[trend 2.00→1.90]" in thread_line
        # Without history the same line has no trend column.
        _, bare_lines = compare_payloads(baseline, current, tolerance=0.5)
        bare = next(ln for ln in bare_lines if "social/thread/4" in ln)
        assert "[trend" not in bare

    def test_expected_regression_is_reported_not_gated(self):
        assert ("service", ("social", "fork", 4), "speedup") \
            in EXPECTED_REGRESSIONS
        baseline = _service_payload(2.0, with_percentiles=False)
        # fork/4 sits at 0.18 in current vs 0.18 baseline row — drop the
        # baseline's fork row to 1.0 so it would fail hard if gated.
        for row in baseline["rows"]:
            if row["mode"] == "fork":
                row["speedup"] = 1.0
        current = _service_payload(2.0, with_percentiles=False)
        ok, lines = compare_payloads(baseline, current, tolerance=0.5)
        assert ok
        fork_line = next(ln for ln in lines if "social/fork/4" in ln)
        assert fork_line.startswith("note ")
        assert "expected regression" in fork_line
        assert "cross-process memo" in fork_line

    def test_unregistered_regression_still_fails(self):
        baseline = _service_payload(2.0, with_percentiles=False)
        current = _service_payload(0.5, with_percentiles=False)
        ok, lines = compare_payloads(baseline, current, tolerance=0.5)
        assert not ok
        assert any(ln.startswith("FAIL") and "social/thread/4" in ln
                   for ln in lines)


class TestCLI:
    def test_trend_subcommand(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        path = tmp_path / "history.jsonl"
        for speedup in (2.0, 1.8):
            append_payload(_service_payload(speedup), "run", path)
        assert main(["trend", "--history", str(path)]) == 0
        out = capsys.readouterr().out
        assert "bench history: 2 recorded run(s)" in out
        assert "social/thread/4 speedup: 2 → 1.8" in out

    def test_trend_subcommand_empty(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        assert main(["trend", "--history",
                     str(tmp_path / "none.jsonl")]) == 0
        assert "history is empty" in capsys.readouterr().out

    def test_check_appends_to_the_history_only_with_record(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        (tmp_path / "BENCH_service.json").write_text(
            json.dumps(_service_payload(2.0)))
        path = tmp_path / "history.jsonl"
        args = ["check", "--baseline", str(tmp_path), "--current", str(tmp_path),
                "--history", str(path)]
        assert main(args) == 0
        assert not path.exists()  # the default run writes nothing
        assert main(args + ["--record"]) == 0
        assert [r["source"] for r in load_history(path)] == ["check"]
        assert "1 experiment(s) appended" in capsys.readouterr().out
