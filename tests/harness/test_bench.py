"""Tests for the engine benchmark harness (python -m repro bench)."""

import copy
import json

import pytest

from repro.__main__ import main
from repro.harness.bench import (
    DEFAULT_OUTPUT,
    DEFAULT_REPEATS,
    MIN_COMPARE_EVENTS,
    SCHEMA_VERSION,
    bench_points,
    compare_payloads,
    run_basket,
    validate_payload,
)


@pytest.fixture(scope="module")
def quick_payload():
    return run_basket(quick=True, repeats=1)


class TestBasket:
    def test_basket_names_are_fixed(self):
        names = [name for name, _runner in bench_points(quick=True)]
        assert names == ["micro.kernel", "micro.tardis", "fig2.cxl",
                         "litmus.classic", "modelcheck"]
        assert names == [name for name, _ in bench_points(quick=False)]

    def test_payload_is_schema_valid(self, quick_payload):
        validate_payload(quick_payload)  # must not raise
        assert quick_payload["schema"] == SCHEMA_VERSION
        assert quick_payload["quick"] is True
        assert len(quick_payload["points"]) == 5
        for point in quick_payload["points"]:
            assert point["events"] > 0
            assert point["wall_s"] > 0
            assert point["events_per_sec"] > 0
            if point["name"] == "modelcheck":
                # State exploration is untimed: no simulated clock.
                assert point["sim_time_ns"] == 0.0
            else:
                assert point["sim_time_ns"] > 0

    def test_micro_point_is_large_enough_to_compare(self, quick_payload):
        # The kernel throughput point must clear the comparison floor even
        # in quick mode — a sub-5k-event run times warm-up, not dispatch.
        [micro] = [p for p in quick_payload["points"]
                   if p["name"] == "micro.kernel"]
        assert micro["events"] >= 50_000

    def test_totals_exclude_untimed_points(self, quick_payload):
        # The modelcheck row counts explored states with sim_time_ns == 0;
        # folding states/sec into the headline events/sec made the total
        # meaningless.  totals.events still covers the whole basket.
        timed = [p for p in quick_payload["points"] if p["sim_time_ns"] > 0]
        expected = (sum(p["events"] for p in timed)
                    / sum(p["wall_s"] for p in timed))
        totals = quick_payload["totals"]
        assert totals["events_per_sec"] == pytest.approx(expected)
        assert totals["events"] == sum(p["events"]
                                       for p in quick_payload["points"])

    def test_default_repeats_is_median_of_three(self):
        assert DEFAULT_REPEATS == 3

    def test_payload_survives_json_round_trip(self, quick_payload):
        validate_payload(json.loads(json.dumps(quick_payload)))

    def test_event_counts_are_deterministic(self, quick_payload):
        again = run_basket(quick=True, repeats=1)
        assert ([p["events"] for p in again["points"]]
                == [p["events"] for p in quick_payload["points"]])
        assert ([p["sim_time_ns"] for p in again["points"]]
                == [p["sim_time_ns"] for p in quick_payload["points"]])

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ValueError):
            run_basket(quick=True, repeats=0)


class TestValidation:
    def test_missing_top_field_rejected(self, quick_payload):
        broken = copy.deepcopy(quick_payload)
        del broken["points"]
        with pytest.raises(ValueError, match="points"):
            validate_payload(broken)

    def test_wrong_schema_rejected(self, quick_payload):
        broken = copy.deepcopy(quick_payload)
        broken["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            validate_payload(broken)

    def test_malformed_point_rejected(self, quick_payload):
        broken = copy.deepcopy(quick_payload)
        del broken["points"][0]["events_per_sec"]
        with pytest.raises(ValueError, match="events_per_sec"):
            validate_payload(broken)

    def test_wrong_point_type_rejected(self, quick_payload):
        broken = copy.deepcopy(quick_payload)
        broken["points"][0]["events"] = "many"
        with pytest.raises(ValueError, match="events"):
            validate_payload(broken)

    def test_empty_points_rejected(self, quick_payload):
        broken = copy.deepcopy(quick_payload)
        broken["points"] = []
        with pytest.raises(ValueError, match="no points"):
            validate_payload(broken)


class TestComparison:
    def test_within_threshold_is_ok(self, quick_payload):
        previous = copy.deepcopy(quick_payload)
        for point in previous["points"]:
            point["events_per_sec"] *= 1.1    # current is 10% slower
        rows = compare_payloads(quick_payload, previous, threshold=0.25)
        # Only the points above the MIN_COMPARE_EVENTS floor compare.
        assert [row["name"] for row in rows] == ["micro.kernel",
                                                 "micro.tardis", "fig2.cxl"]
        assert not any(row["regressed"] for row in rows)

    def test_beyond_threshold_is_regressed(self, quick_payload):
        previous = copy.deepcopy(quick_payload)
        for point in previous["points"]:
            point["events_per_sec"] *= 10.0   # current is 10x slower
        rows = compare_payloads(quick_payload, previous, threshold=0.25)
        assert rows
        assert all(row["regressed"] for row in rows)
        assert all(row["ratio"] == pytest.approx(0.1) for row in rows)

    def test_mode_mismatch_yields_no_rows(self, quick_payload):
        previous = copy.deepcopy(quick_payload)
        previous["quick"] = False
        assert compare_payloads(quick_payload, previous) == []

    def test_unknown_points_are_skipped(self, quick_payload):
        previous = copy.deepcopy(quick_payload)
        previous["points"] = [previous["points"][0]]
        rows = compare_payloads(quick_payload, previous)
        assert [row["name"] for row in rows] == ["micro.kernel"]


def _synthetic_payload(points):
    """A hand-built, schema-valid report (no simulation run)."""
    payload = {
        "schema": SCHEMA_VERSION,
        "quick": False,
        "created_unix": 0.0,
        "python": "3.11.0",
        "platform": "synthetic",
        "points": [
            {
                "name": name,
                "repeats": 3,
                "events": events,
                "sim_time_ns": 1000.0,
                "wall_s": events / eps,
                "events_per_sec": float(eps),
            }
            for name, events, eps in points
        ],
        "totals": {"events": 0, "wall_s": 0.0, "events_per_sec": 0.0},
    }
    validate_payload(payload)
    return payload


class TestComparisonSynthetic:
    """Regression tests for the comparison logic on a synthetic pair of
    reports — pure data, no timing, so assertions are exact."""

    def test_regression_detected_only_beyond_tolerance(self):
        previous = _synthetic_payload([
            ("big.fast", 100_000, 100_000),
            ("big.noisy", 100_000, 100_000),
        ])
        current = _synthetic_payload([
            ("big.fast", 100_000, 50_000),     # 2x slower: regressed
            ("big.noisy", 100_000, 80_000),    # 20% slower: within 25%
        ])
        rows = compare_payloads(current, previous, threshold=0.25)
        by_name = {row["name"]: row for row in rows}
        assert by_name["big.fast"]["regressed"]
        assert by_name["big.fast"]["ratio"] == pytest.approx(0.5)
        assert not by_name["big.noisy"]["regressed"]
        assert by_name["big.noisy"]["ratio"] == pytest.approx(0.8)

    def test_small_points_are_excluded_from_comparison(self):
        previous = _synthetic_payload([
            ("tiny", MIN_COMPARE_EVENTS - 1, 100_000),
            ("big", MIN_COMPARE_EVENTS, 100_000),
        ])
        current = _synthetic_payload([
            ("tiny", MIN_COMPARE_EVENTS - 1, 1_000),   # 100x "slower"
            ("big", MIN_COMPARE_EVENTS, 100_000),
        ])
        rows = compare_payloads(current, previous, threshold=0.25)
        assert [row["name"] for row in rows] == ["big"]

    def test_shrunk_point_is_excluded_even_if_prior_was_large(self):
        previous = _synthetic_payload([("p", 100_000, 100_000)])
        current = _synthetic_payload([("p", 100, 100_000)])
        assert compare_payloads(current, previous) == []

    def test_improvement_is_never_regressed(self):
        previous = _synthetic_payload([("p", 100_000, 10_000)])
        current = _synthetic_payload([("p", 100_000, 100_000)])
        [row] = compare_payloads(current, previous)
        assert row["ratio"] == pytest.approx(10.0)
        assert not row["regressed"]


class TestCli:
    def test_quick_writes_schema_valid_json(self, tmp_path):
        out = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        validate_payload(payload)
        assert payload["quick"] is True

    def test_strict_regression_fails(self, tmp_path, quick_payload):
        out = tmp_path / "bench.json"
        previous = copy.deepcopy(quick_payload)
        for point in previous["points"]:
            point["events_per_sec"] *= 1000.0
        out.write_text(json.dumps(previous))
        assert main(["bench", "--quick", "--strict",
                     "--out", str(out)]) == 1
        # The new payload replaced the doctored previous file regardless.
        validate_payload(json.loads(out.read_text()))

    def test_non_strict_regression_is_advisory(self, tmp_path, quick_payload):
        out = tmp_path / "bench.json"
        previous = copy.deepcopy(quick_payload)
        for point in previous["points"]:
            point["events_per_sec"] *= 1000.0
        out.write_text(json.dumps(previous))
        assert main(["bench", "--quick", "--out", str(out)]) == 0

    def test_corrupt_previous_file_is_ignored(self, tmp_path):
        out = tmp_path / "bench.json"
        out.write_text("{not json")
        assert main(["bench", "--quick", "--out", str(out)]) == 0
        validate_payload(json.loads(out.read_text()))

    def test_bad_flag_is_usage_error(self):
        assert main(["bench", "--nope"]) == 2
        assert main(["bench", "--repeats"]) == 2
        assert main(["bench", "--repeats", "x"]) == 2

    def test_default_output_name(self):
        assert DEFAULT_OUTPUT == "BENCH_engine.json"
