import json
from dataclasses import asdict, astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgefed.metrics import (
    CSV_COLUMNS,
    FederationTrace,
    IncompleteTrace,
    MismatchedScenarios,
    NoCompleteTraces,
    SEGMENTS,
    aggregate,
    cell_filename,
    compare_rows,
    decompose,
    read_csv,
    write_csv,
    write_jsonl,
)
from edgefed.units import format_micro, parse_micro, to_micro


def trace(run=0, ann_id=0, total=None, **overrides) -> FederationTrace:
    # A consistent complete timeline; `total` stretches the close timestamp.
    fields = {
        "run": run,
        "ann_id": ann_id,
        "winner": "p0",
        "announce_submitted_us": 0,
        "second_bid_finalized_us": to_micro(10.0),
        "winner_finalized_us": to_micro(15.0),
        "deployment_started_us": to_micro(15.1),
        "confirm_finalized_us": to_micro(20.0),
        "close_finalized_us": to_micro(total) if total is not None else to_micro(20.5),
        "complete": True,
    }
    fields.update(overrides)
    return FederationTrace(**fields)


def incomplete(run=0, ann_id=0) -> FederationTrace:
    return FederationTrace(
        run=run, ann_id=ann_id, winner=None, announce_submitted_us=0,
        second_bid_finalized_us=None, winner_finalized_us=None,
        deployment_started_us=None, confirm_finalized_us=None,
        close_finalized_us=None, complete=False,
    )


class TestDecompose:
    def test_degenerate_all_equal_timestamps(self):
        t = trace(
            announce_submitted_us=0, second_bid_finalized_us=0, winner_finalized_us=0,
            deployment_started_us=0, confirm_finalized_us=0, close_finalized_us=0,
        )
        assert astuple(decompose(t)) == (0,) * len(SEGMENTS)

    def test_segment_subtraction(self):
        t = trace(
            announce_submitted_us=0,
            second_bid_finalized_us=to_micro(5.0),
            winner_finalized_us=to_micro(10.0),
            deployment_started_us=to_micro(10.1),
            confirm_finalized_us=to_micro(15.0),
            close_finalized_us=to_micro(17.6),
        )
        parts = decompose(t)
        assert parts.bidding_us == to_micro(5.0)
        assert parts.winner_selection_us == to_micro(5.0)
        assert parts.info_exchange_us == to_micro(0.1)
        assert parts.deployment_us == to_micro(4.9)
        assert parts.confirmation_us == to_micro(2.6)
        assert parts.total_us == to_micro(17.6)

    def test_incomplete_trace_rejected(self):
        with pytest.raises(IncompleteTrace):
            decompose(incomplete())

    @given(stamps=st.lists(st.integers(min_value=0, max_value=10**9), min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_segments_always_sum_to_total(self, stamps):
        ordered = sorted(stamps)
        t = trace(
            announce_submitted_us=ordered[0],
            second_bid_finalized_us=ordered[1],
            winner_finalized_us=ordered[2],
            deployment_started_us=ordered[3],
            confirm_finalized_us=ordered[4],
            close_finalized_us=ordered[5],
        )
        *segments, total = astuple(decompose(t))
        assert sum(segments) == total
        assert min(segments) >= 0


class TestAggregate:
    def test_identical_traces_have_zero_variance(self):
        stats = aggregate([trace(run=r) for r in range(5)])
        assert stats.segments["total"].variance_s2 == 0.0
        assert stats.n_samples == 5

    def test_two_point_population_stats(self):
        stats = aggregate([trace(total=10.0), trace(total=20.0)])
        total = stats.segments["total"]
        assert total.mean_s == pytest.approx(15.0)
        assert total.variance_s2 == pytest.approx(25.0)
        assert (total.min_s, total.max_s) == (10.0, 20.0)

    def test_incomplete_traces_counted_separately(self):
        stats = aggregate([trace(), incomplete()])
        assert stats.n_samples == 1
        assert stats.n_incomplete == 1

    def test_all_incomplete_is_an_error(self):
        with pytest.raises(NoCompleteTraces):
            aggregate([incomplete()])

    def test_variance_labeled_population(self):
        assert aggregate([trace()]).variance_kind == "population"

    def test_min_mean_max_ordering(self):
        stats = aggregate([trace(total=t) for t in (18.0, 19.0, 23.5)])
        total = stats.segments["total"]
        assert total.min_s <= total.mean_s <= total.max_s


class TestExport:
    def test_csv_has_header_and_one_row_per_trace(self, tmp_path):
        traces = [trace(run=r) for r in range(20)]
        path = tmp_path / cell_filename("base", "clique", 2)
        write_csv(traces, path, "base", "clique", 2)
        lines = path.read_text().splitlines()
        assert len(lines) == 21
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_filename_pattern(self):
        assert cell_filename("sweep", "qbft", 25) == "sweep_qbft_25.csv"

    def test_jsonl_mirrors_csv_fields(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl([trace()], path, "base", "clique", 2)
        row = json.loads(path.read_text().splitlines()[0])
        assert set(row) == set(CSV_COLUMNS)
        assert row["total_s"] == "20.500000"

    def test_round_trip_preserves_aggregates(self, tmp_path):
        traces = [trace(run=r, total=20.0 + r * 0.731) for r in range(7)]
        path = tmp_path / "cell.csv"
        write_csv(traces, path, "base", "clique", 2)
        rows = read_csv(path)
        assert len(rows) == len(traces)
        for row, t in zip(rows, traces):
            assert {f"{name}_us": row[name] for name in SEGMENTS} == asdict(decompose(t))

    def test_round_trip_is_lossless_at_microsecond_precision(self, tmp_path):
        odd = trace(total=20.000001)
        path = tmp_path / "cell.csv"
        write_csv([odd], path, "base", "clique", 2)
        row = read_csv(path)[0]
        assert row["total"] == decompose(odd).total_us

    def test_incomplete_rows_survive_round_trip(self, tmp_path):
        path = tmp_path / "cell.csv"
        write_csv([trace(), incomplete(ann_id=None)], path, "base", "clique", 2)
        rows = read_csv(path)
        assert rows[1]["complete"] is False
        assert rows[1]["total"] is None
        assert rows[1]["ann_id"] is None

    def test_micro_formatting_round_trip(self):
        for value in (0, 1, 999999, to_micro(20.5), -to_micro(1.25)):
            assert parse_micro(format_micro(value)) == value

    @pytest.mark.parametrize("text", ["", "-", ".5", "1.", "+-5", "1 .5", "1.2345678", "1e5"])
    def test_parse_micro_rejects_malformed_decimals(self, text):
        with pytest.raises(ValueError):
            parse_micro(text)


class TestCompare:
    def rows(self, n, total_s, count=3, consensus="clique"):
        return [
            {
                "scenario_id": "s", "consensus": consensus, "n_systems": n,
                "run": i, "ann_id": 0, "complete": True,
                "bidding": 0, "winner_selection": 0, "info_exchange": 0,
                "deployment": 0, "confirmation": 0, "total": to_micro(total_s),
            }
            for i in range(count)
        ]

    def test_overhead_is_mean_difference(self):
        report = compare_rows(self.rows(2, 18.0), self.rows(2, 2.6, consensus="soa"))
        assert report[0]["overhead_s"] == pytest.approx(15.4)

    def test_each_mean_is_the_aggregate_mean_of_its_traces(self, tmp_path):
        # compare reads back what a run wrote and takes the same mean that
        # aggregate reports for it, to the last bit.
        chain = [trace(run=r, total=20.0 + r * 0.731) for r in range(7)] + [incomplete(run=7)]
        soa = [trace(run=r, total=2.6 + r * 0.013) for r in range(5)]
        rows = {}
        for name, traces in (("clique", chain), ("soa", soa)):
            write_csv(traces, tmp_path / f"{name}.csv", "base", name, 2)
            rows[name] = read_csv(tmp_path / f"{name}.csv")
        entry = compare_rows(rows["clique"], rows["soa"])[0]
        assert entry["blockchain_mean_total_s"] == aggregate(chain).segments["total"].mean_s
        assert entry["soa_mean_total_s"] == aggregate(soa).segments["total"].mean_s

    def test_identical_inputs_have_zero_overhead(self):
        report = compare_rows(self.rows(2, 5.0), self.rows(2, 5.0))
        assert report[0]["overhead_s"] == 0.0

    def test_mismatched_n_sets_rejected(self):
        with pytest.raises(MismatchedScenarios):
            compare_rows(self.rows(2, 18.0), self.rows(10, 2.6))

    def test_multiple_n_groups(self):
        chain = self.rows(2, 18.0) + self.rows(10, 25.0)
        soa = self.rows(2, 2.6, consensus="soa") + self.rows(10, 2.6, consensus="soa")
        report = compare_rows(chain, soa)
        assert [entry["n_systems"] for entry in report] == [2, 10]
        assert report[1]["overhead_s"] == pytest.approx(22.4)
