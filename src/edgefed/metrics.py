"""Trace decomposition, aggregation and export.

A FederationTrace is the per-federation timeline in integer microseconds of
simulated time; integer storage makes the five phase segments sum to the total
exactly and keeps exports lossless. Aggregates use population variance (noted
in output metadata).
"""

import csv
import json
from dataclasses import dataclass

from .units import MICRO, format_micro, parse_micro


class IncompleteTrace(Exception):
    pass


class NoCompleteTraces(Exception):
    pass


class MismatchedScenarios(Exception):
    pass


class MalformedCsv(Exception):
    pass


SEGMENTS = (
    "bidding",
    "winner_selection",
    "info_exchange",
    "deployment",
    "confirmation",
    "total",
)

CSV_COLUMNS = (
    "scenario_id",
    "consensus",
    "n_systems",
    "run",
    "ann_id",
    "bidding_s",
    "winner_selection_s",
    "info_exchange_s",
    "deployment_s",
    "confirmation_s",
    "total_s",
    "complete",
)


@dataclass(frozen=True)
class FederationTrace:
    """Timeline of one federation.

    close_finalized_us records the instant the federation is established from
    the consumer's side: overlay attach finished and the close transaction
    issued. The close transaction's own block is ledger bookkeeping and is not
    part of the measured span.
    """

    run: int
    ann_id: int | None
    consumer: str
    winner: str | None
    announce_submitted_us: int | None
    announce_finalized_us: int | None
    second_bid_finalized_us: int | None
    winner_finalized_us: int | None
    deployment_started_us: int | None
    confirm_finalized_us: int | None
    close_finalized_us: int | None
    complete: bool


@dataclass(frozen=True)
class PhaseBreakdown:
    """The five phase segments; they sum to total_us exactly."""

    bidding_us: int
    winner_selection_us: int
    info_exchange_us: int
    deployment_us: int
    confirmation_us: int
    total_us: int

    def as_micro_dict(self) -> dict:
        return {
            "bidding": self.bidding_us,
            "winner_selection": self.winner_selection_us,
            "info_exchange": self.info_exchange_us,
            "deployment": self.deployment_us,
            "confirmation": self.confirmation_us,
            "total": self.total_us,
        }


def decompose(trace: FederationTrace) -> PhaseBreakdown:
    if not trace.complete:
        raise IncompleteTrace(f"trace for announcement {trace.ann_id} is incomplete")
    return PhaseBreakdown(
        bidding_us=trace.second_bid_finalized_us - trace.announce_submitted_us,
        winner_selection_us=trace.winner_finalized_us - trace.second_bid_finalized_us,
        info_exchange_us=trace.deployment_started_us - trace.winner_finalized_us,
        deployment_us=trace.confirm_finalized_us - trace.deployment_started_us,
        confirmation_us=trace.close_finalized_us - trace.confirm_finalized_us,
        total_us=trace.close_finalized_us - trace.announce_submitted_us,
    )


@dataclass(frozen=True)
class SegmentStats:
    mean_s: float
    variance_s2: float
    min_s: float
    max_s: float


@dataclass(frozen=True)
class AggregateStats:
    segments: dict  # segment name -> SegmentStats
    n_samples: int
    n_incomplete: int
    variance_kind: str = "population"


def _stats(values_us) -> SegmentStats:
    n = len(values_us)
    mean_us = sum(values_us) / n
    var_us2 = sum((v - mean_us) ** 2 for v in values_us) / n
    return SegmentStats(
        mean_s=mean_us / MICRO,
        variance_s2=var_us2 / (MICRO * MICRO),
        min_s=min(values_us) / MICRO,
        max_s=max(values_us) / MICRO,
    )


def aggregate(traces) -> AggregateStats:
    rows = [decompose(t).as_micro_dict() for t in traces if t.complete]
    if not rows:
        raise NoCompleteTraces("no complete traces to aggregate")
    segments = {
        name: _stats([row[name] for row in rows]) for name in SEGMENTS
    }
    return AggregateStats(
        segments=segments, n_samples=len(rows), n_incomplete=len(traces) - len(rows)
    )


# -- export / import -----------------------------------------------------------


def cell_filename(scenario_id: str, consensus: str, n_systems: int, suffix="csv") -> str:
    return f"{scenario_id}_{consensus}_{n_systems}.{suffix}"


def _trace_row(trace: FederationTrace, scenario_id, consensus, n_systems) -> dict:
    row = {
        "scenario_id": scenario_id,
        "consensus": consensus,
        "n_systems": str(n_systems),
        "run": str(trace.run),
        "ann_id": "" if trace.ann_id is None else str(trace.ann_id),
        "complete": "true" if trace.complete else "false",
    }
    if trace.complete:
        parts = decompose(trace)
        row.update(
            {
                "bidding_s": format_micro(parts.bidding_us),
                "winner_selection_s": format_micro(parts.winner_selection_us),
                "info_exchange_s": format_micro(parts.info_exchange_us),
                "deployment_s": format_micro(parts.deployment_us),
                "confirmation_s": format_micro(parts.confirmation_us),
                "total_s": format_micro(parts.total_us),
            }
        )
    else:
        for name in SEGMENTS:
            row[f"{name}_s"] = ""
    return row


def write_csv(traces, path, scenario_id, consensus, n_systems) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for trace in traces:
            writer.writerow(_trace_row(trace, scenario_id, consensus, n_systems))


def write_jsonl(traces, path, scenario_id, consensus, n_systems) -> None:
    """Same field names as the CSV, one JSON object per trace."""
    with open(path, "w", encoding="utf-8") as fh:
        for trace in traces:
            row = _trace_row(trace, scenario_id, consensus, n_systems)
            fh.write(json.dumps(row, sort_keys=True))
            fh.write("\n")


def read_csv(path) -> list[dict]:
    """Parse an exported CSV back into micro-precision segment rows.

    A file that does not read as one raises MalformedCsv naming the file, the
    row (its line number) and the column. So does a complete row whose five
    segments do not sum to its `total_s` exactly."""
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            for column in CSV_COLUMNS:
                if column not in (reader.fieldnames or ()):
                    raise MalformedCsv(f"{path} row 1, column {column}: missing from the header")
            for raw in reader:
                rows.append(_read_row(raw, f"{path} row {reader.line_num}"))
        except csv.Error as err:  # DictReader.line_num moves only once a row parses
            raise MalformedCsv(f"{path} row {reader.reader.line_num}: {err}") from err
        except UnicodeDecodeError as err:  # decoding reads ahead, so no row is known
            raise MalformedCsv(f"{path}: {err}") from err
    return rows


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def _read_row(raw: dict, where: str) -> dict:
    def cell(column, parse, required):
        text = raw[column] or ""  # None when the row has fewer cells than the header
        if not text:
            if required:
                raise MalformedCsv(f"{where}, column {column}: empty")
            return None
        try:
            return parse(text)
        except ValueError:
            raise MalformedCsv(f"{where}, column {column}: cannot read {text!r}") from None

    row = {
        "scenario_id": cell("scenario_id", str, True),
        "consensus": cell("consensus", str, True),
        "n_systems": cell("n_systems", int, True),
        "run": cell("run", int, True),
        "ann_id": cell("ann_id", int, False),
        "complete": cell("complete", _flag, True),
    }
    for name in SEGMENTS:  # a complete row carries every segment
        row[name] = cell(f"{name}_s", parse_micro, row["complete"])
    if row["complete"]:
        parts_us = sum(row[name] for name in SEGMENTS[:-1])
        if parts_us != row["total"]:
            raise MalformedCsv(
                f"{where}, column total_s: the segments sum to {format_micro(parts_us)}, "
                f"not {format_micro(row['total'])}"
            )
    return row


def compare_rows(blockchain_rows, soa_rows) -> list[dict]:
    """Per-N overhead: mean blockchain total minus mean SOA total."""
    by_n_chain = _group_by_n(blockchain_rows)
    by_n_soa = _group_by_n(soa_rows)
    if set(by_n_chain) != set(by_n_soa):
        raise MismatchedScenarios(
            f"system counts differ: {sorted(by_n_chain)} vs {sorted(by_n_soa)}"
        )
    if not by_n_chain:
        raise NoCompleteTraces("neither input holds a trace row")
    report = []
    for n in sorted(by_n_chain):
        chain_mean = _mean_total_s(by_n_chain[n], "blockchain", n)
        soa_mean = _mean_total_s(by_n_soa[n], "SOA", n)
        report.append(
            {
                "n_systems": n,
                "blockchain_mean_total_s": chain_mean,
                "soa_mean_total_s": soa_mean,
                "overhead_s": chain_mean - soa_mean,
            }
        )
    return report


def _group_by_n(rows) -> dict:
    grouped: dict[int, list] = {}
    for row in rows:
        grouped.setdefault(row["n_systems"], []).append(row)
    return grouped


def _mean_total_s(rows, source: str, n: int) -> float:
    totals = [r["total"] for r in rows if r["complete"]]
    if not totals:
        raise NoCompleteTraces(f"the {source} input has no complete trace at n_systems={n}")
    return sum(totals) / len(totals) / MICRO
