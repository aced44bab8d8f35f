"""Trace decomposition, aggregation and export.

A FederationTrace is the per-federation timeline in integer microseconds of
simulated time; integer storage makes the five phase segments sum to the total
exactly and keeps exports lossless. Aggregates use population variance (noted
in output metadata).

One helper, `_segments`, turns a complete trace into its six integer segments;
`decompose`, both writers and `aggregate` all read them from it. A cell's
traces share few segment tuples, so each writer renders the text of each
distinct tuple once and adds only the run and ann_id per row. The cells that
are the same on every row of a file (scenario_id, consensus, n_systems) are
quoted once per file, by `csv.writer` for the CSV and by json's own string
encoder for the JSON lines. Every other value is digits, ".", "-", a flag or
empty, which neither would quote or escape.
"""

import csv
import io
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from . import canonical
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


@canonical.slot_init
@dataclass(frozen=True, slots=True)
class FederationTrace:
    """Timeline of one federation.

    close_finalized_us records the instant the federation is established from
    the consumer's side: overlay attach finished and the close transaction
    issued. The close transaction's own block is ledger bookkeeping and is not
    part of the measured span. A step the chain does not show final by the
    run's timeout is None.
    """

    run: int
    ann_id: int | None
    winner: str | None
    announce_submitted_us: int | None
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


def _segments(trace: FederationTrace) -> tuple:
    """The six segments of a complete trace in `SEGMENTS` order, in µs."""
    start = trace.announce_submitted_us
    bid = trace.second_bid_finalized_us
    win = trace.winner_finalized_us
    deploy = trace.deployment_started_us
    confirm = trace.confirm_finalized_us
    close = trace.close_finalized_us
    return (bid - start, win - bid, deploy - win, confirm - deploy, close - confirm, close - start)


def decompose(trace: FederationTrace) -> PhaseBreakdown:
    if not trace.complete:
        raise IncompleteTrace(f"trace for announcement {trace.ann_id} is incomplete")
    return PhaseBreakdown(*_segments(trace))


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
    rows = [_segments(t) for t in traces if t.complete]
    if not rows:
        raise NoCompleteTraces("no complete traces to aggregate")
    segments = {name: _stats([row[i] for row in rows]) for i, name in enumerate(SEGMENTS)}
    return AggregateStats(
        segments=segments, n_samples=len(rows), n_incomplete=len(traces) - len(rows)
    )


# -- export / import -----------------------------------------------------------


def cell_filename(scenario_id: str, consensus: str, n_systems: int, suffix="csv") -> str:
    return f"{scenario_id}_{consensus}_{n_systems}.{suffix}"


_NO_SEGMENTS = ("",) * len(SEGMENTS)


def _texts(traces, render):
    """`(run, ann_id, fixed)` per trace: the two texts that change from row to
    row, and `render` of the row's seven segment-and-flag cells. `render` runs
    once per distinct segment tuple; an incomplete row's cells are empty and
    "false"."""
    fixed = {}
    for trace in traces:
        key = _segments(trace) if trace.complete else None
        text = fixed.get(key)
        if text is None:
            cells = (*_NO_SEGMENTS, "false") if key is None else (*map(format_micro, key), "true")
            text = fixed[key] = render(cells)
        yield str(trace.run), "" if trace.ann_id is None else str(trace.ann_id), text


def write_csv(traces, path, scenario_id, consensus, n_systems) -> None:
    constants = io.StringIO()  # "scenario_id,consensus,n_systems," as csv.writer quotes them
    csv.writer(constants, lineterminator="\n").writerow((scenario_id, consensus, str(n_systems), ""))
    prefix = constants.getvalue()[:-1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(CSV_COLUMNS)
        fh.writelines(f"{prefix}{run},{ann_id},{cells}\n"
                      for run, ann_id, cells in _texts(traces, ",".join))


# The keys of `json.dumps(row, sort_keys=True)`: "ann_id" sorts first.
_JSON_KEYS = sorted(CSV_COLUMNS)
_RUN_AT = _JSON_KEYS.index("run")


def write_jsonl(traces, path, scenario_id, consensus, n_systems) -> None:
    """The CSV's rows, one per line as `json.dumps(row, sort_keys=True)`
    with every value a string."""
    constants = tuple(map(encode_basestring_ascii, (scenario_id, consensus, str(n_systems))))

    def around_run(cells):
        """A line's text between its ann_id and run values, and after run."""
        values = dict(zip(CSV_COLUMNS, (*constants, None, None, *(f'"{cell}"' for cell in cells))))
        return tuple("".join(f', "{key}": {values[key]}' for key in keys)
                     for keys in (_JSON_KEYS[1:_RUN_AT], _JSON_KEYS[_RUN_AT + 1:]))

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f'{{"ann_id": "{ann_id}"{before}, "run": "{run}"{after}}}\n'
                      for run, ann_id, (before, after) in _texts(traces, around_run))


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
    if None in raw:  # DictReader files the cells beyond the header under None
        raise MalformedCsv(f"{where}: {len(raw[None])} more cell(s) than the header")

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
