"""Experiment runner CLI.

Subcommands: run one scenario, sweep system counts x variants, compare a
blockchain result file against an SOA baseline file, or validate a config.
Standard output is a fixed-width human summary; machine-readable data goes to
files under the output directory (--out, then EDGEFED_OUT, then the config's
output.dir, then ./edgefed-out).
"""

import argparse
import json
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

from . import metrics, simkernel
from .simkernel import ConfigInvalid

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgefed",
        description="Deterministic simulator for blockchain-negotiated edge federation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one scenario and export metrics")
    _common_flags(run, _cmd_run)

    sweep = sub.add_parser("sweep", help="run the full (N x variant) grid")
    _common_flags(sweep, _cmd_sweep)

    compare = sub.add_parser("compare", help="overhead of blockchain vs SOA results")
    compare.set_defaults(handler=_cmd_compare)
    compare.add_argument("blockchain_csv")
    compare.add_argument("soa_csv")
    compare.add_argument("--out", default=None)

    validate = sub.add_parser("validate-config", help="check a scenario file")
    validate.set_defaults(handler=_cmd_validate)
    validate.add_argument("--config", required=True)
    return parser


def _common_flags(cmd: argparse.ArgumentParser, handler) -> None:
    cmd.set_defaults(handler=handler)
    cmd.add_argument("--config", required=True)
    cmd.add_argument("--out", default=None)
    cmd.add_argument("--seed", type=int, default=None)
    cmd.add_argument("--consensus", choices=simkernel.VARIANTS, default=None)
    cmd.add_argument("--runs", type=int, default=None)


def _resolve_out(flag_value, config_dir=None) -> Path:
    candidate = flag_value or os.environ.get("EDGEFED_OUT") or config_dir or "edgefed-out"
    return Path(candidate)


def _apply_overrides(cfg, args):
    overrides = {"seed": args.seed, "variant": args.consensus, "runs": args.runs}
    return replace(cfg, **{key: value for key, value in overrides.items() if value is not None})


def _print_summary(cfg, stats) -> None:
    print(
        f"scenario {cfg.scenario_id}  variant {cfg.variant}  n_systems {cfg.n_systems}"
        f"  runs {cfg.runs}  seed {cfg.seed}"
    )
    print(f"{'segment':<18}{'mean_s':>12}{'var_s2':>12}{'min_s':>12}{'max_s':>12}")
    for name in metrics.SEGMENTS:
        seg = stats.segments[name]
        print(
            f"{name:<18}{seg.mean_s:>12.6f}{seg.variance_s2:>12.6f}"
            f"{seg.min_s:>12.6f}{seg.max_s:>12.6f}"
        )
    print(
        f"complete {stats.n_samples}  incomplete {stats.n_incomplete}"
        f"  variance {stats.variance_kind}"
    )


def _load(args):
    """The config with the command line's overrides, and its output directory, made."""
    cfg = _apply_overrides(simkernel.load_config(args.config), args)
    out_dir = _resolve_out(args.out, cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, out_dir


def _run_cell(cfg, out_dir: Path) -> metrics.AggregateStats:
    """Run one cell, write its files and return its stats, empty (`n_samples`
    0) when no federation completed. Each warning the run raises is printed
    as one line naming the cell, not in Python's own format."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traces = simkernel.run_scenario(cfg)
    for warning in caught:
        print(f"warning: {cfg.variant} N={cfg.n_systems}: {warning.message}", file=sys.stderr)
    cell = (cfg.scenario_id, cfg.variant, cfg.n_systems)
    for write, suffix in ((metrics.write_csv, "csv"), (metrics.write_jsonl, "jsonl")):
        write(traces, out_dir / metrics.cell_filename(*cell, suffix), *cell)
    try:
        return metrics.aggregate(traces)
    except metrics.NoCompleteTraces:
        return metrics.AggregateStats(segments={}, n_samples=0, n_incomplete=len(traces))


def _cmd_run(args) -> int:
    cfg, out_dir = _load(args)
    stats = _run_cell(cfg, out_dir)
    if not stats.n_samples:
        print("no federation completed before the scenario timeout", file=sys.stderr)
        return EXIT_CONFIG
    _print_summary(cfg, stats)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    base, out_dir = _load(args)
    variants = (args.consensus,) if args.consensus else base.sweep_variants
    summary_rows = []
    for variant in variants:
        for n in base.sweep_n:
            consumers, providers = simkernel.generate_topology(n)
            cfg = replace(base, n_systems=n, consumers=consumers, providers=providers,
                          variant=variant)
            stats = _run_cell(cfg, out_dir)
            if not stats.n_samples:
                print(f"cell ({variant}, N={n}): no complete traces", file=sys.stderr)
            summary_rows.append((variant, n, stats))
    _write_sweep_summary(base, out_dir, summary_rows)
    _print_sweep_table(summary_rows)
    return EXIT_OK if all(stats.n_samples for _, _, stats in summary_rows) else EXIT_CONFIG


def _write_sweep_summary(base, out_dir: Path, summary_rows) -> None:
    path = out_dir / f"{base.scenario_id}_summary.csv"
    header = ["consensus", "n_systems", "n_samples", "n_incomplete"]
    header += [f"{name}_mean_s" for name in metrics.SEGMENTS]
    header += ["total_var_s2"]
    lines = [",".join(header)]
    for variant, n, stats in summary_rows:
        row = [variant, str(n), str(stats.n_samples), str(stats.n_incomplete)]
        if stats.n_samples:
            row += [f"{stats.segments[name].mean_s:.6f}" for name in metrics.SEGMENTS]
            row += [f"{stats.segments['total'].variance_s2:.6f}"]
        else:  # empty, as the trace files leave an incomplete row's segments
            row += [""] * (len(metrics.SEGMENTS) + 1)
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _print_sweep_table(summary_rows) -> None:
    print(f"{'variant':<10}{'n':>4}{'total_mean_s':>14}{'total_var_s2':>14}{'samples':>9}")
    for variant, n, stats in summary_rows:
        if not stats.n_samples:
            continue
        total = stats.segments["total"]
        print(
            f"{variant:<10}{n:>4}{total.mean_s:>14.6f}{total.variance_s2:>14.6f}"
            f"{stats.n_samples:>9}"
        )


def _cmd_compare(args) -> int:
    blockchain_rows = metrics.read_csv(args.blockchain_csv)
    soa_rows = metrics.read_csv(args.soa_csv)
    report = metrics.compare_rows(blockchain_rows, soa_rows)
    print(f"{'n':>4}{'blockchain_s':>14}{'soa_s':>12}{'overhead_s':>12}")
    for entry in report:
        print(
            f"{entry['n_systems']:>4}{entry['blockchain_mean_total_s']:>14.6f}"
            f"{entry['soa_mean_total_s']:>12.6f}{entry['overhead_s']:>12.6f}"
        )
    out_dir = _resolve_out(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "overhead_report.json"
    payload = {
        "blockchain_file": str(args.blockchain_csv),
        "soa_file": str(args.soa_csv),
        "per_n": report,
    }
    report_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8",
                           newline="\n")
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = simkernel.load_config(args.config)
    print(
        f"ok: scenario {cfg.scenario_id} (n_systems {cfg.n_systems}, "
        f"split {cfg.consumers}:{cfg.providers}, variant {cfg.variant}, runs {cfg.runs})"
    )
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigInvalid as err:
        print(f"invalid config: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (metrics.MalformedCsv, metrics.MismatchedScenarios, metrics.NoCompleteTraces) as err:
        print(f"comparison failed: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
