"""Benchmark runner for the edgefed simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. `--trace 0` prints the end-to-end metrics
(`wall_s`, `run_s_p50`, `setup_s`, `peak_rss_mb`) and `incomplete_ratio`;
`--trace 1` prints the per-layer metrics and the tracing overhead. Every
line before the last is for people; the last line is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`, whose metric names
and units are those of BENCHMARK.json. All times are host time. The
end-to-end times are host CPU seconds calibrated against a frozen copy of
the simulator that runs side by side with the program
(perfbench/calibrate.py); the plain host seconds are printed beside them.
Per-layer times are plain host seconds.

The run fails (exit 1, `correct: false`) when the CLI raises or exits
non-zero, when outputs differ between repetitions or between the traced and
untraced processes, or when, at the recorded seed, an output file's sha256
differs from perfbench/expected.json. `--record` rewrites that file's entry
for the workload from this checkout: digests, counts and the reference's
seconds (`--seconds` of measuring). Use it only for an intended output
change; re-recording the reference's seconds rescales every calibrated
time, so a new baseline is needed after it. See perfbench/README.md for the
workloads and the layer predictions.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import calibrate, workloads  # noqa: E402  (needs the path above)

ROOT = workloads.ROOT
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
EXPECTED_JSON = Path(__file__).resolve().parent / "expected.json"

RUN_LIMIT_S = 170          # every run must end within 180 s
TRACE_UNTRACED_SHARE = 0.3  # of --seconds, for the untraced side of --trace 1
SETUP_SAMPLES = {"full": 10, "tiny": 2}
RECORD_SETUP_SAMPLES = 50  # --record: its median scales every later setup_s

# Simulated per-layer counts that no change to the simulator's speed may
# move; checked against expected.json at the recorded seed.
INVARIANT_COUNTS = ("ledger.submits", "ledger.blocks", "contract.txs_applied",
                    "contract.rejected", "agents.handle_acting",
                    "agents.deploy_wait_sim_s_max")

# argv: directory to put on the path, package to import, config to load.
SETUP_PROBE = """\
import importlib, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
importlib.import_module(sys.argv[2]).load_config(sys.argv[3])
print(time.perf_counter() - start)
"""


class CheckoutIncomplete(Exception):
    pass


def check_checkout() -> None:
    for needed in (workloads.SRC / "edgefed" / "__init__.py", workloads.SWEEP_CONFIG,
                   BENCHMARK_JSON):
        if not needed.is_file():
            raise CheckoutIncomplete(f"{needed.relative_to(ROOT)} is missing; "
                                     "run from the root of a full edgefed checkout")


def environment() -> dict:
    src_lines = sum(len(p.read_bytes().splitlines())
                    for p in sorted(workloads.SRC.rglob("*.py")))
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def pin_to_one_cpu() -> int:
    """Keep this process, and every process it starts, on one of the CPUs it
    may use. On a shared virtual machine the CPUs run at different speeds
    from moment to moment, so a program timed on one CPU and its reference
    on another do not meet the same host."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def setup_probe(wl, path, package) -> float:
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(path), package, str(wl.config_path)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe of {package} failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def measure_setup(wl, samples: int) -> list:
    """A timeline (see perfbench/calibrate.py) of the host seconds to import
    edgefed and load and validate the workload's config, each in a fresh
    interpreter, alternating with the same for the reference copy. One
    unmeasured probe of each first compiles bytecode."""
    def reference():
        return ("reference", "setup_s",
                setup_probe(wl, ROOT, "perfbench.reference_edgefed"))

    setup_probe(wl, workloads.SRC, "edgefed")
    reference()
    timeline = [reference()]
    for _ in range(samples):
        timeline.append(("program", "setup_s", [setup_probe(wl, workloads.SRC, "edgefed")]))
        timeline.append(reference())
    return timeline


def spawn_worker(args, deadline: float, *extra) -> dict:
    """Run one measuring process to completion and return its report."""
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *extra]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"worker did not finish within {timeout:.0f} s: {' '.join(extra)}"}
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        report = {"error": f"worker exited {done.returncode} without a report"}
    if "error" in report and done.stderr:
        report["error"] += "\n" + done.stderr
    return report


def load_expected() -> dict:
    if EXPECTED_JSON.is_file():
        return json.loads(EXPECTED_JSON.read_text(encoding="utf-8"))
    return {"seed": None, "workloads": {}}


def check(wl, reports: dict, expected: dict, spec_units: dict) -> tuple:
    """Problems found in the workers' reports, and what the outputs were checked against."""
    problems = [f"{mode} worker failed:\n{r['error']}" for mode, r in reports.items()
                if "error" in r]
    if problems:
        return problems, "not checked"
    untraced = reports["untraced"]
    if untraced["tracer_loaded"] or untraced["traced"]:
        problems.append("the untraced timings ran in a process that loaded the tracer")

    signatures = set()
    for report in reports.values():
        signatures.update(report["signatures"])
    if len(signatures) != 1:
        problems.append(f"outputs differ between repetitions or processes: "
                        f"{len(signatures)} distinct output sets")
    for signature in signatures:
        sig = json.loads(signature)
        if sig["exit"] != 0:
            problems.append(f"edgefed exited {sig['exit']}")
        if sig["rows"] != untraced["expected_rows_per_rep"]:
            problems.append(f"{sig['rows']} trace rows, expected "
                            f"{untraced['expected_rows_per_rep']} federations")

    seen = {}
    for mode, report in reports.items():
        for key, fps in report["fingerprints"].items():
            if len(fps) != 1:
                problems.append(f"run {key} is not deterministic within the {mode} process")
            if seen.setdefault(key, fps[0]) != fps[0]:
                problems.append(f"run {key} differs between processes")
    if "traced" in reports:
        unseen = set(untraced["fingerprints"]) - set(reports["traced"]["fingerprints"])
        if unseen:
            problems.append(f"{len(unseen)} runs were never seen by the traced process")

    layers = reports["traced"]["layers"] if "traced" in reports else []
    counts = {name: [layer[name] for layer in layers]
              for name in (layers[0] if layers else {}) if spec_units[name] != "s"}
    for name, values in counts.items():
        if len(set(values)) != 1:
            problems.append(f"simulated count {name} differs between repetitions: {values}")

    recorded = expected["workloads"].get(wl.name)
    if wl.size != "full" or expected["seed"] != wl.seed or recorded is None:
        return problems, "identical across repetitions and processes (no recorded digest for this seed)"
    if len(signatures) == 1:
        outputs = json.loads(next(iter(signatures)))["outputs"]
        wrong = sorted(name for name in set(outputs) | set(recorded["outputs"])
                       if outputs.get(name) != recorded["outputs"].get(name))
        if wrong:
            problems.append(f"sha256 differs from {EXPECTED_JSON.name} for: {', '.join(wrong)}")
    for name, values in counts.items():
        if name in recorded["counts"] and values[0] != recorded["counts"][name]:
            problems.append(f"{name} is {values[0]}, recorded {recorded['counts'][name]}")
    return problems, f"match the sha256 digests recorded at seed {wl.seed}"


def end_to_end_metrics(report: dict, setup: list, nominal: dict) -> tuple:
    """(values, notes) of the end-to-end metrics from an untraced report and
    the set-up timeline. Times are medians of calibrated seconds, given the
    reference's seconds `nominal`; the notes give host-second medians."""
    scaled = calibrate.calibrated(report["timeline"], nominal)
    scaled.update(calibrate.calibrated(setup, nominal))
    host_setup = [s for role, _, samples in setup if role == "program" for s in samples]
    values = {name: statistics.median(scaled[name])
              for name in ("wall_s", "run_s_p50", "setup_s")}
    values["peak_rss_mb"] = report["peak_rss_mb"]
    notes = {
        "wall_s": f"median of {len(report['walls'])} CLI repetitions; "
                  f"host {statistics.median(report['walls']):.6f} s",
        "run_s_p50": f"median of {len(report['run_samples'])} blockchain runs; "
                     f"host {statistics.median(report['run_samples']):.6f} s",
        "setup_s": f"median of {len(host_setup)} fresh processes; "
                   f"host {statistics.median(host_setup):.6f} s",
    }
    return values, notes


def per_layer_metrics(traced: dict, untraced: dict, spec_units: dict) -> tuple:
    """(values, notes): times as the median over the traced repetitions,
    counts (already checked equal) as they are, and the tracing overhead."""
    layers = traced["layers"]
    values = {name: statistics.median(layer[name] for layer in layers)
              if spec_units[name] == "s" else layers[0][name]
              for name in layers[0]}
    values["trace.overhead_ratio"] = (statistics.median(traced["walls"])
                                      / statistics.median(untraced["walls"]))
    notes = {name: f"median of {len(layers)} traced repetitions"
             for name in values if spec_units[name] == "s"}
    return values, notes


def record(wl, reports: dict, setup: list, expected: dict) -> None:
    """Store this checkout's output digests, invariant counts and reference
    seconds for `wl`."""
    outputs = json.loads(next(iter(reports["untraced"]["signatures"])))["outputs"]
    layer = reports["traced"]["layers"][0]
    expected["workloads"][wl.name] = {
        "outputs": outputs,
        "counts": {name: layer[name] for name in INVARIANT_COUNTS},
        "reference_s": calibrate.reference_medians(reports["untraced"]["timeline"] + setup),
    }
    EXPECTED_JSON.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"recorded {wl.name} at seed {wl.seed} in {EXPECTED_JSON.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: a few small runs, for smoke tests")
    parser.add_argument("--record", action="store_true",
                        help="write this checkout's outputs and the reference's "
                             "seconds to expected.json")
    args = parser.parse_args(argv)
    if args.record and args.size != "full":
        parser.error("--record needs --size full")
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        check_checkout()
    except CheckoutIncomplete as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2

    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    spec_units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wl = workloads.build(args.workload, args.seed, args.size)
    env = environment()
    env["pinned_cpu"] = pin_to_one_cpu()
    print(f"perfbench {wl.name}  seed {wl.seed}  size {wl.size}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print("env " + "  ".join(f"{k} {v}" for k, v in env.items()))

    reports, setup = {}, []
    if args.record:
        setup = measure_setup(wl, RECORD_SETUP_SAMPLES)
        reports["untraced"] = spawn_worker(args, deadline, "--budget", str(args.seconds))
        reports["traced"] = spawn_worker(args, deadline, "--traced", "--reps", "1")
    elif args.trace:
        budget = args.seconds * TRACE_UNTRACED_SHARE
        reports["untraced"] = spawn_worker(args, deadline, "--budget", str(budget))
        reps = reports["untraced"].get("reps", 1)
        reports["traced"] = spawn_worker(args, deadline, "--traced", "--reps", str(reps))
    else:
        setup = measure_setup(wl, SETUP_SAMPLES[args.size])
        reports["untraced"] = spawn_worker(args, deadline, "--budget", str(args.seconds))

    expected = load_expected()
    if args.record:
        if expected["seed"] != args.seed:
            expected = {"seed": args.seed, "workloads": {}}
        expected["workloads"].pop(wl.name, None)
    problems, against = check(wl, reports, expected, spec_units)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if args.record:
        if not problems:
            record(wl, reports, setup, expected)
        return 1 if problems else 0

    values, notes = {}, {}
    measured = reports["traced" if args.trace else "untraced"]
    if not any("error" in r for r in reports.values()):
        if args.trace:
            values, notes = per_layer_metrics(measured, reports["untraced"], spec_units)
        else:
            nominal = expected["workloads"].get(wl.name, {}).get("reference_s")
            if wl.size != "full" or nominal is None:
                print("calibrated to this run's reference seconds (none recorded)")
                nominal = calibrate.reference_medians(measured["timeline"] + setup)
            values, notes = end_to_end_metrics(measured, setup, nominal)
        if set(values) != {m["name"] for m in listed}:
            raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    for m in listed:
        if m["name"] in values:
            value = values[m["name"]]
            shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6f}"
            print(f"{m['name']:<30}{shown} {m['unit']:<6}{notes.get(m['name'], '')}")
    attempted = measured.get("rows", 0)
    failed = measured.get("incomplete", 0)
    print(f"{'incomplete_ratio':<30}{failed / attempted if attempted else 0:>16.6f} ratio "
          f"{failed} of {attempted} federations")
    print(f"outputs {against}" if not problems else f"outputs: {len(problems)} problem(s)")

    result = {
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed if attempted else 1,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed if m["name"] in values},
    }
    workloads.WORK.mkdir(parents=True, exist_ok=True)
    (workloads.WORK / f"{wl.name}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "seed": wl.seed, "size": wl.size, **result}, indent=2) + "\n",
        encoding="utf-8")
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
