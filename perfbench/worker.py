"""One measuring process of the benchmark.

    python3 -m perfbench.worker --workload NAME --seed N --size full|tiny
        (--budget SECONDS | --reps K --traced)

Untraced (the default), the process first runs the workload once as a
warm-up: one repetition through `edgefed.cli.main` and one pass of
`simkernel.run_once` over the same blockchain runs. Its peak memory is read
then. It then times the program side by side with the frozen reference
copy in `perfbench/reference_edgefed`, doing the same work in a second
thread (see `side_by_side`): for the first half of the budget, one program
and one reference repetition at a time; for the second, one program and
one reference pass at a time. The report's timeline lists them in order, so
that the runner can calibrate each program time by the reference times
beside it (see `perfbench/calibrate.py`). The process never imports
`perfbench.tracer`, so no edgefed function is replaced while it takes
timings; the report says so.

Traced (`--traced`), it runs the warm-up untraced, then exactly K
repetitions under the tracer and reports per-layer metrics per repetition.

Both print one JSON report as the last line of standard output: per
repetition its host seconds and output signature (sha256 of every file the
CLI wrote and of its standard output, and its exit code), plus a fingerprint
of every blockchain run, so that the runner can check outputs against each
other, across processes and against the recorded digests.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import threading
import time
import traceback
from dataclasses import replace

from perfbench import workloads
from perfbench.reference_edgefed import cli as reference_cli
from perfbench.reference_edgefed import simkernel as reference_simkernel

sys.path.insert(0, str(workloads.SRC))

from edgefed import cli, simkernel  # noqa: E402  (needs the path above)

MAX_REPS = 200  # bounds the report when a tiny workload fits many repetitions


class ThreadStdout(io.TextIOBase):
    """Standard output that each thread can capture on its own, so that the
    program's and the reference's CLI calls, running side by side, keep their
    outputs apart. Uncaptured writes go to `default`."""

    def __init__(self, default):
        self._default = default
        self._local = threading.local()

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        return getattr(self._local, "buffer", self._default).write(text)

    def flush(self) -> None:
        getattr(self._local, "buffer", self._default).flush()

    @contextlib.contextmanager
    def capture(self):
        self._local.buffer = io.StringIO()
        try:
            yield self._local.buffer
        finally:
            del self._local.buffer


STDOUT = ThreadStdout(sys.stdout)


def side_by_side(program, reference) -> tuple:
    """(program(), reference()), called at once in two threads of this
    process. The interpreter lock hands the processor from one to the other
    every few milliseconds, so both meet the same host; each times itself in
    its own thread's CPU seconds. The cyclic garbage collector is off while
    they run, as in `timeit`: a collection started by one thread would scan
    both heaps and be charged to whichever thread started it."""
    results, errors = {}, []

    def call(name, fn):
        try:
            results[name] = fn()
        except Exception:  # re-raised below, in the calling thread
            errors.append(traceback.format_exc())

    gc.collect()
    gc.disable()
    try:
        threads = [threading.Thread(target=call, args=("program", program)),
                   threading.Thread(target=call, args=("reference", reference))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()
    if errors:
        raise RuntimeError("a side-by-side call failed:\n" + "\n".join(errors))
    return results["program"], results["reference"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_plan(wl, sim=simkernel) -> list:
    """(key, cfg, run_index) for every blockchain run one repetition makes,
    with configs of the simulator module `sim`."""
    base = replace(sim.load_config(wl.config_path), seed=wl.seed)
    plan = []
    for variant, n in wl.chain_cells:
        consumers, providers = sim.generate_topology(n)
        cfg = replace(base, n_systems=n, consumers=consumers, providers=providers,
                      variant=variant)
        plan.extend((run_key(cfg, i), cfg, i) for i in range(cfg.runs))
    return plan


def expected_federations(wl) -> int:
    """Federations one repetition attempts: one per consumer per run."""
    return sum(simkernel.generate_topology(n)[0] * wl.runs for _, n in wl.cells)


def run_key(cfg, run_index: int) -> str:
    return f"{cfg.variant}/{cfg.n_systems}/{run_index}"


def fingerprint(result) -> str:
    """Digest of a run's simulated outcome: chain, events, rejections, traces."""
    chain = result.ledger.chain if result.ledger is not None else ()
    outcome = (
        len(chain),
        sum(len(block.txs) for block in chain),
        chain[-1].parent_digest if chain else None,
        len(result.stamped_events),
        len(result.contract.rejected) if result.contract is not None else None,
        [repr(trace) for trace in result.traces],
    )
    return _sha256(repr(outcome).encode("utf-8"))


def time_cli(wl, out_dir, main=cli.main, clock=time.perf_counter) -> tuple:
    """(seconds by `clock`, exit code, standard output) of one CLI invocation
    into a fresh `out_dir`; the seconds cover the runs and the export."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = wl.argv(out_dir)
    with STDOUT.capture() as stdout:
        start = clock()
        code = main(argv)
        elapsed = clock() - start
    return elapsed, code, stdout.getvalue()


def run_repetition(wl, out_dir, clock=time.perf_counter) -> dict:
    """One timed program CLI invocation, with its outputs' signature."""
    wall_s, code, stdout = time_cli(wl, out_dir, clock=clock)
    outputs = {p.name: _sha256(p.read_bytes()) for p in sorted(out_dir.iterdir())}
    outputs["stdout"] = _sha256(stdout.encode("utf-8"))
    rows = incomplete = 0
    for path in out_dir.glob("*.jsonl"):
        for line in path.read_text(encoding="utf-8").splitlines():
            rows += 1
            incomplete += json.loads(line)["complete"] != "true"
    return {"wall_s": wall_s, "exit": code, "outputs": outputs,
            "rows": rows, "incomplete": incomplete}


class Report:
    """What the worker hands to the runner, built up as repetitions finish.
    Times are host seconds."""

    def __init__(self, wl):
        self.wl = wl
        self.walls = []             # one per timed program repetition
        self.signatures = {}        # signature JSON -> number of repetitions with it
        self.rows = 0
        self.incomplete = 0
        self.run_samples = []       # one per timed run_once
        self.timeline = []          # see perfbench/calibrate.py
        self.fingerprints = {}
        self.layers = []
        self.peak_rss_mb = None

    def add_repetition(self, rep: dict, timed: bool = True) -> None:
        signature = json.dumps({"exit": rep["exit"], "outputs": rep["outputs"],
                                "rows": rep["rows"]}, sort_keys=True)
        self.signatures[signature] = self.signatures.get(signature, 0) + 1
        if timed:
            self.walls.append(rep["wall_s"])
            self.rows += rep["rows"]
            self.incomplete += rep["incomplete"]

    def add_fingerprint(self, key: str, fp: str) -> None:
        # A run whose outcome differs between passes keeps both, which the
        # runner reports as non-determinism.
        seen = self.fingerprints.setdefault(key, [])
        if fp not in seen:
            seen.append(fp)

    def as_dict(self, traced: bool) -> dict:
        return {
            "traced": traced,
            "tracer_loaded": "perfbench.tracer" in sys.modules,
            "reps": len(self.walls),
            "walls": self.walls,
            "signatures": self.signatures,
            "rows": self.rows,
            "incomplete": self.incomplete,
            "expected_rows_per_rep": expected_federations(self.wl),
            "run_samples": self.run_samples,
            "timeline": self.timeline,
            "fingerprints": self.fingerprints,
            "layers": self.layers,
            "peak_rss_mb": self.peak_rss_mb if self.peak_rss_mb is not None else peak_rss_mb(),
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(plan, run_once, report=None, clock=time.perf_counter) -> list:
    """Seconds by `clock` of each run in `plan`; with a report, fingerprints too."""
    samples = []
    for key, cfg, run_index in plan:
        start = clock()
        result = run_once(cfg, run_index)
        samples.append(clock() - start)
        if report is not None:
            report.add_fingerprint(key, fingerprint(result))
    return samples


def measure_untraced(wl, out_dir, budget_s: float) -> Report:
    report = Report(wl)
    plan = run_plan(wl)
    reference_plan = run_plan(wl, reference_simkernel)
    reference_out = out_dir.with_name(out_dir.name + "-reference")

    def pair(metric, program, reference, summary):
        """One program stretch side by side with the reference's. `program`
        returns its samples; `summary` turns what `reference` returns into
        the reference sample that brackets them."""
        samples, reference_samples = side_by_side(program, reference)
        value = summary(reference_samples)
        report.timeline.extend([("reference", metric, value),
                                ("program", metric, samples),
                                ("reference", metric, value)])
        return samples

    def repetitions():
        reps = []

        def program():
            reps.append(run_repetition(wl, out_dir, time.thread_time))
            return [reps[0]["wall_s"]]

        def reference():
            wall_s, code, _ = time_cli(wl, reference_out, reference_cli.main, time.thread_time)
            if code != 0:
                raise RuntimeError(f"the reference copy exited {code}")
            return wall_s

        pair("wall_s", program, reference, lambda wall_s: wall_s)
        report.add_repetition(reps[0])

    def passes():
        report.run_samples.extend(pair(
            "run_s_p50",
            lambda: run_pass(plan, simkernel.run_once, report, time.thread_time),
            lambda: run_pass(reference_plan, reference_simkernel.run_once,
                             clock=time.thread_time),
            statistics.median))

    def until(deadline, round_):
        """`round_()` until the next round would end past the deadline; at
        least one round."""
        for _ in range(MAX_REPS):
            started = time.perf_counter()
            round_()
            now = time.perf_counter()
            if now + (now - started) > deadline:
                return

    try:
        # Warm-up: the program alone, so that peak memory is the program's.
        report.add_repetition(run_repetition(wl, out_dir), timed=False)
        run_pass(plan, simkernel.run_once, report)
        report.peak_rss_mb = peak_rss_mb()
        time_cli(wl, reference_out, reference_cli.main)  # the reference's warm-up
        start = time.perf_counter()
        until(start + budget_s / 2, repetitions)
        until(start + budget_s, passes)
        return report
    finally:
        shutil.rmtree(reference_out, ignore_errors=True)


def measure_traced(wl, out_dir, reps: int) -> Report:
    from perfbench.tracer import Tracer

    report = Report(wl)
    report.add_repetition(run_repetition(wl, out_dir), timed=False)  # warm-up
    tracer = Tracer(on_run=lambda cfg, i, result: report.add_fingerprint(
        run_key(cfg, i), fingerprint(result)))
    with tracer:
        for _ in range(reps):
            tracer.reset()
            report.add_repetition(run_repetition(wl, out_dir))
            report.layers.append(tracer.layer_metrics())
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.worker")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    sys.stdout = STDOUT
    wl = workloads.build(args.workload, args.seed, args.size)
    mode = "traced" if args.traced else "untraced"
    out_dir = workloads.WORK / f"{args.workload}-{mode}-out"
    try:
        if args.traced:
            report = measure_traced(wl, out_dir, max(1, args.reps))
        else:
            report = measure_untraced(wl, out_dir, args.budget)
    except Exception:  # reported to the runner, which fails the run
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(report.as_dict(args.traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
