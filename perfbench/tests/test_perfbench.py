"""Tests of the benchmark itself: tiny smoke runs, metric names, the output
checks, and the separation of traced and untraced processes."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

from perfbench import calibrate, run, workloads, worker
from perfbench import tracer  # after worker, which puts src/ on the path

SPEC = json.loads(run.BENCHMARK_JSON.read_text(encoding="utf-8"))
SPEC_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def bench(workload, trace, cwd=workloads.ROOT, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


def last_json(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_smoke_run_prints_every_end_to_end_metric(workload):
    done = bench(workload, trace=0)
    assert done.returncode == 0, done.stderr
    result = last_json(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for name, metric in result["metrics"].items():
        assert metric["unit"] == SPEC_UNITS[name]
        assert metric["value"] > 0
    assert "incomplete_ratio" in done.stdout


def test_traced_run_prints_every_per_layer_metric():
    done = bench("serial_n100", trace=1)
    assert done.returncode == 0, done.stderr
    result = last_json(done)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(m["unit"] == SPEC_UNITS[n] for n, m in result["metrics"].items())
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_benchmark_json_has_the_expected_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_run_fails_outside_a_full_checkout(tmp_path):
    shutil.copy(run.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(workloads.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("paper_sweep", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_restores_every_wrapped_function():
    t = tracer.Tracer()
    targets = [(owner, attr) for owner, attr, _ in t._targets()]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    with pytest.raises(ZeroDivisionError):
        with t:
            for owner, attr in targets:
                assert hasattr(owner.__dict__[attr], tracer.SPAN_ATTR)
            1 / 0
    for (owner, attr), original in zip(targets, originals):
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"


def test_tracing_does_not_change_a_run():
    wl = workloads.build("scale_n300", 5, "tiny")
    key, cfg, run_index = worker.run_plan(wl)[0]
    untraced = worker.fingerprint(worker.simkernel.run_once(cfg, run_index))
    seen = []
    t = tracer.Tracer(on_run=lambda c, i, result: seen.append(worker.fingerprint(result)))
    with t:
        worker.simkernel.run_once(cfg, run_index)
    assert seen == [untraced]
    layers = t.layer_metrics()
    assert layers["ledger.submits"] == layers["contract.txs_applied"] > 0


@pytest.fixture(scope="module")
def untraced_report():
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", "--workload", "serial_n100",
         "--seed", "7", "--size", "tiny", "--budget", "0"],
        capture_output=True, text=True, timeout=120, cwd=workloads.ROOT,
    )
    assert done.returncode == 0, done.stderr
    return last_json(done)


def test_untraced_timing_never_runs_in_a_patched_process(untraced_report):
    assert untraced_report["tracer_loaded"] is False
    assert untraced_report["traced"] is False
    wl = workloads.build("serial_n100", 7, "tiny")
    patched = dict(untraced_report, tracer_loaded=True)
    problems, _ = run.check(wl, {"untraced": patched}, {"seed": None, "workloads": {}},
                            SPEC_UNITS)
    assert any("loaded the tracer" in p for p in problems)


def test_digest_mismatch_fails_the_run(untraced_report):
    wl = dataclasses.replace(workloads.build("serial_n100", 7, "tiny"), size="full")
    outputs = json.loads(next(iter(untraced_report["signatures"])))["outputs"]
    recorded = {"seed": 7, "workloads": {"serial_n100": {"outputs": dict(outputs), "counts": {}}}}
    problems, against = run.check(wl, {"untraced": untraced_report}, recorded, SPEC_UNITS)
    assert problems == [] and "recorded" in against
    recorded["workloads"]["serial_n100"]["outputs"]["stdout"] = "0" * 64
    problems, _ = run.check(wl, {"untraced": untraced_report}, recorded, SPEC_UNITS)
    assert any("sha256 differs" in p and "stdout" in p for p in problems)


def test_calibration_cancels_a_host_slowdown():
    nominal = {"wall_s": 2.0}
    # The host runs at half speed for the first sample and at full speed for
    # the second; the program takes 1.5 calibrated seconds each time.
    timeline = [("reference", "wall_s", 4.0), ("program", "wall_s", [3.0]),
                ("reference", "wall_s", 4.0), ("reference", "wall_s", 2.0),
                ("program", "wall_s", [1.5]), ("reference", "wall_s", 2.0)]
    assert calibrate.calibrated(timeline, nominal)["wall_s"] == [1.5, 1.5]
    assert calibrate.reference_medians(timeline) == {"wall_s": 3.0}
    with pytest.raises(ValueError):
        calibrate.calibrated(timeline[1:], nominal)


def test_untraced_report_pairs_every_program_sample_with_the_reference(untraced_report):
    timeline = untraced_report["timeline"]
    scaled = calibrate.calibrated(timeline, calibrate.reference_medians(timeline))
    assert len(scaled["wall_s"]) == len(untraced_report["walls"])
    assert len(scaled["run_s_p50"]) == len(untraced_report["run_samples"])
    assert all(value > 0 for values in scaled.values() for value in values)
