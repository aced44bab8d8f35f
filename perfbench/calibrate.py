"""Host-speed calibration for the benchmark's end-to-end timings.

The benchmark runs on shared virtual machines whose speed drifts by up to
two times within a second, for reasons outside the process (neighbours on
the same cores, caches and memory), and differs between their CPUs. Raw
host seconds then measure the host as much as the program. So the program's
timed work runs side by side with the same work done by a reference:
`perfbench/reference_edgefed`, a frozen copy of the simulator as it was
when the benchmark was defined. The worker runs the two in two threads of
one process, pinned to one CPU; the interpreter lock hands the CPU from one
to the other every few milliseconds, so both meet the same host. Each
thread's time is its own CPU time.

A timeline lists the stretches in the order they ran:

    ("reference", metric, seconds)      one reference sample
    ("program", metric, [seconds, ...])  the program samples of one stretch

with a reference stretch on both sides of every program stretch; for a
stretch run side by side, the same reference sample stands on both sides.
A reference sample divided by the reference's recorded seconds for its
metric is the host's slowdown at that moment. Each program sample is
divided by the mean slowdown on its two sides, which gives calibrated
seconds: the time the sample would take on a host on which the reference
takes its recorded time (`reference_s` in expected.json). The reference
copy is frozen: editing it changes every calibrated metric and needs a new
baseline.
"""

import statistics


def reference_medians(timeline: list) -> dict:
    """Median host seconds of the reference samples, by metric."""
    by_metric = {}
    for role, metric, seconds in timeline:
        if role == "reference":
            by_metric.setdefault(metric, []).append(seconds)
    return {metric: statistics.median(values) for metric, values in by_metric.items()}


def calibrated(timeline: list, nominal: dict) -> dict:
    """Calibrated seconds of every program sample, by metric, given the
    reference's recorded seconds `nominal` by metric."""
    def slowdown(entry) -> float:
        role, metric, seconds = entry
        if role != "reference":
            raise ValueError("every program stretch needs a reference stretch on both sides")
        return seconds / nominal[metric]

    values = {}
    for i, (role, metric, samples) in enumerate(timeline):
        if role == "program":
            if not 0 < i < len(timeline) - 1:
                raise ValueError("a timeline starts and ends with a reference stretch")
            factor = (slowdown(timeline[i - 1]) + slowdown(timeline[i + 1])) / 2
            values.setdefault(metric, []).extend(s / factor for s in samples)
    return values
