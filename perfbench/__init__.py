"""Benchmark for the edgefed simulator: see perfbench/README.md."""
