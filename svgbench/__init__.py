"""Benchmark of the svgnet pipeline: workloads, tracer and output check."""
