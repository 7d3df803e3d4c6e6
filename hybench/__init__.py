"""Benchmark of the hypident CLI: seeded workloads, a correctness gate,
end-to-end timing and an outside-in layer trace.  Entry point: run.py."""
