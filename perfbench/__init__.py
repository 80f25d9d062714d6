"""Clips-per-second benchmark for patchshift: workloads, checks and tracing.

Run it with ``python3 perfbench/run.py --workload crit6 --seed 1 --seconds 20
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
