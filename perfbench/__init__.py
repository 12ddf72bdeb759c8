"""Repository benchmark: three workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload sweep --seed 1
--seconds 10 --trace 0``; see ``perfbench/README.md`` for the workloads,
the metrics and what each layer metric is predicted to move.
"""
