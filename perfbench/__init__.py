"""Steady end-to-end and layer-traced benchmark of the repro stack.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md`` for the workloads, metrics and noise rules.
"""
