"""Benchmark of ``streamvi.engine.step`` over seeded observation streams.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed
<n> --seconds <s> --trace <0|1>``; see ``perfbench/README.md``.
"""
