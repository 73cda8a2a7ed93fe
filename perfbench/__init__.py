"""End-to-end and per-layer benchmark of the RFDump reproduction.

Run ``python3 perfbench/run.py --workload <name>``; see ``README.md``.
"""
