"""Benchmark of the SMTp simulator; ``python3 perfbench/run.py --help``."""
