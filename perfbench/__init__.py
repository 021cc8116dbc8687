"""Layered end-to-end benchmark for kgray; entry point: ``python3 perfbench/run.py``."""
