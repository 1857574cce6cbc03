"""Benchmark of the subembed CLI; see run.py."""
