"""Test suite; a package so that its oracles module cannot clash with
perfbench/oracles.py when both directories are collected in one pytest run."""
