"""Benchmark-suite configuration.

Each bench module regenerates one of the paper's tables/figures,
asserts its shape checks, and prints the rendered artifact once (under
``-s``) so a run of ``python -m pytest benchmarks/ --benchmark-only -s``
reproduces the paper's entire evaluation section.
"""

import pytest


def run_once(benchmark, func):
    """Benchmark a heavyweight experiment a single round."""
    return benchmark.pedantic(func, rounds=1, iterations=1,
                              warmup_rounds=0)
