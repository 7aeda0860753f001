"""Benchmark-suite configuration.

Each benchmark regenerates one table or figure of the paper (DESIGN.md §4)
at the *smoke* profile by default; set ``REPRO_FULL=1`` for the full-scale
profile whose outputs are recorded in EXPERIMENTS.md.  The rendered text of
every artifact is printed so ``pytest benchmarks/ --benchmark-only -s``
shows the reproduced shapes inline.
"""

import sys

import pytest


def run_once(benchmark, fn, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, kwargs=kwargs, iterations=1, rounds=1)


@pytest.fixture
def emit(capsys):
    """Print a rendered artifact so it survives pytest's capture."""

    def _emit(title: str, text: str) -> None:
        with capsys.disabled():
            sys.stdout.write(f"\n===== {title} =====\n{text}\n")

    return _emit
