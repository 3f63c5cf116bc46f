"""Benchmark configuration and shared helpers.

Every benchmark regenerates one of the paper's tables or figures and
prints it (run with ``pytest benchmarks/ --benchmark-only -s`` to see the
output).  Heavy pipelines are benchmarked with a single round via
``benchmark.pedantic`` -- the timing of interest is the pipeline's cost,
not micro-variance.
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def field_study():
    """The paper's draw, crawled once per session: ``(population,
    baseline, extended)`` for the default 1,000-site population."""
    from repro.crawl import generate_population, run_field_study

    population = generate_population()
    return (population, *run_field_study(population))


def print_table(title: str, lines) -> None:
    """Uniform table printing for benchmark output."""
    bar = "=" * max(len(title), 40)
    print(f"\n{bar}\n{title}\n{bar}")
    for line in lines:
        print(line)
