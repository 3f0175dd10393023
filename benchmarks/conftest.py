"""Shared helpers for the figure/table reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation: it runs the workload, prints the same rows/series the paper
reports (so the bench output IS the reproduced artifact), and asserts
the qualitative shape — who wins, by roughly what factor, where the
crossovers fall.  Absolute numbers differ from the paper's testbed; the
assertions encode the claims, not the constants.
"""

import pytest

from repro.network import reset_flow_ids


@pytest.fixture(autouse=True)
def _fresh_flow_ids():
    reset_flow_ids()


def print_series(title, rows, headers):
    """Render one figure's data series as an aligned text table."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(headers[i])),
            max((len(_fmt(row[i])) for row in rows), default=0))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


@pytest.fixture()
def series_printer():
    return print_series

