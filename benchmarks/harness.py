"""Shared row-printing helpers for the experiment benchmarks.

The paper is a theory paper — it publishes theorems, worked examples and
complexity bounds rather than measured tables — so each benchmark here
regenerates the computational content of one claim (see DESIGN.md §4 and
EXPERIMENTS.md) and prints its rows.  Run with ``-s`` to see them::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

from typing import List, Sequence

_WIDTH = 14


def print_table(title: str, header: Sequence[str],
                rows: List[Sequence[object]]) -> None:
    print(f"\n### {title}")
    line = " | ".join(str(h).ljust(_WIDTH) for h in header)
    print(line)
    print("-" * len(line))
    for row in rows:
        print(" | ".join(str(cell).ljust(_WIDTH) for cell in row))
