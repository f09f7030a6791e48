"""Host-speed reference for correcting timings.

The benchmark was tuned on a shared 2-core VM whose CPU runs up to twice
as slow for seconds, sometimes minutes, at a time.  Around each timed
operation the worker runs a fixed piece of plain Python three times and
takes the median duration over REFERENCE_S as the host's slowdown at
that moment; the operation's time is divided by it.  The reference uses
no semdisc code, so no change to the program can change it.

Memory-heavy code suffers more in the slow spells than arithmetic does.
Measured on that VM, slow spells stretched JSON parsing, dict and set
building and a string DP by 2.0x, an integer loop by 1.35x, and both a
``discover`` call and a CLI call by 1.65x.  The reference therefore
spends about half its time in each kind of work, which stretches it by
about 1.7x as well.

Corrected times read as times on a host where the reference takes
REFERENCE_S, which is about its duration on an undisturbed core of that
VM (Python 3.11).  The worker prints the quartiles of the slowdowns it
measured beside its result.
"""
from __future__ import annotations

import json
import statistics
import time

REFERENCE_S = 230e-6

_DOC = json.dumps([
    {"name": f"n{i}", "weights": {f"c{j}": (i * 7 + j) % 13 / 13 for j in range(5)}}
    for i in range(30)
])
_A = "protein analysis"
_B = "sequence alignment"


def _reference() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(1750):
        total += i * i
    entries = json.loads(_DOC)
    sorted({e["name"]: frozenset(e["weights"]) for e in entries})
    previous = [0] * (len(_B) + 1)
    for i in range(1, len(_A) + 1):
        current = [0] * (len(_B) + 1)
        for j in range(1, len(_B) + 1):
            if _A[i - 1] == _B[j - 1]:
                current[j] = previous[j - 1] + 1
        previous = current
    return time.perf_counter() - start


def slowdown() -> float:
    """The host's slowdown now: 1.0 when the reference takes REFERENCE_S."""
    return statistics.median(_reference() for _ in range(3)) / REFERENCE_S
