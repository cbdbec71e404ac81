"""A fixed loop that measures how fast the machine runs at the moment.

On the shared 2-vCPU x86_64 virtual machine where the baseline was
measured, the same code ran up to 1.7x slower from one second to the next
and from one minute to the next, so raw seconds from two runs made minutes
apart differ by more than any useful regression bound.  The sweeps
therefore run this loop between the operations of a repetition and report
the repetition's times scaled to reference speed: the speed at which one
slice of the loop takes ``REFERENCE_SLICE_S``.  The loop uses no
mpslink code, so a change to the package cannot change it.

Import time follows the loop less closely, so set-up is scaled by a
reference import instead: a fresh interpreter importing a fixed set of
standard-library modules, run right after each set-up probe.
"""

from __future__ import annotations

import hashlib
import time

REFERENCE_SLICE_S = 0.005
_ITERATIONS = 3000

REFERENCE_IMPORT_S = 0.06
IMPORT_PROBE = """\
import time
start = time.perf_counter()
import argparse, csv, decimal, email.parser, fractions, http.client, json, sqlite3, ssl, unittest
import xml.dom.minidom
print(time.perf_counter() - start)
"""


def slice_seconds() -> float:
    """Seconds one slice of the reference loop takes now (about 5 ms)."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(_ITERATIONS):
        digest = hashlib.sha256(f"{i}:{acc}".encode("ascii")).digest()
        acc = (acc + int.from_bytes(digest[:8], "big")) & 0xFFFFFFFF
        table[i & 255] = acc / 3.0
    return time.perf_counter() - start


def to_reference(seconds: float, slices: list[float]) -> float:
    """``seconds`` measured while ``slices`` were taken, scaled to reference speed.

    Without slices the seconds are returned as measured.
    """
    if not slices:
        return seconds
    return seconds * REFERENCE_SLICE_S * len(slices) / sum(slices)
