"""Fixed reference process, timed before and after every benchmarked invocation.

    python3 perfbench/reference.py

It does what an ``archspread`` invocation does, without archspread: start an
interpreter, import numpy and scipy.stats, and run a pure-Python loop. The
host's CPU speed drifts by 20-50% over minutes, and wall times drift with it.
``cmd_rel`` divides each invocation's wall time by the mean wall time of the
reference runs around it, so that drift cancels while a change to archspread
still moves the ratio.
"""

import numpy  # noqa: F401
import scipy.stats  # noqa: F401

LOOP = 5_000_000


def spin(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


if __name__ == "__main__":
    spin(LOOP)
