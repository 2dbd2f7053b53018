"""The one worker thread that evaluations on large grids share.

An evaluation that splits into two independent pieces, each writing its own
buffers and summing in its own fixed order, gives the same bits whether the
pieces run one after the other or side by side.  numpy releases the
interpreter lock inside its array loops, so the pieces overlap in two
threads.  dynamics.rhs splits its row blocks and dynamics.step its sector
updates this way while the Dirac triple is live (dynamics.threads).

The split pays only on grids of at least MIN_SITES sites, and only where the
process may run on two CPUs: the CPU affinity is the switch, so
`taskset -c 0` runs everything in the calling thread.  The worker is created
on first use in each process (a forked child makes its own: the parent's
thread does not exist there), and before it starts, glibc is asked for a
single malloc arena, so that the worker's freed temporaries go back to the
heap the main thread allocates from instead of a second arena's.
"""

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor

# Median RK4 step on a 2-vCPU host, u1_toy and su2_toy states with matter:
# split, it ran at 0.88-1.05x the speed of one thread at n = 16, 1.34-1.51x
# at n = 20 and 1.41-1.68x at n = 24.
MIN_SITES = 20 ** 3

_M_ARENA_MAX = -8  # mallopt parameter, glibc's malloc.h
_worker = None  # (pid, executor) of the process that created it


def threads(grid):
    """Threads an evaluation on `grid` uses: 2 on a grid of at least
    MIN_SITES sites when the process may run on two CPUs, else 1."""
    if grid.n ** 3 < MIN_SITES:
        return 1
    if not hasattr(os, "sched_getaffinity"):  # not Linux
        return min(2, os.cpu_count() or 1)
    return min(2, len(os.sched_getaffinity(0)))


def _executor():
    global _worker
    if _worker is None or _worker[0] != os.getpid():
        try:
            mallopt = ctypes.CDLL(None).mallopt
        except (OSError, AttributeError):  # no C library symbols to look up, or not glibc
            pass
        else:
            mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
            mallopt(_M_ARENA_MAX, 1)
        _worker = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="ymtorus"))
    return _worker[1]


def split(grid, first, second):
    """(first(), second()) for two callables that write disjoint buffers and
    read none that the other writes.  With threads(grid) == 2, second runs
    in the worker while first runs here; both have finished when split
    returns, and an exception in either is raised here."""
    if threads(grid) == 1:
        return first(), second()
    pending = _executor().submit(second)
    try:
        result = first()
    finally:
        other = pending.result()  # waits for second also when first raised
    return result, other
