"""The one worker thread that evaluations on large grids share, and the
allocator policy of the process.

An evaluation that splits into two independent pieces, each writing its own
buffers and summing in its own fixed order, gives the same bits whether the
pieces run one after the other or side by side.  numpy releases the
interpreter lock inside its array loops, so the pieces overlap in two
threads.  dynamics.step splits each RK4 update into halves of the sector
buffers this way, and dynamics.rhs its row blocks while the Dirac triple is
live (without it rhs is one block), the blocks sharing chi*(E_k) psi through
once.  balance runs blocks as two lists of about equal cost: the driver's
report the missing H^l entries of its energy.Norms (Norms.blocks) beside its
constraint and snapshot blocks, each set-up pass of prepare_initial_state the
Yang-Mills entries, after a split of its Gauss solve beside the matter work
that does not read E.  No piece splits again: a split called in the worker
raises (it would wait).

threads(grid) is the one rule for every split: two threads on grids of at
least MIN_SITES sites, and only where the process may run on two CPUs.  The
CPU affinity is the switch, so `taskset -c 0` runs everything in the
calling thread.  The worker is created on first use in each process (a
forked child makes its own: the parent's thread does not exist there).

Importing this module sets one allocator policy for the process (glibc
only): a single malloc arena, so that the worker's freed temporaries go back
to the heap the main thread allocates from, an mmap threshold of
ALLOCATOR_THRESHOLD, so that blocks up to it come from that heap, and a trim
threshold of TRIM_THRESHOLD, so that freed heap tops stay in the process.
glibc otherwise maps every block above its dynamic ceiling (32 MB) afresh
and gives freed heap tops back to the kernel, and the next rhs, energy chain
or run faults the same pages in again, on one thread as on two.
"""

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor

# Median RK4 step on a 2-vCPU host, u1_toy and su2_toy states with matter:
# split, it ran at 0.88-1.05x the speed of one thread at n = 16, 1.34-1.51x
# at n = 20 and 1.41-1.68x at n = 24.
MIN_SITES = 20 ** 3

# Above the largest temporary at n = 32: the float squares of psi's level-2
# chain, 28.3 MB on su2_toy.  Blocks up to this size come from the heap.
ALLOCATOR_THRESHOLD = 256 << 20
# Above a whole run's heap: a finished su2_bianchi_n32 run can free more than
# 256 MB of heap top at once, which a trim threshold of that size gives back
# to the kernel, and the next run in the process faults it in again.
TRIM_THRESHOLD = 1 << 30
# (name, mallopt parameter from glibc's malloc.h, value)
_POLICY = (("M_ARENA_MAX", -8, 1), ("M_MMAP_THRESHOLD", -3, ALLOCATOR_THRESHOLD),
           ("M_TRIM_THRESHOLD", -1, TRIM_THRESHOLD))
_WORKER_NAME = "ymtorus"  # the pool names its thread ymtorus_0
_worker = None  # (pid, executor) of the process that created it


def threads(grid):
    """Threads an evaluation on `grid` uses: 2 on a grid of at least
    MIN_SITES sites when the process may run on two CPUs, else 1."""
    if grid.n ** 3 < MIN_SITES:
        return 1
    if not hasattr(os, "sched_getaffinity"):  # not Linux
        return min(2, os.cpu_count() or 1)
    return min(2, len(os.sched_getaffinity(0)))


def _set_allocator_policy():
    """{name: mallopt's result (1 set, 0 refused)} of each _POLICY entry; {}
    where mallopt cannot be looked up (no C library symbols, or not glibc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return {}
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return {name: mallopt(param, value) for name, param, value in _POLICY}


ALLOCATOR_POLICY = _set_allocator_policy()


def _executor():
    global _worker
    if _worker is None or _worker[0] != os.getpid():
        _worker = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix=_WORKER_NAME))
    return _worker[1]


def split(grid, first, second):
    """(first(), second()) for two callables that write disjoint buffers and
    read none that the other writes.  With threads(grid) == 2, second runs
    in the worker while first runs here; with one thread, second runs after
    first.  Either way both have finished when split returns or raises, also
    when first raised, and an exception in either is raised here (second's,
    if both raised).  Called in the worker, it raises RuntimeError: the one
    worker is busy with the caller."""
    if threading.current_thread().name.startswith(_WORKER_NAME + "_"):
        raise RuntimeError("parallel.split called in the worker thread")
    pending = _executor().submit(second) if threads(grid) == 2 else None
    try:
        result = first()
    finally:
        other = second() if pending is None else pending.result()
    return result, other


def balance(grid, blocks):
    """[fn() for cost, fn in blocks], blocks as split takes them.  Largest cost first
    (block order on a tie), each joins the lighter of two lists (the first on a tie);
    split runs the lists, list 0 first on one thread, and raises a block's error."""
    lists, loads = ([], []), [0, 0]
    for i in sorted(range(len(blocks)), key=lambda i: blocks[i][0], reverse=True):
        lighter = int(loads[1] < loads[0])
        lists[lighter].append(i)
        loads[lighter] += blocks[i][0]
    done = split(grid, *[lambda ids=ids: [(i, blocks[i][1]()) for i in ids] for ids in lists])
    return [result for _, result in sorted(done[0] + done[1], key=lambda pair: pair[0])]


def once(fn):
    """A callable returning fn(), formed once, under a lock, by its first caller."""
    lock, result = threading.Lock(), []

    def call():
        with lock:
            if not result:
                result.append(fn())
        return result[0]

    return call
