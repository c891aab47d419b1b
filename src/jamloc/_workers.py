"""The worker threads that the package's chunk loops share.

Three loops run here: the convolutions' chunks (``nn.layers._conv``), the
dsp extractors' snapshot blocks (``dsp.features._blocked``) and the
simulator's pose chunks (``sigsim.dataset.make_dataset``). Each splits its
items into contiguous runs, one per CPU the process may use (``_WORKERS``)
and at most ``_RUNS``, and ``_map`` runs the last run on the calling thread
and the others on one pool. Runs overlap where numpy releases the
interpreter lock: in GEMMs, FFTs, copies and ufuncs over a block, and little
in the short calls of the simulator's per-pose draws.

Whatever the worker count, a loop keeps the memory in flight that one thread
kept: ``_blocks`` divides a loop's budget of items among its runs, so two
runs of the dsp's 16-snapshot budget take blocks of 8 and two runs of the
simulator's 32 poses chunks of 16, and a conv holds at most the two
workspaces one thread's backward held (see ``nn.layers``). A job computes
what one thread computes for its items and writes only its own outputs, so
results are bitwise those of one thread.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# Threads that run a loop's runs: the CPUs this process may run on.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# Runs of one loop at most, whatever the CPU count: each conv run holds a
# cols workspace, and one thread's backward held two (the kept cols and the
# dcols or transposed-conv cols).
_RUNS = 2

# marks the pool's threads: a loop that a job runs there runs inline, since
# waiting on the pool from one of its own threads could wait on itself
_local = threading.local()


def _mark_pool_thread() -> None:
    _local.in_pool = True


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The threads beside the caller's, made by the first loop that has
    more than one run."""
    return ThreadPoolExecutor(_RUNS - 1, thread_name_prefix="jamloc-worker",
                              initializer=_mark_pool_thread)


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's threads, so it makes its own pool
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _split(items: list, k: int) -> list:
    """``items`` as ``k`` contiguous runs, as even as they divide."""
    return [items[i * len(items) // k:(i + 1) * len(items) // k] for i in range(k)]


def _runs(chunks: list) -> list:
    """``chunks`` as contiguous runs of at least two chunks each, one per
    worker and at most ``_RUNS``; one run, maybe empty, if fewer than four."""
    return _split(chunks, max(1, min(_WORKERS, _RUNS, len(chunks) // 2)))


def _blocks(n: int, budget: int) -> list:
    """``range(n)`` as contiguous runs of slices (blocks) that keep at most
    ``budget`` items in flight over all runs: one run per worker, at most
    ``_RUNS`` and ``budget``, and each at least ``budget`` items long, in
    blocks of ``budget // runs`` items; one run of ``budget``-item blocks if
    ``n`` is under two budgets."""
    k = max(1, min(_WORKERS, _RUNS, budget, n // budget))
    size = budget // k
    return _split([slice(s, min(s + size, n)) for s in range(0, n, size)], k)


def _map(fn, jobs: list) -> list:
    """[fn(job) for job in jobs]: the last job on the calling thread, the
    others on the pool. One job, or a call from a pool thread (a job that
    maps again), runs inline and submits nothing. Every job finishes before
    an error propagates, and an earlier job's error comes first, as one
    thread would raise it."""
    if len(jobs) == 1 or getattr(_local, "in_pool", False):
        return [fn(job) for job in jobs]
    futures = [_pool().submit(fn, job) for job in jobs[:-1]]
    try:
        last = fn(jobs[-1])
    finally:
        wait(futures)
        done = [f.result() for f in futures]
    return done + [last]
