"""The worker threads that the package's chunk loops share.

Four loops run here: the convolutions' chunks (``nn.layers._conv``), the
dsp extractors' snapshot blocks (``dsp.features._blocked``), the
simulator's pose chunks (``sigsim.dataset.make_dataset``) and the model
branches, independent layers such as MCAFF's four path stems, each run as
a graph of its own, forward and backward (``nn.layers.branches``). Each
splits its items into contiguous runs, one per CPU the process may use
(``_WORKERS``) and at most ``_RUNS``, and ``_map`` runs the last run on the
calling thread and the others on one pool. A conv's chunks and the
branches take one rule, ``_runs``: a run holds at least one item, so two
items already split; the dsp and the simulator split blocks of a budget
(``_blocks``). A loop inside a run, such as a branch's convs, runs
inline. Runs overlap where numpy releases the interpreter lock: in GEMMs,
FFTs, copies and ufuncs over a block, and little in the short calls of the
simulator's per-pose draws.

Whatever the worker count, the dsp and the simulator keep the memory in
flight that one thread kept: ``_blocks`` divides a loop's budget of items
among its runs, so two runs of the dsp's 16-snapshot budget take blocks of
8 and two runs of the simulator's 32 poses chunks of 16. A conv keeps only
its input and output between passes, and in a pass each of its runs holds
one workspace (see ``nn.layers``); branches keep what their layers keep
inline, but build and free their workspaces side by side. A job computes
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

# Runs of one loop at most, whatever the CPU count: each conv run holds one
# workspace while a pass runs, so a conv holds at most _RUNS at any time.
_RUNS = 2

# marks a thread that is running a job: a loop that a job runs runs inline,
# since waiting on the pool from one of its own threads could wait on
# itself, and the caller's own job would only queue behind the others
_local = threading.local()


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The threads beside the caller's, made by the first loop that has
    more than one run."""
    return ThreadPoolExecutor(_RUNS - 1, thread_name_prefix="jamloc-worker")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's threads, so it makes its own pool
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _split(items: list, k: int) -> list:
    """``items`` as ``k`` contiguous runs, as even as they divide."""
    return [items[i * len(items) // k:(i + 1) * len(items) // k] for i in range(k)]


def _runs(items: list) -> list:
    """``items`` (a conv's chunks or model branches) as contiguous runs of at
    least one item each, one per worker and at most ``_RUNS``; one run,
    maybe empty, if there are fewer than two items."""
    return _split(items, max(1, min(_WORKERS, _RUNS, len(items))))


def _blocks(n: int, budget: int) -> list:
    """``range(n)`` as contiguous runs of slices (blocks) that keep at most
    ``budget`` items in flight over all runs: one run per worker, at most
    ``_RUNS`` and ``budget``, and each at least ``budget`` items long, in
    blocks of ``budget // runs`` items; one run of ``budget``-item blocks if
    ``n`` is under two budgets."""
    k = max(1, min(_WORKERS, _RUNS, budget, n // budget))
    size = budget // k
    return _split([slice(s, min(s + size, n)) for s in range(0, n, size)], k)


def _as_job(fn, job):
    """fn(job), marked as a job on this thread until it returns or raises
    (a map calls it only from outside any job)."""
    _local.in_job = True
    try:
        return fn(job)
    finally:
        _local.in_job = False


def _map(fn, jobs: list) -> list:
    """[fn(job) for job in jobs]: the last job on the calling thread, the
    others on the pool. One job, or a call from inside a job (a job that
    maps again, on the pool or on the caller's thread), runs inline and
    submits nothing. Every job finishes before an error propagates, and an
    earlier job's error comes first, as one thread would raise it."""
    if len(jobs) == 1 or getattr(_local, "in_job", False):
        return [fn(job) for job in jobs]
    job = functools.partial(_as_job, fn)
    futures = [_pool().submit(job, j) for j in jobs[:-1]]
    try:
        last = job(jobs[-1])
    finally:
        wait(futures)
        done = [f.result() for f in futures]
    return done + [last]
