"""The worker threads that the package's chunk loops share.

Four loops run here: the convolutions' chunks (``nn.layers._conv``), the
dsp extractors' snapshot blocks (``dsp.features._blocked``), the
simulator's pose chunks (``sigsim.dataset.make_dataset``) and the forwards
of model branches, independent layers such as MCAFF's four path stems
(``nn.layers.branches``); a branch's backward runs on the calling thread,
its convs' chunk loops like any other conv's. All four take one rule: a
loop cuts its items into pieces that depend on no setting and no CPU count
(a conv's chunks of whole items, 8-snapshot dsp blocks, 16-pose simulator
chunks, one branch each), and ``_runs`` splits those pieces into
contiguous runs of at least one piece each, ``_RUNS`` at most: two, or one
on a process that may use one CPU. ``_map`` runs the last run on the
calling thread and the others on one pool. A loop inside a run, such as a
branch's convs in its forward, runs inline. Runs overlap where numpy
releases the interpreter lock: in GEMMs, FFTs, copies and ufuncs over a
block, and little in the short calls of the simulator's per-pose draws.

So a loop holds at most ``_RUNS`` pieces in flight: the dsp and the
simulator at most ``_RUNS`` blocks or chunks, and a conv, which keeps only
its input and its ReLU mask's bits between passes, one workspace per run
in a pass (see ``nn.layers``); branches keep what their layers keep inline, but build and
free their forward workspaces side by side. A job computes what one thread
computes for its items and writes only its own outputs, so results are
bitwise those of one thread, whatever ``_RUNS`` is.
"""
from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

# Runs of one loop at most: two, or one if this process may run on one CPU
# only, read at import. Each run holds one piece at a time (a dsp block, a
# simulator chunk, a conv's workspace), so a loop holds at most _RUNS.
_RUNS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)

# marks a thread that is running a job: a loop that a job runs runs inline,
# since waiting on the pool from one of its own threads could wait on
# itself, and the caller's own job would only queue behind the others
_local = threading.local()


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The threads beside the caller's, made by the first loop that has
    more than one run; one even where ``_RUNS`` is 1, for a map handed two
    jobs of its own."""
    return ThreadPoolExecutor(max(1, _RUNS - 1), thread_name_prefix="jamloc-worker")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's threads, so it makes its own pool
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _runs(items: list) -> list:
    """``items`` (a conv's chunks, dsp blocks, simulator chunks or model
    branches) as contiguous runs, as even as they divide, of at least one
    item each, ``_RUNS`` at most; one run, maybe empty, if there are fewer
    than two items."""
    k = max(1, min(_RUNS, len(items)))
    return [items[i * len(items) // k:(i + 1) * len(items) // k] for i in range(k)]


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
