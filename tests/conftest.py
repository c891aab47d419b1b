"""Fixtures for the tests of the chunk loops that share ``jamloc._workers``,
and ``traced``, which measures what a call allocates."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from jamloc import _workers

# _RUNS: one run, as on one CPU, two, as on more, and three
WORKER_COUNTS = (1, 2, 3)


@pytest.fixture
def map_jobs(monkeypatch) -> list:
    """The job count of every ``_workers._map`` call the test makes."""
    jobs, run = [], _workers._map

    def spy(fn, job_list):
        jobs.append(len(job_list))
        return run(fn, job_list)
    monkeypatch.setattr(_workers, "_map", spy)
    return jobs


@pytest.fixture
def at_worker_counts(monkeypatch, map_jobs):
    """A function that calls ``f()`` at each of ``WORKER_COUNTS`` and returns
    the results, under a 1 us switch interval, so that threads switch often
    and a write to another run's rows would show; ``map_jobs`` then holds the
    job counts of those calls only."""
    def run(f) -> list:
        map_jobs.clear()
        outs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for runs in WORKER_COUNTS:
                monkeypatch.setattr(_workers, "_RUNS", runs)
                outs.append(f())
        finally:
            sys.setswitchinterval(interval)
        return outs
    return run


@pytest.fixture
def traced():
    """A function that calls ``f()`` under tracemalloc and returns
    ``(f(), held, peak)``: the bytes the call allocated that are still held
    when it returns, with its result alive, and the most it held at once."""
    def run(f):
        tracemalloc.start()
        try:
            result = f()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held, peak
    return run


@pytest.fixture
def pool_jobs(monkeypatch) -> list:
    """Every job handed to the worker pool while the test runs; the pool is
    one thread of the test's own."""
    jobs = []
    with ThreadPoolExecutor(1, thread_name_prefix="test-pool") as pool:
        class Spy:
            def submit(self, fn, job):
                jobs.append(job)
                return pool.submit(fn, job)
        monkeypatch.setattr(_workers, "_pool", Spy)
        yield jobs
