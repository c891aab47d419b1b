"""Fixtures for the tests of the chunk loops that share ``jamloc._workers``."""

import sys

import pytest

from jamloc import _workers

# (_WORKERS, _RUNS): one worker, two and more workers than runs, and the cap
# raised to three runs
WORKER_COUNTS = ((1, 2), (2, 2), (8, 2), (8, 3))


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
            for workers, cap in WORKER_COUNTS:
                monkeypatch.setattr(_workers, "_WORKERS", workers)
                monkeypatch.setattr(_workers, "_RUNS", cap)
                outs.append(f())
        finally:
            sys.setswitchinterval(interval)
        return outs
    return run
