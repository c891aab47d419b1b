"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is (name, start, end, parent, run id). The layer of a span is the part
of its name before the first dot (``sigsim``, ``dsp``, ``models``, ``nn``,
``bench`` for the benchmark's own glue, or ``untraced`` for a train step run
without inner spans, for comparison). Spans stay in memory and are written
out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import defaultdict

_NULL_SPAN = contextlib.nullcontext()


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    def span(self, name: str):
        return _NULL_SPAN


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent index or -1]
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter_ns()
            self._open.pop()

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, child)]

    def self_s_by_layer(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (name, *_), ns in zip(self.spans, self.self_ns()):
            out[name.split(".", 1)[0]] += ns * 1e-9
        return dict(out)

    def per_parent_ms(self, parent_name: str) -> list[dict[str, float]]:
        """For each span called ``parent_name``: its own self time under the
        key ``self`` and the total duration of its children, by child name."""
        selfs = self.self_ns()
        rows: dict[int, dict[str, float]] = {}
        for i, (name, _, _, _) in enumerate(self.spans):
            if name == parent_name:
                rows[i] = {"self": selfs[i] * 1e-6}
        for name, start, end, parent in self.spans:
            if parent in rows:
                rows[parent][name] = rows[parent].get(name, 0.0) + (end - start) * 1e-6
        return list(rows.values())

    def write(self, path) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(json.dumps({"run": self.run_id, "id": i, "name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent}) + "\n")


def span_cost_ns(n: int = 20_000, repeats: int = 5) -> float:
    """What one recorded span costs over the no-op span an untraced run
    enters in its place: the median over ``repeats`` of the time of ``n``
    empty spans nested in an open parent, less that of ``n`` no-op spans,
    per span. Taken on a scratch tracer, so the run's own spans are not
    touched."""
    null = NullTracer()
    costs = []
    for _ in range(repeats):
        tracer = Tracer("span-cost")
        with tracer.span("bench.parent"):
            t0 = time.perf_counter_ns()
            for _ in range(n):
                with tracer.span("bench.child"):
                    pass
            t1 = time.perf_counter_ns()
        t2 = time.perf_counter_ns()
        for _ in range(n):
            with null.span("bench.child"):
                pass
        t3 = time.perf_counter_ns()
        costs.append((t1 - t0 - (t3 - t2)) / n)
    return statistics.median(costs)
