"""In-memory span recorder for the benchmark's traced run.

A span covers one call into a layer of the program. Spans of one instance
share its id; the pipeline span of an instance is the parent of its layer
spans. Counts for a layer are attached to its span, so ratios are taken at
the boundary where the work happens. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Iterator


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    instance: str
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; when disabled, spans are throwaway objects."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, instance: str, parent: Span | None = None) -> Iterator[Span]:
        if not self.enabled:
            yield Span(-1, None, name, instance, 0.0)
            return
        record = Span(
            len(self.spans),
            parent.span_id if parent else None,
            name,
            instance,
            time.perf_counter(),
        )
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.duration
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s.name] = totals.get(s.name, 0.0) + s.duration - child_time[s.span_id]
        return totals

    def count_totals(self) -> dict[str, float]:
        """Sum of every count over all spans, keyed `<span name>.<count>`."""
        totals: dict[str, float] = {}
        for s in self.spans:
            for key, value in s.counts.items():
                name = f"{s.name}.{key}"
                totals[name] = totals.get(name, 0.0) + value
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump([asdict(s) for s in self.spans], f)
