"""In-memory span recorder for the traced benchmark run.

Spans are recorded from outside the library, around calls into its public
functions. Each span keeps (name, start, end, parent, unit id). Oracle
queries are far too many to record one span each (thousands per unit), so a
timing oracle charges their count and busy time to the innermost open span
instead; a layer's self time is its duration minus its child spans and the
oracle time charged to it.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from pairing_tsp import ObservationOracle

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "unit", "child_s", "oracle_calls", "oracle_s")

    def __init__(self, name, start, parent, unit):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.unit = unit
        self.child_s = 0.0
        self.oracle_calls = 0
        self.oracle_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - self.oracle_s


class Tracer:
    """Collects spans for one run; `unit` tags every span opened after it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unit = "setup"
        self._open: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called `name`."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        span = Span(name, _clock(), parent, self.unit)
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = _clock()
            self._open.pop()
            if parent is not None:
                self.spans[parent].child_s += span.duration

    def charge_oracle(self, seconds: float) -> None:
        if self._open:
            span = self.spans[self._open[-1]]
            span.oracle_calls += 1
            span.oracle_s += seconds

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, s in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "unit": s.unit,
                }
                if s.oracle_calls:
                    record["oracle_calls"] = s.oracle_calls
                    record["oracle_s"] = s.oracle_s
                out.write(json.dumps(record) + "\n")


class TimingOracle(ObservationOracle):
    """ObservationOracle that charges each query's wall time to the open span."""

    def __init__(self, instance, tracer: Tracer):
        super().__init__(instance)
        self._tracer = tracer

    def observe(self, pairing):
        t0 = _clock()
        value = super().observe(pairing)
        self._tracer.charge_oracle(_clock() - t0)
        return value


def call(tracer, name, fn, *args, **kwargs):
    """Untraced runs call the library directly; traced runs open a span."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)


def make_oracle(instance, tracer):
    if tracer is None:
        return ObservationOracle(instance)
    return TimingOracle(instance, tracer)
