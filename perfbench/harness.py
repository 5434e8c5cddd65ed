"""Spans, solve recording and the operation loop of the benchmark.

Nothing here imports issynth; the workloads hand in the modules whose
``solve_sdp`` name is swapped, so the tests can drive every piece with
fakes.
"""

from __future__ import annotations

import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@dataclass
class Span:
    """One call into a layer; spans of one operation share ``op``."""

    op: int
    layer: str
    name: str
    start: float
    end: float = float("nan")
    parent: int | None = None  # index into Tracer.spans

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    ``overhead_s`` maps each operation to the time spent in the tracer's
    own bookkeeping, which is what tracing adds to that operation's wall
    time.
    """

    def __init__(self, enabled: bool, clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: list[Span] = []
        self.overhead_s: dict[int, float] = {}
        self._stack: list[int] = []
        self._op = -1

    def begin_op(self, op: int) -> None:
        self._op = op
        self._stack.clear()
        self.overhead_s[op] = 0.0

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        enter = self.clock()
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(self._op, layer, name, 0.0, parent=parent))
        self._stack.append(idx)
        span = self.spans[idx]
        span.start = self.clock()
        cost = span.start - enter
        try:
            yield
        finally:
            span.end = self.clock()
            self._stack.pop()
            self.overhead_s[self._op] = (self.overhead_s.get(self._op, 0.0) + cost
                                         + self.clock() - span.end)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` is a tracer's full list, so parent indices resolve in it.
    """
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return [s.seconds - _union_length([(max(c.start, s.start), min(c.end, s.end))
                                       for c in kids])
            for s, kids in zip(spans, children)]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


@dataclass
class SolveRecord:
    """One ``solve_sdp`` call: which module made it, the problem and the solution."""

    caller: str
    prob: object
    sol: object


def install_solve_recorder(modules: dict[str, object], tracer: Tracer,
                           records: list[SolveRecord]) -> Callable[[], None]:
    """Swap each module's ``solve_sdp`` for a wrapper that records the call.

    ``modules`` maps a caller name to a module that imported ``solve_sdp``
    by name.  The wrapper opens an ``sdp`` span (a no-op when tracing is
    off) and appends a SolveRecord.  Returns a function that restores the
    original names.
    """
    originals = {name: mod.solve_sdp for name, mod in modules.items()}

    def make(caller: str, solve):
        def recorded(prob, opts=None):
            with tracer.span("sdp", "solve_sdp"):
                sol = solve(prob, opts)
            records.append(SolveRecord(caller, prob, sol))
            return sol
        return recorded

    for name, mod in modules.items():
        mod.solve_sdp = make(name, originals[name])

    def restore() -> None:
        for name, mod in modules.items():
            mod.solve_sdp = originals[name]
    return restore


@dataclass
class Outcome:
    """One attempted operation: wall seconds, failure reasons, checked facts."""

    index: int
    seconds: float
    failures: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)


def run_ops(op: Callable[[int], object],
            check: Callable[[int, object], tuple[list[str], dict]],
            seconds: float,
            clock: Callable[[], float] = time.perf_counter,
            between: Callable[[], None] = lambda: None) -> list[Outcome]:
    """Run op(0), op(1), ... and check each result outside the timed region.

    A new operation starts only while the previous one's duration still
    fits into the budget, so a run lasts about ``seconds`` whatever the
    operation costs; at least one operation runs.  An operation or check
    that raises is a failed operation, never a skipped one.  ``between``
    runs before the first operation and after each one, untimed.
    """
    outcomes: list[Outcome] = []
    start = clock()
    last = 0.0
    between()
    while not outcomes or (clock() - start) + last <= seconds:
        i = len(outcomes)
        t0 = clock()
        try:
            value = op(i)
        except Exception as exc:  # counted as a failed operation
            last = clock() - t0
            outcomes.append(Outcome(i, last, [f"raised {type(exc).__name__}: {exc}"]))
        else:
            last = clock() - t0
            try:
                failures, facts = check(i, value)
            except Exception as exc:  # a check that cannot run fails the operation
                failures, facts = [f"check raised {type(exc).__name__}: {exc}"], {}
            outcomes.append(Outcome(i, last, list(failures), facts))
        between()
    return outcomes


def calibration_seconds() -> float:
    """Seconds for a fixed mix of interpreter and dense linear-algebra work.

    The machine's speed drifts by tens of percent over seconds to minutes
    (other tenants); this kernel, timed next to the operations, measures
    that drift so end-to-end times can be scaled to a fixed speed.
    """
    a = np.random.default_rng(0).standard_normal((300, 300))
    spd = a @ a.T + 300.0 * np.eye(300)
    small = spd[:14, :14].copy()
    start = time.perf_counter()
    acc: dict[tuple[int, int], float] = {}
    for j in range(150_000):  # interpreter work, as in poly and simulate
        key = (j & 63, j & 7)
        acc[key] = acc.get(key, 0.0) + (j * 0.5) ** 2 % 7.0
    for _ in range(1500):  # many small numpy calls, as in per-block solver work
        np.linalg.cholesky(small)
        small @ small
    for _ in range(15):  # dense factorizations, as in the Schur solves
        np.linalg.cholesky(spd)
        spd @ spd
    return time.perf_counter() - start
