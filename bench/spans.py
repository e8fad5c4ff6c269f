"""In-memory span recorder and the patches that put spans around star154's layers.

Spans are recorded from the benchmark's own files: each wrapper replaces a
module attribute that callers look up at call time (``star154.dataset.solve``,
``star154.simulator.run_replication``, ...) and restores it afterwards, so
nothing under ``src/`` changes. Hot inner functions are wrapped to count calls
only; timing them would cost more than the work they do.
"""
from __future__ import annotations

import contextlib
import os
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    layer: str  # star154 module name, or "bench" for the benchmark's own stages
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Recorder.spans
    run_id: int  # one job repetition; spans of one repetition share it
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans and call counts in memory; nothing is written while recording."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.run_id = 0
        self.current = Counter()  # counts of the current run
        self._stack: list[int] = []

    def new_run(self) -> None:
        """Start a new repetition: later spans and counts carry a fresh run id."""
        self.run_id += 1
        self.current = self.counts[self.run_id] = Counter()

    @contextlib.contextmanager
    def span(self, layer: str, name: str, attrs: dict | None = None):
        parent = self._stack[-1] if self._stack else None
        sp = Span(layer, name, time.perf_counter(), 0.0, parent, self.run_id, attrs or {})
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def timed(self, layer: str, name: str, fn, describe=None):
        """Wrap fn in a span; describe(span.attrs, args, result) may annotate it."""

        def wrapper(*args, **kwargs):
            with self.span(layer, name) as sp:
                result = fn(*args, **kwargs)
                if describe is not None:
                    describe(sp.attrs, args, result)
                return result

        return wrapper

    def counted(self, key: str, fn):
        def wrapper(*args, **kwargs):
            self.current[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = -float("inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def self_time(span: Span, children) -> float:
    """A span's duration minus the part of its interval its children cover."""
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if c.end > span.start and c.start < span.end
    ]
    return span.duration - covered(clipped)


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span, in the order of the list."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    return [self_time(sp, children.get(idx, ())) for idx, sp in enumerate(spans)]


@contextlib.contextmanager
def patched(replacements):
    """Set (object, attribute, value) triples for the duration of the block."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def instrument(rec: Recorder, scenario_of: dict):
    """Context manager that records a span at every star154 layer boundary.

    scenario_of maps a NetworkConfig to the workload's scenario label, so
    replication spans can be grouped per scenario.
    """
    from star154 import analytical, cli, dataset, predictor, queueing, simulator

    def solved(attrs, args, fp):
        attrs["mode"] = args[0].mode.value
        attrs["iterations"] = fp.iterations

    def swept(attrs, args, rows):
        attrs["rows"] = len(rows)

    def written(attrs, args, _):
        attrs["bytes"] = os.path.getsize(args[1])

    def replicated(attrs, args, counters):
        net, horizon, warmup = args[:3]
        attrs["scenario"] = scenario_of.get(net, str(net))
        attrs["slots"] = horizon + warmup
        attrs["cca_starts"] = counters.cca_starts
        attrs["arrivals"] = counters.arrivals
        attrs["conserved"] = counters.conservation_ok()

    def invoked(attrs, args, _):
        argv = args[0] if args else None
        attrs["command"] = argv[0] if argv else ""

    def timed(obj, attr, layer, describe=None):
        return obj, attr, rec.timed(layer, attr, getattr(obj, attr), describe)

    def counted(obj, attr, key):
        return obj, attr, rec.counted(key, getattr(obj, attr))

    return patched([
        timed(cli, "main", "cli", invoked),
        timed(dataset, "run_sweep", "dataset", swept),
        timed(dataset, "write_csv", "dataset", written),
        timed(dataset, "read_csv", "dataset", swept),
        timed(dataset, "solve", "analytical", solved),
        timed(dataset, "metrics_report", "metrics"),
        counted(analytical, "tau_update", "analytical.tau_update"),
        counted(queueing, "utilization", "queueing.utilization"),
        counted(queueing, "empty_prob", "queueing.empty_prob"),
        counted(queueing, "queue_stats", "queueing.queue_stats"),
        timed(simulator, "run", "simulator"),
        timed(simulator, "run_replication", "simulator", replicated),
        timed(predictor, "init_model", "predictor"),
        timed(predictor, "train", "predictor"),
        counted(predictor, "_gradients", "predictor.train_steps"),
        timed(predictor, "save_model", "predictor"),
        timed(predictor, "load_model", "predictor"),
        timed(predictor, "forward", "predictor"),
    ])
