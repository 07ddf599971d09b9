"""Span tracing of one ``modescent`` CLI invocation, from outside the package.

The package's modules import each other's functions by name (``solvers``
binds ``central_direction``, ``evaluate``, ``gradient`` and
``_steepest_direction``; ``fields`` binds ``central_direction``,
``steepest_direction`` and ``gradient_all``; ``cli`` binds the icd-armijo
run, field and CSV functions, the only ones the workloads call). A wrapper
therefore replaces each name in the module where it is looked up, for the
duration of one traced invocation, and puts the original back afterwards.
Nothing under ``src/`` is edited.

Spans (name, start, end, parent) are kept in memory; per-layer numbers are
derived from them after the invocation ends. A span's self time is its
duration minus the time its child spans cover, so the self times of all
spans add up to the root span, ``cli.main``, by construction: ``cli``'s
self time is the remainder. ``span_cost`` estimates what one span adds to
the wall time.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# (module, attribute, span name, what to keep from the call).
# ``keep`` names a payload the metrics need: the returned outcome of the
# central QP, the slate and returned V of the steepest QP, the records of a
# run and the points of a streamline.
TARGETS: List[Tuple[str, str, str, Optional[str]]] = [
    ("cli", "problem_from_name", "problems.build", None),
    ("cli", "run_incremental_central_armijo", "solvers.run", "records"),
    ("cli", "write_trace_csv", "solvers.trace_csv", None),
    ("cli", "sample_field", "fields.sample", None),
    ("cli", "trace_streamline", "fields.streamline", "points"),
    ("cli", "write_streamlines_csv", "fields.to_csv", None),
    ("fields", "FieldGrid.to_csv", "fields.to_csv", None),
    ("solvers", "central_direction", "directions.central", "outcome"),
    ("fields", "central_direction", "directions.central", "outcome"),
    ("solvers", "_steepest_direction", "directions.steepest", "steepest"),
    ("fields", "steepest_direction", "directions.steepest", "steepest"),
    ("fields", "gradient_all", "problems.query_all", None),
    ("problems", "evaluate", "problems.query", None),
    ("problems", "gradient", "problems.query", None),
    ("solvers", "evaluate", "problems.query", None),
    ("solvers", "gradient", "problems.query", None),
]

ROOT = "cli.main"


class Tracer:
    """Records nested spans of one process, single-threaded."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.payloads: Dict[int, tuple] = {}
        self._stack: List[int] = []

    def wrap(self, name: str, fn: Callable, keep: Optional[str]) -> Callable:
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack, payloads = self._stack, self.payloads

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[idx] = start
                ends[idx] = end
            if keep == "steepest":
                payloads[idx] = (np.array(args[0], dtype=float), result[0])
            elif keep is not None:
                payloads[idx] = (result,)
            return result

        return traced

    def install(self, package) -> Callable[[], None]:
        """Wrap every target in ``package``; returns the undo function."""
        undo = []
        for module_name, attr, span, keep in TARGETS:
            owner = getattr(package, module_name)
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            leaf = attr.split(".")[-1]
            original = getattr(owner, leaf)
            setattr(owner, leaf, self.wrap(span, original, keep))
            undo.append((owner, leaf, original))

        def restore() -> None:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

        return restore

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        own = dur.copy()
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.subtract.at(own, parents[has_parent], dur[has_parent])
        return own

    def ancestors_named(self, wanted: set) -> np.ndarray:
        """True for spans with an ancestor whose name is in ``wanted``."""
        inside = np.zeros(len(self.names), dtype=bool)
        for idx, parent in enumerate(self.parents):
            # Parents are recorded before their children, so they are final.
            if parent >= 0:
                inside[idx] = inside[parent] or self.names[parent] in wanted
        return inside


def span_cost(reps: int = 9, calls: int = 20000) -> float:
    """Seconds one span adds to a call: a no-op called through
    ``Tracer.wrap`` minus the bare no-op, per call, median over ``reps``
    timings of ``calls`` calls each; which side runs first alternates."""

    def noop():
        return None

    def timed(fn) -> float:
        start = perf_counter()
        for _ in range(calls):
            fn()
        return perf_counter() - start

    diffs = []
    for rep in range(reps):
        wrapped = Tracer().wrap("noop", noop, None)
        if rep % 2:
            traced_s, bare_s = timed(wrapped), timed(noop)
        else:
            bare_s, traced_s = timed(noop), timed(wrapped)
        diffs.append((traced_s - bare_s) / calls)
    return statistics.median(diffs)
