"""In-memory span tracing around treecov's public functions.

A Recorder replaces each boundary function at the module attribute through
which its caller looks it up (``treecov.em.chow_liu`` is what ``run_em`` and
``em_step`` call), records one span per call, and restores the originals on
exit. Spans carry a name, start, end, parent span and operation id; counts
are kept at the same boundaries. Nothing inside ``src/`` is edited.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable

# (module, attribute, span name). Each row is a call site seen from the
# caller's side; one span name may appear under several modules.
SPANNED = (
    ("treecov.experiment", "run_sweep", "experiment.run_sweep"),
    ("treecov.experiment", "generate_mixing", "experiment.generate_mixing"),
    ("treecov.experiment", "sample_observations", "linear.sample_observations"),
    ("treecov.experiment", "read_matrix_csv", "linear.read_matrix_csv"),
    ("treecov.experiment", "chow_liu", "tree.chow_liu"),
    ("treecov.experiment", "kl_gaussian", "gaussian.kl_gaussian"),
    ("treecov.experiment", "run_em", "em.run_em"),
    ("treecov.cli", "main", "cli.main"),
    ("treecov.cli", "read_matrix_csv", "linear.read_matrix_csv"),
    ("treecov.cli", "write_matrix_csv", "linear.write_matrix_csv"),
    ("treecov.cli", "run_em", "em.run_em"),
    ("treecov.em", "empirical_gaussian", "linear.empirical_gaussian"),
    ("treecov.em", "observation_cov", "linear.observation_cov"),
    ("treecov.em", "em_step", "em.em_step"),
    ("treecov.em", "compute_omega", "em.compute_omega"),
    ("treecov.em", "posterior", "em.posterior"),
    ("treecov.em", "chow_liu", "tree.chow_liu"),
    ("treecov.em", "kl_gaussian", "gaussian.kl_gaussian"),
    ("treecov.tree", "tree_covariance", "tree.tree_covariance"),
)

# Boundaries that are only counted: they run ~10^5 times per sweep, so a
# span each would dominate memory, and their time belongs to the caller's
# self time (the pairwise MI loop is chow_liu's own work).
COUNTED = (
    ("treecov.tree", "pairwise_mutual_information",
     "gaussian.pairwise_mutual_information.calls"),
    ("treecov.gaussian", "CovMatrix.__post_init__", "gaussian.cov_matrix.count"),
)


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start_ns: int
    end_ns: int


class Recorder:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.op = 0
        self._stack: list[int] = []

    def next_op(self) -> None:
        """Start a new operation: later spans carry the next id."""
        self.op += 1

    def _observe(self, name: str, args: tuple, result: object) -> None:
        # Quantities read off a boundary's arguments or result.
        if name == "em.run_em":
            self.counts["em.iterations"] += len(result.iterations)
            if result.stop_reason.value == "LmaxReached":
                self.counts["em.lmax_stops"] += 1
        elif name == "linear.read_matrix_csv":
            self.counts["linear.read_matrix_csv.bytes"] += os.path.getsize(args[0])

    def spanned(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1] if self._stack else None
            op = self.op
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, op, name, start, end))
                self.counts[name + ".calls"] += 1
            self._observe(name, args, result)
            return result

        return wrapper

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every boundary that exists, restoring the originals on exit."""
        saved = []
        try:
            for table, make in ((SPANNED, self.spanned), (COUNTED, self.counted)):
                for module_name, attr, name in table:
                    owner = importlib.import_module(module_name)
                    *path, leaf = attr.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = owner.__dict__.get(leaf)
                    if original is None:
                        continue
                    saved.append((owner, leaf, original))
                    setattr(owner, leaf, make(name, original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def write_csv(self, path: str, phase: str, append: bool) -> None:
        with open(path, "a" if append else "w", encoding="ascii") as fh:
            if not append:
                fh.write("phase,id,parent,op,name,start_ns,end_ns\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{phase},{s.id},{parent},{s.op},{s.name},{s.start_ns},{s.end_ns}\n")


def _covered_ns(intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of half-open [start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times_ns(spans: Iterable[Span]) -> dict[int, int]:
    """Each span's duration minus the part of it that its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        kids = [
            (max(a, s.start_ns), min(b, s.end_ns))
            for a, b in children.get(s.id, ())
            if min(b, s.end_ns) > max(a, s.start_ns)
        ]
        out[s.id] = (s.end_ns - s.start_ns) - _covered_ns(kids)
    return out


def totals_ms(spans: Iterable[Span]) -> dict[str, float]:
    """Per span name: summed duration (``<name>.ms``) and self time (``.self_ms``)."""
    spans = list(spans)
    own = self_times_ns(spans)
    out: Counter[str] = Counter()
    for s in spans:
        out[s.name + ".ms"] += (s.end_ns - s.start_ns) / 1e6
        out[s.name + ".self_ms"] += own[s.id] / 1e6
    return dict(out)
