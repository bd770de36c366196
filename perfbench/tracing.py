"""Span recording around calls into the package's public functions.

The tracer patches each function where its caller looks the name up
(``evolution.violation_expr``, ``moea.decode``, ...) for the span of one
request and restores the original objects afterwards, so the package
itself is never edited and untraced requests run the original code.

Spans live in flat arrays (name, parent, start, end) until the run ends.
A span's self time is its duration minus its direct children's.
``moea.dominates`` is deliberately left unwrapped: a trade-off request
makes over a million calls, and its time stays in
``non_dominated_sort``'s self time.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from collections import defaultdict
from typing import Callable

from manpower import constraints, domain, evolution, moea, objectives

ROOT = "request"
VIOLATION = "constraints.violation_expr"


def _patch_sites() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped lookup site."""
    return [
        (evolution, "violation_expr", VIOLATION),
        (moea, "violation_expr", VIOLATION),
        (constraints, "violation_expr", VIOLATION),   # recursion and ip_solve's import
        (constraints, "violation_atom", "constraints.violation_atom"),
        (evolution, "boundary_distance", "constraints.boundary_distance"),
        (evolution, "decode", "evolution.decode"),
        (moea, "decode", "evolution.decode"),
        (evolution, "random_genome", "evolution.random_genome"),
        (moea, "random_genome", "evolution.random_genome"),
        (evolution, "evaluate_bundle", "objectives.evaluate_bundle"),
        (moea, "evaluate_bundle", "objectives.evaluate_bundle"),
        (objectives, "evaluate_bundle", "objectives.evaluate_bundle"),  # ip_solve's import
        (evolution, "tensor_salary", "objectives.tensor_salary"),
        (moea, "non_dominated_sort", "moea.non_dominated_sort"),
        (moea, "crowding", "moea.crowding"),
        (moea, "hypervolume", "moea.hypervolume"),
        (moea.ParetoArchive, "offer", "moea.ParetoArchive.offer"),
        (domain.AttendanceTensor, "from_day_attendance", "domain.AttendanceTensor.from_day_attendance"),
    ]


def _lookup(owner, attr):
    """The object stored under ``attr`` (the descriptor itself on classes)."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _is_wrapper(obj) -> bool:
    return hasattr(getattr(obj, "__func__", obj), "__wrapped__")


def wrapped_sites() -> list[str]:
    """Sites that currently hold a tracer wrapper instead of the
    package's own function; empty whenever no request is being traced."""
    return [f"{owner.__name__}.{attr}" for owner, attr, _ in _patch_sites()
            if _is_wrapper(_lookup(owner, attr))]


class Tracer:
    """Records the spans of requests sent through :meth:`run`."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.roots: list[tuple[int, int, str]] = []   # (first span, request index, kind)
        self.counters: dict[str, float] = defaultdict(float)
        self._depth = 0
        self._keys: set = set()
        self._outer = 0
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (the request's own steps)."""
        idx = self._open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._id(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_violation_expr(self, fn: Callable) -> Callable:
        """Only the outermost call of the recursion is a span; it also
        records the input so distinct inputs can be counted."""
        nid = self._id(VIOLATION)
        open_, close = self._open, self._close

        def wrapper(expr, tensor, hc, inst):
            if self._depth:
                return fn(expr, tensor, hc, inst)
            self._outer += 1
            self._keys.add(hc.counts if tensor is None else tensor.entries.tobytes())
            self._depth = 1
            idx = open_(nid)
            try:
                return fn(expr, tensor, hc, inst)
            finally:
                close(idx)
                self._depth = 0

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_violation_atom(self, fn: Callable) -> Callable:
        ids = {code.value: self._id(f"constraints.violation_atom.{code.value}")
               for code in constraints.ConstraintKind}
        open_, close = self._open, self._close

        def wrapper(c, tensor, hc, inst):
            idx = open_(ids[c.kind.value])
            try:
                return fn(c, tensor, hc, inst)
            finally:
                close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_offer(self, fn: Callable) -> Callable:
        inner = self._wrap("moea.ParetoArchive.offer", fn)
        counters = self.counters

        def offer(archive, counts, objectives_, violation):
            accepted = inner(archive, counts, objectives_, violation)
            counters["moea.archive_accepted"] += bool(accepted)
            return accepted

        offer.__wrapped__ = fn
        return offer

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        if wrapped_sites():
            raise RuntimeError(f"already wrapped: {', '.join(wrapped_sites())}")
        for owner, attr, name in _patch_sites():
            original = _lookup(owner, attr)
            if name == VIOLATION:
                replacement = self._wrap_violation_expr(original)
            elif attr == "violation_atom":
                replacement = self._wrap_violation_atom(original)
            elif attr == "offer":
                replacement = self._wrap_offer(original)
            elif isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            setattr(owner, attr, replacement)
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- requests -------------------------------------------------------

    def run(self, index: int, kind: str, fn: Callable, *args, **kwargs):
        """Run one request as a root span with the wrappers installed."""
        self.roots.append((len(self.start), index, kind))
        self._keys = set()
        self._outer = 0
        self.install()
        try:
            return self.call(ROOT, fn, *args, **kwargs)
        finally:
            self.uninstall()
            self.counters[f"distinct.{kind}"] += len(self._keys)
            self.counters[f"evaluated.{kind}"] += self._outer

    # -- results --------------------------------------------------------

    def self_times(self) -> array:
        """Self time of every span, in seconds."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for idx, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[idx] - self.start[idx]
        return own

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds) over every traced request."""
        calls: dict[str, int] = defaultdict(int)
        secs: dict[str, float] = defaultdict(float)
        names = self.names
        for nid, own in zip(self.name, self.self_times()):
            calls[names[nid]] += 1
            secs[names[nid]] += own
        return {n: (calls[n], secs[n]) for n in calls}

    def calls_in(self, name: str, kind: str) -> int:
        """Spans named ``name`` inside requests of ``kind``."""
        nid = self._ids.get(name)
        if nid is None:
            return 0
        bounds = [r[0] for r in self.roots] + [len(self.start)]
        return sum(self.name[first:stop].count(nid)
                   for (first, _, k), stop in zip(self.roots, bounds[1:]) if k == kind)

    def write_jsonl(self, path: str) -> int:
        """Write one JSON object per span (gzip-compressed) and return the
        number of spans written."""
        bounds = [r[0] for r in self.roots] + [len(self.start)]
        names = [json.dumps(n) for n in self.names]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for (first, index, kind), stop in zip(self.roots, bounds[1:]):
                base = self.start[first]
                head = f'{{"request":{index},"kind":{json.dumps(kind)},"span":'
                for idx in range(first, stop):
                    fh.write(f'{head}{idx},"parent":{self.parent[idx]},'
                             f'"name":{names[self.name[idx]]},'
                             f'"start_ms":{(self.start[idx] - base) * 1e3:.4f},'
                             f'"end_ms":{(self.end[idx] - base) * 1e3:.4f}}}\n')
        return len(self.start)
