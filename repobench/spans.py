"""In-memory span tracer that wraps the program's public calls from outside.

Nothing in ``src/`` is instrumented.  :class:`Tracer` replaces a
function or method attribute with a wrapper that records one span per
call -- name, start, end, the span that caused it (the enclosing span)
and the op or request id current when it started -- and restores every
original on :meth:`Tracer.restore`.  Spans stay in compact arrays until
the run ends and :meth:`Tracer.dump` writes them out.

A span's *self time* is its duration minus the time its direct child
spans cover.  Calls nest on one thread's stack (the estimator service
dispatches synchronously inside its event loop), so direct children
never overlap each other and their durations simply add.  Spans are
only aggregated after the run, from the same document that is dumped.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import Any

import numpy as np


class Tracer:
    """Span recorder with per-name self-time and counter aggregation.

    Attributes:
        counters: Named event counts recorded at the same boundaries.
        op: The current op or request id stamped on new spans.
    """

    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()
        self.op = -1
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._start = array("d")
        self._end = array("d")
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return ident

    def _open(self, name: str) -> int:
        index = len(self._start)
        self._name.append(self._name_id(name))
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._op.append(self.op)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, n: int | float = 1) -> None:
        """Add ``n`` to counter ``name``."""
        self.counters[name] += n

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str,
             span_name: Callable[..., str] | None = None,
             after: Callable[..., None] | None = None,
             starts_op: bool = False) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Args:
            owner: Module or class holding the callable.
            attr: Attribute name.  Class-level ``classmethod`` and
                ``staticmethod`` descriptors are re-wrapped as such.
            name: Span name.
            span_name: Optional ``f(*args, **kwargs) -> str`` choosing
                the span name per call (e.g. quick vs full test).
            after: Optional ``f(result, *args, **kwargs)`` run inside
                the span after the call, for counters.
            starts_op: Each call begins a new op (request, shard): the
                op id advances before the span opens.
        """
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        kind = type(raw) if isinstance(
            raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if starts_op:
                tracer.op += 1
            index = tracer._open(span_name(*args, **kwargs)
                                 if span_name is not None else name)
            try:
                result = func(*args, **kwargs)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            finally:
                tracer._close(index)

        self._patches.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._start)

    def as_doc(self) -> dict[str, Any]:
        """Every span, columnar, plus the counters."""
        return {
            "names": list(self._names),
            "name": list(self._name),
            "start": list(self._start),
            "end": list(self._end),
            "parent": list(self._parent),
            "op": list(self._op),
            "counters": dict(self.counters),
        }

    def dump(self, path: str | Path) -> None:
        """Write every span to an ``.npz`` file (one array per column).

        Hundreds of thousands of spans are common (one per tester
        call), so the columns are written as raw arrays; the span
        names and the counters travel as one JSON string.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        header = json.dumps({"names": self._names,
                             "counters": dict(self.counters)})
        with path.open("wb") as fh:
            np.savez(fh, header=np.array(header), name=self._name,
                     start=self._start, end=self._end,
                     parent=self._parent, op=self._op)


def load_dump(path: str | Path) -> dict[str, Any]:
    """Read a :meth:`Tracer.dump` file back as a trace document."""
    with np.load(path) as data:
        header = json.loads(str(data["header"]))
        doc = {column: data[column].tolist()
               for column in ("name", "start", "end", "parent", "op")}
    doc.update(header)
    return doc


def self_times(doc: dict[str, Any]) -> dict[str, float]:
    """Total self seconds per span name of a trace document."""
    child = [0.0] * len(doc["start"])
    for i, parent in enumerate(doc["parent"]):
        if parent >= 0:
            child[parent] += doc["end"][i] - doc["start"][i]
    totals: dict[str, float] = {}
    for i, ident in enumerate(doc["name"]):
        name = doc["names"][ident]
        own = doc["end"][i] - doc["start"][i] - child[i]
        totals[name] = totals.get(name, 0.0) + own
    return totals


def call_counts(doc: dict[str, Any]) -> dict[str, int]:
    """Number of spans per name of a trace document."""
    counts: Counter[str] = Counter()
    for ident in doc["name"]:
        counts[doc["names"][ident]] += 1
    return dict(counts)
