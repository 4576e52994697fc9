"""In-memory span recording around calls into the program's layers.

The benchmark never edits the program.  It records spans by replacing
an attribute (a method on a class, a function in a module namespace)
with a timing wrapper that calls the original.  Each span is
``(name, start_ns, end_ns, parent, txn)``: times are CLOCK_MONOTONIC
nanoseconds, which every process on the host shares, so spans written
by the site processes line up with the client's.  ``parent`` is the
index of the enclosing span on the same thread (-1 for a root) and
``txn`` the transaction id, inherited from the enclosing span when the
wrapped call does not name one itself.

Only synchronous callables are wrapped: a coroutine would return at its
first ``await`` and interleave with other spans on the stack.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

now_ns = time.monotonic_ns


class SpanRecorder:
    """Collects spans in memory; the caller writes :meth:`to_json` once, at exit."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        #: Flat records: name index, start, end, parent, txn (or None).
        self.spans: list[Optional[tuple[int, int, int, int, Optional[int]]]] = []
        self._stack: list[tuple[int, Optional[int]]] = []
        self._main = threading.get_ident()

    def _name(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def timed(
        self,
        name: str,
        function: Callable[..., Any],
        txn_of: Optional[Callable[..., Optional[int]]] = None,
    ) -> Callable[..., Any]:
        """Return ``function`` wrapped so every call records one span."""
        name_id = self._name(name)
        spans = self.spans
        stack = self._stack
        main = self._main

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != main:
                # Executor threads (the DT log's slow-fsync path) get
                # root spans and stay off the main thread's stack.
                start = now_ns()
                try:
                    return function(*args, **kwargs)
                finally:
                    spans.append((name_id, start, now_ns(), -1, None))
            parent, inherited = stack[-1] if stack else (-1, None)
            txn = txn_of(*args, **kwargs) if txn_of is not None else None
            if txn is None:
                txn = inherited
            index = len(spans)
            spans.append(None)
            stack.append((index, txn))
            start = now_ns()
            try:
                return function(*args, **kwargs)
            finally:
                end = now_ns()
                stack.pop()
                spans[index] = (name_id, start, end, parent, txn)

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        txn_of: Optional[Callable[..., Optional[int]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        setattr(owner, attr, self.timed(name, getattr(owner, attr), txn_of))

    def to_json(self) -> dict[str, Any]:
        return {
            "names": self.names,
            # A span still open at dump time (none should be) keeps its
            # slot so parent indices stay valid; analysis skips it.
            "spans": [
                list(span) if span is not None else [-1, 0, 0, -1, None]
                for span in self.spans
            ],
        }


def self_times_ns(doc: dict[str, Any], start_ns: int, end_ns: int) -> dict[str, int]:
    """Sum each span name's self time over spans inside a window.

    Self time is a span's duration minus the durations of its direct
    children, so nested layers are never counted twice.
    """
    names = doc["names"]
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for name_id, start, end, parent, _txn in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals: dict[str, int] = {}
    for index, (name_id, start, end, _parent, _txn) in enumerate(spans):
        if name_id < 0 or start < start_ns or end > end_ns:
            continue
        name = names[name_id]
        totals[name] = totals.get(name, 0) + (end - start) - child_ns[index]
    return totals


def durations_ns(doc: dict[str, Any], name: str) -> list[int]:
    """Inclusive durations of every span called ``name``."""
    if name not in doc["names"]:
        return []
    name_id = doc["names"].index(name)
    return [end - start for nid, start, end, _p, _t in doc["spans"] if nid == name_id]


def count_in_window(doc: dict[str, Any], name: str, start_ns: int, end_ns: int) -> int:
    if name not in doc["names"]:
        return 0
    name_id = doc["names"].index(name)
    return sum(
        1
        for nid, start, end, _p, _t in doc["spans"]
        if nid == name_id and start >= start_ns and end <= end_ns
    )
