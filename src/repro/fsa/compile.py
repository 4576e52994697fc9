"""Kept only for ``perfbench/micro.py``, which imports :func:`interpreted_engine`.

The engine has a single implementation: it interprets the
:class:`~repro.fsa.automaton.SiteAutomaton` directly, the same model the
analysis layer reasons about.  The context manager below is a no-op so
the benchmark's "interpreted" timing keeps its import.
"""

from __future__ import annotations

import contextlib
from typing import Iterator


@contextlib.contextmanager
def interpreted_engine() -> Iterator[None]:
    """No-op: every engine interprets its automaton."""
    yield
