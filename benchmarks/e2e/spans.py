"""In-memory span recorder and timing shims for the end-to-end benchmark.

The benchmark times the round path from the outside: nothing under ``src/``
knows it is being measured.  :meth:`Tracer.wrap` replaces one public callable
on a live object with a shim that records a span around the original call;
:meth:`Tracer.patch` does the same to a name that a module or class resolves
at call time, and :meth:`Tracer.restore` puts those originals back.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index of
the span that was open when this one started (``-1`` for a top-level span) and
``op`` numbers the top-level spans, so all spans of one round (or one campaign
cell) share an identifier.  Spans stay in memory until the run ends.

The process is single-threaded, so the children of a span never overlap and a
span's *self time* is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["Tracer", "self_times", "layer_totals"]

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records spans and counts; owns the shims it installed."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.num_ops = 0
        self._open: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def shim(
        self,
        original: Callable[..., Any],
        name: str,
        on_return: "Callable[[Tracer, tuple, Any], None] | None" = None,
    ) -> Callable[..., Any]:
        """Return ``original`` wrapped in a span called ``name``.

        ``on_return(tracer, args, result)`` runs after the span has closed, so
        the counting it does is charged to the caller's self time, never to
        the layer being measured.
        """
        spans, stack = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack:
                parent, op = stack[-1], spans[stack[-1]][OP]
            else:
                parent, op = -1, self.num_ops
                self.num_ops += 1
            index = len(spans)
            row = [name, 0, 0, parent, op]
            spans.append(row)
            stack.append(index)
            row[START] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                row[END] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_return: "Callable[[Tracer, tuple, Any], None] | None" = None,
    ) -> None:
        """Shim ``owner.attr`` on a live object that dies with the run."""
        setattr(owner, attr, self.shim(getattr(owner, attr), name, on_return))

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_return: "Callable[[Tracer, tuple, Any], None] | None" = None,
    ) -> None:
        """Shim a module or class attribute until :meth:`restore`."""
        self.patch_value(owner, attr, self.shim(getattr(owner, attr), name, on_return))

    def patch_value(self, owner: Any, attr: str, value: Any) -> None:
        """Set ``owner.attr = value`` until :meth:`restore`."""
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, previous = self._patched.pop()
            setattr(owner, attr, previous)

    def reset(self) -> None:
        """Forget what was recorded so far (warm-up ops), keep the shims."""
        self.spans.clear()
        self.counts.clear()
        self.num_ops = 0

    def dump(self) -> dict[str, Any]:
        """JSON-ready form of everything recorded."""
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }


def self_times(spans: "list[list[Any]]") -> list[int]:
    """Self time (ns) of every span: duration minus direct children."""
    own = [row[END] - row[START] for row in spans]
    for row in spans:
        if row[PARENT] >= 0:
            own[row[PARENT]] -= row[END] - row[START]
    return own


def layer_totals(spans: "list[list[Any]]") -> dict[str, dict[int, list[int]]]:
    """``{name: {op: [self_ns, calls]}}`` summed over the spans of each op."""
    totals: dict[str, dict[int, list[int]]] = defaultdict(dict)
    for row, own in zip(spans, self_times(spans)):
        cell = totals[row[NAME]].setdefault(row[OP], [0, 0])
        cell[0] += own
        cell[1] += 1
    return totals
