"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  Spans live in memory while the run
goes and are written out once at exit.  The recorder attaches to the
program from outside: :meth:`Tracer.patch` replaces an attribute at the site
its callers look it up (a module global, a class attribute or a dict entry)
with a wrapper, and :meth:`Tracer.unpatch_all` puts every original back.
Functions called once per book row are patched with ``count_only``: they
are counted but never spanned, because a span per row would cost more than
the work it measures.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable

NS = 1e-9


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter[str] = Counter()
        #: Set to False to call straight through the installed wrappers, e.g.
        #: while the benchmark checks an op's output with program code.
        self.enabled = True
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans -------------------------------------------------------------------------

    def open(self, name: str, start_ns: int | None = None) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(perf_counter_ns() if start_ns is None else start_ns)
        self.ends.append(-1)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(index)
        return index

    def close(self, index: int, end_ns: int | None = None) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")
        self._stack.pop()
        self.ends[index] = perf_counter_ns() if end_ns is None else end_ns

    def duration_s(self, index: int) -> float:
        return (self.ends[index] - self.starts[index]) * NS

    def self_times_s(self, first: int = 0, last: int | None = None) -> list[float]:
        """Self time of spans ``first..last-1``: duration minus the part of
        it that the span's direct children cover."""
        last = len(self.names) if last is None else last
        children: dict[int, list[tuple[int, int]]] = {}
        for i in range(first, last):
            children.setdefault(self.parents[i], []).append((self.starts[i], self.ends[i]))
        return [
            self.duration_s(i) - covered_ns(children.get(i, [])) * NS
            for i in range(first, last)
        ]

    # -- patching ----------------------------------------------------------------------

    def wrap(self, fn: Callable, name: str,
             on_call: Callable[..., None] | None = None,
             on_result: Callable[[Any], None] | None = None) -> Callable:
        """``fn`` behind a span named ``name``; ``on_call(*args, **kwargs)``
        and ``on_result(result)`` run outside the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.counts[name] += 1
            if on_call is not None:
                on_call(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def count_only(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Install ``replacement`` at ``owner.attr`` (or ``owner[attr]`` for a dict)."""
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = replacement
        else:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- output ------------------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in start order; times in ns from the first span."""
        origin = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({"i": i, "name": name, "parent": self.parents[i],
                                     "start_ns": self.starts[i] - origin,
                                     "end_ns": self.ends[i] - origin}) + "\n")


def covered_ns(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of ``[start, end)`` intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total
