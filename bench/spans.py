"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start_ns, end_ns, parent, op]``: ``parent`` is the index
of the enclosing span (or None) and ``op`` the operation it belongs to.
Spans stay in a list until the run ends; nothing is written while timing.
Counters are summed per name at the same boundaries.

Stage functions are looked up by name and their signature is bound before
the call, so a stage that a later version of the program removes or
reshapes is recorded as absent instead of crashing the run.
"""

from __future__ import annotations

import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional


class StageAbsent(Exception):
    """A stage function is missing or no longer accepts the benchmark's call."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.absent: set[str] = set()
        self.op: Optional[int] = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter_ns(), 0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def stage(self, name: str, owner: Any, attr: str, *args: Any, **kwargs: Any) -> Any:
        """Call ``owner.attr(*args, **kwargs)`` inside a span named ``name``.

        Raises StageAbsent when the attribute is gone or the arguments no
        longer bind; errors raised by the call itself propagate unchanged.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.add(name)
            raise StageAbsent(name)
        try:
            inspect.signature(fn).bind(*args, **kwargs)
        except TypeError:
            self.absent.add(name)
            raise StageAbsent(name) from None
        except ValueError:
            pass  # no introspectable signature; let the call decide
        with self.span(name):
            return fn(*args, **kwargs)

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the time its child spans cover.

        Children of one span never overlap (one thread), so the covered
        time is the sum of the children's durations.
        """
        out = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def leaf_share(self, root: str) -> float:
        """Share of the ``root`` spans' time that their leaf spans cover.

        Everything else is self time of enclosing spans: glue between the
        stages that no stage span accounts for.
        """
        parents = [rec[3] for rec in self.spans]
        has_child = {p for p in parents if p is not None}
        own = self.self_ns()
        leaves = total = 0
        for i, rec in enumerate(self.spans):
            top = i
            while parents[top] is not None:
                top = parents[top]
            if self.spans[top][0] != root:
                continue
            if i == top:
                total += rec[2] - rec[1]
            elif i not in has_child:
                leaves += own[i]
        return leaves / total if total else 0.0

    def durations_s(self, name: str) -> float:
        """Total wall seconds of all spans called ``name``, children included."""
        return sum(end - start for n, start, end, _, _ in self.spans if n == name) / 1e9

    def write(self, path: Path) -> None:
        """All spans as JSON lines, with their self time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fp:
            for i, ((name, start, end, parent, op), own) in enumerate(zip(self.spans, self.self_ns())):
                fp.write(json.dumps({"id": i, "name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "self_ns": own}) + "\n")
