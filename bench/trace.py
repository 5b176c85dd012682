"""One span recorder for the traced run, installed from outside.

The benchmark never edits the program: for the traced run only,
:meth:`Recorder.wrap` replaces a public callable (a module global or a
class attribute) with a timing wrapper, and :meth:`Recorder.unwrap_all`
puts the originals back.  A span is ``(label, start, end, parent)``; a
label's *self time* is its spans' durations minus the part their child
spans cover, so the self times of all labels under one root span add up
to the root's duration exactly.

Self times and call counts are accumulated for every span.  The spans
themselves are kept in memory only up to ``keep`` (a full model-check
run opens over half a million) and written out when the run ends.  The
wrappers run on the hot path of what they time, so their bodies are
written out flat: no helper calls, the label's totals bound once.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Recorder:
    """Records nested spans on one thread."""

    def __init__(self, keep: int = 50_000) -> None:
        self.keep = keep
        #: ``(label, start, end, parent index or -1)``, first ``keep`` only.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        #: label -> ``[self seconds, calls]``
        self.totals: Dict[str, List[float]] = {}
        #: Open spans, innermost last, as ``[child seconds, span index]``;
        #: the first entry stands for "no parent" and is never popped.
        self._stack: List[List[float]] = [[0.0, -1]]
        self._installed: List[Tuple[Any, str, Any, bool]] = []

    def _total(self, label: str) -> List[float]:
        return self.totals.setdefault(label, [0.0, 0])

    def self_s(self, label: str) -> float:
        return self._total(label)[0]

    def calls(self, label: str) -> int:
        return int(self._total(label)[1])

    @contextmanager
    def span(self, label: str) -> Iterator[None]:
        """Time the enclosed block as one span."""
        spans, stack, total = self.spans, self._stack, self._total(label)
        index = -1
        if len(spans) < self.keep:
            index = len(spans)
            spans.append(None)
        frame = [0.0, index]
        stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            stack.pop()
            stack[-1][0] += end - start
            total[0] += end - start - frame[0]
            total[1] += 1
            if index >= 0:
                spans[index] = (label, start, end, stack[-1][1])

    def wrap(self, owner: Any, attr: str, label: str) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span
        per call -- or, for a generator function, one span per
        ``next()``, so time the consumer spends between items is not
        charged to the generator."""
        target = inspect.getattr_static(owner, attr)
        if isinstance(target, (staticmethod, classmethod)):
            raise TypeError(f"{owner!r}.{attr}: wrap plain functions only")
        # The attribute may be inherited: restoring then means deleting
        # the shadowing entry, not assigning the parent's object.
        own = attr in getattr(owner, "__dict__", {})
        spans, stack, keep = self.spans, self._stack, self.keep
        total = self._total(label)

        if inspect.isgeneratorfunction(target):
            def wrapper(*args, **kwargs):
                items = target(*args, **kwargs)
                while True:
                    index = -1
                    if len(spans) < keep:
                        index = len(spans)
                        spans.append(None)
                    frame = [0.0, index]
                    stack.append(frame)
                    start = perf_counter()
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        end = perf_counter()
                        stack.pop()
                        stack[-1][0] += end - start
                        total[0] += end - start - frame[0]
                        total[1] += 1
                        if index >= 0:
                            spans[index] = (label, start, end, stack[-1][1])
                    yield item
        else:
            def wrapper(*args, **kwargs):
                index = -1
                if len(spans) < keep:
                    index = len(spans)
                    spans.append(None)
                frame = [0.0, index]
                stack.append(frame)
                start = perf_counter()
                try:
                    return target(*args, **kwargs)
                finally:
                    end = perf_counter()
                    stack.pop()
                    stack[-1][0] += end - start
                    total[0] += end - start - frame[0]
                    total[1] += 1
                    if index >= 0:
                        spans[index] = (label, start, end, stack[-1][1])

        wrapper.__name__ = getattr(target, "__name__", attr)
        wrapper.__qualname__ = getattr(target, "__qualname__", attr)
        wrapper.__wrapped__ = target
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, target, own))

    def unwrap_all(self) -> None:
        """Restore every wrapped attribute, last installed first."""
        while self._installed:
            owner, attr, original, own = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines, header first."""
        opened = sum(int(total[1]) for total in self.totals.values())
        with open(path, "w") as out:
            header = {"kept": len(self.spans),
                      "dropped": opened - len(self.spans),
                      "fields": ["label", "start_s", "end_s", "parent"]}
            out.write(json.dumps(header) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")

