"""In-memory spans recorded around the library calls a workload makes.

The tracer never edits drifterm: it swaps a module attribute for a
wrapper while a traced call runs and puts the original back afterwards.
Only names looked up through that module attribute are traced, which is
how `drifterm.harness` and `drifterm.risk` reach every layer below them.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

LAYERS = ("harness", "processes", "weights", "mixing", "rates", "hypotheses", "risk")


class Tracer:
    """Records spans as (name, start, end, parent index, attributes)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []

    def span(self, name: str, fn, attrs_of=None):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``attrs_of(kwargs, result)`` may return a dict stored on the span.
        """

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, None)
            if attrs_of is not None:
                self.spans[index] = (name, start, end, parent, attrs_of(kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Trace ``(module, attribute, span name, attrs_of)`` targets for the block."""
        saved = []
        try:
            for module, attr, name, attrs_of in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.span(name, original, attrs_of))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: str) -> None:
        """Write every span as one JSON line: [name, start, end, parent, attrs]."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")))
                f.write("\n")


def summarize(spans, root: int) -> dict:
    """Per-layer figures for the root span at index ``root`` and its descendants.

    Busy time (``<name>_s``) is the summed duration of every span with that
    name; self time subtracts the time covered by direct children, so the
    layer shares add up to the root's duration.
    """
    members = {root}
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    child_time: dict[int, float] = defaultdict(float)
    attrs = []
    for index in range(root + 1, len(spans)):
        name, start, end, parent, extra = spans[index]
        if parent not in members:
            continue
        members.add(index)
        busy[name] += end - start
        calls[name] += 1
        child_time[parent] += end - start
        if extra:
            attrs.append(extra)
    layer_self: dict[str, float] = defaultdict(float)
    for index in members:
        name, start, end, _, _ = spans[index]
        layer_self[name.split(".", 1)[0]] += (end - start) - child_time[index]
    root_name, root_start, root_end, _, _ = spans[root]
    return {
        "root": root_name,
        "wall": root_end - root_start,
        "root_self": (root_end - root_start) - child_time[root],
        "busy": dict(busy),
        "calls": dict(calls),
        "layer_self": dict(layer_self),
        "attrs": attrs,
    }
