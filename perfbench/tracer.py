"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around calls into the program's public module attributes
(the functions its callers look up by name), plus the benchmark's own spans
around each pass and each CLI call.  A span is a list
`[id, parent_id, name, start, end, note]`; spans stay in memory and are
written out when the run ends.
"""
from __future__ import annotations

import functools
import time
import warnings
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), 0.0, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str, note=None,
             count_warnings: bool = False) -> None:
        """Replace `owner.attr` with a traced version until `uninstall`.

        `note(args, result)` may return a dict stored on the span.  With
        `count_warnings` every warning raised inside the call is recorded
        (none is dropped by the once-per-location rule) and counted on the
        span instead of being printed.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                if count_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = original(*args, **kwargs)
                    span[5] = {"warnings": len(caught)}
                else:
                    result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if note is not None:
                span[5] = note(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def summarize(spans: list[list], keep_durations=()) -> dict:
    """Per-name totals and per-layer self times for the spans of one pass.

    The first span is the pass itself; its self time is the part of the pass
    no program call accounts for.  A span's layer is its name up to the
    first dot.  Single-call durations are kept for the names listed in
    `keep_durations`.
    """
    child_time: dict[int, float] = {}
    for sid, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_layer: dict[str, float] = {}
    notes: dict[str, list] = {}
    for sid, _, name, start, end, note in spans[1:]:
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + dur - child_time.get(sid, 0.0)
        if note is not None:
            notes.setdefault(name, []).append(note)
    root = spans[0]
    wall = root[4] - root[3]
    return {
        "wall": wall,
        "unattributed": wall - child_time.get(root[0], 0.0),
        "total": total,
        "calls": calls,
        "self": self_by_layer,
        "notes": notes,
        "durations": {name: [s[4] - s[3] for s in spans[1:] if s[2] == name]
                      for name in keep_durations},
    }
