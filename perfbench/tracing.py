"""In-memory spans around calls into lmmbic's public functions.

A Tracer replaces a function where its callers look it up with a
wrapper that records one span per call: name, start, end and parent.
Spans come from a single call stack, so the children of a span never
overlap, and a span's self time is its duration minus the summed
durations of its children.

When the outermost traced call returns, the finished tree is summarized
per span name and handed to `sink` together with the results the
wrappers were asked to keep, then dropped.  A forked pool worker
inherits the wrappers and flushes at each of its own outermost calls,
so memory stays bounded by one tree.
"""

from __future__ import annotations

import time

import numpy as np

_NAME, _PARENT, _START, _END, _RAISED = range(5)


def self_times(parents: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Duration minus the time covered by children, for every span.

    parents[i] is the index of span i's parent, or -1 for a root.
    Children of one span must not overlap, which holds for spans taken
    from one call stack.
    """
    has_parent = parents >= 0
    covered = np.bincount(
        parents[has_parent], weights=durations[has_parent], minlength=durations.size
    )
    return durations - covered


def summarize(spans: list[list]) -> dict[str, dict]:
    """Per span name: inclusive durations, self times and raise count."""
    if not spans:
        return {}
    names = [s[_NAME] for s in spans]
    parents = np.array([s[_PARENT] for s in spans], dtype=np.int64)
    durations = np.array([s[_END] - s[_START] for s in spans])
    own = self_times(parents, durations)
    index: dict[str, list[int]] = {}
    for i, name in enumerate(names):
        index.setdefault(name, []).append(i)
    return {
        name: {
            "dur": durations[rows],
            "self": own[rows],
            "raised": int(sum(spans[i][_RAISED] for i in rows)),
        }
        for name, rows in ((n, np.array(r)) for n, r in index.items())
    }


def merge(summaries) -> dict[str, dict]:
    """Concatenate per-name summaries from several span trees."""
    parts: dict[str, dict] = {}
    for summary in summaries:
        for name, layer in summary.items():
            slot = parts.setdefault(name, {"dur": [], "self": [], "raised": 0})
            slot["dur"].append(layer["dur"])
            slot["self"].append(layer["self"])
            slot["raised"] += layer["raised"]
    return {
        name: {
            "dur": np.concatenate(slot["dur"]),
            "self": np.concatenate(slot["self"]),
            "raised": slot["raised"],
        }
        for name, slot in parts.items()
    }


class Tracer:
    """Wraps functions in place and records their calls as spans.

    sink(summary, kept) receives each finished tree: `summary` as
    returned by summarize(), `kept` the (name, args, result) triples of
    calls wrapped with keep=True.
    """

    def __init__(self, sink):
        self.sink = sink
        self._patched: list[tuple[object, str, object]] = []
        self._spans: list[list] = []
        self._kept: list[tuple] = []
        self._stack: list[int] = [-1]

    def wrap(self, owner, attr: str, name: str, keep: bool = False) -> None:
        original = getattr(owner, attr)
        spans, kept, stack = self._spans, self._kept, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, stack[-1], 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            span[_START] = clock()
            try:
                result = original(*args, **kwargs)
                if keep:
                    kept.append((name, args, result))
                return result
            except BaseException:
                span[_RAISED] = True
                raise
            finally:
                span[_END] = clock()
                stack.pop()
                if len(stack) == 1:
                    self._flush()

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def _flush(self) -> None:
        summary = summarize(self._spans)
        kept = list(self._kept)
        self._spans.clear()
        self._kept.clear()
        self.sink(summary, kept)

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
