"""In-memory spans recorded around the program's public entry points.

The traced run never edits the program: :class:`Tracer` replaces a
function or method *attribute* with a wrapper that records one span per
call and restores the original on :meth:`Tracer.uninstall`.  A span is
``(id, name, start, end, parent, thread)`` plus optional attributes
(bytes, rows, config keys).  Spans stay in memory and are written out as
JSON lines when the run ends (:meth:`Tracer.dump`); the metrics are
computed from the written file, so an in-process workload and the
service's own process go through the same code.

Self time
    A synchronous span's parent is the innermost open span on the same
    thread; its self time is its duration minus its direct children's.
    An ``async`` entry point (``Batcher.submit``) interleaves with other
    tasks on the event loop, so it has no thread parent: it carries the
    config keys it served, and its self time is its duration minus the
    spans (on any thread) that worked on one of those keys inside its
    interval — the cache probe and the simulation run.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

_clock = time.perf_counter


class Tracer:
    """Records spans for wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap_sync(self, name: str | Callable[..., str], fn, attrs) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = attrs(args, kwargs) if attrs is not None else {}
            args = extra.pop("_args", args)
            kwargs = extra.pop("_kwargs", kwargs)
            on_result = extra.pop("_result", None)
            span_id = next(tracer._ids)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                rec = {
                    "id": span_id,
                    "name": name(args) if callable(name) else name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "thread": threading.get_ident(),
                }
                rec.update(extra)
                tracer.spans.append(rec)
            if on_result is not None:
                rec.update(on_result(out))
            return out

        return wrapper

    def _wrap_async(self, name: str, fn, attrs) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            extra = attrs(args, kwargs) if attrs is not None else {}
            span_id = next(tracer._ids)
            start = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                rec = {
                    "id": span_id,
                    "name": name,
                    "start": start,
                    "end": _clock(),
                    "parent": None,
                    "thread": threading.get_ident(),
                }
                rec.update(extra)
                tracer.spans.append(rec)

        return wrapper

    def patch(
        self,
        owner: Any,
        attr: str,
        name: str | Callable[..., str],
        attrs: Callable[[tuple, dict], dict] | None = None,
        is_async: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(args, kwargs)`` runs before the clock starts and returns
        extra span fields.  It may also return ``_args``/``_kwargs`` to
        replace the call's arguments (a generator argument materialised so
        its keys can be recorded) and ``_result``, a callback mapping the
        return value to more fields.
        """
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original, attrs, is_async))
        self._patched.append((owner, attr, original))

    def wrap(
        self,
        name: str | Callable[..., str],
        fn: Callable,
        attrs: Callable[[tuple, dict], dict] | None = None,
        is_async: bool = False,
    ) -> Callable:
        """``fn`` wrapped to record a span per call (see :meth:`patch`)."""
        if is_async:
            return self._wrap_async(name, fn, attrs)
        return self._wrap_sync(name, fn, attrs)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def load(path: Path) -> list[dict[str, Any]]:
    """Spans written by :meth:`Tracer.dump` (empty if the file is missing)."""
    if not path.exists():
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: Iterable[dict[str, Any]]) -> dict[int, float]:
    """Span id -> self time in seconds (see the module docstring)."""
    spans = list(spans)
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out = {s["id"]: s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in spans}

    keyed = [s for s in spans if s.get("keys") and s["parent"] is None and s.get("served")]
    workers = [s for s in spans if s.get("keys") and not s.get("served")]
    if keyed and workers:
        workers.sort(key=lambda s: s["start"])
        starts = [s["start"] for s in workers]
        for s in keyed:
            key = s["keys"][0]
            lo = bisect.bisect_left(starts, s["start"])
            linked = 0.0
            for w in workers[lo:]:
                if w["start"] > s["end"]:
                    break
                if w["end"] <= s["end"] and key in w["keys"]:
                    linked += w["end"] - w["start"]
            out[s["id"]] -= linked
    return out
