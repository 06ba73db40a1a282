"""In-memory spans recorded from outside the program.

A :class:`Tracer` wraps public functions of ``src/repro`` (the table in
``layers.py``) for the length of one traced stream and removes every
wrapper afterwards; nothing in ``src/`` knows it exists.  A span is
``[name, start, end, parent, round_id, value]``:

- ``parent`` is the span that was open on the same thread when this one
  started.  A span that starts on a thread with nothing open (the TCP
  transport serves nodes on an event-loop thread) is adopted by the
  ``Transport.request`` the main thread is blocked in, so a request's
  self time is what no local handler, encode or decode accounts for.
- ``round_id`` is read from the call where one is at hand (an envelope,
  a coordinator, a ``Round``) and inherited from the parent otherwise;
  a top-level span without one takes the round of the last call that
  had one (a serve process mixes on a pool thread right after the MIX
  envelope that asked for it).
- ``value`` is a byte or item count taken at the same boundary.

Self time is a span's duration minus the part its child spans cover.
Clocks are ``time.perf_counter`` — CLOCK_MONOTONIC on Linux, one clock
for every process of the host, so serve-process spans line up with the
coordinator's.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

NAME, START, END, PARENT, ROUND, VALUE = range(6)

Span = list


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.last_round: Optional[int] = None
        self._local = threading.local()
        #: Transport.request spans open on the main thread, innermost last
        self._requests: List[Span] = []
        #: (owner namespace or class, attribute, original value)
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        fn: Callable,
        name: str,
        round_of: Optional[Callable] = None,
        value_of: Optional[Callable] = None,
        label_of: Optional[Callable] = None,
        is_request: bool = False,
    ) -> Callable:
        """``fn`` recorded as a span called ``name`` (or ``name`` +
        ``label_of(args)``); ``round_of(args, kwargs)`` and
        ``value_of(args, result)`` read the round id and the value."""
        spans = self.spans
        local = self._local
        requests = self._requests
        clock = time.perf_counter
        main = threading.main_thread()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            elif requests and threading.current_thread() is not main:
                parent = requests[-1]
            else:
                parent = None
            round_id = round_of(args, kwargs) if round_of is not None else None
            if round_id is not None:
                self.last_round = round_id
            elif parent is not None:
                round_id = parent[ROUND]
            else:
                round_id = self.last_round
            label = name + label_of(args) if label_of is not None else name
            span = [label, clock(), 0.0, parent, round_id, 0]
            spans.append(span)
            stack.append(span)
            if is_request:
                requests.append(span)
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    span[VALUE] = value_of(args, result)
                return result
            finally:
                span[END] = clock()
                stack.pop()
                if is_request:
                    requests.pop()

        return traced

    def patch_method(self, cls: type, attr: str, name: str, **how) -> None:
        """Wrap ``cls.attr`` in place (plain, class or static method)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, name, **how))
        else:
            wrapped = self.wrap(raw, name, **how)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def patch_function(self, module, attr: str, name: str, **how) -> None:
        """Wrap a module-level function wherever ``repro`` modules have
        bound it (``from x import f`` copies the reference)."""
        fn = getattr(module, attr)
        wrapped = self.wrap(fn, name, **how)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is fn:
                    self._patches.append((namespace, key, fn))
                    namespace[key] = wrapped

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def export_spans(spans: List[Span]) -> List[list]:
    """Spans as JSON-ready rows with parents as row indexes."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [
        [
            span[NAME], span[START], span[END],
            index[id(span[PARENT])] if span[PARENT] is not None else None,
            span[ROUND], span[VALUE],
        ]
        for span in spans
    ]


def import_spans(rows: List[list]) -> List[Span]:
    """Inverse of :func:`export_spans` (parents back to references)."""
    spans = [list(row) for row in rows]
    for span in spans:
        if span[PARENT] is not None:
            span[PARENT] = spans[span[PARENT]]
    return spans


# -- span arithmetic ---------------------------------------------------

def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """``id(span) -> self time``: duration minus the part of that
    interval its child spans cover (children of one parent run one
    after another, so their durations add up)."""
    out: Dict[int, float] = {}
    for span in spans:
        out[id(span)] = out.get(id(span), 0.0) + span[END] - span[START]
        parent = span[PARENT]
        if parent is not None:
            lo = max(span[START], parent[START])
            hi = min(span[END], parent[END])
            out[id(parent)] = out.get(id(parent), 0.0) - max(0.0, hi - lo)
    return out


def outermost(spans: Iterable[Span], prefixes: Tuple[str, ...]) -> List[Span]:
    """Spans whose name starts with one of ``prefixes`` and that have
    no ancestor that does: nested calls of one kind count once."""
    picked = []
    for span in spans:
        if not span[NAME].startswith(prefixes):
            continue
        ancestor = span[PARENT]
        while ancestor is not None and not ancestor[NAME].startswith(prefixes):
            ancestor = ancestor[PARENT]
        if ancestor is None:
            picked.append(span)
    return picked


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, edge = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total
