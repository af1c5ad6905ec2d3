"""The process-wide structured event bus (near-zero cost when off).

Instrumented call sites across the engines are written as::

    from ..obs import bus as obs_bus
    ...
    if obs_bus.ACTIVE:
        obs_bus.emit(events.GRAFT_APPLIED, document=..., service=..., ...)

``ACTIVE`` is a plain module-level bool, so a disabled bus costs one
attribute load and a branch per instrumentation point (about 5 ns a
guard; historical, ``BENCH_pr3.json``).  Payload keyword arguments are
only built *inside* the guard, so no allocation happens when tracing is
off (``tests/test_obs_trace.py`` checks this under ``tracemalloc``).
perfbench ``--trace 1`` reports what tracing costs end to end.

Dispatch is synchronous and in-order (events carry a global sequence
number); a subscriber that raises is counted in ``dropped`` and in
``perf.stats.obs_dropped`` rather than crashing the engine mid-graft.
Emission is mirrored into ``perf.stats.obs_events`` so the perf
switchboard and the metrics registry agree on how much tracing happened
(the mirror-consistency tests assert exactly that).

Subscribers may register for a *subset* of kinds —
``subscribe(fn, kinds={"serve_op", "span"})`` — in which case ``fn`` is
only called for those kinds; a serve-layer exporter then pays nothing
for the hot-path graft events.  A bare ``subscribe(fn)`` still receives
everything.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from .. import perf
from .events import Event

Subscriber = Callable[[Event], None]

ACTIVE: bool = False

_subscribers: List[Subscriber] = []
_kind_subscribers: Dict[str, List[Subscriber]] = {}
_seq = itertools.count()

emitted: int = 0   # events successfully dispatched since process start
dropped: int = 0   # subscriber exceptions swallowed


def enable() -> None:
    """Turn the process-wide instrumentation on."""
    global ACTIVE
    ACTIVE = True


def disable() -> None:
    """Turn instrumentation off; subscribers stay registered."""
    global ACTIVE
    ACTIVE = False


def enabled() -> bool:
    return ACTIVE


def subscribe(fn: Subscriber,
              kinds: Optional[Iterable[str]] = None) -> None:
    """Register ``fn``; with ``kinds`` it only sees those event kinds.

    Re-subscribing the same callable replaces its previous registration
    (wildcard or filtered), so tightening a filter never double-delivers.
    """
    unsubscribe(fn)
    if kinds is None:
        _subscribers.append(fn)
        return
    for kind in kinds:
        _kind_subscribers.setdefault(kind, []).append(fn)


def unsubscribe(fn: Subscriber) -> None:
    try:
        _subscribers.remove(fn)
    except ValueError:
        pass
    for kind in [k for k, fns in _kind_subscribers.items() if fn in fns]:
        _kind_subscribers[kind].remove(fn)
        if not _kind_subscribers[kind]:
            del _kind_subscribers[kind]


def subscriber_count() -> int:
    distinct = set(_subscribers)
    for fns in _kind_subscribers.values():
        distinct.update(fns)
    return len(distinct)


def emit(kind: str, **data: Any) -> None:
    """Build and dispatch one event (no-op while the bus is disabled).

    Callers should guard with ``if bus.ACTIVE:`` so the payload dict is
    never built on the off path; the re-check here keeps a bare
    ``emit()`` call safe too.
    """
    global emitted, dropped
    if not ACTIVE:
        return
    event = Event(kind, next(_seq), time.perf_counter(), time.time(), data)
    emitted += 1
    perf.stats.obs_events += 1
    targeted = _kind_subscribers.get(kind)
    receivers = _subscribers + targeted if targeted else _subscribers
    for fn in list(receivers):
        try:
            fn(event)
        except Exception:
            dropped += 1
            perf.stats.obs_dropped += 1


def reset() -> None:
    """Disable, forget subscribers and zero the counters (test isolation)."""
    global ACTIVE, emitted, dropped, _seq
    ACTIVE = False
    _subscribers.clear()
    _kind_subscribers.clear()
    emitted = 0
    dropped = 0
    _seq = itertools.count()
