"""Benchmark-side tracing: spans around the calls into each repro layer.

Nothing here edits ``repro``.  A traced pass wraps public entry points
from outside, for the length of the pass only:

* :class:`TracedPipeline` is a ``MechanismPipeline`` handed to
  ``simulate(..., hooks=)``; after ``attach()`` it re-wraps the nine
  per-event hook attributes the core calls, so mechanism time is
  separated from core-loop time;
* :func:`patched` swaps module and class attributes (``run_key``,
  ``execute_jobs_observed``, ``ResultCache.get`` ...) for timing
  wrappers at the sites that look them up, and restores them on exit.

A span is a dict with ``id``, ``name``, ``run``, ``parent``, ``start``
and ``end`` (``time.perf_counter`` seconds), plus optional attributes.
Spans stay in memory and are written out when the benchmark ends.  Hook
calls are too frequent for one span each (about 120k ``on_dispatch``
calls per exact-ci round), so they are aggregated on the enclosing
simulate span as ``hooks: {name: [calls, seconds]}``.
"""

from __future__ import annotations

import contextlib
import functools
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ci.pipeline import MechanismPipeline

clock = time.perf_counter

#: the per-event ``MechanismHooks`` methods the core calls; ``attach``
#: runs once, before the wrappers can be installed
HOOKS = ("dispatch_gate", "on_dispatch", "on_branch_resolved", "on_recovery",
         "on_commit", "on_store_commit", "on_cycle", "next_event_cycle",
         "validated_extra_latency")


class Tracer:
    """In-memory span recorder for one traced run of a workload."""

    def __init__(self, run: str):
        self.run = run
        self.spans: List[dict] = []
        self._open: List[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[dict]:
        rec = {"id": f"{self.run}#{len(self.spans)}", "name": name,
               "run": self.run,
               "parent": self._open[-1]["id"] if self._open else None,
               "start": clock(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = clock()
            self._open.pop()

    def innermost(self) -> dict:
        return self._open[-1]

    def wrapper(self, name: str,
                note: Optional[Callable[[object, tuple], dict]] = None):
        """A factory for :func:`patched`: time each call as a ``name`` span.

        ``note(result, args)`` may add attributes (a job count, a cache
        hit) to the span.
        """
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name) as rec:
                    result = fn(*args, **kwargs)
                    if note is not None:
                        rec.update(note(result, args))
                    return result
            return traced
        return make


@contextlib.contextmanager
def patched(targets: Sequence[Tuple[object, str, Callable]]) -> Iterator[None]:
    """Replace ``owner.attr`` with ``make(original)`` for the block."""
    saved = []
    try:
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _timed(fn: Callable, slot: list) -> Callable:
    def timed(*args):
        t0 = clock()
        result = fn(*args)
        slot[1] += clock() - t0
        slot[0] += 1
        return result
    return timed


class TracedPipeline(MechanismPipeline):
    """The CI mechanism with every per-event hook counted and timed.

    Totals land on the span that is innermost when the core attaches the
    mechanism, i.e. the simulate span around the run.
    """

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def attach(self, core) -> None:
        super().attach(core)
        totals = self._tracer.innermost().setdefault("hooks", {})
        for name in HOOKS:
            setattr(self, name,
                    _timed(getattr(self, name),
                           totals.setdefault(name, [0, 0.0])))


def runtime_targets(tracer: Tracer) -> list:
    """Wrappers for the runtime layer: runner, pool, keys, result cache."""
    from repro.runtime import cache, parallel
    return [
        (parallel.ParallelRunner, "run_many",
         tracer.wrapper("runtime.run_many")),
        (parallel, "execute_jobs_observed",
         tracer.wrapper("runtime.pool", lambda _r, a: {"jobs": len(a[0])})),
        (parallel, "run_key", tracer.wrapper("runtime.key")),
        (cache.ResultCache, "get",
         tracer.wrapper("runtime.cache.get",
                        lambda r, _a: {"hit": int(r is not None)})),
        (cache.ResultCache, "put", tracer.wrapper("runtime.cache.put")),
    ]


class SpanSet:
    """Arithmetic over recorded spans: totals, self time, hook sums."""

    def __init__(self, spans: Sequence[dict]):
        self.spans = list(spans)
        self._by_id = {s["id"]: s for s in self.spans}
        self._children: Dict[str, List[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                self._children.setdefault(s["parent"], []).append(s)

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def named(self, name: str) -> List[dict]:
        return [s for s in self.spans if s["name"] == name]

    def outermost(self, name: str) -> List[dict]:
        """Spans called ``name`` with no ancestor of the same name
        (a re-entrant call, like ``run_many`` expanding sampled runs,
        is counted once)."""
        out = []
        for s in self.named(name):
            parent = s["parent"]
            while parent is not None and self._by_id[parent]["name"] != name:
                parent = self._by_id[parent]["parent"]
            if parent is None:
                out.append(s)
        return out

    def total(self, name: str) -> float:
        return sum(self.duration(s) for s in self.outermost(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def attr(self, name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in self.named(name))

    def self_time(self, span: dict) -> float:
        """The span's duration minus the part its child spans cover
        (children of one thread never overlap, so their sum)."""
        return self.duration(span) - sum(
            self.duration(c) for c in self._children.get(span["id"], ()))

    def hooks(self) -> Dict[str, List[float]]:
        """Hook calls and seconds, summed over every simulate span."""
        out: Dict[str, List[float]] = {h: [0, 0.0] for h in HOOKS}
        for s in self.spans:
            for hook, (calls, secs) in s.get("hooks", {}).items():
                out[hook][0] += calls
                out[hook][1] += secs
        return out

    def summary(self) -> Dict[str, dict]:
        """Per span name: count, total (outermost) and self seconds."""
        out: Dict[str, dict] = {}
        for s in self.spans:
            row = out.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            row["count"] += 1
            row["self_s"] += self.self_time(s)
        for name, row in out.items():
            row["total_s"] = self.total(name)
        return out
