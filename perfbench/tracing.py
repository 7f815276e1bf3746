"""Span tracing around the public entry points of each layer.

For the traced run, :func:`install` patches each layer boundary (a method
on its class, or a function where its caller looks it up) with a wrapper
that records one span per call: name, start, end, parent span and run id.  Spans live in compact in-memory arrays and are written out
once, when the run ends.  Nothing inside the program is changed: the
wrappers only observe, so a traced run must reproduce the untraced run's
output digest exactly.

A span's *self time* is its duration minus the part of it that its child
spans cover (:func:`self_times`).  Per-layer time metrics are sums of self
time over that layer's spans, so the layers partition the traced run.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

#: Span names are ``<layer>.<operation>``; the layer is the package
#: module the boundary belongs to.  ``bench`` spans are the benchmark's
#: own setup and run phases (the roots of every tree).
LAYERS = (
    "sim", "cluster", "routing", "loop", "telemetry", "metrics",
    "placement", "membership", "workloads", "proto", "fs",
)


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the union of its children's
    intervals, each clipped to the parent.

    ``start``/``end`` are integer nanoseconds; ``parent[i]`` is the index
    of span ``i``'s parent, or -1 for a root.  Exact integer arithmetic:
    the per-parent union is a running maximum over children sorted by
    (parent, start), kept apart per parent by a per-group offset larger
    than the whole time range.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    own = end - start
    children = np.flatnonzero(parent >= 0)
    if not len(children):
        return own
    p = parent[children]
    base = int(start.min())
    s = np.maximum(start[children], start[p]) - base
    e = np.minimum(end[children], end[p]) - base
    e = np.maximum(e, s)
    order = np.lexsort((s, p))
    p, s, e = p[order], s[order], e[order]
    span = int(max(e.max(), s.max())) + 1
    _, group = np.unique(p, return_inverse=True)
    offset = group.astype(np.int64) * span
    # Running max of ends within a parent group; the group's first child
    # sees its parent's (offset) start, i.e. nothing covered yet.
    reach = np.maximum.accumulate(e + offset)
    prev = np.empty_like(reach)
    prev[0] = offset[0]
    prev[1:] = reach[:-1]
    prev = np.maximum(prev, offset)
    covered = np.maximum(e + offset - np.maximum(s + offset, prev), 0)
    return own - np.bincount(p, weights=covered, minlength=len(own)).astype(np.int64)


class Tracer:
    """Records spans from wrapped callables; restores them on ``close``."""

    def __init__(self, run_id: int = 0) -> None:
        #: Stamped on every span (the benchmark uses the run's seed).
        self.run = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name_id = array("q")
        self.run_id = array("q")
        self.calls: dict[str, int] = {}
        self.tallies: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def span(self, name: str, fn: Callable, tally: Callable[[Any], dict] | None = None):
        """``fn`` wrapped to record a span named ``name`` per call.

        ``tally(result)`` may return counts to add to :attr:`tallies`
        (for outcomes no result object exposes, such as how many policy
        updates changed the assignment).
        """
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        start, end, parent, name_id, run_id = (
            self.start, self.end, self.parent, self.name_id, self.run_id
        )
        stack = self._stack
        clock = time.perf_counter_ns
        tallies = self.tallies
        run = self.run

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1] if stack else -1)
            name_id.append(nid)
            run_id.append(run)
            end.append(0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if tally is not None:
                for key, value in tally(result).items():
                    tallies[key] = tallies.get(key, 0) + value
            return result

        return wrapper

    def counter(self, name: str, fn: Callable):
        """``fn`` wrapped to count calls under ``name`` (no span: used
        where a span per call would dominate what it measures)."""
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner: Any, attr: str, wrapped: Callable) -> None:
        """Replace ``owner.attr`` until :meth:`close`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def close(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as NumPy columns."""
        return {
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "run_id": np.frombuffer(self.run_id, dtype=np.int64),
        }

    def summary(self, root: str) -> dict[str, dict[str, float]]:
        """Per span name, over the trees under root spans named ``root``:
        calls, inclusive seconds and self seconds."""
        cols = self.arrays()
        own = self_times(cols["start"], cols["end"], cols["parent"])
        ids = cols["name_id"]
        # Spans nest, so every span belongs to the last root opened
        # before it.
        roots = np.flatnonzero(cols["parent"] < 0)
        root_of = roots[np.searchsorted(roots, np.arange(len(ids)), side="right") - 1]
        keep = ids[root_of] == self._name_ids[root]
        ids, own = ids[keep], own[keep]
        inclusive = (cols["end"] - cols["start"])[keep]
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        inclusive = np.bincount(ids, weights=inclusive, minlength=n)
        selfs = np.bincount(ids, weights=own, minlength=n)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(inclusive[i]) / 1e9,
                "self_s": float(selfs[i]) / 1e9,
            }
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write the spans (``.npz``) and their name table (``.json``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.arrays()
        np.savez(path.with_suffix(".npz"), **cols)
        path.with_suffix(".json").write_text(
            json.dumps({"names": self.names, "columns": list(cols)}) + "\n"
        )


def _subclasses(cls: type) -> list[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return [cls, *found]


def _wrap_methods(tracer: Tracer, base: type, attr: str, name: str, tally=None) -> None:
    """Span every own definition of ``attr`` on ``base`` and subclasses."""
    for cls in _subclasses(base):
        if attr in cls.__dict__ and callable(cls.__dict__[attr]):
            tracer.patch(cls, attr, tracer.span(name, cls.__dict__[attr], tally))


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the traced run observes."""
    from repro.cluster import cluster as cluster_mod
    from repro.cluster.cluster import ClusterSimulation
    from repro.cluster.server import MetadataServer
    from repro.core.interval import MappedInterval
    from repro.fs import workload as fs_workload
    from repro.fs.cluster import FileSetRegistry, MetadataCluster
    from repro.fs.service import MetadataService
    from repro.fs.simulation import FullSystemSimulation
    from repro.membership.director import MembershipDirector
    from repro.metrics.latency import LatencyCollector
    from repro.placement.base import PlacementPolicy
    from repro.proto.network import Network
    from repro.runtime.routing import RequestRouter
    from repro.runtime.telemetry import TelemetrySink
    from repro.sim.engine import Engine
    from repro.workloads import dfstrace, synthetic

    import workloads as bench_workloads

    span, patch = tracer.span, tracer.patch
    # sim: one span per fired event; heap pushes are counted only.
    patch(Engine, "step", span("sim.step", Engine.step))
    patch(Engine, "schedule_at", tracer.counter("sim.heap_pushes", Engine.schedule_at))
    # cluster: dispatch into a server facility.
    patch(MetadataServer, "submit", span("cluster.submit", MetadataServer.submit))
    # routing: replica choice (never reached at r=1).
    _wrap_methods(tracer, RequestRouter, "choose", "routing.choose")
    # loop: the TuningHost side of each delegate round.
    for host in (ClusterSimulation, FullSystemSimulation):
        patch(host, "build_tuning_context",
              span("loop.context", host.build_tuning_context))
        patch(host, "realize", span("loop.realize", host.realize))
    # placement: policy decisions, membership re-placement, replica
    # derivation (looked up by name in the cluster module) and rescaling.
    _wrap_methods(tracer, PlacementPolicy, "update", "placement.update",
                  tally=lambda new: {"placement.changed": int(new is not None)})
    _wrap_methods(tracer, PlacementPolicy, "on_membership_change", "placement.membership")
    patch(cluster_mod, "derive_owner_sets",
          span("placement.replica_refresh", cluster_mod.derive_owner_sets))
    patch(MappedInterval, "set_shares", span("placement.set_shares", MappedInterval.set_shares))
    # membership: lifecycle events through the director.
    patch(MembershipDirector, "apply",
          span("membership.apply", MembershipDirector.apply,
               tally=lambda change: {"membership.orphans": change.orphaned}))
    # metrics: sample appends, window reports, figure series.
    patch(LatencyCollector, "record", span("metrics.record", LatencyCollector.record))
    for attr in ("reports", "interval_report"):
        patch(LatencyCollector, attr, span("metrics.report", getattr(LatencyCollector, attr)))
    patch(LatencyCollector, "series", span("metrics.series", LatencyCollector.series))
    # telemetry: every sink's emit.
    _wrap_methods(tracer, TelemetrySink, "emit", "telemetry.emit")
    # proto: message sends.
    patch(Network, "send", span("proto.send", Network.send))
    # fs: semantic submission, path -> file-set resolution, execution.
    patch(MetadataCluster, "submit", span("fs.submit", MetadataCluster.submit))
    patch(FileSetRegistry, "fileset_of", span("fs.fileset_of", FileSetRegistry.fileset_of))
    patch(MetadataService, "execute", span("fs.execute", MetadataService.execute))
    # workloads: input generation, patched where the benchmark looks it up.
    patch(synthetic, "generate_synthetic",
          span("workloads.generate", synthetic.generate_synthetic))
    patch(dfstrace, "generate_dfstrace_like",
          span("workloads.generate", dfstrace.generate_dfstrace_like))
    for attr in ("generate_operations", "populate"):
        patch(fs_workload, attr, span("workloads.generate", getattr(fs_workload, attr)))
    patch(bench_workloads, "churn_schedule",
          span("workloads.generate", bench_workloads.churn_schedule))
