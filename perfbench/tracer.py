"""Outside-in layer tracer for the benchmark's traced runs.

The simulator is not edited. Instead, :meth:`Tracer.installed` replaces the
public functions of each layer's classes with timing wrappers for the
duration of a ``with`` block and restores the originals afterwards. Each
wrapped call is a *span*: its cell, layer, start, end and depth (the number
of spans open around it). A layer's self time is the sum of its spans'
durations minus the time covered by their child spans.

Three kinds of span root the tree:

* the cell span, opened by the benchmark around ``System.run`` (layer
  ``kernel``), so that the event loop's own time is the kernel's self time;
* one span per fired event, through the public ``EventQueue.profiler``
  hook, in the layer that owns the callback's code;
* calls into a layer's public functions from another layer.

Callbacks handed across a layer boundary (event callbacks, tag-port grants,
``MemoryRequest.on_complete``, the load-completion and LLC-data callbacks)
run inside the layer that calls them, so they are wrapped where they are
handed over and timed as spans of the layer whose code they are. Without
this, the tag port would absorb the mechanism's grant work and the DRAM
controller the mechanism's fill work.

Self time and call counts are aggregated exactly as spans close. The raw
spans are also kept in memory, in compact arrays up to :data:`SPAN_CAP` of
them (the rest are counted as dropped), and written out by :meth:`write`.
"""

from __future__ import annotations

import functools
import json
import os
import time
import types
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.runner import SweepFuture, SweepRunner
from repro.cache.cache import Cache
from repro.cache.port import TagPort
from repro.campaign.journal import CampaignJournal
from repro.campaign.orchestrator import Campaign
from repro.core.dbi import DirtyBlockIndex
from repro.dram.controller import MemoryController
from repro.dramcache.level import DramCacheLevel
from repro.mechanisms.base import LlcMechanism
from repro.sim.hierarchy import Hierarchy
from repro.sim.system import System  # noqa: F401  (loads every mechanism)
from repro.utils.events import EventQueue

#: Simulation layers, named after the modules they cover.
LAYERS: Tuple[str, ...] = (
    "kernel",
    "core",
    "hierarchy",
    "cache.l1l2",
    "cache.llc",
    "llc_port",
    "mechanism",
    "dbi",
    "dram",
    "dramcache",
    "other",
)
_LAYER = {name: index for index, name in enumerate(LAYERS)}

#: Defining module -> layer, most specific prefix first. The MSHR file is
#: the hierarchy's private structure; ``repro.core`` holds the DBI and its
#: replacement policies.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.utils.events", "kernel"),
    ("repro.sim.core_model", "core"),
    ("repro.sim.trace", "core"),
    ("repro.sim.hierarchy", "hierarchy"),
    ("repro.cache.mshr", "hierarchy"),
    ("repro.cache.port", "llc_port"),
    ("repro.cache", "cache.llc"),
    ("repro.mechanisms", "mechanism"),
    ("repro.core", "dbi"),
    ("repro.dramcache", "dramcache"),
    ("repro.dram", "dram"),
)

#: ``Cache`` instances are keyed by ``config.name``; any other name is the
#: DRAM-cache level's tag array.
_CACHE_LAYER = {"l1": "cache.l1l2", "l2": "cache.l1l2", "llc": "cache.llc"}

#: Raw spans kept in memory per tracer; later ones are counted as dropped.
SPAN_CAP = 1_000_000

_CACHE_METHODS = (
    "set_index", "contains", "probe", "is_dirty", "lookup", "touch",
    "insert", "mark_dirty", "mark_clean", "invalidate", "lru_half_ways",
    "recency_order", "lru_valid_ways",
)


def layer_of_module(module: str) -> str:
    """The layer that owns code defined in ``module``."""
    for prefix, layer in MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return "other"


def _public_methods(cls) -> List[str]:
    """Plain functions defined on ``cls`` whose names are public."""
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
        and not isinstance(value, (property, staticmethod, classmethod))
    ]


def _mechanism_classes() -> List[type]:
    """LlcMechanism and every loaded subclass, depth first."""
    found, todo = [], [LlcMechanism]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return found


class Tracer:
    """Span recorder with per-layer self time.

    Work a wrapper does for the tracer (counting, resolving a callback's
    owner, wrapping a handed-over callback, recording the span) falls
    outside the span's interval but inside the part of its parent's
    interval the parent counts as its children's, so no layer is charged
    with it. What remains of the tracer's cost, entering and leaving the
    wrappers, falls on the layers roughly in proportion to their work, so
    :meth:`layer_self_s` can scale the traced self times to the untraced
    run time of the same cells. The shares agree with cProfile's self time
    grouped by module (``perfbench/tests/test_tracer.py``).

    Example:
        >>> tracer = Tracer()
        >>> with tracer.installed():
        ...     queue = EventQueue()
        ...     queue.profiler = tracer.event
        ...     _ = queue.schedule(1, lambda: None)
        ...     tracer.cell_span(0, queue.run)
        >>> tracer.events, tracer.schedule_calls
        (1, 1)
    """

    def __init__(self) -> None:
        self.events = 0
        self.schedule_calls = 0
        self.port_requests = 0
        self.dram_requests = 0
        self.wakes_scheduled = 0
        self.wakes_fired = 0
        self.spans_dropped = 0
        self.cell = -1
        # Campaign-process counters (campaign-grid only).
        self.journal_appends = 0
        self.journal_append_s = 0.0
        self.last_done_append: Optional[float] = None
        self.cell_seconds: List[float] = []
        self.campaign_runs: List[Tuple[float, float]] = []
        # Submit time of each future until its first result; None after.
        self._submitted: Dict[SweepFuture, Optional[float]] = {}
        self._owner_cache: Dict[object, int] = {}
        self._wake = MemoryController._wake
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        # Per open span, innermost last: the time its children covered.
        self._child: List[float] = []
        # Closed spans in close order. A span's depth is its number of open
        # ancestors, which with the intervals rebuilds the tree.
        self._cells = array("i")
        self._layers = array("B")
        self._depths = array("H")
        self._starts = array("d")
        self._ends = array("d")
        self.event = self._make(None, prepare=self._fire)

    # ------------------------------------------------------------- spans

    def _make(self, fn: Optional[Callable], layer: Optional[int] = None,
              prepare: Optional[Callable] = None) -> Callable:
        """A wrapper that calls ``fn`` as one span of ``layer``.

        ``prepare(args)`` runs first and returns ``(layer, fn, args)``
        when ``layer`` is None, or the arguments to pass on otherwise.
        """
        perf = time.perf_counter
        child = self._child
        self_s, calls = self.self_s, self.calls
        cells, layers, depths = self._cells, self._layers, self._depths
        starts, ends = self._starts, self._ends
        tracer = self

        def traced(*args, **kwargs):
            enter = perf()
            lay, call = layer, fn
            if prepare is not None:
                if layer is None:
                    lay, call, args = prepare(args)
                else:
                    args = prepare(args)
            child.append(0.0)
            begin = perf()
            try:
                return call(*args, **kwargs)
            finally:
                end = perf()
                self_s[lay] += end - begin - child.pop()
                calls[lay] += 1
                if len(starts) < SPAN_CAP:
                    cells.append(tracer.cell)
                    layers.append(lay)
                    depths.append(len(child))
                    starts.append(begin)
                    ends.append(end)
                else:
                    tracer.spans_dropped += 1
                if child:
                    child[-1] += perf() - enter

        traced.__wrapped__ = fn
        return traced

    def cell_span(self, cell: int, fn: Callable):
        """Run ``fn`` (``System.run``) as the root span of one cell."""
        self.cell = cell
        try:
            return self._make(fn, _LAYER["kernel"])()
        finally:
            self.cell = -1

    def _fire(self, args):
        """Event hook preparation: count the event, find its owner."""
        callback = args[0]
        self.events += 1
        if getattr(callback, "__func__", None) is self._wake:
            self.wakes_fired += 1
        return self.owner(callback), callback, ()

    # ------------------------------------------------------ owning layers

    def owner(self, callback: Callable) -> int:
        """The layer whose code ``callback`` runs.

        A partial of a module-level function whose first argument is a
        callable is a picklable trampoline (the mechanisms deliver data
        this way): the code that does the work is that callable's.
        """
        while True:
            func = getattr(callback, "__func__", None)
            if func is not None:
                break
            if type(callback) is functools.partial:
                inner = callback.func
                args = callback.args
                if (type(inner) is types.FunctionType and args
                        and callable(args[0])):
                    callback = args[0]
                else:
                    callback = inner
                continue
            wrapped = getattr(callback, "__wrapped__", None)
            if wrapped is None:
                func = callback
                break
            callback = wrapped
        layer = self._owner_cache.get(func)
        if layer is None:
            module = getattr(func, "__module__", None) or ""
            layer = self._owner_cache[func] = _LAYER[layer_of_module(module)]
        return layer

    def handoff(self, callback: Optional[Callable]) -> Optional[Callable]:
        """Wrap a callback crossing a layer boundary as a span of its owner."""
        if callback is None or hasattr(callback, "__wrapped__"):
            return callback
        return self._make(callback, self.owner(callback))

    # ----------------------------------------------------------- patching

    def _patches(self) -> List[Tuple[type, str, Callable]]:
        def make(fn, layer, prepare=None):
            return functools.wraps(fn)(self._make(fn, layer, prepare))

        patches = []

        def on_schedule(args):
            self.schedule_calls += 1
            if getattr(args[2], "__func__", None) is self._wake:
                self.wakes_scheduled += 1
            return args

        kernel = _LAYER["kernel"]
        patches.append((EventQueue, "schedule", make(
            EventQueue.schedule, kernel, on_schedule)))
        patches.append((EventQueue, "schedule_after", make(
            EventQueue.schedule_after, kernel)))

        def callback_arg(args):
            return args[:3] + (self.handoff(args[3]),) + args[4:]

        hierarchy = _LAYER["hierarchy"]
        patches.append((Hierarchy, "load", make(
            Hierarchy.load, hierarchy, callback_arg)))
        patches.append((Hierarchy, "store", make(Hierarchy.store, hierarchy)))

        def port_args(args):
            self.port_requests += 1
            return (args[0], self.handoff(args[1])) + args[2:]

        patches.append((TagPort, "request", make(
            TagPort.request, _LAYER["llc_port"], port_args)))

        cache_layers = {
            name: _LAYER[layer] for name, layer in _CACHE_LAYER.items()
        }
        level_tags = _LAYER["dramcache"]
        for name in _CACHE_METHODS:
            method = getattr(Cache, name)

            def cache_args(args, method=method):
                layer = cache_layers.get(args[0].config.name, level_tags)
                return layer, method, args

            patches.append((Cache, name, make(method, None, cache_args)))

        mechanism = _LAYER["mechanism"]
        for cls in _mechanism_classes():
            if "read" in vars(cls):
                patches.append((cls, "read", make(
                    vars(cls)["read"], mechanism, callback_arg)))
            if "writeback" in vars(cls):
                patches.append((cls, "writeback", make(
                    vars(cls)["writeback"], mechanism)))

        dbi = _LAYER["dbi"]
        for name in _public_methods(DirtyBlockIndex):
            patches.append((DirtyBlockIndex, name, make(
                getattr(DirtyBlockIndex, name), dbi)))

        def request_args(args):
            request = args[1]
            request.on_complete = self.handoff(request.on_complete)
            return args

        def dram_request_args(args):
            self.dram_requests += 1
            return request_args(args)

        for cls, layer, prepare in (
            (MemoryController, _LAYER["dram"], dram_request_args),
            (DramCacheLevel, _LAYER["dramcache"], request_args),
        ):
            for name in ("enqueue_read", "enqueue_write"):
                patches.append((cls, name, make(
                    getattr(cls, name), layer, prepare)))
        return patches

    def _campaign_patches(self) -> List[Tuple[type, str, Callable]]:
        perf = time.perf_counter
        append = CampaignJournal.append
        submit = SweepRunner.submit
        result = SweepFuture.result
        run = Campaign.run

        @functools.wraps(append)
        def traced_append(journal, kind, **payload):
            start = perf()
            try:
                return append(journal, kind, **payload)
            finally:
                end = perf()
                self.journal_appends += 1
                self.journal_append_s += end - start
                if kind == "done":
                    self.last_done_append = end

        @functools.wraps(submit)
        def traced_submit(runner, *args, **kwargs):
            start = perf()
            future = submit(runner, *args, **kwargs)
            # A resubmitted cell (the campaign's finalize pass) gets the
            # memoized future back; only its first submit is timed.
            self._submitted.setdefault(future, start)
            return future

        @functools.wraps(result)
        def traced_result(future, *args, **kwargs):
            value = result(future, *args, **kwargs)
            start = self._submitted.get(future)
            if start is not None:
                self._submitted[future] = None
                self.cell_seconds.append(perf() - start)
            return value

        @functools.wraps(run)
        def traced_run(campaign, *args, **kwargs):
            self.last_done_append = None
            start = perf()
            try:
                return run(campaign, *args, **kwargs)
            finally:
                end = perf()
                finalize = end - (self.last_done_append or start)
                self.campaign_runs.append((end - start, finalize))

        return [
            (CampaignJournal, "append", traced_append),
            (SweepRunner, "submit", traced_submit),
            (SweepFuture, "result", traced_result),
            (Campaign, "run", traced_run),
        ]

    @contextmanager
    def installed(self, campaign: bool = False) -> Iterator["Tracer"]:
        """Swap the wrappers in for the block; always restores originals."""
        patches = self._campaign_patches() if campaign else self._patches()
        originals = [(cls, name, vars(cls)[name]) for cls, name, _ in patches]
        try:
            for cls, name, wrapper in patches:
                setattr(cls, name, wrapper)
            yield self
        finally:
            for cls, name, original in reversed(originals):
                setattr(cls, name, original)

    # ------------------------------------------------------------ results

    def layer_self_s(self, untraced_s: float) -> Dict[str, float]:
        """Each layer's share of the traced self time (span durations minus
        their child spans) applied to ``untraced_s``, the untraced run time
        of the same cells.
        """
        scale = untraced_s / (sum(self.self_s) or 1.0)
        return {
            name: self.self_s[index] * scale
            for index, name in enumerate(LAYERS)
        }

    @property
    def spans_kept(self) -> int:
        return len(self._starts)

    def layer_calls(self) -> Dict[str, int]:
        return {name: self.calls[index] for index, name in enumerate(LAYERS)}

    def write(self, path: str, cells: List[str]) -> None:
        """Write the recorded spans: ``<path>.json`` index + ``<path>.bin``.

        The binary file holds the columns back to back, one entry per span
        in close order: cell (int32), layer (uint8), depth (uint16), start
        and end (float64 ``perf_counter`` seconds).
        """
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path + ".bin", "wb") as handle:
            for column in (self._cells, self._layers, self._depths,
                           self._starts, self._ends):
                column.tofile(handle)
        index = {
            "cells": cells,
            "layers": list(LAYERS),
            "spans": len(self._starts),
            "spans_dropped": self.spans_dropped,
            "columns": [["cell", "i4"], ["layer", "u1"], ["depth", "u2"],
                        ["start", "f8"], ["end", "f8"]],
        }
        with open(path + ".json", "w") as handle:
            json.dump(index, handle, indent=1)

