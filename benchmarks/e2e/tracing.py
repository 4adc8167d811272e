"""Span tracing installed around the program's layers from outside.

The benchmark owns its spans: :class:`Tracer` replaces the layers'
functions (see :data:`POINTS`) with timing wrappers for the traced pass
and puts the originals back afterwards, so no file of the program
changes and the untraced pass runs the program exactly as shipped.

A span is ``{id, parent, name, start, end}`` plus optional counts.  The
parent is the span open on the same thread; a span opened on a thread
with no open span (the transport's pipe threads, a hedged local call)
is adopted by the round dispatch that is open at that moment.  Client
``query`` spans carry the query id; service worker threads are linked
to their client span through the ticket id (:meth:`Tracer.link`).
Spans stay in memory until :func:`write_spans`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time

from collections import defaultdict
from itertools import count

# (module, attribute or Class.method, span name).  Two entries may share
# a span name when the issue measures them as one layer metric.
POINTS = (
    ("repro.sql.parser", "parse", "sql.parse"),
    ("repro.sql.compiler", "compile_query", "sql.compile"),
    ("repro.sql.compiler", "CompiledQuery.post_process",
     "sql.post_process"),
    ("repro.warehouse", "Warehouse.stats", "optimizer.stats"),
    ("repro.optimizer.cost", "choose_flags", "optimizer.choose_flags"),
    ("repro.optimizer.planner", "build_plan", "optimizer.build_plan"),
    ("repro.service.plan_cache", "PlanCache.lookup",
     "service.plan_lookup"),
    ("repro.service.server", "QueryService.append", "service.append"),
    # The one non-public seam: the ticket id has to cross the hop from
    # the client thread to the service worker thread.
    ("repro.service.server", "QueryService._execute_ticket",
     "service.execute"),
    ("repro.cache.manager", "SubAggregateCache.decide", "cache.decide"),
    ("repro.cache.manager", "SubAggregateCache.fulfill_hit",
     "cache.fulfill_hit"),
    ("repro.cache.manager", "SubAggregateCache.populate",
     "cache.populate"),
    ("repro.cache.manager", "SubAggregateCache.apply_delta",
     "cache.apply_delta"),
    ("repro.cache.manager", "SubAggregateCache.on_append",
     "service.append_cache"),
    ("repro.cache.fingerprint", "fingerprint_request",
     "cache.fingerprint"),
    ("repro.distributed.engine", "SkallaEngine.execute_plan",
     "distributed.engine.execute"),
    ("repro.distributed.transport.process",
     "MultiprocessTransport.run_round", "distributed.transport.round"),
    ("repro.distributed.transport.base", "Transport.run_round",
     "distributed.transport.round"),
    ("repro.distributed.transport.process",
     "MultiprocessTransport.invalidate",
     "distributed.transport.invalidate"),
    ("repro.relational.io", "encode_relation", "relational.io.encode"),
    ("repro.relational.io", "decode_relation", "relational.io.decode"),
    ("repro.distributed.coordinator", "Coordinator.synchronize_base",
     "distributed.coordinator.sync"),
    ("repro.distributed.coordinator", "Coordinator.synchronize_step",
     "distributed.coordinator.sync"),
    ("repro.distributed.coordinator", "Coordinator.final_result",
     "distributed.coordinator.final"),
    ("repro.distributed.site", "SkallaSite.evaluate_base",
     "distributed.site"),
    ("repro.distributed.site", "SkallaSite.execute_step",
     "distributed.site"),
    ("repro.core.evaluator", "evaluate_gmdj", "core.evaluator.gmdj"),
    ("repro.core.evaluator", "match_codes",
     "core.evaluator.match_codes"),
    ("repro.core.evaluator", "finalize_states",
     "core.evaluator.finalize"),
    ("repro.relational.factorize", "factorize", "relational.factorize"),
    ("repro.relational.factorize", "lookup_codes",
     "relational.factorize"),
    ("repro.cube.lattice", "compile_lattice", "cube.compile"),
    ("repro.cube.executor", "execute_lattice", "cube.execute"),
    ("repro.cube.rollup", "rollup_states", "cube.rollup"),
    ("repro.cube.rollup", "derive_cuboid", "cube.rollup"),
)

ROUND = "distributed.transport.round"


def _note_round(span, args, result):
    """Per-round site figures from the public SiteResponse fields."""
    responses = list(result.values())
    if not responses:
        return
    compute = [r.compute_seconds for r in responses]
    span["site_critical"] = max(compute)
    span["site_sum"] = sum(compute)
    if span["site_sum"] > 0:
        span["site_skew"] = max(compute) * len(compute) / sum(compute)
    span["ipc"] = max(r.wall_seconds - r.compute_seconds
                      for r in responses)
    span["request_bytes"] = sum(r.request_bytes for r in responses)
    span["response_bytes"] = sum(r.response_bytes for r in responses)
    span["retries"] = sum(r.retries for r in responses)


def _note_encode(span, args, result):
    span["bytes"] = len(result)


def _note_decode(span, args, result):
    span["bytes"] = len(args[0])


def _note_gmdj(span, args, result):
    span["rows"] = args[2].num_rows     # evaluate_gmdj(gmdj, base, detail)


def _note_ticket(span, args, result):
    span["ticket"] = args[1].query_id   # _execute_ticket(self, ticket)


NOTES = {
    ROUND: _note_round,
    "relational.io.encode": _note_encode,
    "relational.io.decode": _note_decode,
    "core.evaluator.gmdj": _note_gmdj,
    "service.execute": _note_ticket,
}

_ACTIVE: "Tracer | None" = None


def _disable_in_child():
    # A forked site worker inherits the wrappers; its spans could never
    # be collected, so the wrappers pass straight through there.
    if _ACTIVE is not None:
        _ACTIVE.enabled = False


os.register_at_fork(after_in_child=_disable_in_child)


class Tracer:
    """Records spans around :data:`POINTS` while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.enabled = True
        self.phase = ""
        self._local = threading.local()
        self._ids = count(1)
        self._open_rounds: list[dict] = []
        self._links: dict[int, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, **fields) -> dict:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]["id"]
        elif self._open_rounds:
            parent = self._open_rounds[-1]["id"]
        else:
            parent = None
        span = {"id": next(self._ids), "parent": parent, "name": name,
                "phase": self.phase, "start": time.perf_counter(),
                "end": None, **fields}
        stack.append(span)
        if name == ROUND:
            self._open_rounds.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._local.stack.pop()
        if span["name"] == ROUND:
            self._open_rounds.remove(span)
        self.spans.append(span)

    def link(self, ticket_id: int, query_span: dict) -> None:
        """Parent a service worker's spans to the client's query span."""
        self._links[ticket_id] = query_span["id"]

    # -- installation --------------------------------------------------------

    def _wrap(self, original, name: str):
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
                if note is not None:
                    note(span, args, result)
                return result
            finally:
                tracer.end(span)
        return traced

    @contextlib.contextmanager
    def recording(self, phase: str):
        """Install the wrappers for one phase; the originals are back
        when the block ends."""
        self.phase = phase
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def install(self) -> None:
        global _ACTIVE
        if self._patches:
            return
        _ACTIVE = self
        for module_name, path, name in POINTS:
            module = importlib.import_module(module_name)
            owner, __, attr = path.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            # ``from x import f`` copies the reference: patch every
            # loaded module of the program that holds this function.
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded is None or not (
                        loaded_name == "repro"
                        or loaded_name.startswith("repro.")):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patches.append((loaded, key, original))
                        setattr(loaded, key, wrapper)

    def uninstall(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None

    # -- analysis ------------------------------------------------------------

    def finish(self) -> list[dict]:
        """Resolve cross-thread parents and compute self times."""
        spans = self.spans
        for span in spans:
            ticket = span.get("ticket")
            if ticket is not None and span["parent"] is None:
                span["parent"] = self._links.get(ticket)
        by_id = {span["id"]: span for span in spans}
        children = defaultdict(list)
        for span in spans:
            if span["parent"] in by_id:
                children[span["parent"]].append(span)
            else:
                span["parent"] = None
        for span in spans:
            covered = _covered(span, children[span["id"]])
            span["self"] = (span["end"] - span["start"]) - covered
        for span in spans:
            root = span
            while root["parent"] is not None:
                root = by_id[root["parent"]]
            span["query"] = root.get("qid")
        return spans


def _covered(span: dict, children: list[dict]) -> float:
    """Length of the part of ``span`` its children cover (union)."""
    covered = 0.0
    reach = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        low = max(child["start"], reach)
        high = min(child["end"], span["end"])
        if high > low:
            covered += high - low
            reach = high
    return covered


def write_spans(spans: list[dict], path: str, workload: str) -> None:
    origin = min((span["start"] for span in spans), default=0.0)
    with open(path, "w") as handle:
        for span in spans:
            record = dict(span, workload=workload)
            record["start"] = span["start"] - origin
            record["end"] = span["end"] - origin
            handle.write(json.dumps(record) + "\n")


class Totals:
    """Sums over the spans of one phase, by span name.

    A span nested directly under a span of the same name (a dispatch
    that falls back to the base class, a rollup that calls a rollup)
    is left out of the sums, so a layer is counted once.
    """

    def __init__(self, spans: list[dict], phase: str):
        by_id = {span["id"]: span for span in spans}
        self.spans = []
        for span in spans:
            if span["phase"] != phase:
                continue
            parent = by_id.get(span["parent"])
            if parent is not None and parent["name"] == span["name"]:
                continue
            self.spans.append(span)
        self.by_name = defaultdict(list)
        for span in self.spans:
            self.by_name[span["name"]].append(span)

    def seconds(self, *names: str) -> float:
        return sum(span["end"] - span["start"]
                   for name in names for span in self.by_name[name])

    def self_seconds(self, name: str) -> float:
        return sum(span["self"] for span in self.by_name[name])

    def calls(self, *names: str) -> int:
        return sum(len(self.by_name[name]) for name in names)

    def total(self, name: str, field: str) -> float:
        return sum(span.get(field, 0) for span in self.by_name[name])

    def values(self, name: str, field: str) -> list[float]:
        return [span[field] for span in self.by_name[name]
                if field in span]
