"""Compiled-plan cache keyed on a normalized-AST fingerprint.

Parsing + compilation + planning is pure coordinator work repeated for
every submission of the same query shape; under a serving workload the
same dashboards re-issue the same statements continuously.  The cache
memoizes the whole front half of the pipeline:

    SQL text ──lex/parse──▶ AST ──compile──▶ GmdjExpression ──plan──▶
    DistributedPlan

keyed the same way the sub-aggregate cache keys site rounds
(:mod:`repro.cache.fingerprint`): a SHA-256 over a canonical byte
encoding.  Here the canonical form is the **parsed AST** — frozen
dataclasses pickled at a pinned protocol — so two textually different
but structurally identical statements (whitespace, case, comments)
share one entry.  The fingerprint also folds in everything else the
compiled artifact depends on: the detail schema, the optimization
flags, the sketch-precision knob, and the knowledge epoch (see
below).  Declared knowledge and the site set are fixed per engine,
hence per cache (one plan cache serves one
:class:`~repro.service.server.QueryService`).

Two lookup tiers:

* **text tier** — exact SQL string → fingerprint, so a repeated
  submission skips even the lexer;
* **AST tier** — fingerprint → (CompiledQuery, DistributedPlan).

Plans are content only — they carry no fragment data — so an append
invalidates them only when it withdraws an observed partition attribute
(:class:`~repro.distributed.partition.DistributionInfo`): the epoch
moves, so no plan built under the withdrawn fact runs again.
Entries are LRU-bounded by count; a plan is a few KB of frozen
dataclasses, so the default bound is generous.
"""

from __future__ import annotations

import hashlib
import pickle
import threading

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ServiceError
from repro.relational.schema import Schema
from repro.distributed.partition import DistributionInfo
from repro.distributed.plan import DistributedPlan, OptimizationFlags
from repro.sql.compiler import CompiledQuery, compile_query
from repro.sql.parser import parse

#: Bump when the canonical encoding changes (same convention as
#: :data:`repro.cache.fingerprint.FINGERPRINT_VERSION`).
PLAN_FINGERPRINT_VERSION = 1

#: Pickle protocol pinned for byte stability across Python 3.10–3.12.
_PICKLE_PROTOCOL = 4

DEFAULT_MAX_ENTRIES = 256


def plan_fingerprint(sql: str, detail_schema: Schema,
                     flags: OptimizationFlags,
                     sketch_precision: int | None = None,
                     epoch: int = 0) -> str:
    """SHA-256 over the statement's normalized AST + compile context.

    Parsing normalizes away text-level noise; the AST is a tree of
    frozen dataclasses, pickled deterministically at a pinned protocol
    (the idiom proven by the round-fingerprint module).  A fingerprint
    that spuriously differs costs a recompile, never a wrong plan.
    """
    statement = parse(sql)
    payload = (
        PLAN_FINGERPRINT_VERSION,
        pickle.dumps(statement, protocol=_PICKLE_PROTOCOL),
        tuple((attribute.name, attribute.dtype.value)
              for attribute in detail_schema),
        pickle.dumps(flags, protocol=_PICKLE_PROTOCOL),
        sketch_precision,
        epoch,
    )
    blob = pickle.dumps(payload, protocol=_PICKLE_PROTOCOL)
    return hashlib.sha256(blob).hexdigest()


@dataclass
class CachedPlan:
    """One memoized compile+plan artifact.

    For a cube-family statement ``cube`` carries the compiled lattice
    plan; ``compiled``/``plan`` then describe the finest source round
    (for reporting), and execution goes through
    :func:`repro.cube.execute_lattice` instead of ``execute_plan``.
    """

    fingerprint: str
    compiled: CompiledQuery
    plan: DistributedPlan
    hits: int = 0
    cube: object | None = None


class PlanCache:
    """LRU cache of compiled queries + distributed plans."""

    def __init__(self, detail_schema: Schema,
                 info: DistributionInfo,
                 site_ids: Sequence[int],
                 max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ServiceError("plan cache needs at least one entry")
        self.detail_schema = detail_schema
        self.info = info
        self.site_ids = list(site_ids)
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, CachedPlan]" = OrderedDict()
        #: exact-text shortcut: raw SQL → fingerprint (skips the lexer).
        self._by_text: "OrderedDict[tuple, str]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        #: hits served by the exact-text tier (no parse at all).
        self.text_hits = 0

    def lookup(self, sql: str, flags: OptimizationFlags,
               sketch_precision: int | None = None,
               ) -> tuple[CachedPlan, bool]:
        """Return the cached (or freshly compiled) plan for ``sql``.

        Returns ``(entry, hit)`` where ``hit`` says whether the compile
        + plan work was skipped.  Thread-safe; a compile race costs a
        duplicate compile (both threads produce identical artifacts —
        planning is deterministic), never a wrong entry.
        """
        epoch = self.info.epoch
        text_key = (sql, self._flags_key(flags), sketch_precision, epoch)
        with self._lock:
            fingerprint = self._by_text.get(text_key)
            if fingerprint is not None:
                entry = self._entries.get(fingerprint)
                if entry is not None:
                    self._entries.move_to_end(fingerprint)
                    entry.hits += 1
                    self.hits += 1
                    self.text_hits += 1
                    return entry, True
        fingerprint = plan_fingerprint(sql, self.detail_schema, flags,
                                       sketch_precision, epoch)
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
                entry.hits += 1
                self.hits += 1
                self._remember_text(text_key, fingerprint)
                return entry, True
        # Compile outside the lock: parsing/planning is pure and may be
        # slow; a concurrent duplicate is benign.
        entry = self._compile(sql, fingerprint, flags, sketch_precision)
        with self._lock:
            existing = self._entries.get(fingerprint)
            if existing is not None:
                existing.hits += 1
                self.hits += 1
                self._remember_text(text_key, fingerprint)
                return existing, True
            self.misses += 1
            self._entries[fingerprint] = entry
            self._remember_text(text_key, fingerprint)
            while len(self._entries) > self.max_entries:
                evicted, __ = self._entries.popitem(last=False)
                self._drop_text_aliases(evicted)
            return entry, False

    def _compile(self, sql: str, fingerprint: str,
                 flags: OptimizationFlags,
                 sketch_precision: int | None) -> CachedPlan:
        # Imported here: the optimizer builds plans *for* the engine,
        # and a module-scope import would be circular via the engine.
        from repro.optimizer.planner import build_plan
        statement = parse(sql)
        lattice = None
        if statement.cube_family:
            from repro.cube import compile_lattice
            lattice = compile_lattice(statement, self.detail_schema,
                                      sketch_precision=sketch_precision)
            compiled = CompiledQuery(lattice.finest_expression)
        else:
            compiled = compile_query(sql, self.detail_schema,
                                     sketch_precision=sketch_precision)
        compiled.expression.validate(self.detail_schema)
        plan = build_plan(compiled.expression, flags, self.info,
                          self.detail_schema, sites=self.site_ids)
        return CachedPlan(fingerprint=fingerprint, compiled=compiled,
                          plan=plan, cube=lattice)

    @staticmethod
    def _flags_key(flags: OptimizationFlags) -> tuple:
        return tuple(sorted(vars(flags).items()))

    def _remember_text(self, text_key: tuple, fingerprint: str) -> None:
        self._by_text[text_key] = fingerprint
        self._by_text.move_to_end(text_key)
        # The text tier shadows the entry tier; bound it the same way.
        while len(self._by_text) > 4 * self.max_entries:
            self._by_text.popitem(last=False)

    def _drop_text_aliases(self, fingerprint: str) -> None:
        stale = [key for key, value in self._by_text.items()
                 if value == fingerprint]
        for key in stale:
            del self._by_text[key]

    # -- introspection ------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "text_hits": self.text_hits,
                "misses": self.misses,
                "hit_rate": round(self.hit_rate, 4),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._by_text.clear()


__all__ = ["CachedPlan", "DEFAULT_MAX_ENTRIES", "PLAN_FINGERPRINT_VERSION",
           "PlanCache", "plan_fingerprint"]
