"""Closed-loop load generation against a :class:`QueryService`.

Drives the concurrent-vs-serial differential suite
(``tests/test_service_differential.py``).  The loop is **closed**: each simulated client submits one
query, waits for its result, then submits the next — so offered load
adapts to service capacity and the latency numbers are not inflated by
coordinated-omission queueing that an open loop would cause.

Every client runs the same statement list in the same order and all
clients start together (barrier), which maximizes the window in which
concurrent queries' rounds share cache fingerprints — the condition
cross-query scatter sharing exploits.  Optional ``references`` verify
every result bit-identical to a centralized oracle while the load
runs.
"""

from __future__ import annotations

import threading
import time

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import AdmissionError
from repro.service.metrics import percentile

DEFAULT_TENANTS = ("alpha", "beta")


@dataclass
class LoadReport:
    """What one closed-loop window measured."""

    label: str
    clients: int
    elapsed_seconds: float = 0.0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    #: results that did not match their reference relation.
    mismatches: int = 0
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def qps(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.completed / self.elapsed_seconds

    def latency(self, q: float) -> float:
        return percentile(self.latencies, q)

    def as_dict(self) -> dict[str, object]:
        return {
            "label": self.label,
            "clients": self.clients,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "mismatches": self.mismatches,
            "qps": round(self.qps, 4),
            "latency_p50": round(self.latency(50), 6),
            "latency_p95": round(self.latency(95), 6),
            "latency_p99": round(self.latency(99), 6),
            "errors": self.errors[:5],
        }


def run_closed_loop(service, statements: Sequence[str],
                    clients: int = 8, rounds: int = 3,
                    tenants: Sequence[str] = DEFAULT_TENANTS,
                    label: str = "load",
                    references: "Mapping[str, object] | None" = None,
                    timeout: float = 120.0) -> LoadReport:
    """Run ``clients`` concurrent closed-loop clients; returns the report.

    Each client executes ``rounds`` passes over ``statements`` (same
    order for every client), alternating tenants round-robin.  An
    :class:`~repro.errors.AdmissionError` is counted and retried after
    a short backoff — a closed loop near the queue bound sheds briefly
    rather than failing the window.
    """
    report = LoadReport(label=label, clients=clients)
    lock = threading.Lock()
    barrier = threading.Barrier(clients + 1)

    def client(index: int) -> None:
        tenant = tenants[index % len(tenants)]
        barrier.wait()
        for __ in range(rounds):
            for sql in statements:
                while True:
                    try:
                        result = service.execute(sql, tenant=tenant,
                                                 timeout=timeout)
                    except AdmissionError:
                        with lock:
                            report.rejected += 1
                        time.sleep(0.01)
                        continue
                    except Exception as error:  # noqa: BLE001 - report it
                        with lock:
                            report.failed += 1
                            report.errors.append(repr(error))
                        break
                    with lock:
                        report.completed += 1
                        report.latencies.append(result.latency_seconds)
                        reference = (references or {}).get(sql)
                        if (reference is not None and not
                                result.relation.multiset_equals(reference)):
                            report.mismatches += 1
                            report.errors.append(
                                f"result mismatch for {sql!r}")
                    break

    threads = [threading.Thread(target=client, args=(index,),
                                name=f"loadgen-client-{index}", daemon=True)
               for index in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    report.elapsed_seconds = time.perf_counter() - started
    return report


__all__ = ["DEFAULT_TENANTS", "LoadReport", "run_closed_loop"]
