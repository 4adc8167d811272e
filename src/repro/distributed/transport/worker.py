"""Worker-process main loop for the multiprocess transport.

One worker hosts exactly one :class:`~repro.distributed.site.SkallaSite`.
The worker gets the site object once at startup — through the fork
that created it, or in a pickled init frame (the fragment arrays travel
as raw buffers) when it was started any other way — then exchanges
per-round frames:

* request frame: a pickled dict with the plan fragment (``step`` /
  ``base_query`` / flags) and the shipped base structure encoded with
  the SKRL binary codec (:mod:`repro.relational.io`);
* response frame: ``{"ok": True, "payload": <SKRL bytes>, "seconds":
  <site compute seconds>}`` or ``{"ok": False, "error": <exception>}``.
  With shared-memory transfer enabled at init, large payloads travel as
  ``{"ok": True, "shm": (name, size), ...}`` instead: the SKRL bytes
  sit in a ``multiprocessing.shared_memory`` segment the parent
  consumes and unlinks (see :func:`ship_shared`).

Frame sizes are exactly the *real wire bytes* the transport metrics
report.  Fault injection (:class:`~repro.distributed.faults.
ProcessFaultSpec`) is applied here, before a request is served, so a
"kill" fault genuinely terminates the OS process mid-round.

This module is import-safe at top level (no side effects) so the
``spawn`` start method can load it in a fresh interpreter.
"""

from __future__ import annotations

import pickle

from repro.errors import SkallaError
from repro.relational.io import decode_relation, encode_relation

#: Frame kinds understood by the worker loop.
INIT = "init"
SHUTDOWN = "shutdown"
CALL = "call"

#: Payloads smaller than this stay inline in the response frame even
#: when shared-memory transfer is on — a pipe frame beats the segment
#: create/attach/unlink round trip for small sub-aggregates.
SHM_MIN_BYTES = 1 << 16


def ship_shared(payload: bytes) -> tuple[str, int]:
    """Copy ``payload`` into a fresh shared-memory segment.

    Returns ``(name, size)``; ownership passes to the parent, which
    attaches, consumes, and unlinks the segment.  The worker unregisters
    the segment from its resource tracker first so a clean worker exit
    does not tear down (or warn about) memory the parent still owns.
    """
    from multiprocessing import resource_tracker, shared_memory
    shm = shared_memory.SharedMemory(create=True, size=max(len(payload), 1))
    try:
        shm.buf[:len(payload)] = payload
        try:
            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker impl detail
            pass
    finally:
        shm.close()
    return shm.name, len(payload)


def _picklable_error(error: BaseException) -> BaseException:
    """Return ``error`` if it survives pickling, else a faithful stand-in.

    The parent re-raises whatever comes back; an exception whose class
    cannot cross the process boundary is downgraded to a
    :class:`SkallaError` carrying the original type name and message.
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return SkallaError(f"{type(error).__name__}: {error}")


def serve(connection, init=None) -> None:
    """Serve site requests over ``connection`` until shutdown/EOF.

    ``connection`` is one end of a :func:`multiprocessing.Pipe`; frames
    travel via ``send_bytes``/``recv_bytes`` so both sides can measure
    real frame sizes.  ``init`` is the init message itself when the
    worker was forked with the site already in its memory; otherwise the
    first frame carries it.
    """
    site = None
    fault = None
    use_shm = False
    served = 0
    while True:
        if init is not None:
            message, init = init, None
        else:
            try:
                frame = connection.recv_bytes()
            except (EOFError, OSError):
                return
            message = pickle.loads(frame)
        kind = message["kind"]
        if kind == SHUTDOWN:
            return
        if kind == INIT:
            site = message["site"]
            fault = message.get("fault")
            use_shm = bool(message.get("shared_memory"))
            connection.send_bytes(pickle.dumps({"ok": True,
                                                "site_id": site.site_id}))
            continue
        # -- a site call ---------------------------------------------------
        served += 1
        if fault is not None:
            fault.apply(served)  # may exit the process or hang
        try:
            if site is None:
                raise SkallaError("worker received a call before init")
            from repro.distributed.transport.base import (
                SiteRequest, perform_request)
            payload = message["base_relation"]
            request = SiteRequest(
                site_id=site.site_id,
                kind=message["call"],
                base_query=message["base_query"],
                step=message["step"],
                base_relation=(decode_relation(payload)
                               if payload is not None else None),
                ship_attrs=tuple(message["ship_attrs"]),
                independent_reduction=message["independent_reduction"])
            relation, seconds = perform_request(site, request)
            payload = encode_relation(relation)
            response = {"ok": True, "payload": payload, "seconds": seconds}
            if use_shm and len(payload) >= SHM_MIN_BYTES:
                try:
                    response["shm"] = ship_shared(payload)
                    del response["payload"]
                except Exception:  # pragma: no cover - no /dev/shm etc.
                    pass  # inline payload fallback already in place
        except BaseException as error:  # noqa: BLE001 - must cross the pipe
            response = {"ok": False, "error": _picklable_error(error)}
        try:
            connection.send_bytes(pickle.dumps(response))
        except (BrokenPipeError, OSError):
            return
