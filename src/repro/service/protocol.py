"""JSON-lines TCP front end for the matrix service.

One request per line, one response per line — trivially scriptable with
``nc`` and language-agnostic.  Requests are JSON objects with an ``op``
field:

* ``{"op": "submit", "tenant": T, "job": {"op": "multiply", "a": ...,
  "b": ...}}`` → ``{"ok": true, "job_id": ...}``
* ``{"op": "status", "job_id": J}`` → ``{"ok": true, "status": {...}}``
* ``{"op": "wait", "job_id": J, "timeout": s}`` → ``{"ok": true,
  "status": {...}}`` — a long poll: the answer comes as soon as the job
  is terminal, when ``timeout`` (clamped to :data:`MAX_WAIT_SECONDS`)
  runs out, or when the service starts draining.  A non-terminal status
  at timeout is not an error.
* ``{"op": "result", "job_id": J}`` → ``{"ok": true, "result":
  {"shape": [r, c], "data": B, "crc32c": N}}`` — ``B`` is the base64 of
  the C-order little-endian float64 bytes and ``N`` their CRC-32C, so
  clients can verify bit-identical recovery end to end.
* ``{"op": "cancel", "job_id": J}`` → ``{"ok": true, "cancelled": bool}``
* ``{"op": "metrics"}`` → the :meth:`MatrixService.metrics` export.
* ``{"op": "matrices"}`` → the registered matrix names.
* ``{"op": "ping"}`` → liveness probe.
* ``{"op": "health"}`` → :meth:`MatrixService.health` liveness detail.
* ``{"op": "ready"}`` → :meth:`MatrixService.ready` readiness gate
  (started, not draining, registry loaded, queue headroom).

Submit jobs may carry ``deadline_seconds`` (total budget, propagated
into the engine's cooperative cancellation) and ``idempotency_key``
(server-side dedupe: a retried submit never double-executes).

Every :class:`~repro.errors.ReproError` maps to ``{"ok": false,
"error": {"type": <class name>, "message": ...}}`` with the connection
kept open, so one tenant's rejected job never disturbs another tenant's
stream.  Connections are served concurrently by asyncio; the service's
worker pool bounds the actual compute.

Frames are bounded: a request line longer than
:data:`STREAM_LIMIT_BYTES` is discarded (the connection survives) and
answered with a typed ``FrameTooLargeError`` payload instead of growing
the buffer without bound; a frame truncated by a mid-line disconnect
closes that connection without disturbing the server.

Once the service starts draining, every connection is closed after the
request it is serving (a held ``wait`` is answered at once with the
job's current status), so no open connection holds up shutdown.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import json
from typing import Any

import numpy as np

from ..errors import FormatError, FrameTooLargeError, ReproError
from ..ioutil import crc32c
from .server import MatrixService

#: Per-line stream buffer and frame-size cap: result payloads carry
#: whole (small) matrices as JSON, far past asyncio's 64 KiB default.
#: Requests beyond this are rejected with ``FrameTooLargeError``.
STREAM_LIMIT_BYTES = 64 * 1024 * 1024

#: Longest a ``wait`` request is held, in seconds: below the client's
#: default request timeout, so a held wait never looks like a dead link.
MAX_WAIT_SECONDS = 10.0


def _error_payload(error: ReproError) -> dict[str, Any]:
    return {
        "ok": False,
        "error": {"type": type(error).__name__, "message": str(error)},
    }


async def _read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """One newline-terminated request frame, size-capped.

    Returns ``None`` on clean EOF (including a disconnect that
    truncated the frame mid-line — the client is gone; there is nobody
    to answer).  An oversized frame is *discarded* — buffered bytes
    through the terminating newline are consumed so the connection
    stays usable — and reported as
    :class:`~repro.errors.FrameTooLargeError` for a typed response.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        # EOF before the newline: a final unterminated frame (legacy
        # clients) is still served; an empty tail is a clean close.
        return error.partial or None
    except asyncio.LimitOverrunError as error:
        consumed = error.consumed
        while True:
            try:
                if consumed:
                    await reader.readexactly(consumed)
                await reader.readuntil(b"\n")
                break  # drained through the newline; connection usable
            except asyncio.LimitOverrunError as again:
                consumed = again.consumed
            except asyncio.IncompleteReadError:
                return None  # EOF inside the oversized frame
        raise FrameTooLargeError(
            f"request frame exceeds the {STREAM_LIMIT_BYTES} byte cap",
            limit_bytes=STREAM_LIMIT_BYTES,
        ) from None


def _frame(response: dict[str, Any]) -> bytes:
    return json.dumps(response).encode() + b"\n"


def _result_payload(values: np.ndarray) -> dict[str, Any]:
    """The result fields; ``data`` is the base64 as ASCII ``bytes``."""
    array = np.ascontiguousarray(values, dtype="<f8")
    return {
        "shape": list(array.shape),
        "data": base64.b64encode(array),
        "crc32c": crc32c(array),
    }


def _result_frame(values: np.ndarray) -> bytes:
    """The ``result`` response line, built around the base64 bytes.

    Base64 holds nothing JSON must escape, so the megabytes of it skip
    ``json.dumps``; the frame parses to what ``_frame`` would emit.
    """
    payload = _result_payload(values)
    return b"".join((
        b'{"ok": true, "result": {"shape": ',
        json.dumps(payload["shape"]).encode(),
        b', "data": "',
        payload["data"],
        b'", "crc32c": ',
        str(payload["crc32c"]).encode(),
        b"}}\n",
    ))


async def _dispatch(service: MatrixService, request: dict[str, Any]) -> bytes:
    """Answer one request with its encoded response line.

    A result's base64 bytes and its JSON are built on the default
    executor, so other connections are served while it encodes.
    """
    op = request.get("op")
    if op == "ping":
        return _frame({"ok": True, "pong": True})
    if op == "health":
        return _frame({"ok": True, "health": service.health()})
    if op == "ready":
        return _frame({"ok": True, "ready": service.ready()})
    if op == "matrices":
        return _frame({"ok": True, "matrices": service.registry.names()})
    if op == "metrics":
        return _frame({"ok": True, "metrics": service.metrics()})
    if op == "submit":
        job = request.get("job")
        if not isinstance(job, dict):
            raise FormatError("submit requests need a 'job' object")
        job_id = await service.submit(
            tenant=str(request.get("tenant", "anonymous")),
            op=str(job.get("op", "")),
            a=str(job.get("a", "")),
            b=job.get("b"),
            rhs=job.get("rhs"),
            params=job.get("params"),
            job_id=job.get("job_id"),
            deadline_seconds=(
                float(job["deadline_seconds"])
                if job.get("deadline_seconds") is not None
                else None
            ),
            idempotency_key=(
                str(job["idempotency_key"])
                if job.get("idempotency_key") is not None
                else None
            ),
        )
        return _frame({"ok": True, "job_id": job_id})
    if op in ("status", "wait", "result", "cancel"):
        job_id = str(request.get("job_id", ""))
        if op == "status":
            status = await service.status(job_id)
            return _frame({"ok": True, "status": status.to_json_dict()})
        if op == "wait":
            timeout = float(request.get("timeout", MAX_WAIT_SECONDS))
            status = await service.long_poll(
                job_id, timeout=min(MAX_WAIT_SECONDS, max(0.0, timeout))
            )
            return _frame({"ok": True, "status": status.to_json_dict()})
        if op == "result":
            values = await service.result(job_id)
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, _result_frame, values)
        cancelled = await service.cancel(job_id)
        return _frame({"ok": True, "cancelled": cancelled})
    raise FormatError(f"unknown request op {op!r}")


async def _end_reads_on_drain(
    service: MatrixService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """Once the service drains, stop reading this connection.

    An idle handler's pending read then ends as a clean EOF; a handler
    serving a request answers it first, then sees the drain and closes.
    """
    await service.until_draining()
    transport = writer.transport
    if isinstance(transport, asyncio.ReadTransport):
        transport.pause_reading()  # no data may follow the EOF fed below
    reader.feed_eof()


async def _handle_connection(
    service: MatrixService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    watcher = asyncio.create_task(_end_reads_on_drain(service, reader, writer))
    try:
        while not service.draining:
            try:
                line = await _read_frame(reader)
            except FrameTooLargeError as error:
                writer.write(_frame(_error_payload(error)))
                await writer.drain()
                continue
            if not line:
                break
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise FormatError("requests must be JSON objects")
                frame = await _dispatch(service, request)
            except ReproError as error:
                frame = _frame(_error_payload(error))
            except (ValueError, TypeError, KeyError) as error:
                frame = _frame(
                    {"ok": False, "error": {"type": "BadRequest", "message": str(error)}}
                )
            writer.write(frame)
            await writer.drain()
    finally:
        watcher.cancel()
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


async def serve(
    service: MatrixService, *, host: str = "127.0.0.1", port: int = 0
) -> asyncio.base_events.Server:
    """Start the service (if needed) and bind the JSON-lines endpoint.

    ``port=0`` binds an ephemeral port; read the bound address from the
    returned server's ``sockets``.  The caller owns the loop:
    ``async with server: await server.serve_forever()``.
    """
    await service.start()

    async def handler(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await _handle_connection(service, reader, writer)

    return await asyncio.start_server(
        handler, host=host, port=port, limit=STREAM_LIMIT_BYTES
    )
