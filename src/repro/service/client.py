"""Resilient synchronous client for the JSON-lines matrix service.

:class:`ServiceClient` is the supported way to talk to a ``repro
serve`` endpoint from another process.  It layers the same resilience
discipline the engine applies to tile pairs onto the network edge:

* **per-request timeouts** — every connect and exchange is bounded by
  ``connect_timeout`` / ``request_timeout``;
* **total deadlines** — a :class:`Deadline` budget caps one logical
  operation across all its retries, and :meth:`ServiceClient.submit`
  propagates the remaining budget to the server as the job's
  ``deadline_seconds`` so the engine cancels cooperatively when the
  client has already given up;
* **jittered-exponential retries** — transport failures (refused or
  reset connections, timeouts, truncated frames) retry under the shared
  :class:`~repro.resilience.RetryPolicy` with the library's
  deterministic jitter; typed server-side rejections never retry
  blindly;
* **idempotent submission** — :meth:`ServiceClient.submit` attaches an
  ``idempotency_key`` (client-supplied or generated) that the server
  dedupes against its :class:`~repro.service.jobs.JobStore`, so a
  retried submit whose first response was lost never double-executes;
* **a circuit breaker** — after ``failure_threshold`` *consecutive*
  transport failures the breaker opens and requests fail fast with
  :class:`~repro.errors.CircuitOpenError` until ``reset_seconds`` have
  passed and a half-open probe succeeds.

Example::

    with ServiceClient("127.0.0.1", 7077) as client:
        deadline = Deadline(30.0)
        job_id = client.submit(
            tenant="t", op="multiply", a="G", b="G", deadline=deadline
        )
        status = client.wait(job_id, deadline=deadline)
        values = client.result(job_id)   # CRC-verified

See docs/SERVICE.md for the full client guide and docs/RESILIENCE.md
for the end-to-end fault matrix.
"""

from __future__ import annotations

import base64
import binascii
import json
import socket
import time
import uuid
from typing import Any

import numpy as np

from .. import errors as _errors
from ..errors import (
    CircuitOpenError,
    DeadlineExceededError,
    FrameTooLargeError,
    IntegrityError,
    ReproError,
    ServiceError,
    TransportError,
    UnknownJobError,
)
from ..ioutil import crc32c
from ..resilience.retry import RetryPolicy

__all__ = ["CircuitBreaker", "Deadline", "ServiceClient"]

#: Response frames larger than this are rejected client-side (matches
#: the server's request cap in :mod:`repro.service.protocol`).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Job states after which a job never changes again.
_TERMINAL_STATES = frozenset({"done", "failed", "cancelled", "deadline_exceeded"})

#: Default retry discipline for transport failures: a few quick,
#: jittered attempts — service calls are interactive, not batch.
DEFAULT_CLIENT_RETRY = RetryPolicy(
    max_attempts=4,
    backoff_base_seconds=0.05,
    backoff_factor=2.0,
    backoff_max_seconds=1.0,
)


class Deadline:
    """A total time budget, measured against the monotonic clock.

    One ``Deadline`` spans a whole logical operation — submit, every
    retry of it, the wait and the result fetch can all share one budget.
    """

    def __init__(self, seconds: float) -> None:
        if seconds <= 0:
            raise ValueError(f"deadline seconds must be positive, got {seconds}")
        self.seconds = seconds
        self._expires_at = time.monotonic() + seconds

    def remaining(self) -> float:
        """Seconds left (never negative)."""
        return max(0.0, self._expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self._expires_at

    def check(self, what: str) -> None:
        """Raise :class:`~repro.errors.DeadlineExceededError` if expired."""
        if self.expired:
            raise DeadlineExceededError(
                f"client deadline ({self.seconds:g}s) expired before "
                f"{what} completed"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deadline({self.seconds:g}s, {self.remaining():.3f}s left)"


class CircuitBreaker:
    """Consecutive-transport-failure circuit breaker.

    Closed: requests flow.  Open (``failure_threshold`` consecutive
    failures): requests fail fast with
    :class:`~repro.errors.CircuitOpenError` until ``reset_seconds``
    pass.  Half-open: the first request after the cool-down probes the
    server; success closes the breaker, failure re-opens it.
    """

    def __init__(
        self, *, failure_threshold: int = 5, reset_seconds: float = 1.0
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self.failures = 0
        self._opened_at: float | None = None

    @property
    def open(self) -> bool:
        """True while the breaker refuses requests (cool-down running)."""
        return (
            self._opened_at is not None
            and time.monotonic() - self._opened_at < self.reset_seconds
        )

    def before_attempt(self) -> None:
        """Fail fast when open; allow the half-open probe after cool-down."""
        if self._opened_at is None:
            return
        elapsed = time.monotonic() - self._opened_at
        if elapsed < self.reset_seconds:
            raise CircuitOpenError(
                f"circuit breaker open after {self.failures} consecutive "
                f"transport failures; retry in "
                f"{self.reset_seconds - elapsed:.3f}s",
                retry_after_seconds=self.reset_seconds - elapsed,
            )

    def record_success(self) -> None:
        self.failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.failure_threshold:
            self._opened_at = time.monotonic()


class ServiceClient:
    """Synchronous, retrying JSON-lines client for the matrix service.

    Parameters
    ----------
    host, port:
        The ``repro serve`` endpoint.
    connect_timeout, request_timeout:
        Per-attempt bounds on establishing the connection and on one
        request/response exchange.
    retry:
        Transport-failure retry discipline (attempts, backoff, jitter);
        :data:`DEFAULT_CLIENT_RETRY` when omitted.
    breaker:
        The circuit breaker; a default 5-failure/1s breaker when
        omitted.

    The client keeps one connection open and transparently reconnects
    after transport failures.  It is not thread-safe: use one client
    per thread (they may share a server freely).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.retry = retry if retry is not None else DEFAULT_CLIENT_RETRY
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._sock: socket.socket | None = None
        self._buffer = bytearray()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            self._sock = None
        self._buffer.clear()

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- public API --------------------------------------------------------
    def ping(self, *, deadline: Deadline | None = None) -> bool:
        response = self._rpc({"op": "ping"}, op="ping", deadline=deadline)
        return bool(response.get("pong"))

    def health(self, *, deadline: Deadline | None = None) -> dict[str, Any]:
        response = self._rpc({"op": "health"}, op="health", deadline=deadline)
        return dict(response["health"])

    def ready(self, *, deadline: Deadline | None = None) -> dict[str, Any]:
        response = self._rpc({"op": "ready"}, op="ready", deadline=deadline)
        return dict(response["ready"])

    def matrices(self, *, deadline: Deadline | None = None) -> list[str]:
        response = self._rpc(
            {"op": "matrices"}, op="matrices", deadline=deadline
        )
        return [str(name) for name in response["matrices"]]

    def metrics(self, *, deadline: Deadline | None = None) -> dict[str, Any]:
        response = self._rpc({"op": "metrics"}, op="metrics", deadline=deadline)
        return dict(response["metrics"])

    def submit(
        self,
        *,
        tenant: str,
        op: str,
        a: str,
        b: str | None = None,
        rhs: Any = None,
        params: dict[str, Any] | None = None,
        job_id: str | None = None,
        idempotency_key: str | None = None,
        deadline: Deadline | None = None,
    ) -> str:
        """Submit one job; returns its server-assigned id.

        Safe to retry by construction: the ``idempotency_key``
        (generated when not supplied) is fixed *before* the first
        attempt, so when a submit response is lost in transit the
        retried request dedupes server-side onto the original job
        instead of executing twice.  With a ``deadline``, the remaining
        budget travels as the job's ``deadline_seconds``; note that a
        resubmission of a cancelled job must use a *fresh* key (a key
        marks one logical submission, not one job).
        """
        if idempotency_key is None:
            idempotency_key = uuid.uuid4().hex
        job: dict[str, Any] = {
            "op": op,
            "a": a,
            "b": b,
            "rhs": rhs,
            "params": params,
            "job_id": job_id,
            "idempotency_key": idempotency_key,
        }
        if deadline is not None:
            deadline.check("submit")
            job["deadline_seconds"] = deadline.remaining()
        response = self._rpc(
            {"op": "submit", "tenant": tenant, "job": job},
            op="submit",
            deadline=deadline,
        )
        return str(response["job_id"])

    def status(
        self, job_id: str, *, deadline: Deadline | None = None
    ) -> dict[str, Any]:
        response = self._rpc(
            {"op": "status", "job_id": job_id}, op="status", deadline=deadline
        )
        return dict(response["status"])

    def result(
        self, job_id: str, *, deadline: Deadline | None = None
    ) -> np.ndarray:
        """The finished job's dense result values, CRC-verified locally.

        Raises :class:`~repro.errors.IntegrityError` when the payload's
        bytes do not match the digest the server computed (or do not
        decode to the stated shape) — a mangled or tampered result is
        never silently returned.
        """
        response = self._rpc(
            {"op": "result", "job_id": job_id}, op="result", deadline=deadline
        )
        payload = response["result"]
        try:
            raw = base64.b64decode(payload["data"], validate=True)
        except (binascii.Error, TypeError, ValueError) as error:
            raise IntegrityError(
                f"result of job {job_id!r} is not valid base64: {error}"
            ) from error
        actual = crc32c(raw)
        stored = int(payload["crc32c"])
        if actual != stored:
            raise IntegrityError(
                f"result of job {job_id!r} failed its CRC-32C check in "
                f"transit (stored {stored:#010x}, computed {actual:#010x})"
            )
        try:
            values = np.frombuffer(raw, dtype="<f8").reshape(payload["shape"])
        except ValueError as error:
            raise IntegrityError(
                f"result of job {job_id!r} does not match its shape "
                f"{payload['shape']}: {error}"
            ) from error
        return values.astype(np.float64)

    def cancel(self, job_id: str, *, deadline: Deadline | None = None) -> bool:
        response = self._rpc(
            {"op": "cancel", "job_id": job_id}, op="cancel", deadline=deadline
        )
        return bool(response.get("cancelled"))

    def wait(
        self,
        job_id: str,
        *,
        timeout: float = 60.0,
        deadline: Deadline | None = None,
    ) -> dict[str, Any]:
        """Block until the job reaches a terminal state; returns its status.

        Each round trip is one long-poll ``wait`` request that the server
        answers as soon as the job settles.  The hold it asks for is at
        most half of that exchange's socket timeout (``request_timeout``
        capped by the ``deadline``) and never past ``timeout``, so a held
        request is never mistaken for a dead connection.  Raises
        :class:`TimeoutError` if the job is still not terminal after
        ``timeout`` seconds.
        """
        expires = time.monotonic() + timeout
        while True:
            if deadline is not None:
                deadline.check(f"wait for job {job_id}")
            exchange = self.request_timeout
            if deadline is not None:
                exchange = min(exchange, deadline.remaining())
            hold = max(0.0, min(expires - time.monotonic(), exchange / 2))
            response = self._rpc(
                {"op": "wait", "job_id": job_id, "timeout": hold},
                op="wait",
                deadline=deadline,
            )
            status = dict(response["status"])
            if status.get("state") in _TERMINAL_STATES:
                return status
            if time.monotonic() >= expires:
                raise TimeoutError(
                    f"job {job_id} still {status.get('state')!r} after "
                    f"{timeout:g}s"
                )

    # -- transport ---------------------------------------------------------
    def _rpc(
        self,
        payload: dict[str, Any],
        *,
        op: str,
        deadline: Deadline | None,
    ) -> dict[str, Any]:
        """One request with retries, breaker accounting and error mapping."""
        attempts = max(1, self.retry.max_attempts)
        last_error: TransportError | None = None
        for attempt in range(1, attempts + 1):
            if deadline is not None:
                deadline.check(op)
            self.breaker.before_attempt()
            try:
                response = self._exchange(payload, deadline)
            except TransportError as error:
                self.breaker.record_failure()
                self.close()
                last_error = error
                if attempt < attempts:
                    delay = self.retry.backoff_seconds(("client", op), attempt)
                    if deadline is not None:
                        delay = min(delay, deadline.remaining())
                    if delay > 0:
                        time.sleep(delay)
                continue
            self.breaker.record_success()
            if response.get("ok"):
                return response
            self._raise_remote(response.get("error"))
        assert last_error is not None
        raise last_error

    def _exchange(
        self, payload: dict[str, Any], deadline: Deadline | None
    ) -> dict[str, Any]:
        """One bounded send/receive over the (re)connected socket."""
        try:
            sock = self._connect(deadline)
            timeout = self.request_timeout
            if deadline is not None:
                timeout = min(timeout, max(deadline.remaining(), 1e-3))
            sock.settimeout(timeout)
            sock.sendall(json.dumps(payload).encode() + b"\n")
            frame = self._read_frame(sock)
        except TransportError:
            raise
        except (OSError, ValueError) as error:
            raise TransportError(
                f"exchange with {self.host}:{self.port} failed: {error}",
                cause=error,
            ) from error
        try:
            response = json.loads(frame)
        except ValueError as error:
            raise TransportError(
                f"undecodable response frame from {self.host}:{self.port}: "
                f"{error}",
                cause=error,
            ) from error
        if not isinstance(response, dict):
            raise TransportError(
                f"response from {self.host}:{self.port} is not a JSON object"
            )
        return response

    def _connect(self, deadline: Deadline | None) -> socket.socket:
        if self._sock is not None:
            return self._sock
        timeout = self.connect_timeout
        if deadline is not None:
            timeout = min(timeout, max(deadline.remaining(), 1e-3))
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=timeout
            )
        except OSError as error:
            raise TransportError(
                f"cannot connect to {self.host}:{self.port}: {error}",
                cause=error,
            ) from error
        self._buffer.clear()
        return self._sock

    def _read_frame(self, sock: socket.socket) -> bytes:
        """One newline-terminated response frame, size-capped.

        Bytes past the newline stay buffered for the next frame.  Each
        received chunk is searched once, so a frame costs time linear in
        its size.
        """
        buffer = self._buffer
        scanned = 0
        while (newline := buffer.find(b"\n", scanned)) == -1:
            if len(buffer) > MAX_FRAME_BYTES:
                raise FrameTooLargeError(
                    f"response frame exceeds the {MAX_FRAME_BYTES} byte cap",
                    limit_bytes=MAX_FRAME_BYTES,
                )
            scanned = len(buffer)
            chunk = sock.recv(65536)
            if not chunk:
                raise TransportError(
                    f"connection to {self.host}:{self.port} closed mid-frame "
                    f"({len(buffer)} bytes buffered)"
                )
            buffer += chunk
        frame = bytes(buffer[:newline])
        del buffer[: newline + 1]
        return frame

    def _raise_remote(self, error_obj: Any) -> None:
        """Re-raise a server-side error payload as its typed class."""
        if not isinstance(error_obj, dict):
            raise ServiceError("server reported an error without detail")
        name = str(error_obj.get("type", "ServiceError"))
        message = str(error_obj.get("message", ""))
        exc_type = getattr(_errors, name, None)
        if isinstance(exc_type, type) and issubclass(exc_type, ReproError):
            raise exc_type(message)
        if name == "BadRequest":
            raise ServiceError(f"bad request: {message}")
        raise ServiceError(f"{name}: {message}")


# Referenced for the docstring contract: clients see UnknownJobError
# (and every other typed rejection) exactly as in-process callers do.
_ = UnknownJobError
