"""Synchronous client for the proving service.

    from repro import ServiceClient

    with ServiceClient("/tmp/repro.sock") as svc:
        envelope = svc.prove("sha", seed=7)          # submit + wait
        assert svc.verify(envelope)                  # round-trip check

:class:`ServiceClient` speaks the framed protocol
(:mod:`repro.service.protocol`) over one persistent connection — strict
request/response, so a plain lock makes it thread-safe, and a request
that fails mid-round-trip closes the connection (a late reply must not
answer the next request).  Server-side failures come back as the same
typed exceptions local calls raise
(:class:`~repro.errors.ConfigError`,
:class:`~repro.errors.ProverTimeoutError`,
:class:`~repro.service.protocol.QueueFullError`, ...), which is what
lets ``repro client`` reuse the CLI's exit-code mapping unchanged.

The low-level surface mirrors the job lifecycle — :meth:`submit`,
:meth:`status`, :meth:`result` — and :meth:`prove` / :meth:`verify` wrap
it in submit-then-wait convenience.  Envelopes are bytes throughout,
except in :meth:`result`'s JSON-shaped reply (base64 text).
"""

from __future__ import annotations

import operator
import socket
import threading
import time
from typing import Optional, Tuple, Union

from ..errors import ConfigError
from . import protocol

#: Seconds between `result` long-polls while waiting for a job.
_POLL_WAIT_S = 5.0


def _parse_address(address: Union[str, Tuple[str, int]]):
    """``(host, port)``, ``"host:port"``, or a unix socket path."""
    text = str(address)
    if isinstance(address, tuple):
        host, port = address
    elif ":" in text and not text.startswith(("/", ".")):
        host, _, port = text.rpartition(":")
    else:
        return ("unix", text, None)
    port = int(port) if str(port).isdecimal() else 0
    if not 0 < port < 65536:
        raise ConfigError(f"daemon address {text!r} needs a port 1-65535")
    return ("tcp", host or "127.0.0.1", port)


class ServiceClient:
    """One connection to a running ``repro serve`` daemon."""

    def __init__(self, address: Union[str, Tuple[str, int]],
                 *, connect_timeout_s: float = 10.0):
        kind, host, port = _parse_address(address)
        sock = None
        try:
            if kind == "unix":
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(connect_timeout_s)
                sock.connect(host)
            else:
                sock = socket.create_connection((host, port),
                                                timeout=connect_timeout_s)
        except OSError as exc:
            if sock is not None:
                sock.close()
            raise protocol.DaemonUnreachableError(
                f"cannot reach daemon at {address}: "
                f"{exc.strerror or exc}") from None
        self._sock = sock
        self._lock = threading.Lock()
        # Job waits are long-poll round trips; the socket timeout only
        # needs to catch a dead server, not bound the job.
        self._sock.settimeout(max(connect_timeout_s, _POLL_WAIT_S * 4))
        self._lost = False

    # -- plumbing ----------------------------------------------------------

    def request(self, payload: dict) -> dict:
        """One raw request/response round trip (typed errors raised)."""
        frame = protocol.pack_frame(payload)
        with self._lock:
            if self._lost:
                raise protocol.ServiceError(
                    "connection lost mid-request; open a new client")
            try:
                self._sock.sendall(frame)
                response = protocol.read_frame_sync(self._sock)
                if response is None:
                    raise protocol.ServiceError(
                        "server closed the connection mid-request")
            except BaseException as exc:
                # A late reply would answer the next request: hang up.
                self._lost = True
                self.close()
                if isinstance(exc, ConnectionError):  # reset, broken pipe
                    raise protocol.ServiceError(
                        f"connection to daemon lost: {exc}") from None
                raise
        return protocol.raise_for_error(response)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- job lifecycle -----------------------------------------------------

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def submit(self, kind: str, *, circuit_id: str = "",
               preset: Optional[str] = None, seed: Optional[int] = None,
               envelope: Optional[bytes] = None,
               timeout_s: Optional[float] = None) -> str:
        """Submit one job; returns its id (may already be done on a
        proof-cache hit).  Raises
        :class:`~repro.service.protocol.QueueFullError` on backpressure."""
        payload = {"op": "submit", "kind": kind}
        if circuit_id:
            payload["circuit_id"] = circuit_id
        if preset is not None:
            payload["preset"] = preset
        if seed is not None:
            payload["seed"] = operator.index(seed)  # 1.5: TypeError
        if envelope is not None:
            payload["envelope"] = bytes(envelope)  # the frame's blob
        if timeout_s is not None:
            payload["timeout_s"] = float(timeout_s)
        return str(self.request(payload)["job_id"])

    def status(self, job_id: str) -> dict:
        return self.request({"op": "status", "job_id": job_id})

    def result(self, job_id: str,
               wait_s: Optional[float] = None) -> dict:
        """The job's result, long-polling until it finishes.

        ``wait_s`` bounds the total wait (None = wait forever); on
        expiry with the job still running, returns its status dict
        (``state`` != done).  A failed job raises its typed error.  The
        reply is JSON-shaped: a prove's ``envelope`` is base64 text.
        """
        response = self._wait(job_id, wait_s)
        if isinstance(response.get("envelope"), bytes):
            response["envelope"] = protocol.encode_blob(response["envelope"])
        return response

    def _wait(self, job_id: str, wait_s: Optional[float]) -> dict:
        t_end = None if wait_s is None else time.monotonic() + wait_s
        while True:
            step = _POLL_WAIT_S
            if t_end is not None:
                left = t_end - time.monotonic()
                if left <= 0:
                    return self.status(job_id)
                step = min(step, left)
            response = self.request(
                {"op": "result", "job_id": job_id, "wait_s": step})
            if response.get("state") in ("done", "failed"):
                return response

    def _done(self, job_id: str, wait_s: Optional[float]) -> dict:
        response = self._wait(job_id, wait_s)
        if response.get("state") != "done":
            raise protocol.ServiceError(
                f"job {job_id} still {response.get('state')} after wait",
                code=protocol.E_TIMEOUT)
        return response

    # -- convenience -------------------------------------------------------

    def prove(self, circuit_id: str, *, preset: Optional[str] = None,
              seed: Optional[int] = None,
              timeout_s: Optional[float] = None,
              wait_s: Optional[float] = None) -> bytes:
        """Submit a prove job and wait for its NCPE envelope bytes."""
        job_id = self.submit("prove", circuit_id=circuit_id, preset=preset,
                             seed=seed, timeout_s=timeout_s)
        return self._done(job_id, wait_s)["envelope"]

    def verify(self, envelope: bytes, *, circuit_id: str = "",
               timeout_s: Optional[float] = None,
               wait_s: Optional[float] = None) -> bool:
        """Submit a verify job; True iff the proof is valid."""
        job_id = self.submit("verify", envelope=envelope,
                             circuit_id=circuit_id, timeout_s=timeout_s)
        return bool(self._done(job_id, wait_s).get("valid"))

    def stats(self) -> dict:
        return dict(self.request({"op": "stats"})["stats"])

    def shutdown_server(self) -> dict:
        """Ask the daemon to drain and exit (returns its ack)."""
        return self.request({"op": "shutdown"})
