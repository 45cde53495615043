"""Wire protocol of the proving service: a JSON header plus a raw blob.

One frame is ``u32 json_len | u32 blob_len | utf-8 JSON object | blob``,
both lengths big-endian.  A non-empty blob is the frame's ``envelope``
field: proof envelopes cross the socket as raw bytes, never as text, so
neither side pays a base64 or JSON pass over them.  The connection is
strictly request/response — the client writes one request frame and
reads exactly one response frame before sending the next — so framing
never needs message ids, and either end is a loop of two blocking
calls: the daemon's connection threads and the client read with the one
:func:`read_frame_sync`.

Parsing follows the envelope parser's posture (``docs/ROBUSTNESS.md``):
both lengths are bounds-checked before allocation
(:data:`MAX_FRAME_BYTES`), the JSON part must decode to an *object*, and
a malformed frame is answered with a typed error response — never a
crash, never a hang.

Requests carry ``{"op": <name>, ...}``; responses carry ``{"ok": true,
...}`` or ``{"ok": false, "code": <int>, "error": <type name>,
"message": <str>}``.  Error codes are HTTP-flavored
(:data:`E_QUEUE_FULL` is the 429-style backpressure signal); the client
maps the ``error`` type name back onto the repro error taxonomy so CLI
exit codes (``docs/API.md``) carry through the socket unchanged.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
from typing import Optional

from ..errors import (
    ConfigError,
    DeserializationError,
    ProverTimeoutError,
    ReproError,
    VerificationError,
)

#: Frame header: the JSON and blob lengths, unsigned 32-bit big-endian.
HEADER_STRUCT = struct.Struct(">II")

#: Hard cap on a single frame's JSON plus blob.  A paper-preset envelope
#: is ~1.5 MB; 64 MiB leaves room for large batches while keeping a
#: malicious header from allocating unbounded memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Seconds a peer has to deliver a frame's body once its header arrived
#: (a full 64 MiB frame at ~2 MB/s).  The wait for a header is unbounded
#: on a daemon connection: clients hold persistent connections.
FRAME_READ_TIMEOUT_S = 30.0

#: Protocol revision, echoed by ``ping`` so clients can detect skew
#: (1 carried envelopes base64'd inside the JSON).
PROTOCOL_VERSION = 2

# -- error codes (HTTP-flavored; see docs/SERVICE.md) -----------------------
E_BAD_REQUEST = 400     # malformed JSON, unknown op, invalid field
E_NOT_FOUND = 404       # unknown job id
E_TIMEOUT = 408         # job deadline expired (ProverTimeoutError)
E_TOO_LARGE = 413       # frame exceeds MAX_FRAME_BYTES
E_QUEUE_FULL = 429      # bounded queue rejected the job
E_INTERNAL = 500        # unexpected server-side failure
E_SHUTTING_DOWN = 503   # server is draining; retry elsewhere/later

#: Submittable job kinds.
JOB_KINDS = ("prove", "verify")

#: Job lifecycle states reported by ``status``.
JOB_STATES = ("queued", "running", "done", "failed")


class ServiceError(ReproError):
    """A typed failure reported by (or about) the proving service.

    ``code`` is the protocol error code the server attached; client-side
    transport failures use :data:`E_INTERNAL`.
    """

    def __init__(self, message: str, *, code: int = E_INTERNAL):
        self.code = code
        super().__init__(message)


class QueueFullError(ServiceError):
    """429-style backpressure: the bounded job queue refused the
    submission.  Retry with backoff."""

    def __init__(self, message: str):
        super().__init__(message, code=E_QUEUE_FULL)


class DaemonUnreachableError(ServiceError, ConnectionError):
    """No daemon answered a client's connect.  Also a ConnectionError, so
    callers that retry ``OSError`` while a daemon starts keep working."""


class FrameError(DeserializationError):
    """A malformed protocol frame (oversized, non-JSON, stalled or cut
    short).  Subclasses DeserializationError so the CLI's exit-code
    mapping (4) applies unchanged; ``code`` is its wire code (413 for an
    oversized frame, else 400)."""

    def __init__(self, message: str, *, code: int = E_BAD_REQUEST):
        self.code = code
        super().__init__(message)


# -- blob helpers (only `ServiceClient.result`'s JSON-shaped reply) --------

def encode_blob(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def decode_blob(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, AttributeError, UnicodeEncodeError) as exc:
        raise FrameError(f"invalid base64 blob: {exc}") from None


# -- frame codec ------------------------------------------------------------

def _check_size(json_len: int, blob_len: int) -> None:
    if json_len + blob_len > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {json_len} + {blob_len} bytes exceeds "
                         f"cap {MAX_FRAME_BYTES}", code=E_TOO_LARGE)


def pack_frame(payload: dict) -> bytes:
    """Serialize one JSON object to its wire frame; a ``bytes`` value
    under ``envelope`` becomes the blob."""
    blob = payload.get("envelope")
    if isinstance(blob, bytes):
        payload = {k: v for k, v in payload.items() if k != "envelope"}
    else:
        blob = b""
    raw = json.dumps(payload, sort_keys=True).encode("utf-8")
    _check_size(len(raw), len(blob))
    return b"".join((HEADER_STRUCT.pack(len(raw), len(blob)), raw, blob))


def _parse_body(body: bytes, json_len: int) -> dict:
    view = memoryview(body)
    try:
        obj = json.loads(bytes(view[:json_len]).decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: "[[[["
        raise FrameError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FrameError("frame payload must be a JSON object, got "
                         f"{type(obj).__name__}")
    if len(body) > json_len:
        if "envelope" in obj:
            raise FrameError("frame carries an envelope both in its JSON "
                             "and as its blob")
        obj["envelope"] = bytes(view[json_len:])
    return obj


def read_frame_sync(sock: socket.socket) -> Optional[dict]:
    """Read one frame from a blocking socket; None on clean EOF.  The
    frame's body must arrive within :data:`FRAME_READ_TIMEOUT_S`."""
    header = _recv_exact(sock, HEADER_STRUCT.size)
    if header is None:
        return None
    json_len, blob_len = HEADER_STRUCT.unpack(header)
    _check_size(json_len, blob_len)
    idle_timeout = sock.gettimeout()
    sock.settimeout(FRAME_READ_TIMEOUT_S)
    try:
        body = _recv_exact(sock, json_len + blob_len)
    except TimeoutError:
        raise FrameError(f"frame body stalled: {json_len + blob_len} bytes "
                         f"announced, not received within "
                         f"{FRAME_READ_TIMEOUT_S} s") from None
    finally:
        sock.settimeout(idle_timeout)
    if body is None:
        raise FrameError("connection closed mid-frame")
    return _parse_body(body, json_len)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytearray]:
    """``n`` bytes from a blocking socket, received into one buffer; None
    on EOF at a frame boundary, :class:`FrameError` on EOF mid-read."""
    buf = bytearray(n)
    view, got = memoryview(buf), 0
    while got < n:
        chunk = sock.recv_into(view[got:])
        if not chunk:
            if not got:
                return None
            raise FrameError("connection closed mid-frame")
        got += chunk
    return buf


# -- response shaping -------------------------------------------------------

def ok_response(**fields) -> dict:
    fields["ok"] = True
    return fields


def error_response(code: int, error: str, message: str) -> dict:
    return {"ok": False, "code": int(code), "error": error,
            "message": message}


def error_from_exception(exc: BaseException) -> dict:
    """Map a server-side exception to its wire error response."""
    name = type(exc).__name__
    if isinstance(exc, (ServiceError, FrameError)):  # each carries its code
        code = exc.code
    elif isinstance(exc, ProverTimeoutError):
        code = E_TIMEOUT
    elif isinstance(exc, (DeserializationError, ConfigError, ValueError,
                          TypeError, KeyError)):
        code = E_BAD_REQUEST
    else:
        code = E_INTERNAL
    return error_response(code, name, str(exc))


#: Error type names reconstructed client-side onto the repro taxonomy,
#: so `repro client` exits with the same codes as local commands.
_ERROR_TYPES = {
    "ConfigError": ConfigError,
    "DeserializationError": DeserializationError,
    "FrameError": FrameError,
    "VerificationError": VerificationError,
    "ProverTimeoutError": ProverTimeoutError,
    "QueueFullError": QueueFullError,
}


def raise_for_error(response: dict) -> dict:
    """Return ``response`` if ``ok``; raise the typed client-side error
    otherwise (the error taxonomy crosses the wire by type name)."""
    if response.get("ok"):
        return response
    name = str(response.get("error", "ServiceError"))
    message = str(response.get("message", "service request failed"))
    code = int(response.get("code", E_INTERNAL))
    exc_type = _ERROR_TYPES.get(name)
    if exc_type is not None:
        raise exc_type(message)
    raise ServiceError(f"{name}: {message}", code=code)
