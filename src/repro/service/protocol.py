"""Wire protocol of the proving service: length-prefixed JSON frames.

One frame is ``u32 big-endian payload length | utf-8 JSON object``.  The
connection is strictly request/response — the client writes one request
frame and reads exactly one response frame before sending the next — so
framing never needs message ids, and a synchronous client stays a loop
of two blocking calls.  Binary blobs (proof envelopes) travel base64'd
inside the JSON.

Parsing follows the envelope parser's posture (``docs/ROBUSTNESS.md``):
every length is bounds-checked before allocation
(:data:`MAX_FRAME_BYTES`), payloads must decode to a JSON *object*, and
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

import asyncio
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

#: Frame length prefix: one unsigned 32-bit big-endian integer.
LEN_STRUCT = struct.Struct(">I")

#: Hard cap on a single frame's JSON payload.  A base64'd paper-preset
#: envelope is ~2 MB; 64 MiB leaves room for large batches while keeping
#: a malicious length prefix from allocating unbounded memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Seconds a peer has to deliver a frame's body once its length prefix
#: arrived (a full 64 MiB frame at ~2 MB/s).  Idle time *between* frames
#: is unbounded: clients hold persistent connections.
FRAME_READ_TIMEOUT_S = 30.0

#: Protocol revision, echoed by ``ping`` so clients can detect skew.
PROTOCOL_VERSION = 1

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


class FrameError(DeserializationError):
    """A malformed protocol frame (bad length prefix, oversized payload,
    non-JSON or stalled body).  Subclasses DeserializationError so the CLI's
    exit-code mapping (4) applies unchanged."""


# -- blob helpers -----------------------------------------------------------

def encode_blob(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def decode_blob(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, AttributeError, UnicodeEncodeError) as exc:
        raise FrameError(f"invalid base64 blob: {exc}") from None


# -- frame codec ------------------------------------------------------------

def pack_frame(payload: dict) -> bytes:
    """Serialize one JSON object to its wire frame."""
    raw = json.dumps(payload, sort_keys=True).encode("utf-8")
    if len(raw) > MAX_FRAME_BYTES:
        raise FrameError(f"frame payload {len(raw)} bytes exceeds cap "
                         f"{MAX_FRAME_BYTES}")
    return LEN_STRUCT.pack(len(raw)) + raw


def _parse_payload(raw: bytes) -> dict:
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FrameError("frame payload must be a JSON object, got "
                         f"{type(obj).__name__}")
    return obj


def _checked_length(prefix: bytes) -> int:
    (length,) = LEN_STRUCT.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame length {length} exceeds cap "
                         f"{MAX_FRAME_BYTES}")
    return length


async def read_frame_async(reader: asyncio.StreamReader) -> Optional[dict]:
    """Read one frame from an asyncio stream; None on clean EOF.  The
    wait for a frame to begin is unbounded, the wait for its body is
    :data:`FRAME_READ_TIMEOUT_S`."""
    try:
        prefix = await reader.readexactly(LEN_STRUCT.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    length = _checked_length(prefix)
    try:
        raw = await asyncio.wait_for(reader.readexactly(length),
                                     FRAME_READ_TIMEOUT_S)
    except asyncio.TimeoutError:
        raise FrameError(f"frame body stalled: {length} bytes announced, "
                         f"not received within {FRAME_READ_TIMEOUT_S} s"
                         ) from None
    except (asyncio.IncompleteReadError, ConnectionError):
        raise FrameError("connection closed mid-frame") from None
    return _parse_payload(raw)


def read_frame_sync(sock: socket.socket) -> Optional[dict]:
    """Read one frame from a blocking socket; None on clean EOF."""
    prefix = _recv_exact(sock, LEN_STRUCT.size)
    if prefix is None:
        return None
    length = _checked_length(prefix)
    raw = _recv_exact(sock, length)
    if raw is None:
        raise FrameError("connection closed mid-frame")
    return _parse_payload(raw)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """``n`` bytes from a blocking socket; None on EOF at a frame
    boundary, :class:`FrameError` on EOF mid-read."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            if not buf:
                return None
            raise FrameError("connection closed mid-frame")
        buf.extend(chunk)
    return bytes(buf)


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
    if isinstance(exc, QueueFullError):
        code = E_QUEUE_FULL
    elif isinstance(exc, ProverTimeoutError):
        code = E_TIMEOUT
    elif isinstance(exc, FrameError):
        code = E_TOO_LARGE if "exceeds cap" in str(exc) else E_BAD_REQUEST
    elif isinstance(exc, (DeserializationError, ConfigError, ValueError,
                          TypeError, KeyError)):
        code = E_BAD_REQUEST
    elif isinstance(exc, ServiceError):
        code = exc.code
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
    if exc_type is QueueFullError:
        raise QueueFullError(message)
    if exc_type is ProverTimeoutError:
        raise ProverTimeoutError(message)
    if exc_type is not None:
        raise exc_type(message)
    raise ServiceError(f"{name}: {message}", code=code)
