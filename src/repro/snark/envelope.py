"""Versioned self-describing envelope around a proof bundle.

The proof wire format in :mod:`repro.snark.serialize` carries only the
proof; a relying party still needs to know which security preset produced
it, which circuit it talks about, and the public-input vector it binds.
The envelope packages all four so a single file/blob is verifiable on its
own::

    "NCPE" | version u8
          | preset-id   u8 length + utf-8 bytes   (must name a known preset)
          | circuit-id  u8 length + utf-8 bytes   (may be empty)
          | public      u32 count + canonical u64 field elements
          | payload     u32 length + proof bytes (serialize.proof_to_bytes)

Parsing is strict, mirroring the proof parser: every length is
bounds-checked before allocation, unknown versions and unknown preset ids
are rejected, field elements must be canonical, and trailing bytes after
the payload are an error.  All failures raise
:class:`~repro.errors.DeserializationError`.
"""

from __future__ import annotations

from ..errors import DeserializationError
from .serialize import _Reader, _Writer, proof_from_bytes, proof_to_bytes

MAGIC = b"NCPE"
#: v2: a Merkle leaf is one tagged SHA3 over the packed column
#: (:data:`repro.hashing.fieldhash.LEAF_TAG`), so every root differs from
#: v1's word-chain leaves.  v3: the PCS proximity coefficients come from
#: one transcript absorb per vector
#: (:meth:`repro.hashing.transcript.Transcript.challenge_vector`), so
#: every gamma — and every byte derived after it — differs from v2's.
#: The layout never moved; an older proof cannot verify and is refused
#: here, at the version byte.
VERSION = 3

#: Preset ids are short registry keys; circuit ids are free-form labels.
MAX_PRESET_ID_BYTES = 64
MAX_CIRCUIT_ID_BYTES = 255


def bundle_to_bytes(bundle) -> bytes:
    """Serialize a :class:`~repro.snark.api.ProofBundle` to envelope bytes.

    The bundle must be self-describing: ``preset_name`` is required (the
    lifecycle API always sets it; hand-built legacy bundles may not).
    """
    if not bundle.preset_name:
        raise ValueError("bundle has no preset id; produce bundles via "
                         "prove(pk, ...) to serialize them")
    preset_id = bundle.preset_name.encode("utf-8")
    circuit_id = bundle.circuit_id.encode("utf-8")
    if len(preset_id) > MAX_PRESET_ID_BYTES:
        raise ValueError(f"preset id exceeds {MAX_PRESET_ID_BYTES} bytes")
    if len(circuit_id) > MAX_CIRCUIT_ID_BYTES:
        raise ValueError(f"circuit id exceeds {MAX_CIRCUIT_ID_BYTES} bytes")
    w = _Writer()
    w.parts.append(MAGIC)
    w.u8(VERSION)
    w.u8(len(preset_id))
    w.parts.append(preset_id)
    w.u8(len(circuit_id))
    w.parts.append(circuit_id)
    w.array(bundle.public)
    payload = proof_to_bytes(bundle.proof)
    w.u32(len(payload))
    w.parts.append(payload)
    return w.getvalue()


def bundle_from_bytes(data: bytes):
    """Strictly parse envelope bytes back into a ``ProofBundle``.

    A successful return guarantees: known format version, a preset id
    resolving in the preset registry, canonical public inputs, a
    structurally valid proof payload, and no trailing bytes.  The preset
    id is *not* checked against any verifying key here — that binding
    happens in :func:`repro.snark.api.verify`.
    """
    from .api import ProofBundle
    from .params import PRESETS

    r = _Reader(data)
    if r._take(4) != MAGIC:
        raise DeserializationError("bad envelope magic", offset=0)
    version = r.u8()
    if version != VERSION:
        raise DeserializationError(
            f"unsupported envelope version {version}", offset=4)
    preset_name = _read_label(r, "preset id", MAX_PRESET_ID_BYTES)
    if not preset_name:
        raise r.fail("empty preset id")
    if preset_name not in PRESETS:
        raise r.fail(f"unknown preset id {preset_name!r}")
    circuit_id = _read_label(r, "circuit id", MAX_CIRCUIT_ID_BYTES)
    public = r.array("public inputs")
    payload_len = r.count("proof payload", 1)
    payload = r._take(payload_len)
    proof = proof_from_bytes(payload)
    if not r.done():
        raise DeserializationError(
            f"{len(r.data) - r.pos} trailing bytes after envelope",
            offset=r.pos)
    return ProofBundle(proof=proof, public=public,
                       preset_name=preset_name, circuit_id=circuit_id)


def _read_label(r: _Reader, what: str, cap: int) -> str:
    """Read a u8-length-prefixed utf-8 label."""
    n = r.u8()
    if n > cap:
        raise r.fail(f"{what} length {n} exceeds cap {cap}")
    raw = r._take(n)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise r.fail(f"{what} is not valid utf-8") from None
