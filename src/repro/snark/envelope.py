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
          | payload     u32 length + proof bytes (serialize.proof_to_bytes,
          |             in the mode the preset's column query count gives)

Parsing is strict, mirroring the proof parser: every length is
bounds-checked before allocation, unknown versions and unknown preset ids
are rejected, field elements must be canonical, and trailing bytes after
the payload are an error.  All failures raise
:class:`~repro.errors.DeserializationError`.
"""

from __future__ import annotations

from typing import List

from .serialize import Span, _Reader, _read_proof, _Writer, proof_to_bytes

MAGIC = b"NCPE"
#: v2: a Merkle leaf is one tagged SHA3 over the packed column
#: (:data:`repro.hashing.fieldhash.LEAF_TAG`), so every root differs from
#: v1's word-chain leaves.  v3: the PCS proximity coefficients come from
#: one transcript absorb per vector
#: (:meth:`repro.hashing.transcript.Transcript.challenge_vector`), so
#: every gamma — and every byte derived after it — differs from v2's.
#: v4: the payload (proof format v3) ships each opened column once, in
#: one column table shared by the repetitions; the proof it decodes to,
#: and so every challenge, is v3's.  An older envelope is refused here,
#: at the version byte: no reader is kept for v3's per-repetition columns.
#: v5: the payload (proof format v4) leaves out the column table's rows
#: that are zero in every opened column; the proof it decodes to, and so
#: every challenge, is v4's.  No v4 reader is kept either.
#: v6: the payload (proof format v5) ends in the rows block — the shared
#: message matrix — instead of the column table when every repetition
#: opens at least ``num_cols`` distinct columns; the transcript, and so
#: every challenge, is v5's.  No v5 reader is kept.
#: v7: the payload (proof format v6) is in rows mode exactly when the
#: message is no wider than the preset's column query count, and then
#: each opening is the message alone: no PCS part travels and the PCS
#: transcript is not used.  The Spartan transcript, and so every sumcheck
#: message, is v6's, and a columns-mode payload is v6's but its version
#: byte.  No v6 reader is kept.
VERSION = 7

#: Preset ids are short registry keys; circuit ids are free-form labels.
MAX_PRESET_ID_BYTES = 64
MAX_CIRCUIT_ID_BYTES = 255


def envelope_labels(preset_name: str, circuit_id: str):
    """``(preset id, circuit id)`` as envelope bytes — the one check of the
    label rules (a non-empty preset id, each id within its cap); raises
    ``ValueError`` for labels the envelope cannot carry."""
    if not preset_name:
        raise ValueError("bundle has no preset id; produce bundles via "
                         "prove(pk, ...) to serialize them")
    preset_id = preset_name.encode("utf-8")
    circuit = circuit_id.encode("utf-8")
    if len(preset_id) > MAX_PRESET_ID_BYTES:
        raise ValueError(f"preset id exceeds {MAX_PRESET_ID_BYTES} bytes")
    if len(circuit) > MAX_CIRCUIT_ID_BYTES:
        raise ValueError(f"circuit id exceeds {MAX_CIRCUIT_ID_BYTES} bytes")
    return preset_id, circuit


def bundle_to_bytes(bundle) -> bytes:
    """Serialize a :class:`~repro.snark.api.ProofBundle` to envelope
    bytes; its labels must pass :func:`envelope_labels`."""
    preset_id, circuit_id = envelope_labels(bundle.preset_name,
                                            bundle.circuit_id)
    w = _Writer()
    w.parts.append(MAGIC)
    w.u8(VERSION)
    w.u8(len(preset_id))
    w.parts.append(preset_id)
    w.u8(len(circuit_id))
    w.parts.append(circuit_id)
    w.array(bundle.public)
    payload = proof_to_bytes(bundle.proof,
                             column_queries=_column_queries(
                                 bundle.preset_name))
    w.u32(len(payload))
    w.parts.append(payload)
    return w.getvalue()


def bundle_from_bytes(data: bytes):
    """Strictly parse envelope bytes back into a ``ProofBundle``.

    A successful return guarantees: known format version, a preset id
    resolving in the preset registry, canonical public inputs, a
    structurally valid proof payload, and no trailing bytes.  The preset
    id is *not* checked against any verifying key here — that binding
    happens in :func:`repro.snark.api.verify`.  An error's offset counts
    from the start of the envelope, in the payload too.
    """
    return _read_bundle(_Reader(data))


def layout(data: bytes) -> List[Span]:
    """The :class:`~repro.snark.serialize.Span` of every field of an
    envelope, in wire order: its own (paths ``envelope.*``; the payload's
    length is ``envelope.payload.count``) and its payload's
    (:func:`~repro.snark.serialize.proof_layout`), at offsets in the
    envelope.  Raises as :func:`bundle_from_bytes` does."""
    r = _Reader(data)
    _read_bundle(r)
    return r.layout()


def _read_bundle(r: _Reader):
    from .api import ProofBundle
    from .params import PRESETS

    if r.take(4, "envelope.magic", "magic") != MAGIC:
        raise r.fail("bad envelope magic", offset=0)
    version = r.uint("envelope.version", "version", 1)
    if version != VERSION:
        raise r.fail(f"unsupported envelope version {version}", offset=4)
    preset_name = _read_label(r, "envelope.preset", MAX_PRESET_ID_BYTES)
    if not preset_name:
        raise r.fail("empty preset id")
    if preset_name not in PRESETS:
        raise r.fail(f"unknown preset id {preset_name!r}")
    circuit_id = _read_label(r, "envelope.circuit", MAX_CIRCUIT_ID_BYTES)
    public = r.array("envelope.public")
    payload_len = r.count("envelope.payload", 1)
    r.end = r.pos + payload_len
    proof = _read_proof(r, PRESETS[preset_name].column_queries)
    r.end = len(r.data)
    if not r.done():
        raise r.trailing("envelope")
    return ProofBundle(proof=proof, public=public,
                       preset_name=preset_name, circuit_id=circuit_id)


def _column_queries(preset_name: str) -> int:
    """The column query count of the preset a bundle names: the payload's
    mode follows from it (``ConfigError``, a ``ValueError``, for a name
    no preset has)."""
    from .params import preset_by_name

    return preset_by_name(preset_name).column_queries


def _read_label(r: _Reader, path: str, cap: int) -> str:
    """Read a u8-length-prefixed utf-8 label."""
    n = r.uint(f"{path}.count", size=1)
    if n > cap:
        raise r.fail(f"{path} length {n} exceeds cap {cap}")
    raw = r.take(n, path, "label", n)
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise r.fail(f"{path} is not valid utf-8") from None
