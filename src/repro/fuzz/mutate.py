"""Structured proof mutators for soundness fault injection.

Every mutator takes the bytes of a valid proof *envelope* (NCPE: the
preset id, circuit id and public inputs around the proof payload, see
:mod:`repro.snark.envelope`) and returns one or more adversarial
variants.  The envelope names the preset, and the preset's column query
count decides whether the payload is in rows or columns mode, so the
mutators work on envelopes rather than bare payloads.  Two families:

* **Byte-level** mutators edit the serialized form directly (flips,
  truncation, garbage, non-canonical field injection) and should die in
  the strict parser with a typed
  :class:`~repro.errors.DeserializationError`.  One that resizes the
  payload rewrites the envelope's payload length
  (:func:`_relength`), so the payload parser, not the envelope's, meets
  the edit.
* **Structural** mutators parse the bundle, surgically alter one
  semantically meaningful value (a sumcheck evaluation, a Merkle sibling,
  a claimed product, a query index, a message element, ...) and
  re-serialize.  These produce *well-formed* proofs of false statements,
  so they must be rejected by the verifier itself (``verify() -> False``),
  exercising the soundness checks rather than the parser.

The proximity-row, evaluation-row, query-index, multiproof and column
mutators target columns-mode payloads (each repetition carries a PCS
part, and the payload ends in the column table); the ``rows_*`` mutators
target rows-mode ones (each opening is the message, and the payload ends
in the rows block); ``mode_mismatch`` and ``preset_relabel`` move a
payload across the mode rule.

The harness contract (see ``tools/soundness_harness.py``): every mutant
must be rejected via ``False`` or a typed ``ReproError`` — no other
exception may escape, and no mutant may verify.

All randomness comes from the caller's ``random.Random`` so runs are
reproducible from a seed.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from ..errors import DeserializationError
from ..field.goldilocks import MODULUS
from ..hashing.merkle import MerkleMultiProof
from ..pcs.orion import OrionEvalProof
from ..snark.envelope import bundle_from_bytes
from ..snark.params import PRESETS
from ..snark.serialize import (
    _Reader,
    _Writer,
    _write_repetition,
    column_table,
    shipped_message,
)

#: Byte offset of the version byte / commitment root in the payload
#: (see :mod:`repro.snark.serialize`): magic(4) version(1) root(32)
#: table_len(8) num_rows(4) num_cols(4) rep_count(4), then the first
#: repetition's sumcheck-1 round count(4) and first round's count(4).
_OFF_VERSION = 4
_OFF_ROOT = 5
_OFF_TABLE_LEN = 37
_OFF_NUM_ROWS = 45
_OFF_NUM_COLS = 49
_OFF_REP_COUNT = 53
_OFF_FIRST_EVAL = _OFF_REP_COUNT + 4 + 4 + 4


@dataclass
class Mutant:
    """One adversarial proof variant."""

    mutator: str   # name of the mutator class that produced it
    data: bytes    # the mutated envelope bytes


def _parse(data: bytes):
    """The :class:`~repro.snark.api.ProofBundle` an envelope holds."""
    return bundle_from_bytes(data)


def _reserialize(name: str, bundle) -> List[Mutant]:
    return [Mutant(name, bundle.to_bytes())]


def _queries(bundle) -> int:
    return PRESETS[bundle.preset_name].column_queries


def _payload_at(data: bytes) -> int:
    """Offset of the payload in a well-formed envelope: magic(4)
    version(1), two u8-prefixed labels, the public inputs (u32 count +
    u64 each) and the payload's u32 length."""
    r = _Reader(data)
    r._take(5)
    for _ in range(2):
        r._take(r.u8())
    r.array("public inputs")
    r.u32()
    return r.pos


def _relength(data: bytes, at: int) -> bytes:
    """``data`` (an envelope whose payload starts at ``at`` and may have
    been cut or extended) with its payload length set to what follows."""
    return (data[:at - 4] + (len(data) - at).to_bytes(4, "little")
            + data[at:])


def _with_payload(data: bytes, payload: bytes) -> bytes:
    """The envelope ``data`` carrying ``payload`` instead of its own."""
    at = _payload_at(data)
    return _relength(data[:at] + payload, at)


def _table(bundle):
    """``{index: column}`` of the payload's column table, or None when
    the payload ends in the rows block instead."""
    if shipped_message(bundle.proof, _queries(bundle)) is not None:
        return None
    return dict(zip(*column_table(bundle.proof)))


def _reopen(proof, table: Dict[int, np.ndarray]) -> None:
    """Point every repetition's columns at ``table`` (index -> column), as
    the reader does: an edit to a table column reaches every repetition
    that opens its index, so the proof stays one the wire can carry."""
    for rp in proof.repetitions:
        p = rp.pcs_proof
        p.columns = [table[i] for i in sorted(set(p.query_indices))]


def _columns_mode(bundle) -> bool:
    return shipped_message(bundle.proof, _queries(bundle)) is None


# ---------------------------------------------------------------------------
# Byte-level mutators (should be caught by the strict parser)
# ---------------------------------------------------------------------------

def mutate_byte_flip(data: bytes, rng: random.Random) -> List[Mutant]:
    """Flip one random byte, three times (distinct positions)."""
    out = []
    for pos in rng.sample(range(len(data)), k=min(3, len(data))):
        buf = bytearray(data)
        buf[pos] ^= 1 << rng.randrange(8)
        out.append(Mutant("byte_flip", bytes(buf)))
    return out


def mutate_truncate(data: bytes, rng: random.Random) -> List[Mutant]:
    """Cut the envelope short: mid-header, mid-body, and one byte shy;
    and cut the payload one byte shy under a matching length."""
    cuts = {3, min(20, len(data) - 1), rng.randrange(1, len(data)),
            len(data) - 1}
    out = [Mutant("truncate", data[:c]) for c in sorted(cuts) if c < len(data)]
    out.append(Mutant("truncate", _relength(data[:-1], _payload_at(data))))
    return out


def mutate_append_garbage(data: bytes, rng: random.Random) -> List[Mutant]:
    """Trailing bytes after a complete envelope, and after a complete
    payload under a matching length, must be rejected."""
    at = _payload_at(data)
    return [Mutant("append_garbage", data + b"\x00"),
            Mutant("append_garbage", data + rng.randbytes(17)),
            Mutant("append_garbage", _relength(data + rng.randbytes(8), at))]


def mutate_bad_header(data: bytes, rng: random.Random) -> List[Mutant]:
    """Wrong magic, unknown version, and non-power-of-two geometry, in
    the payload's header."""
    at = _payload_at(data)
    out = []
    buf = bytearray(data)
    buf[at] ^= 0xFF
    out.append(Mutant("bad_header", bytes(buf)))
    buf = bytearray(data)
    buf[at + _OFF_VERSION] = 0xEE
    out.append(Mutant("bad_header", bytes(buf)))
    # table_len := table_len + 1 (no longer a power of two, and the
    # rows*cols product no longer covers it)
    buf = bytearray(data)
    buf[at + _OFF_TABLE_LEN] ^= 1
    out.append(Mutant("bad_header", bytes(buf)))
    # absurd repetition count: a length-prefix DoS probe
    buf = bytearray(data)
    buf[at + _OFF_REP_COUNT:at + _OFF_REP_COUNT + 4] = (
        0xFFFFFFFF).to_bytes(4, "little")
    out.append(Mutant("bad_header", bytes(buf)))
    return out


def mutate_noncanonical_field(data: bytes, rng: random.Random) -> List[Mutant]:
    """Overwrite a wire u64 that holds a field element with a value
    >= the Goldilocks modulus (and < 2^64, so it still fits the word):
    the first sumcheck-round evaluation."""
    bundle = _parse(data)
    if not bundle.proof.repetitions or \
            not bundle.proof.repetitions[0].sc1_round_evals:
        return []
    off = _payload_at(data) + _OFF_FIRST_EVAL
    buf = bytearray(data)
    buf[off:off + 8] = (MODULUS + rng.randrange((1 << 32) - 1)).to_bytes(
        8, "little")
    return [Mutant("noncanonical_field", bytes(buf))]


def mutate_preset_relabel(data: bytes, rng: random.Random) -> List[Mutant]:
    """The same payload under every other preset's id: the mode rule then
    reads another query count, and the verifying key another preset."""
    bundle = _parse(data)
    at = _payload_at(data)
    out = []
    for name in sorted(PRESETS):
        if name == bundle.preset_name:
            continue
        label = name.encode("utf-8")
        head = data[5:at]
        rest = head[1 + head[0]:]
        out.append(Mutant("preset_relabel", data[:5] + bytes([len(label)])
                          + label + rest + data[at:]))
    return out


def mutate_mode_mismatch(data: bytes, rng: random.Random) -> List[Mutant]:
    """The payload laid out in the other mode: a PCS part in every
    repetition where the mode rule says rows mode, none where it says
    columns mode, each ending in the block the proof carries.  The PCS
    part given to a rows-mode opening is well-formed: message rows as its
    combination rows, the first codeword columns as its queries, no
    siblings."""
    bundle = _parse(data)
    proof = bundle.proof
    message = shipped_message(proof, _queries(bundle))
    at = _payload_at(data)
    w = _Writer()
    w.parts.append(data[at:at + _OFF_REP_COUNT + 4])   # the payload header
    for rp in proof.repetitions:
        if message is not None:
            rows = np.asarray(message, dtype=np.uint64)
            queries = list(range(min(4 * len(rows[0]), _queries(bundle))))
            rp.pcs_proof = OrionEvalProof(
                [rows[k % len(rows)] for k in range(4)], rows[0], queries,
                [], MerkleMultiProof(queries, []))
        _write_repetition(w, rp, pcs=message is not None)
    if message is None:
        w.table(column_table(proof)[1])
    else:
        w.rows(message)
    return [Mutant("mode_mismatch", _with_payload(data, w.getvalue()))]


# ---------------------------------------------------------------------------
# Structural mutators (well-formed proofs of false statements)
# ---------------------------------------------------------------------------

def mutate_field_bump(data: bytes, rng: random.Random) -> List[Mutant]:
    """Add 1 (mod p) to one value in each major proof section: the
    claims, and in columns mode one evaluation-row element and one table
    column element."""
    out = []
    targets = ("va", "vb", "vc", "w_eval")
    for name in targets:
        bundle = _parse(data)
        rp = rng.choice(bundle.proof.repetitions)
        setattr(rp, name, (int(getattr(rp, name)) + 1) % MODULUS)
        out.extend(_reserialize("field_bump", bundle))
    bundle = _parse(data)
    table = _table(bundle)
    if table is None:
        return out
    # one element of the PCS evaluation row
    rp = rng.choice(bundle.proof.repetitions)
    row = np.array(rp.pcs_proof.eval_row, dtype=np.uint64)
    i = rng.randrange(row.size)
    row[i] = np.uint64((int(row[i]) + 1) % MODULUS)
    rp.pcs_proof.eval_row = row
    out.extend(_reserialize("field_bump", bundle))
    # one element of a column of the shared table, in every repetition
    # that opens it (breaks the Merkle binding)
    bundle = _parse(data)
    table = _table(bundle)
    k = rng.choice(sorted(table))
    col = np.array(table[k], dtype=np.uint64)
    j = rng.randrange(col.size)
    col[j] = np.uint64((int(col[j]) + 1) % MODULUS)
    table[k] = col
    _reopen(bundle.proof, table)
    out.extend(_reserialize("field_bump", bundle))
    return out


def mutate_proximity_row(data: bytes, rng: random.Random) -> List[Mutant]:
    """Columns mode: add 1 to one element of one proximity row."""
    bundle = _parse(data)
    if not _columns_mode(bundle):
        return []
    pcs = rng.choice(bundle.proof.repetitions).pcs_proof
    if not pcs.proximity_rows:
        return []
    k = rng.randrange(len(pcs.proximity_rows))
    row = np.array(pcs.proximity_rows[k], dtype=np.uint64)
    i = rng.randrange(row.size)
    row[i] = np.uint64((int(row[i]) + 1) % MODULUS)
    pcs.proximity_rows[k] = row
    return _reserialize("proximity_row", bundle)


def mutate_sumcheck_tweak(data: bytes, rng: random.Random) -> List[Mutant]:
    """Tamper with sumcheck round polynomials.

    Includes the *compensated* attack: add d to g(0) and subtract d from
    g(1) so the round-sum check g(0)+g(1) == claim still passes — only
    the evaluation binding at the round challenge can catch it.
    """
    out = []
    bundle = _parse(data)
    rp = rng.choice(bundle.proof.repetitions)
    if rp.sc1_round_evals:
        rnd = rng.randrange(len(rp.sc1_round_evals))
        evals = list(rp.sc1_round_evals[rnd])
        d = rng.randrange(1, MODULUS)
        evals[0] = (evals[0] + d) % MODULUS
        if len(evals) > 1:
            evals[1] = (evals[1] - d) % MODULUS
        rp.sc1_round_evals[rnd] = evals
        out.extend(_reserialize("sumcheck_tweak", bundle))
    # plain tweak of a later evaluation point in sumcheck 2
    bundle = _parse(data)
    rp = rng.choice(bundle.proof.repetitions)
    if rp.sc2.round_evals:
        rnd = rng.randrange(len(rp.sc2.round_evals))
        evals = list(rp.sc2.round_evals[rnd])
        k = rng.randrange(len(evals))
        evals[k] = (evals[k] + rng.randrange(1, MODULUS)) % MODULUS
        rp.sc2.round_evals[rnd] = evals
        out.extend(_reserialize("sumcheck_tweak", bundle))
    # tamper the final multilinear evaluations
    bundle = _parse(data)
    rp = rng.choice(bundle.proof.repetitions)
    if rp.sc2.final_values:
        fv = list(rp.sc2.final_values)
        k = rng.randrange(len(fv))
        fv[k] = (fv[k] + 1) % MODULUS
        rp.sc2.final_values = fv
        out.extend(_reserialize("sumcheck_tweak", bundle))
    return out


def mutate_wrong_claim(data: bytes, rng: random.Random) -> List[Mutant]:
    """Substitute internally *consistent* but wrong claims: va*vb == vc
    still holds for random values, so only the sumcheck binding to the
    real witness can reject it."""
    bundle = _parse(data)
    rp = rng.choice(bundle.proof.repetitions)
    va = rng.randrange(MODULUS)
    vb = rng.randrange(MODULUS)
    rp.va, rp.vb, rp.vc = va, vb, (va * vb) % MODULUS
    out = _reserialize("wrong_claim", bundle)
    # zero out the claims entirely (a "prove nothing" attempt)
    bundle = _parse(data)
    rp = rng.choice(bundle.proof.repetitions)
    rp.va = rp.vb = rp.vc = 0
    out.extend(_reserialize("wrong_claim", bundle))
    return out


def mutate_merkle_tamper(data: bytes, rng: random.Random) -> List[Mutant]:
    """Break the Merkle binding: flip a bit of the commitment root and,
    in columns mode, flip a sibling digest, swap two siblings and drop
    one."""
    bundle = _parse(data)
    root = bytearray(bundle.proof.witness_commitment.root)
    root[rng.randrange(32)] ^= 0x01
    bundle.proof.witness_commitment.root = bytes(root)
    out = _reserialize("merkle_tamper", bundle)
    if not _columns_mode(bundle):
        return out
    bundle = _parse(data)
    nodes = rng.choice(bundle.proof.repetitions).pcs_proof.merkle.nodes
    if nodes:
        i = rng.randrange(len(nodes))
        tampered = bytearray(nodes[i])
        tampered[rng.randrange(32)] ^= 0x40
        nodes[i] = bytes(tampered)
        out.extend(_reserialize("merkle_tamper", bundle))
    bundle = _parse(data)
    nodes = rng.choice(bundle.proof.repetitions).pcs_proof.merkle.nodes
    if len(nodes) >= 2:
        i, j = rng.sample(range(len(nodes)), 2)
        nodes[i], nodes[j] = nodes[j], nodes[i]
        out.extend(_reserialize("merkle_tamper", bundle))
    bundle = _parse(data)
    nodes = rng.choice(bundle.proof.repetitions).pcs_proof.merkle.nodes
    if nodes:
        nodes.pop(rng.randrange(len(nodes)))
        out.extend(_reserialize("merkle_tamper", bundle))
    return out


def mutate_query_indices(data: bytes, rng: random.Random) -> List[Mutant]:
    """Columns mode: answer different columns than the transcript
    demands — shift one query index (a newly named index answers with
    the column of the old one), and swap two of one repetition's columns
    in the shared table."""
    out = []
    bundle = _parse(data)
    table = _table(bundle)
    if table is None:
        return out
    rp = rng.choice(bundle.proof.repetitions)
    qi = rp.pcs_proof.query_indices
    if qi:
        k = rng.randrange(len(qi))
        old, qi[k] = qi[k], (qi[k] + 1) % max(2, max(qi) + 1)
        table.setdefault(qi[k], table[old])
        _reopen(bundle.proof, table)
        out.extend(_reserialize("query_indices", bundle))
    bundle = _parse(data)
    table = _table(bundle)
    opened = rng.choice(bundle.proof.repetitions).pcs_proof.merkle.indices
    if len(opened) >= 2:
        i, j = rng.sample(opened, 2)
        table[i], table[j] = table[j], table[i]
        _reopen(bundle.proof, table)
        out.extend(_reserialize("query_indices", bundle))
    return out


def _table_parts(data: bytes):
    """The column table at the end of an envelope's payload:
    ``(height_at, bitmap_at, values_at, table)`` with ``table`` the
    ``(count, height)`` array, or None for a table of no columns or a
    payload that ends in the rows block."""
    columns = _table(_parse(data))
    if not columns:
        return None
    table = np.asarray(list(columns.values()), dtype=np.uint64)
    count, height = table.shape
    values_at = len(data) - 8 * count * int(table.any(axis=0).sum())
    bitmap_at = values_at - (height + 7) // 8
    return bitmap_at - 4, bitmap_at, values_at, table


def _flip_bit(data: bytes, bitmap_at: int, row: int) -> bytes:
    buf = bytearray(data)
    buf[bitmap_at + row // 8] ^= 1 << (row % 8)
    return bytes(buf)


def mutate_column_table(data: bytes, rng: random.Random) -> List[Mutant]:
    """Swap two columns of the column table in place (each column is its
    live rows' values)."""
    parts = _table_parts(data)
    if parts is None or len(parts[3]) < 2:
        return []
    _, _, values_at, table = parts
    stride = (len(data) - values_at) // len(table)
    i, j = sorted(rng.sample(range(len(table)), 2))
    a, b = values_at + i * stride, values_at + j * stride
    buf = bytearray(data)
    buf[a:a + stride], buf[b:b + stride] = (data[b:b + stride],
                                            data[a:a + stride])
    return [Mutant("column_table", bytes(buf))]


def mutate_table_live_bit(data: bytes, rng: random.Random) -> List[Mutant]:
    """Mark a live row zero: in place, so the value block is a row too
    long, and laid out again without the row — a well-formed table whose
    columns the Merkle check must refuse."""
    parts = _table_parts(data)
    if parts is None:
        return []
    _, bitmap_at, _, table = parts
    zero = ~table.any(axis=0)
    live = np.flatnonzero(~zero)
    if not live.size:
        return []
    row = int(rng.choice(live))
    zero[row] = True
    relaid = _relength(data[:bitmap_at]
                       + np.packbits(zero, bitorder="little").tobytes()
                       + table[:, ~zero].astype("<u8").tobytes(),
                       _payload_at(data))
    return [Mutant("table_live_bit", _flip_bit(data, bitmap_at, row)),
            Mutant("table_live_bit", relaid)]


def mutate_table_zero_bit(data: bytes, rng: random.Random) -> List[Mutant]:
    """Clear the bit of a row that is zero in every column: the value
    block is then a row short."""
    parts = _table_parts(data)
    if parts is None:
        return []
    _, bitmap_at, _, table = parts
    zero = np.flatnonzero(~table.any(axis=0))
    if not zero.size:
        return []
    return [Mutant("table_zero_bit",
                   _flip_bit(data, bitmap_at, int(rng.choice(zero))))]


def mutate_table_padding_bit(data: bytes,
                             rng: random.Random) -> List[Mutant]:
    """Set one of the bitmap's padding bits (past the last row)."""
    parts = _table_parts(data)
    if parts is None:
        return []
    _, bitmap_at, _, table = parts
    height = table.shape[1]
    if height % 8 == 0:
        return []
    row = rng.randrange(height, height + 8 - height % 8)
    return [Mutant("table_padding_bit", _flip_bit(data, bitmap_at, row))]


def mutate_table_values_short(data: bytes,
                              rng: random.Random) -> List[Mutant]:
    """Cut the value block one element short."""
    parts = _table_parts(data)
    if parts is None or parts[2] == len(data):
        return []
    return [Mutant("table_values_short",
                   _relength(data[:-8], _payload_at(data)))]


def mutate_table_values_long(data: bytes,
                             rng: random.Random) -> List[Mutant]:
    """Give the value block one canonical element too many."""
    if _table_parts(data) is None:
        return []
    extra = rng.randrange(1, MODULUS).to_bytes(8, "little")
    return [Mutant("table_values_long",
                   _relength(data + extra, _payload_at(data)))]


def mutate_table_height(data: bytes, rng: random.Random) -> List[Mutant]:
    """Relabel the table's height one row up and one row down."""
    parts = _table_parts(data)
    if parts is None:
        return []
    height_at, _, _, table = parts
    out = []
    for h in (table.shape[1] + 1, table.shape[1] - 1):
        buf = bytearray(data)
        buf[height_at:height_at + 4] = h.to_bytes(4, "little")
        out.append(Mutant("table_height", bytes(buf)))
    return out


def _rows_parts(data: bytes):
    """The rows block at the end of an envelope's payload: ``(height_at,
    bitmap_at, values_at, message)`` with ``message`` the ``(height,
    num_cols)`` array, or None for a payload that ends in the column
    table."""
    bundle = _parse(data)
    message = shipped_message(bundle.proof, _queries(bundle))
    if message is None:
        return None
    message = np.asarray(message, dtype=np.uint64)
    values_at = len(data) - 8 * message.shape[1] * int(
        message.any(axis=1).sum())
    bitmap_at = values_at - (len(message) + 7) // 8
    return bitmap_at - 4, bitmap_at, values_at, message


def _with_message(data: bytes, message: np.ndarray) -> bytes:
    """``data`` with every repetition carrying ``message``."""
    bundle = _parse(data)
    for rp in bundle.proof.repetitions:
        rp.pcs_proof.message = message
    return bundle.to_bytes()


def mutate_rows_message(data: bytes, rng: random.Random) -> List[Mutant]:
    """Edit the one message every repetition carries: add 1 to one value,
    to one value of its last row (the mask row, when the preset masks),
    and swap two live rows (each breaks the Merkle binding)."""
    parts = _rows_parts(data)
    if parts is None:
        return []
    out = []
    for i in (rng.randrange(len(parts[3])), len(parts[3]) - 1):
        message = parts[3].copy()
        j = rng.randrange(message.shape[1])
        message[i, j] = (int(message[i, j]) + 1) % MODULUS
        out.append(Mutant("rows_message", _with_message(data, message)))
    live = np.flatnonzero(parts[3].any(axis=1))
    if len(live) >= 2:
        message = parts[3].copy()
        a, b = rng.sample(live.tolist(), 2)
        message[[a, b]] = message[[b, a]]
        out.append(Mutant("rows_message", _with_message(data, message)))
    return out


def mutate_rows_zero_row_live(data: bytes,
                              rng: random.Random) -> List[Mutant]:
    """Make a zero message row live: one of its values non-zero (a
    well-formed block, one row longer, whose encoding the Merkle check
    must refuse)."""
    parts = _rows_parts(data)
    if parts is None:
        return []
    message = parts[3].copy()
    zero = np.flatnonzero(~message.any(axis=1))
    if not zero.size:
        return []
    message[int(rng.choice(zero)), rng.randrange(message.shape[1])] = \
        rng.randrange(1, MODULUS)
    return [Mutant("rows_zero_row_live", _with_message(data, message))]


def mutate_rows_other_message(data: bytes,
                              rng: random.Random) -> List[Mutant]:
    """One repetition carrying another message object than the rest.  The
    wire holds one message, so the writer must refuse such a proof: a
    mutant comes out only if it did not."""
    bundle = _parse(data)
    proof = bundle.proof
    if _columns_mode(bundle) or len(proof.repetitions) < 2:
        return []
    pcs = rng.choice(proof.repetitions[1:]).pcs_proof
    message = np.array(pcs.message)
    message[-1, 0] = (int(message[-1, 0]) + 1) % MODULUS
    pcs.message = message
    try:
        return _reserialize("rows_other_message", bundle)
    except ValueError:
        return []


def mutate_rows_live_bit(data: bytes, rng: random.Random) -> List[Mutant]:
    """Mark a live message row zero: in place, so the value block is a
    row too long, and laid out again without the row — a well-formed
    block whose encoding the Merkle check must refuse."""
    parts = _rows_parts(data)
    if parts is None:
        return []
    _, bitmap_at, _, message = parts
    zero = ~message.any(axis=1)
    live = np.flatnonzero(~zero)
    if not live.size:
        return []
    row = int(rng.choice(live))
    zero[row] = True
    relaid = _relength(data[:bitmap_at]
                       + np.packbits(zero, bitorder="little").tobytes()
                       + message[~zero].astype("<u8").tobytes(),
                       _payload_at(data))
    return [Mutant("rows_live_bit", _flip_bit(data, bitmap_at, row)),
            Mutant("rows_live_bit", relaid)]


def mutate_rows_zero_bit(data: bytes, rng: random.Random) -> List[Mutant]:
    """Clear a zero message row's bit: in place (the value block is then
    a row short) and with the row's zeros laid out again (a second
    encoding the reader must refuse)."""
    parts = _rows_parts(data)
    if parts is None:
        return []
    _, bitmap_at, _, message = parts
    zero = ~message.any(axis=1)
    rows = np.flatnonzero(zero)
    if not rows.size:
        return []
    row = int(rng.choice(rows))
    zero[row] = False
    relaid = _relength(data[:bitmap_at]
                       + np.packbits(zero, bitorder="little").tobytes()
                       + message[~zero].astype("<u8").tobytes(),
                       _payload_at(data))
    return [Mutant("rows_zero_bit", _flip_bit(data, bitmap_at, row)),
            Mutant("rows_zero_bit", relaid)]


def mutate_rows_noncanonical(data: bytes,
                             rng: random.Random) -> List[Mutant]:
    """Overwrite one value of the block with one >= the modulus."""
    parts = _rows_parts(data)
    if parts is None or parts[2] == len(data):
        return []
    values_at = parts[2]
    pos = values_at + 8 * rng.randrange((len(data) - values_at) // 8)
    buf = bytearray(data)
    buf[pos:pos + 8] = (MODULUS + rng.randrange((1 << 32) - 1)).to_bytes(
        8, "little")
    return [Mutant("rows_noncanonical", bytes(buf))]


def mutate_rows_truncate(data: bytes, rng: random.Random) -> List[Mutant]:
    """Cut the payload inside the rows block: in its height, its bitmap
    and its value block."""
    parts = _rows_parts(data)
    if parts is None:
        return []
    height_at, bitmap_at, values_at, _ = parts
    cuts = {height_at + 2, rng.randrange(bitmap_at, values_at + 1),
            rng.randrange(values_at, len(data) + 1)}
    at = _payload_at(data)
    return [Mutant("rows_truncate", _relength(data[:c], at))
            for c in sorted(cuts) if c < len(data)]


def mutate_repetition_surgery(data: bytes, rng: random.Random) -> List[Mutant]:
    """Drop or duplicate whole repetitions (the soundness amplifier)."""
    out = []
    bundle = _parse(data)
    if len(bundle.proof.repetitions) > 1 or _columns_mode(bundle):
        # (a rows-mode proof of no repetitions has no message to carry)
        bundle.proof.repetitions = bundle.proof.repetitions[:-1]
        out.extend(_reserialize("repetition_surgery", bundle))
    bundle = _parse(data)
    bundle.proof.repetitions.append(
        copy.deepcopy(bundle.proof.repetitions[0]))
    out.extend(_reserialize("repetition_surgery", bundle))
    return out


#: Single-proof structured mutators, keyed by class name.
STRUCTURED_MUTATORS: Dict[str, Callable[[bytes, random.Random], List[Mutant]]]
STRUCTURED_MUTATORS = {
    "byte_flip": mutate_byte_flip,
    "truncate": mutate_truncate,
    "append_garbage": mutate_append_garbage,
    "bad_header": mutate_bad_header,
    "noncanonical_field": mutate_noncanonical_field,
    "preset_relabel": mutate_preset_relabel,
    "mode_mismatch": mutate_mode_mismatch,
    "field_bump": mutate_field_bump,
    "proximity_row": mutate_proximity_row,
    "sumcheck_tweak": mutate_sumcheck_tweak,
    "wrong_claim": mutate_wrong_claim,
    "merkle_tamper": mutate_merkle_tamper,
    "query_indices": mutate_query_indices,
    "column_table": mutate_column_table,
    "table_live_bit": mutate_table_live_bit,
    "table_zero_bit": mutate_table_zero_bit,
    "table_padding_bit": mutate_table_padding_bit,
    "table_values_short": mutate_table_values_short,
    "table_values_long": mutate_table_values_long,
    "table_height": mutate_table_height,
    "rows_message": mutate_rows_message,
    "rows_zero_row_live": mutate_rows_zero_row_live,
    "rows_other_message": mutate_rows_other_message,
    "rows_live_bit": mutate_rows_live_bit,
    "rows_zero_bit": mutate_rows_zero_bit,
    "rows_noncanonical": mutate_rows_noncanonical,
    "rows_truncate": mutate_rows_truncate,
    "repetition_surgery": mutate_repetition_surgery,
}


def structured_mutants(data: bytes, rng: random.Random) -> List[Mutant]:
    """Run every structured mutator class on one valid proof.

    Mutants that happen to be byte-identical to the input are dropped:
    swapping two equal columns or equal sibling digests (common in tiny,
    zero-padded witnesses) is a no-op, not an attack, and a no-op "mutant"
    verifying would be a false alarm.
    """
    out: List[Mutant] = []
    for fn in STRUCTURED_MUTATORS.values():
        out.extend(m for m in fn(data, rng) if m.data != data)
    return out


def random_mutants(data: bytes, rng: random.Random,
                   count: int) -> List[Mutant]:
    """``count`` seeded random byte-level mutations: flips, overwrites,
    truncations and extensions at uniformly random positions."""
    out = []
    for _ in range(count):
        buf = bytearray(data)
        op = rng.randrange(4)
        if op == 0:
            buf[rng.randrange(len(buf))] ^= 1 << rng.randrange(8)
        elif op == 1:
            pos = rng.randrange(len(buf))
            buf[pos] = (buf[pos] + rng.randrange(1, 256)) % 256
        elif op == 2:
            del buf[rng.randrange(len(buf)):]
        else:
            buf[rng.randrange(len(buf)):] = rng.randbytes(rng.randrange(1, 64))
        if bytes(buf) != data:
            out.append(Mutant("random_bytes", bytes(buf)))
    return out


def splice_mutants(data_a: bytes, data_b: bytes,
                   rng: random.Random) -> List[Mutant]:
    """Cross-proof splices: graft sections of proof B (for a *different*
    statement) into proof A.  Domain separation in the transcript must
    reject every one of these even when both halves are individually
    honest."""
    out = []
    a, b = _parse(data_a), _parse(data_b)
    # commitment from A, repetitions from B
    spliced = copy.deepcopy(a)
    spliced.proof.repetitions = copy.deepcopy(b.proof.repetitions)
    try:
        out.extend(_reserialize("splice", spliced))
    except (ValueError, DeserializationError):
        pass  # geometry or mode mismatch made it unserializable; skip
    # B's PCS opening under A's sumcheck transcript
    spliced = copy.deepcopy(a)
    if spliced.proof.repetitions and b.proof.repetitions:
        spliced.proof.repetitions[0].pcs_proof = copy.deepcopy(
            b.proof.repetitions[0].pcs_proof)
        try:
            out.extend(_reserialize("splice", spliced))
        except (ValueError, DeserializationError):
            pass
    # B's sumcheck transcript with A's opening
    spliced = copy.deepcopy(a)
    if spliced.proof.repetitions and b.proof.repetitions:
        rp_a, rp_b = spliced.proof.repetitions[0], b.proof.repetitions[0]
        rp_a.sc1_round_evals = copy.deepcopy(rp_b.sc1_round_evals)
        rp_a.va, rp_a.vb, rp_a.vc = rp_b.va, rp_b.vb, rp_b.vc
        rp_a.sc2 = copy.deepcopy(rp_b.sc2)
        rp_a.w_eval = rp_b.w_eval
        out.extend(_reserialize("splice", spliced))
    # raw byte-level splice: A's envelope and payload header, B's body
    at_a, at_b = _payload_at(data_a), _payload_at(data_b)
    out.append(Mutant("splice", _relength(
        data_a[:at_a + _OFF_REP_COUNT] + data_b[at_b + _OFF_REP_COUNT:],
        at_a)))
    return [m for m in out if m.data != data_a]
