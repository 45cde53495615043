"""Proof mutators for soundness fault injection.

Each mutator turns a valid proof envelope into adversarial variants,
which must be rejected via ``False`` or a typed ``ReproError``
(``tools/soundness_harness.py``).  **Span edits** are generated from the
envelope's layout (:func:`repro.snark.envelope.layout`), so no offset is
kept here.  **Hand-written** mutators edit the parsed proof objects and
write them again.  The caller's ``random.Random`` makes every choice.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..field.goldilocks import MODULUS
from ..hashing.merkle import MerkleMultiProof
from ..pcs.orion import (OrionEvalProof, opened_columns, rows_mode,
                         shared_message)
from ..snark.envelope import bundle_from_bytes as _parse, layout
from ..snark.params import PRESETS
from ..snark.serialize import Span, _Writer, _write_repetition


@dataclass
class Mutant:
    """One adversarial proof variant."""

    mutator: str   # the span edit ("field.bump") or mutator that made it
    data: bytes    # the mutated envelope bytes
    span: Optional[str] = None   # the path of the span an edit targets


# Span edits: (envelope, span, the envelope's spans, rng) -> envelopes.

def _span(spans: List[Span], path: str) -> Span:
    return next(s for s in spans if s.path == path)


def _put(data: bytes, at: int, value: int, size: int) -> bytes:
    return data[:at] + value.to_bytes(size, "little") + data[at + size:]


def _resized(data: bytes, spans: List[Span], at: int, cut: int,
             insert: bytes = b"") -> bytes:
    """``data`` with the ``cut`` bytes at ``at`` replaced by ``insert``;
    an edit inside the payload moves the payload's length too."""
    out = data[:at] + insert + data[at + cut:]
    length = _span(spans, "envelope.payload.count")
    if at < length.end:
        return out
    n = int.from_bytes(data[length.offset:length.end], "little")
    return _put(out, length.offset, n + len(insert) - cut, length.length)


def _xor(data: bytes, at: int, mask: int) -> bytes:
    return _put(data, at, data[at] ^ mask, 1)


def _stride(span: Span) -> int:
    return span.length // span.count if span.count else 0


def element(data, span, spans, rng) -> List[bytes]:
    """A field element set to a word in [p, 2^64), and bumped by one."""
    head = 4 if span.kind == "rounds" else 0    # a round's u32 count
    stride = _stride(span)
    if stride <= head:
        return []
    at = (span.offset + rng.randrange(span.count) * stride + head
          + 8 * rng.randrange((stride - head) // 8))
    value = int.from_bytes(data[at:at + 8], "little")
    return [_put(data, at, MODULUS + rng.randrange((1 << 32) - 1), 8),
            _put(data, at, (value + 1) % MODULUS, 8)]


def step(data, span, spans, rng) -> List[bytes]:
    """The word one up, one down and at its top (a length-prefix DoS)."""
    value = int.from_bytes(data[span.offset:span.end], "little")
    top = (1 << 8 * span.length) - 1
    return [_put(data, span.offset, v & top, span.length)
            for v in (value + 1, value - 1, top)]


def flip(data, span, spans, rng) -> List[bytes]:
    """One byte's top bit flipped: never valid utf-8 in a label."""
    return ([_xor(data, span.offset + rng.randrange(span.length), 0x80)]
            if span.length else [])


def swap(data, span, spans, rng) -> List[bytes]:
    """Two items (elements, rounds, digests, columns, rows) swapped."""
    if span.count < 2:
        return []
    s = _stride(span)
    a, b = (span.offset + i * s
            for i in sorted(rng.sample(range(span.count), 2)))
    return [data[:a] + data[b:b + s] + data[a + s:b] + data[a:a + s]
            + data[b + s:]]


def resize(data, span, spans, rng) -> List[bytes]:
    """The block one item short, and one longer (its last, twice)."""
    s = _stride(span)
    return [_resized(data, spans, span.end - s, s),
            _resized(data, spans, span.end, 0, data[span.end - s:span.end])
            ] if s else []


def _bits(data: bytes, span: Span) -> np.ndarray:
    return np.unpackbits(np.frombuffer(data, np.uint8, span.length,
                                       span.offset), bitorder="little")


def bitmap_bit(data, span, spans, rng) -> List[bytes]:
    """A live row's bit, a zero row's and a padding bit flipped in place:
    the value block is then a row too long or short, or padding is set."""
    bits = _bits(data, span)
    h = span.count
    out = []
    for rows in (np.flatnonzero(bits[:h] == 0), np.flatnonzero(bits[:h]),
                 np.arange(h, bits.size)):
        if rows.size:
            row = int(rows[rng.randrange(rows.size)])
            out.append(_xor(data, span.offset + row // 8, 1 << row % 8))
    return out


def zero_row_sent(data, span, spans, rng) -> List[bytes]:
    """A zero row's bit cleared and its zeros sent: a second encoding of
    the same proof, which the reader refuses."""
    bits = _bits(data, span)
    zero = np.flatnonzero(bits[:span.count])
    values = _span(spans, span.path.replace("bitmap", "values"))
    if not zero.size or not values.count:
        return []
    row = int(zero[rng.randrange(zero.size)])
    block = np.frombuffer(data, "<u8", values.length // 8,
                          values.offset).reshape(values.count, -1)
    # ``rows.values`` holds live rows, ``table.values`` columns of them.
    block = np.insert(block, row - int(bits[:row].sum()), 0,
                      axis=0 if span.path.startswith("rows") else 1)
    return [_resized(_xor(data, span.offset + row // 8, 1 << row % 8),
                     spans, values.offset, values.length,
                     block.astype("<u8").tobytes())]


#: The edits of each span kind (:data:`repro.snark.serialize.SPAN_KINDS`).
SPAN_EDITS = {
    "magic": (flip,), "label": (flip,), "digests": (flip, swap, resize),
    "version": (step,), "geometry": (step,), "count": (step,),
    "height": (step,), "field": (element,), "indices": (swap, resize),
    "fields": (element, swap, resize), "rounds": (element, swap, resize),
    "values": (element, swap, resize), "bitmap": (bitmap_bit, zero_row_sent),
}


def span_mutants(data: bytes, rng: random.Random) -> List[Mutant]:
    """Each edit of :data:`SPAN_EDITS` once per span kind per section (a
    path's first part, each ``rep[k]`` its own) on a span it applies to."""
    spans = layout(data)
    sections: Dict[tuple, List[Span]] = {}
    for s in spans:
        sections.setdefault((s.kind, s.path.split(".")[0]), []).append(s)
    out = []
    for (kind, _), members in sections.items():
        for edit in SPAN_EDITS[kind]:
            for s in rng.sample(members, len(members)):
                made = edit(data, s, spans, rng)
                if made:
                    out += [Mutant(f"{kind}.{edit.__name__}", d, s.path)
                            for d in made]
                    break
    return out


def splice_mutants(data_a: bytes, data_b: bytes) -> List[Mutant]:
    """Proof A with one span swapped for the same-path span of proof B (of
    another statement), once per path whose bytes differ; not a label,
    which the proof does not bind (a circuit id is a name only)."""
    spans = layout(data_a)
    other = {t.path: data_b[t.offset:t.end] for t in layout(data_b)}
    return [Mutant("splice", _resized(data_a, spans, s.offset, s.length,
                                      other[s.path]), s.path)
            for s in spans if s.kind != "label"
            and other.get(s.path, data_a[s.offset:s.end])
            != data_a[s.offset:s.end]]


# Hand-written mutators: edits that need the proof objects.

def _message(bundle):
    """The message the rows block carries; None in columns mode."""
    c = bundle.proof.witness_commitment
    if not rows_mode(c.num_cols, PRESETS[bundle.preset_name].column_queries):
        return None
    return shared_message([rp.pcs_proof for rp in bundle.proof.repetitions],
                          c.num_rows, c.num_cols)


def _columns(bundle):
    """``(indices, stacked)``: what the column table carries."""
    return opened_columns([rp.pcs_proof for rp in bundle.proof.repetitions],
                          bundle.proof.witness_commitment.num_rows)


def _reopen(proof, table: Dict[int, np.ndarray]) -> None:
    """Point every opening's columns at ``table`` (index -> column)."""
    for rp in proof.repetitions:
        p = rp.pcs_proof
        p.columns = [table[i] for i in sorted(set(p.query_indices))]


def mutate_append_garbage(data: bytes, rng: random.Random) -> List[Mutant]:
    """Trailing bytes after a complete envelope."""
    return [Mutant("append_garbage", data + b"\x00"),
            Mutant("append_garbage", data + rng.randbytes(17))]


def mutate_preset_relabel(data: bytes, rng: random.Random) -> List[Mutant]:
    """The same payload under every other preset's id: the mode rule then
    reads another query count, and the verifying key another preset."""
    own = _parse(data).preset_name
    spans = layout(data)
    head = data[:_span(spans, "envelope.preset.count").offset]
    rest = data[_span(spans, "envelope.preset").end:]
    return [Mutant("preset_relabel", head + bytes([len(label)]) + label + rest)
            for label in (name.encode("utf-8") for name in sorted(PRESETS)
                          if name != own)]


def mutate_mode_mismatch(data: bytes, rng: random.Random) -> List[Mutant]:
    """The payload laid out in the other mode: a well-formed PCS part in
    every repetition where the rule says rows mode (message rows, the
    first columns as queries, no siblings), none where it says columns."""
    bundle = _parse(data)
    message = _message(bundle)
    spans = layout(data)
    start = _span(spans, "magic").offset
    w = _Writer()
    w.parts.append(data[start:_span(spans, "reps.count").end])   # header
    for rp in bundle.proof.repetitions:
        if message is not None:
            rows = np.asarray(message, dtype=np.uint64)
            opened = list(range(min(
                4 * len(rows[0]), PRESETS[bundle.preset_name].column_queries)))
            rp.pcs_proof = OrionEvalProof(
                [rows[k % len(rows)] for k in range(4)], rows[0], opened,
                [], MerkleMultiProof(opened, []))
        _write_repetition(w, rp, pcs=message is not None)
    if message is None:
        w.table(_columns(bundle)[1])
    else:
        w.rows(message)
    return [Mutant("mode_mismatch", _resized(
        data, spans, start, len(data) - start, w.getvalue()))]


def mutate_sumcheck_tweak(data: bytes, rng: random.Random) -> List[Mutant]:
    """A *compensated* sumcheck-1 round, g(0) + d and g(1) - d: it passes
    the round-sum check, and only the binding at the challenge fails."""
    bundle = _parse(data)
    rounds = rng.choice(bundle.proof.repetitions).sc1_round_evals
    if not rounds:
        return []
    evals = rounds[rng.randrange(len(rounds))]
    d = rng.randrange(1, MODULUS)
    evals[0] = (evals[0] + d) % MODULUS
    if len(evals) > 1:
        evals[1] = (evals[1] - d) % MODULUS
    return [Mutant("sumcheck_tweak", bundle.to_bytes())]


def mutate_wrong_claim(data: bytes, rng: random.Random) -> List[Mutant]:
    """Consistent but wrong claims (va*vb == vc for random values, so only
    the sumcheck binding can catch them), and zero claims."""
    out = []
    for zero in (False, True):
        bundle = _parse(data)
        rp = rng.choice(bundle.proof.repetitions)
        va, vb = (0, 0) if zero else (rng.randrange(MODULUS),
                                      rng.randrange(MODULUS))
        rp.va, rp.vb, rp.vc = va, vb, (va * vb) % MODULUS
        out.append(Mutant("wrong_claim", bundle.to_bytes()))
    return out


def mutate_query_indices(data: bytes, rng: random.Random) -> List[Mutant]:
    """Columns mode: shift one query index, the newly named index answering
    with the column of the old one."""
    bundle = _parse(data)
    if _message(bundle) is not None:
        return []
    table = dict(zip(*_columns(bundle)))
    qi = rng.choice(bundle.proof.repetitions).pcs_proof.query_indices
    k = rng.randrange(len(qi))
    old, qi[k] = qi[k], (qi[k] + 1) % max(2, max(qi) + 1)
    table.setdefault(qi[k], table[old])
    _reopen(bundle.proof, table)
    return [Mutant("query_indices", bundle.to_bytes())]


def mutate_opened_rows(data: bytes, rng: random.Random) -> List[Mutant]:
    """Well-formed edits to the rows of the message or column table, for the
    Merkle check to refuse: add 1 to a value of the last row (the mask
    row), make a zero row live, and zero a live row."""
    bundle = _parse(data)
    message = _message(bundle)
    if message is None:
        indices, stacked = _columns(bundle)
        matrix = stacked.T.copy()                       # rows x columns
    else:
        matrix = np.array(message, np.uint64)
    if not matrix.size:
        return []
    zero = ~matrix.any(axis=1)
    j = rng.randrange(matrix.shape[1])
    edits = [(-1, j, (int(matrix[-1, j]) + 1) % MODULUS)]
    if zero.any():
        edits.append((int(rng.choice(np.flatnonzero(zero))), j,
                      rng.randrange(1, MODULUS)))
    if not zero.all():
        edits.append((int(rng.choice(np.flatnonzero(~zero))), slice(None), 0))
    out = []
    for row, col, value in edits:
        m = matrix.copy()
        m[row, col] = value
        bundle = _parse(data)
        if message is None:
            _reopen(bundle.proof, dict(zip(indices, m.T)))
        else:
            for rp in bundle.proof.repetitions:
                rp.pcs_proof.message = m
        out.append(Mutant("opened_rows", bundle.to_bytes()))
    return out


def mutate_rows_other_message(data: bytes,
                              rng: random.Random) -> List[Mutant]:
    """One repetition carrying another message than the rest: the writer
    must refuse it, so a mutant comes out only if it did not."""
    bundle = _parse(data)
    reps = bundle.proof.repetitions
    if _message(bundle) is None or len(reps) < 2:
        return []
    pcs = rng.choice(reps[1:]).pcs_proof
    pcs.message = np.array(pcs.message)
    pcs.message[-1, 0] = (int(pcs.message[-1, 0]) + 1) % MODULUS
    try:
        return [Mutant("rows_other_message", bundle.to_bytes())]
    except ValueError:
        return []


def mutate_repetition_surgery(data: bytes, rng: random.Random) -> List[Mutant]:
    """Drop or duplicate whole repetitions (the soundness amplifier)."""
    out = []
    bundle = _parse(data)
    if len(bundle.proof.repetitions) > 1 or _message(bundle) is None:
        # (a rows-mode proof of no repetitions has no message to carry)
        bundle.proof.repetitions = bundle.proof.repetitions[:-1]
        out.append(Mutant("repetition_surgery", bundle.to_bytes()))
    bundle = _parse(data)
    bundle.proof.repetitions.append(
        copy.deepcopy(bundle.proof.repetitions[0]))
    out.append(Mutant("repetition_surgery", bundle.to_bytes()))
    return out


#: The hand-written mutators, keyed by class name.
STRUCTURED_MUTATORS: Dict[str, Callable] = {
    fn.__name__[len("mutate_"):]: fn for fn in (
        mutate_append_garbage, mutate_preset_relabel, mutate_mode_mismatch,
        mutate_sumcheck_tweak, mutate_wrong_claim, mutate_query_indices,
        mutate_opened_rows, mutate_rows_other_message,
        mutate_repetition_surgery)}


def structured_mutants(data: bytes, rng: random.Random) -> List[Mutant]:
    """Every hand-written mutator and every span edit on one valid proof,
    but for no-ops (swapping two equal columns or digests is no attack,
    and a no-op "mutant" verifying would be a false alarm)."""
    out = [m for fn in STRUCTURED_MUTATORS.values() for m in fn(data, rng)]
    return [m for m in out + span_mutants(data, rng) if m.data != data]


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
