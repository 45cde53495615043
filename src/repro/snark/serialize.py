"""Binary serialization of Spartan+Orion proofs.

A compact little-endian format so measured wire sizes are honest: this is
what travels over the paper's 10 MB/s prover-verifier link.  It is
length-prefixed throughout (u32 counts, u64 field elements): the magic
and version, the commitment (root and geometry), the repetitions (each
its sumcheck messages and claims, and in columns mode its PCS part), then
the column table or the rows block.  The strict reader records every
field it meets as a :class:`Span`, so :func:`proof_layout` is the one map
of the layout (docs/PROTOCOL.md §6b tabulates it, and a test holds the
table to a real proof).

A sumcheck's rounds are a u32 round count, then per round a u32
evaluation count and the evaluations; every round of one sumcheck has the
same count, so the rounds move as one block of packed records.

The mode is :func:`~repro.pcs.orion.rows_mode` of the commitment's width
and the preset's column query count (``column_queries``; the envelope
names the preset), so it is no flag and a proof has one encoding.

Columns mode: every repetition opens columns of the ONE witness
commitment, so a column two repetitions both query travels once: the
table holds the sorted union of the repetitions' distinct query indices
(:func:`~repro.pcs.orion.opened_columns`, which states for the writer and
the verifier alike what the openings share), and each repetition's
columns are read back as views of it — the query
indices already on the wire say which, so the table carries no indices
of its own.  Every column has the one height, and a row that is zero in
every column (a padding row of the committed table encodes to zeros) is
a set bit of the ⌈height/8⌉-byte bitmap, not ``count`` zero elements:
only the ``live`` unset rows travel.  The bitmap is canonical — its
padding bits are clear, and an unset row holds a non-zero element — so
every proof has one encoding.  A table of no columns is its count alone.

Rows mode: each opening is the committed message matrix
(:attr:`OrionEvalProof.message`), so a repetition carries no PCS part and
the payload ends in the rows block, the one message the repetitions
share (:func:`~repro.pcs.orion.shared_message`), its zero rows a bitmap
under the same rule.

The writer is the one statement of this layout: a proof's wire size is
``len(proof_to_bytes(proof))``, counted by no formula beside it.  It
packs whole arrays (a vector, a sumcheck's rounds, a repetition's query
indices or digests), and the reader reads each as one block, one span.
The writer keeps no map of its own: its bytes round-trip through the
reader, whose spans are the map.

The reader side is a *strict* parser: proof bytes come from an untrusted
prover, so every length prefix is bounds-checked against the remaining
buffer before a single element is read, every field element must be
canonical (< Goldilocks p), structural counts are capped at
protocol-plausible values, opened Merkle columns must match the
commitment geometry, and trailing bytes are rejected.  All failures raise
:class:`repro.errors.DeserializationError` with the byte offset and the
span being read — never ``IndexError``, ``struct.error`` or a numpy
exception.
"""

from __future__ import annotations

import struct
from typing import List, NamedTuple

import numpy as np

from ..code.reed_solomon import DEFAULT_QUERIES
from ..errors import DeserializationError
from ..field.goldilocks import MODULUS
from ..hashing.merkle import MerkleMultiProof
from ..pcs.orion import (OrionCommitment, OrionEvalProof, opened_columns,
                         rows_mode, shared_message)
from ..spartan.protocol import RepetitionProof, SpartanProof

MAGIC = b"NCAP"
#: v2: column openings carry one Merkle multiproof instead of per-query paths.
#: The envelope's v2 (packed leaf hash) and v3 (one absorb per gamma
#: vector) changed digests and challenges, not this layout, so the payload
#: version did not move with them.  v3: the opened columns of every
#: repetition travel once, as ONE column table at the end of the payload
#: (:func:`proof_to_bytes`); the proof objects and the transcript are v2's.
#: v4: the column table leaves out the rows that are zero in every column
#: (:meth:`_Writer.table`); the proof objects are v3's.  v5: a proof whose
#: every repetition opens at least ``num_cols`` distinct columns ends in
#: the rows block (:meth:`_Writer.rows`) instead of the column table.
#: v6: the mode follows from the geometry (:func:`rows_mode`), and a
#: rows-mode repetition carries no PCS part — its opening is the message.
VERSION = 6

#: Structural caps.  The field has 64-bit indices, so no sumcheck runs more
#: than 64 rounds; repetitions beyond 64 exceed any soundness target; round
#: polynomials are degree <= 7 in every deployed configuration.  Counts past
#: these mark garbage (or a length-prefix DoS attempt), not a bigger proof.
MAX_SUMCHECK_ROUNDS = 64
MAX_REPETITIONS = 64
MAX_ROUND_EVALS = 8
#: A Merkle multiproof ships at most one sibling per level per query path.
MAX_TREE_DEPTH = 64
#: Cells (count x height) of a decoded column table, and of a decoded
#: rows block (height x num_cols).  Left-out zero rows cost one bitmap bit
#: each, so either can decode to more than its bytes; an honest PAPER
#: table is at most 567 x 129 cells at every size and an honest rows
#: block at most 129 x 189 (the commitment has 128 rows), and 2^24 leaves
#: room for 64 repetitions over tables of thousands of rows.
MAX_TABLE_CELLS = 1 << 24


def _round_records(evaluations: int) -> np.dtype:
    """One sumcheck round on the wire, as a packed record: u32 count,
    then that many u64 evaluations."""
    return np.dtype([("count", "<u4"), ("evals", "<u8", (evaluations,))])


class _Writer:
    def __init__(self):
        self.parts: List[bytes] = []

    def u8(self, v: int) -> None:
        self.parts.append(struct.pack("<B", v))

    def u32(self, v: int) -> None:
        self.parts.append(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self.parts.append(struct.pack("<Q", v))

    def digests(self, ds) -> None:
        """32-byte digests, as one joined block."""
        if any(len(d) != 32 for d in ds):
            raise ValueError("digest must be 32 bytes")
        self.parts.append(b"".join(ds))

    def array(self, values, dtype: str = "<u8") -> None:
        """u32 count, then ``values`` as one block of ``dtype`` words
        (u64 field elements unless told otherwise)."""
        arr = np.asarray(values, dtype=dtype)
        self.u32(arr.size)
        self.parts.append(arr.tobytes())

    def rounds(self, rounds) -> None:
        """A sumcheck's rounds: u32 round count, then one block of
        :func:`_round_records`.  Rounds of unequal lengths raise
        ``ValueError``: every round of one sumcheck sends one degree."""
        self.u32(len(rounds))
        if not rounds:
            return
        lengths = {len(evals) for evals in rounds}
        if len(lengths) != 1:
            raise ValueError(f"sumcheck rounds of {sorted(lengths)} "
                             "evaluations: the wire carries one length")
        records = np.empty(len(rounds), _round_records(lengths.pop()))
        records["count"] = records["evals"].shape[1]
        records["evals"] = rounds
        self.parts.append(records.tobytes())

    def table(self, stacked) -> None:
        """A column table of the ``(count, height)`` matrix ``stacked``
        (one row per column, :func:`~repro.pcs.orion.opened_columns`):
        u32 count, then (unless empty) u32 height, the bitmap of the rows
        that are zero in every column (bit i of byte i // 8, least
        significant first) and the other rows' values, column by
        column."""
        table = np.asarray(stacked, dtype="<u8")
        self.u32(len(table))
        if not len(table):
            return
        zero = self._bitmap(table.T)
        self.parts.append(table[:, ~zero].tobytes())

    def rows(self, message: np.ndarray) -> None:
        """The rows block: u32 height, the bitmap of the message's zero
        rows (as :meth:`table`'s), then the other rows' values, row by
        row."""
        message = np.asarray(message, dtype="<u8")
        self.parts.append(message[~self._bitmap(message)].tobytes())

    def _bitmap(self, matrix: np.ndarray) -> np.ndarray:
        """u32 height and the zero-row bitmap of ``matrix`` (height x
        width); returns the zero rows."""
        zero = ~matrix.any(axis=1)
        self.u32(len(matrix))
        self.parts.append(np.packbits(zero, bitorder="little").tobytes())
        return zero

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class Span(NamedTuple):
    """One field of the wire, as the reader met it: ``path`` names it
    (``rep[1].sc1.rounds``, ``table.bitmap``), ``kind`` says what it
    holds (:data:`SPAN_KINDS`), and it covers ``length`` bytes from
    ``offset`` as ``count`` items of one stride (elements, rounds,
    digests, table columns or message rows; a label's bytes; a bitmap's
    rows, of which its bytes hold ``count`` bits)."""

    path: str
    kind: str
    offset: int
    length: int
    count: int

    @property
    def end(self) -> int:
        return self.offset + self.length


#: What a span holds: the magic, the version byte, a u32/u64 of the
#: commitment geometry, a length prefix, one field element, a block of
#: them, a sumcheck's rounds, u32 query indices, 32-byte digests, a
#: block's row count, its zero-row bitmap, its live values, a label.
SPAN_KINDS = ("magic", "version", "geometry", "count", "field", "fields",
              "rounds", "indices", "digests", "height", "bitmap", "values",
              "label")


def _first_noncanonical(values: np.ndarray):
    """Flat index of the first element >= p, or None."""
    if values.size and int(values.max()) >= MODULUS:
        return int(np.argmax(values.ravel() >= np.uint64(MODULUS)))
    return None


class _Reader:
    """Bounds-checked little-endian reader over untrusted bytes.  It
    records the :class:`Span` of every field it reads (:meth:`layout`),
    and an error names the span it was reading."""

    def __init__(self, data: bytes):
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise DeserializationError(
                f"proof data must be bytes, got {type(data).__name__}")
        self.data = bytes(data)
        self.pos = 0
        #: Where the field being parsed ends (the envelope's payload, or
        #: the whole buffer).
        self.end = len(self.data)
        self.spans: List[tuple] = []     # Span fields, as plain tuples
        self.at = (None, None)          # (path, kind) being read

    def fail(self, message: str, offset: int | None = None,
             at=None) -> "DeserializationError":
        path, kind = at or self.at
        return DeserializationError(
            message, offset=self.pos if offset is None else offset,
            span=path, span_kind=kind)

    def take(self, n: int, path: str, kind: str, count: int = 1) -> bytes:
        start = self.pos
        self.at = (path, kind)
        if start + n > self.end:
            raise self.fail(f"truncated proof data: need {n} more bytes, "
                            f"have {self.end - start}")
        self.spans.append((path, kind, start, n, count))
        self.pos = start + n
        return self.data[start:self.pos]

    def layout(self) -> List[Span]:
        """The spans read so far, in wire order."""
        return [Span(*span) for span in self.spans]

    def uint(self, path: str, kind: str = "count", size: int = 4) -> int:
        return int.from_bytes(self.take(size, path, kind), "little")

    def count(self, path: str, item_bytes: int, cap: int = 1 << 32) -> int:
        """Read the u32 length prefix ``<path>.count``, proving the claimed
        run of ``item_bytes``-sized items can fit in the remaining buffer
        BEFORE anything is allocated or looped over."""
        n = self.uint(f"{path}.count")
        if n > cap:
            raise self.fail(f"{path} count {n} exceeds cap {cap}")
        if item_bytes * n > self.end - self.pos:
            raise self.fail(f"{path} count {n} overruns the remaining "
                            f"{self.end - self.pos} bytes")
        return n

    def field(self, path: str) -> int:
        v = self.uint(path, "field", 8)
        if v >= MODULUS:
            raise self.fail(f"non-canonical {path} {v} >= modulus",
                            offset=self.pos - 8)
        return v

    def array(self, path: str, expected: int | None = None,
              kind: str = "fields") -> np.ndarray:
        """A :meth:`_Writer.array`: canonical u64 field elements, or with
        ``kind="indices"`` u32 words."""
        dtype = np.dtype("<u4" if kind == "indices" else "<u8")
        n = self.count(path, dtype.itemsize)
        if expected is not None and n != expected:
            raise self.fail(f"{path}: expected {expected} elements, got {n}")
        at = self.pos
        arr = np.frombuffer(self.take(dtype.itemsize * n, path, kind, n),
                            dtype)
        bad = None if kind == "indices" else _first_noncanonical(arr)
        if bad is not None:
            raise self.fail(f"non-canonical element in {path}",
                            offset=at + 8 * bad)
        return arr.astype(np.uint32 if kind == "indices" else np.uint64)

    def digests(self, path: str, cap: int) -> List[bytes]:
        n = self.count(path, 32, cap)
        block = self.take(32 * n, path, "digests", n)
        return [block[i:i + 32] for i in range(0, 32 * n, 32)]

    def rounds(self, path: str) -> List[List[int]]:
        """Read a :meth:`_Writer.rounds` block: at most
        :data:`MAX_SUMCHECK_ROUNDS` rounds of one length, at most
        :data:`MAX_ROUND_EVALS` canonical evaluations each."""
        n = self.count(path, 4, cap=MAX_SUMCHECK_ROUNDS)
        if not n:
            return []
        at = self.pos
        self.at = (path, "rounds")
        k = struct.unpack_from("<I", self.data, at)[0]
        if k > MAX_ROUND_EVALS:
            raise self.fail(f"{path} round 0 has {k} evaluations", offset=at)
        records = _round_records(k)
        block = np.frombuffer(self.take(n * records.itemsize, path,
                                        "rounds", n), records)
        other = block["count"] != k
        if other.any():
            i = int(np.argmax(other))
            raise self.fail(f"{path} round {i} has {block['count'][i]} "
                            f"evaluations, round 0 has {k}",
                            offset=at + i * records.itemsize)
        evals = block["evals"]
        bad = _first_noncanonical(evals)
        if bad is not None:
            i, j = divmod(bad, k)
            raise self.fail(f"non-canonical {path} evaluation",
                            offset=at + i * records.itemsize + 4 + 8 * j)
        return evals.tolist()

    def table(self, n: int, heights) -> List[np.ndarray]:
        """Read the body of a :meth:`_Writer.table` of ``n`` columns whose
        height must be in ``heights``: read-only row views of one
        ``(n, height)`` array, the left-out rows zero."""
        if n == 0:
            return []
        return list(self.zero_rows("table", n, heights, by_row=False).T)

    def rows(self, width: int, heights) -> np.ndarray:
        """Read a :meth:`_Writer.rows` block of ``width``-wide rows: the
        read-only ``(height, width)`` message matrix."""
        return self.zero_rows("rows", width, heights, by_row=True)

    def zero_rows(self, path: str, width: int, heights,
                  by_row: bool) -> np.ndarray:
        """A read-only ``(height, width)`` matrix whose height (one of
        ``heights``), zero-row bitmap and live rows' values follow, the
        values row by row if ``by_row``, else column by column (held as
        the rows of a C-ordered transpose).  Every bound is checked
        before the matrix is allocated, and each error carries the
        offset of the bytes at fault."""
        what = "message" if by_row else "opened column"
        at = self.pos
        h = self.uint(f"{path}.height", "height")
        if h not in heights:
            raise self.fail(f"{what} height {h} is not one of "
                            f"{sorted(heights)}", offset=at)
        if width * h > MAX_TABLE_CELLS:
            raise self.fail(f"{what} block of {width} x {h} cells exceeds "
                            f"cap {MAX_TABLE_CELLS}", offset=at)
        bits_at = self.pos
        bitmap = (f"{path}.bitmap", "bitmap")
        bits = np.unpackbits(np.frombuffer(
            self.take((h + 7) // 8, *bitmap, h), np.uint8),
            bitorder="little")
        if bits[h:].any():
            pad = h + int(np.argmax(bits[h:]))
            raise self.fail(f"{what} bitmap sets padding bit {pad}",
                            offset=self.pos - 1)
        live = np.flatnonzero(bits[:h] == 0)
        start = self.pos
        shape = (live.size, width) if by_row else (width, live.size)
        values = np.frombuffer(
            self.take(8 * width * live.size, f"{path}.values", "values",
                      shape[0]), "<u8").reshape(shape)
        bad = _first_noncanonical(values)
        if bad is not None:
            raise self.fail(f"non-canonical element in {what}",
                            offset=start + 8 * bad)
        values = values if by_row else values.T     # (live, width)
        dead = ~values.any(axis=1)
        if dead.any():
            row = int(live[np.argmax(dead)])
            raise self.fail(f"{what} row {row} is zero in every column but "
                            "its bitmap bit is clear",
                            offset=bits_at + row // 8, at=bitmap)
        matrix = np.zeros((h, width) if by_row else (width, h), np.uint64)
        matrix = matrix if by_row else matrix.T
        matrix[live] = values
        matrix.flags.writeable = False
        return matrix

    def done(self) -> bool:
        return self.pos == self.end

    def trailing(self, what: str) -> "DeserializationError":
        """The error for bytes left before :attr:`end` after a ``what``
        (they are no span)."""
        return self.fail(f"{self.end - self.pos} trailing bytes after "
                         f"{what}", at=(None, None))


def _write_pcs_proof(w: _Writer, p: OrionEvalProof) -> None:
    w.u32(len(p.proximity_rows))
    for row in p.proximity_rows:
        w.array(row)
    w.array(p.eval_row)
    w.array(p.query_indices, "<u4")
    # The opened columns go to the proof's column table; the multiproof's
    # sorted index list is derivable from query_indices, so only the
    # sibling digests go on the wire.
    w.u32(len(p.merkle.nodes))
    w.digests(p.merkle.nodes)


def _read_pcs_proof(r: _Reader, at: str,
                    c: OrionCommitment) -> OrionEvalProof:
    """Parse one PCS opening but its columns (the column table fills them
    in), validated against the commitment geometry: combination rows are
    ``num_cols`` wide and the multiproof ships at most one sibling per
    level per query."""
    num_prox = r.count(f"{at}.prox", 4 + 8, cap=MAX_REPETITIONS)
    proximity_rows = [r.array(f"{at}.prox[{k}]", expected=c.num_cols)
                      for k in range(num_prox)]
    eval_row = r.array(f"{at}.eval_row", expected=c.num_cols)
    query_indices = r.array(f"{at}.queries", kind="indices").tolist()
    nodes = r.digests(f"{at}.nodes",
                      cap=max(1, len(query_indices)) * MAX_TREE_DEPTH)
    merkle = MerkleMultiProof(indices=sorted(set(query_indices)),
                              nodes=nodes)
    return OrionEvalProof(proximity_rows, eval_row, query_indices, [],
                          merkle)


def _write_repetition(w: _Writer, rp: RepetitionProof, pcs: bool) -> None:
    w.rounds(rp.sc1_round_evals)
    w.u64(rp.va)
    w.u64(rp.vb)
    w.u64(rp.vc)
    w.rounds(rp.sc2.round_evals)
    w.array(rp.sc2.final_values)
    w.u64(rp.w_eval)
    if pcs:
        _write_pcs_proof(w, rp.pcs_proof)


def _read_repetition(r: _Reader, at: str, c: OrionCommitment,
                     pcs: bool) -> RepetitionProof:
    """One repetition, its spans under the path ``at``; its PCS part only
    in columns mode (``pcs``), else an empty opening the rows block fills
    in."""
    from ..multilinear.sumcheck import SumcheckProof

    sc1 = r.rounds(f"{at}.sc1.rounds")
    va, vb, vc = (r.field(f"{at}.{name}") for name in ("va", "vb", "vc"))
    sc2_rounds = r.rounds(f"{at}.sc2.rounds")
    sc2_finals = r.array(f"{at}.sc2.finals").tolist()
    w_eval = r.field(f"{at}.w_eval")
    pcs_proof = _read_pcs_proof(r, f"{at}.pcs", c) if pcs else \
        OrionEvalProof()
    return RepetitionProof(sc1, va, vb, vc,
                           SumcheckProof(sc2_rounds, sc2_finals),
                           w_eval, pcs_proof)


def proof_to_bytes(proof: SpartanProof, *,
                   column_queries: int = DEFAULT_QUERIES) -> bytes:
    """Serialize a proof to its wire format.  ``column_queries`` is the
    query count of the preset that made it (the default code's, 189, is
    PAPER's); the payload's mode follows from it (:func:`rows_mode`).

    Raises ``ValueError`` for openings the payload cannot carry, as
    :func:`~repro.pcs.orion.shared_message` (rows mode) or
    :func:`~repro.pcs.orion.opened_columns` (columns mode) finds them —
    the openings the verifier rejects."""
    c = proof.witness_commitment
    openings = [rp.pcs_proof for rp in proof.repetitions]
    disclosed = rows_mode(c.num_cols, column_queries)
    shared = (shared_message(openings, c.num_rows, c.num_cols) if disclosed
              else opened_columns(openings, c.num_rows)[1])
    w = _Writer()
    w.parts.append(MAGIC)
    w.u8(VERSION)
    w.digests([c.root])
    w.u64(c.table_len)
    w.u32(c.num_rows)
    w.u32(c.num_cols)
    w.u32(len(proof.repetitions))
    for rp in proof.repetitions:
        _write_repetition(w, rp, pcs=not disclosed)
    if disclosed:
        w.rows(shared)
    else:
        w.table(shared)
    return w.getvalue()


def proof_from_bytes(data: bytes, *,
                     column_queries: int = DEFAULT_QUERIES) -> SpartanProof:
    """Strictly parse a proof from its wire format; ``column_queries``
    as for :func:`proof_to_bytes`.

    Raises :class:`~repro.errors.DeserializationError` (a ``ValueError``
    subclass) on any malformed input; a successful return guarantees
    canonical field elements and a commitment-consistent structure, so
    the verifier can evaluate the proof without type or shape surprises.
    """
    return _read_proof(_Reader(data), column_queries)


def proof_layout(data: bytes, *,
                 column_queries: int = DEFAULT_QUERIES) -> List[Span]:
    """The :class:`Span` of every field of a proof's wire bytes, in wire
    order: what the strict reader met parsing them (so it raises as
    :func:`proof_from_bytes` does), ``column_queries`` as there."""
    r = _Reader(data)
    _read_proof(r, column_queries)
    return r.layout()


def _read_proof(r: _Reader, column_queries: int) -> SpartanProof:
    """Parse a proof from ``r``'s position to its :attr:`_Reader.end`."""
    start = r.pos
    if r.take(4, "magic", "magic") != MAGIC:
        raise r.fail("bad magic", offset=start)
    version = r.uint("version", "version", 1)
    if version != VERSION:
        raise r.fail(f"unsupported proof version {version}",
                     offset=start + 4)
    root = r.take(32, "commitment.root", "digests")
    table_len = r.uint("commitment.table_len", "geometry", 8)
    num_rows = r.uint("commitment.num_rows", "geometry")
    num_cols = r.uint("commitment.num_cols", "geometry")
    if table_len == 0 or table_len & (table_len - 1):
        raise r.fail(f"commitment table length {table_len} is not a "
                     "power of two")
    if num_rows == 0 or num_rows & (num_rows - 1):
        raise r.fail(f"commitment row count {num_rows} is not a power of two")
    if num_rows * num_cols != table_len:
        raise r.fail(f"commitment geometry {num_rows}x{num_cols} does not "
                     f"cover table length {table_len}")
    commitment = OrionCommitment(root=root, table_len=table_len,
                                 num_rows=num_rows, num_cols=num_cols)
    disclosed = rows_mode(num_cols, column_queries)
    # Each repetition carries at least the five count/value headers.
    num_reps = r.count("reps", 4, cap=MAX_REPETITIONS)
    reps = [_read_repetition(r, f"rep[{k}]", commitment, pcs=not disclosed)
            for k in range(num_reps)]
    # One height: commitment rows, +1 with the zk mask row.
    heights = (num_rows, num_rows + 1)
    if disclosed:
        # The block's cells are bounded by MAX_TABLE_CELLS.
        message = r.rows(num_cols, heights)
        for rp in reps:
            rp.pcs_proof.message = message
    else:
        indices = sorted(set().union(*(rp.pcs_proof.merkle.indices
                                       for rp in reps)))
        # The count is bounded by the query indices already read, and the
        # table's cells by MAX_TABLE_CELLS.
        num_cols_opened = r.uint("table.count")
        if num_cols_opened != len(indices):
            raise r.fail(f"opened column count {num_cols_opened} does not "
                         f"match {len(indices)} distinct query indices")
        table = r.table(num_cols_opened, heights)
        at = {idx: k for k, idx in enumerate(indices)}
        for rp in reps:
            rp.pcs_proof.columns = [table[at[i]]
                                    for i in rp.pcs_proof.merkle.indices]
    if not r.done():
        raise r.trailing("proof")
    return SpartanProof(commitment, reps)
