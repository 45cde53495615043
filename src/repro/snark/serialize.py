"""Binary serialization of Spartan+Orion proofs.

A compact little-endian format so measured wire sizes are honest: this is
what travels over the paper's 10 MB/s prover-verifier link.  Layout is
length-prefixed throughout; see the writer methods for the exact framing.

The reader side is a *strict* parser: proof bytes come from an untrusted
prover, so every length prefix is bounds-checked against the remaining
buffer before a single element is read, every field element must be
canonical (< Goldilocks p), structural counts are capped at
protocol-plausible values, opened Merkle columns must match the
commitment geometry, and trailing bytes are rejected.  All failures raise
:class:`repro.errors.DeserializationError` with byte-offset context —
never ``IndexError``, ``struct.error`` or a numpy exception.
"""

from __future__ import annotations

import struct
from typing import List

import numpy as np

from ..errors import DeserializationError
from ..field.goldilocks import MODULUS
from ..hashing.merkle import MerkleMultiProof
from ..pcs.orion import OrionCommitment, OrionEvalProof
from ..spartan.protocol import RepetitionProof, SpartanProof

MAGIC = b"NCAP"
#: v2: column openings carry one Merkle multiproof instead of per-query paths.
#: The envelope's v2 (packed leaf hash) and v3 (one absorb per gamma
#: vector) changed digests and challenges, not this layout, so the payload
#: version did not move with them.
VERSION = 2

#: Structural caps.  The field has 64-bit indices, so no sumcheck runs more
#: than 64 rounds; repetitions beyond 64 exceed any soundness target; round
#: polynomials are degree <= 7 in every deployed configuration.  Counts past
#: these mark garbage (or a length-prefix DoS attempt), not a bigger proof.
MAX_SUMCHECK_ROUNDS = 64
MAX_REPETITIONS = 64
MAX_ROUND_EVALS = 8
#: A Merkle multiproof ships at most one sibling per level per query path.
MAX_TREE_DEPTH = 64


class _Writer:
    def __init__(self):
        self.parts: List[bytes] = []

    def u8(self, v: int) -> None:
        self.parts.append(struct.pack("<B", v))

    def u32(self, v: int) -> None:
        self.parts.append(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self.parts.append(struct.pack("<Q", v))

    def digest(self, d: bytes) -> None:
        if len(d) != 32:
            raise ValueError("digest must be 32 bytes")
        self.parts.append(d)

    def fields(self, values) -> None:
        self.u32(len(values))
        for v in values:
            self.u64(int(v))

    def array(self, arr: np.ndarray) -> None:
        arr = np.asarray(arr, dtype="<u8")
        self.u32(arr.size)
        self.parts.append(arr.tobytes())

    def getvalue(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    """Bounds-checked little-endian reader over untrusted bytes."""

    def __init__(self, data: bytes):
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise DeserializationError(
                f"proof data must be bytes, got {type(data).__name__}")
        self.data = bytes(data)
        self.pos = 0

    def fail(self, message: str) -> "DeserializationError":
        return DeserializationError(message, offset=self.pos)

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise self.fail(f"truncated proof data: need {n} more bytes, "
                            f"have {len(self.data) - self.pos}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return struct.unpack("<B", self._take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def count(self, what: str, item_bytes: int, cap: int = 1 << 32) -> int:
        """Read a u32 length prefix, proving the claimed run of
        ``item_bytes``-sized items can fit in the remaining buffer BEFORE
        anything is allocated or looped over."""
        n = self.u32()
        if n > cap:
            raise self.fail(f"{what} count {n} exceeds cap {cap}")
        if item_bytes * n > len(self.data) - self.pos:
            raise self.fail(f"{what} count {n} overruns the remaining "
                            f"{len(self.data) - self.pos} bytes")
        return n

    def digest(self) -> bytes:
        return self._take(32)

    def field(self, what: str = "field element") -> int:
        v = self.u64()
        if v >= MODULUS:
            raise DeserializationError(
                f"non-canonical {what} {v} >= modulus", offset=self.pos - 8)
        return v

    def fields(self, what: str = "field vector",
               expected: int | None = None) -> List[int]:
        n = self.count(what, 8)
        if expected is not None and n != expected:
            raise self.fail(f"{what}: expected {expected} elements, got {n}")
        return [self.field(what) for _ in range(n)]

    def array(self, what: str = "field array",
              expected: int | None = None) -> np.ndarray:
        n = self.count(what, 8)
        if expected is not None and n != expected:
            raise self.fail(f"{what}: expected {expected} elements, got {n}")
        arr = np.frombuffer(self._take(8 * n), dtype="<u8").astype(np.uint64)
        if n and int(arr.max()) >= MODULUS:
            raise DeserializationError(
                f"non-canonical element in {what}", offset=self.pos - 8 * n)
        return arr

    def array_run(self, what: str, n: int, heights) -> List[np.ndarray]:
        """Read ``n`` length-prefixed field arrays that all share ONE
        length, which must be in ``heights`` — the same bytes ``n`` calls
        of :meth:`array` read, parsed as one block.  Errors carry the
        offset of the first prefix or element at fault."""
        if n == 0:
            return []
        start = self.pos
        h = self.u32()
        self.pos = start
        if h not in heights:
            raise self.fail(f"{what} length {h} is not one of "
                            f"{sorted(heights)}")
        stride = 4 + 8 * h
        # Length prefixes wholly inside the buffer are checked before the
        # run's extent, so a short column reads as what it is, not as a
        # truncated file.
        inside = min(n, (len(self.data) - start + 8 * h) // stride)
        prefixes = np.ndarray((inside,), "<u4", self.data, start, (stride,))
        odd = np.flatnonzero(prefixes != h)
        if odd.size:
            raise DeserializationError(
                f"{what} length {prefixes[odd[0]]} differs from the first "
                f"one's {h}", offset=start + int(odd[0]) * stride)
        self._take(n * stride)
        values = np.ndarray((n, h), "<u8", self.data, start + 4,
                            (stride, 8)).astype(np.uint64)
        if int(values.max()) >= MODULUS:
            first = np.argmax(values.ravel() >= np.uint64(MODULUS))
            i, k = divmod(int(first), h)
            raise DeserializationError(
                f"non-canonical element in {what}",
                offset=start + i * stride + 4 + 8 * k)
        return list(values)

    def done(self) -> bool:
        return self.pos == len(self.data)


def _write_pcs_proof(w: _Writer, p: OrionEvalProof) -> None:
    w.u32(len(p.proximity_rows))
    for row in p.proximity_rows:
        w.array(row)
    w.array(p.eval_row)
    w.u32(len(p.query_indices))
    for idx in p.query_indices:
        w.u32(idx)
    w.u32(len(p.columns))
    for col in p.columns:
        w.array(col)
    # The multiproof's sorted index list is derivable from query_indices,
    # so only the sibling digests go on the wire.
    w.u32(len(p.merkle.nodes))
    for node in p.merkle.nodes:
        w.digest(node)


def _read_pcs_proof(r: _Reader, c: OrionCommitment) -> OrionEvalProof:
    """Parse one PCS opening, validated against the commitment geometry:
    combination rows are ``num_cols`` wide, opened columns are ``num_rows``
    (+1 with the zk mask row) tall, and the multiproof ships at most one
    sibling per level per query."""
    num_prox = r.count("proximity row", 4 + 8, cap=MAX_REPETITIONS)
    proximity_rows = [r.array("proximity row", expected=c.num_cols)
                      for _ in range(num_prox)]
    eval_row = r.array("evaluation row", expected=c.num_cols)
    num_queries = r.count("query index", 4)
    query_indices = [r.u32() for _ in range(num_queries)]
    num_cols_opened = r.count("opened column", 4 + 8 * c.num_rows)
    distinct = sorted(set(query_indices))
    if num_cols_opened != len(distinct):
        raise r.fail(f"opened column count {num_cols_opened} does not match "
                     f"{len(distinct)} distinct query indices")
    # Equal heights: commitment rows, +1 with the zk mask row.
    columns = r.array_run("opened column", num_cols_opened,
                          (c.num_rows, c.num_rows + 1))
    num_nodes = r.count("Merkle node", 32,
                        cap=max(1, num_queries) * MAX_TREE_DEPTH)
    nodes = [r.digest() for _ in range(num_nodes)]
    merkle = MerkleMultiProof(indices=distinct, nodes=nodes)
    return OrionEvalProof(proximity_rows, eval_row, query_indices, columns,
                          merkle)


def _write_repetition(w: _Writer, rp: RepetitionProof) -> None:
    w.u32(len(rp.sc1_round_evals))
    for evals in rp.sc1_round_evals:
        w.fields(evals)
    w.u64(rp.va)
    w.u64(rp.vb)
    w.u64(rp.vc)
    w.u32(len(rp.sc2.round_evals))
    for evals in rp.sc2.round_evals:
        w.fields(evals)
    w.fields(rp.sc2.final_values)
    w.u64(rp.w_eval)
    _write_pcs_proof(w, rp.pcs_proof)


def _read_repetition(r: _Reader, c: OrionCommitment) -> RepetitionProof:
    from ..multilinear.sumcheck import SumcheckProof

    sc1 = []
    for _ in range(r.count("sumcheck-1 round", 4, cap=MAX_SUMCHECK_ROUNDS)):
        evals = r.fields("sumcheck-1 round")
        if len(evals) > MAX_ROUND_EVALS:
            raise r.fail(f"sumcheck-1 round has {len(evals)} evaluations")
        sc1.append(evals)
    va = r.field("va")
    vb = r.field("vb")
    vc = r.field("vc")
    sc2_rounds = []
    for _ in range(r.count("sumcheck-2 round", 4, cap=MAX_SUMCHECK_ROUNDS)):
        evals = r.fields("sumcheck-2 round")
        if len(evals) > MAX_ROUND_EVALS:
            raise r.fail(f"sumcheck-2 round has {len(evals)} evaluations")
        sc2_rounds.append(evals)
    sc2_finals = r.fields("sumcheck-2 final values")
    w_eval = r.field("witness evaluation")
    pcs_proof = _read_pcs_proof(r, c)
    return RepetitionProof(sc1, va, vb, vc,
                           SumcheckProof(sc2_rounds, sc2_finals),
                           w_eval, pcs_proof)


def proof_to_bytes(proof: SpartanProof) -> bytes:
    """Serialize a proof to its wire format."""
    w = _Writer()
    w.parts.append(MAGIC)
    w.u8(VERSION)
    c = proof.witness_commitment
    w.digest(c.root)
    w.u64(c.table_len)
    w.u32(c.num_rows)
    w.u32(c.num_cols)
    w.u32(len(proof.repetitions))
    for rp in proof.repetitions:
        _write_repetition(w, rp)
    return w.getvalue()


def proof_from_bytes(data: bytes) -> SpartanProof:
    """Strictly parse a proof from its wire format.

    Raises :class:`~repro.errors.DeserializationError` (a ``ValueError``
    subclass) on any malformed input; a successful return guarantees
    canonical field elements and a commitment-consistent structure, so
    the verifier can evaluate the proof without type or shape surprises.
    """
    r = _Reader(data)
    if r._take(4) != MAGIC:
        raise DeserializationError("bad magic", offset=0)
    version = r.u8()
    if version != VERSION:
        raise DeserializationError(
            f"unsupported proof version {version}", offset=4)
    root = r.digest()
    table_len = r.u64()
    num_rows = r.u32()
    num_cols = r.u32()
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
    # Each repetition carries at least the five count/value headers.
    num_reps = r.count("repetition", 4, cap=MAX_REPETITIONS)
    reps = [_read_repetition(r, commitment) for _ in range(num_reps)]
    if not r.done():
        raise DeserializationError(
            f"{len(r.data) - r.pos} trailing bytes after proof",
            offset=r.pos)
    return SpartanProof(commitment, reps)
