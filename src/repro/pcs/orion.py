"""The Orion polynomial commitment scheme (Brakedown/Shockwave style)
over a linear code (Sec. II, Sec. V, Sec. VII-A).

Commitment: the 2^L-entry MLE table is reshaped into a (rows x cols)
matrix (rows = 128 at paper scale), each row is encoded with the linear
code (Reed-Solomon, blowup 4), and the codeword *columns* are committed
in a Merkle tree.

Opening at a point q uses the tensor identity
    P~(q) = eq(q_row)^T  M  eq(q_col),
so the prover sends the combined row u = eq(q_row)^T M and the verifier
completes the inner product itself.  Soundness comes from:

* a proximity test — 4 random row-combinations (Sec. VII-A) whose
  encodings must match the committed columns at 189 random positions, and
* a consistency test — the evaluation combination checked at the same
  columns (the paper follows Brakedown's observation that tests can reuse
  columns, shrinking the proof).

Masking: one committed random mask row is folded into every proximity
response, so those responses reveal no row of M (protocol-5 masking).
The opened columns are not masked, so the scheme is not zero-knowledge
yet: any C opened columns return every row (docs/PROTOCOL.md, §6).

Rows mode (an opening by disclosure): when the message is no wider
than the column query count (:func:`rows_mode`, read off the geometry
before any challenge), a sampled column check would ask about columns the
verifier can compute in full.  Such an opening is the committed message
matrix M itself (``message``, mask row last) and nothing else: no
proximity rows, evaluation row, query indices or multiproof, and no
transcript absorb.  The verifier encodes M, rebuilds the Merkle root from
every column of Enc(M) and refuses unless it is the commitment's, then
evaluates eq(q_row)^T M itself.  Binding rests on the hash's collision
resistance alone, with no column-sampling error.  It reveals nothing the
earlier rows mode did not: that opening shipped M too, and C opened
columns decode to it.  PAPER's registry circuits (C <= 128 <= 189
queries) open in rows mode and 2^16 and up (C >= 256) in columns mode; a
hiding variant whose message is wider than its query count never enters
it.

The full Orion scheme additionally compresses this proof with an inner
SNARK ("proof composition"); prover-side cost is unchanged, so the
performance model charges for exactly what is implemented here, and the
*composed* proof sizes are modeled analytically in
:mod:`repro.analysis.proofsize`.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..code.base import LinearCode
from ..field.goldilocks import MODULUS
from ..code.reed_solomon import ReedSolomonCode
from ..field import vector as fv
from ..hashing.merkle import (
    MerkleMultiProof,
    MerkleTree,
    open_many,
    verify_many,
)
from ..hashing.fieldhash import hash_columns
from ..hashing.transcript import Transcript
from ..multilinear.mle import combine_rows, eq_table
from ..obs import span as _span

#: Paper parameters (Sec. VII-A).
DEFAULT_ROWS = 128
DEFAULT_PROXIMITY_VECTORS = 4

#: Codeword cells per encode tile.  :meth:`OrionPCS.commit` encodes its
#: matrix a few rows at a time, like NoCap's NTT FU working out of the
#: register file: 2^16 cells (512 KB) keep every butterfly stage's
#: temporaries inside a 2 MB L2, where a one-shot encode of the 2^19
#: PAPER commit (129 x 8192) streams ~4 MB per stage through it.  That is
#: 8 rows at 2^19, 4 at 2^20, and one tile for every small registry
#: circuit.  Proof bytes do not depend on it.
ENCODE_TILE_CELLS = 1 << 16

#: Read by ``bench/`` only (its staged commit and kernel probes); nothing
#: in ``src/`` uses them.  The commit has one tiled path at every size.
DEFAULT_STREAMING_CELLS = 1 << 21
STREAM_TILE_ROWS = 16


@dataclass
class PCSParams:
    """Knobs of the commitment scheme, defaulting to the paper's values."""

    num_rows: int = DEFAULT_ROWS
    num_proximity_vectors: int = DEFAULT_PROXIMITY_VECTORS
    zk_mask: bool = True

    def rows_for(self, table_len: int) -> int:
        """Actual row count: the configured value, capped for tiny tables."""
        return min(self.num_rows, table_len)


@dataclass
class OrionCommitment:
    """Public commitment: the Merkle root over codeword columns."""

    root: bytes
    table_len: int
    num_rows: int      # excluding the zk mask row
    num_cols: int


@dataclass
class _ProverState:
    """What :meth:`OrionPCS.commit` keeps for the openings.  ``rows`` is
    the committed table itself, reshaped (a view: the witness is not
    copied, so the caller must not write to the table while it opens),
    and ``mask`` the zk mask row alone (None without one); every row
    combination takes the mask by its coefficient
    (:meth:`OrionPCS._combine`), never a stacked matrix."""

    rows: np.ndarray                    # (rows, cols) view of the table
    mask: Optional[np.ndarray]          # (cols,) zk mask row, or None
    codewords: np.ndarray               # (rows [+1 mask], blowup*cols)
    tree: MerkleTree

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The message matrix, mask row last: a read-only copy stacked on
        the first read, so every rows-mode opening of this state carries
        the one object (and none aliases the caller's table)."""
        stacked = np.vstack([self.rows] + ([] if self.mask is None
                                           else [self.mask]))
        stacked.flags.writeable = False
        return stacked


def rows_mode(num_cols: int, queries: int) -> bool:
    """The one mode rule, read by the prover, the verifier and the wire
    format: an opening of a ``num_cols``-wide message under ``queries``
    column queries is the message itself iff ``num_cols <= queries``.
    It reads the geometry only, so both sides know the mode before any
    challenge and a proof has one representation."""
    return num_cols <= queries


@dataclass
class OrionEvalProof:
    """Everything the verifier needs beyond the commitment and the claim.

    Columns mode: all opened columns share ONE Merkle multiproof: sibling
    digests common to several query paths ship once, which both shrinks
    the proof and removes the per-query path-building loop from ``open``.
    ``columns`` is ordered by ``merkle.indices`` (sorted, deduplicated);
    the raw transcript query order is kept in ``query_indices`` for the
    lockstep Fiat-Shamir check.

    Rows mode (:func:`rows_mode`): ``message`` is the committed
    ``(rows [+1 mask], cols)`` message matrix and every other field is
    empty.  In columns mode ``message`` is None.
    """

    proximity_rows: List[np.ndarray] = field(default_factory=list)
    eval_row: Optional[np.ndarray] = None      # u = eq(q_row)^T M
    query_indices: List[int] = field(default_factory=list)
    columns: List[np.ndarray] = field(default_factory=list)  # incl. mask row
    merkle: Optional[MerkleMultiProof] = None
    message: Optional[np.ndarray] = None       # rows mode: M, mask row last

    def disclosed(self) -> bool:
        """True for a rows-mode opening: a message and nothing else."""
        return (self.message is not None and self.eval_row is None
                and self.merkle is None
                and all(isinstance(part, list) and not part for part in
                        (self.proximity_rows, self.query_indices,
                         self.columns)))


def opened_columns(openings: Sequence[OrionEvalProof], rows: int
                   ) -> tuple[list, np.ndarray]:
    """``(indices, stacked)``: the sorted union of a columns-mode batch's
    distinct query indices, and the ``(len(indices), height)`` matrix of
    the column opened at each, one row per column.  It is what the
    proof's column table carries and what :meth:`OrionPCS.verify_openings`
    hashes: the one statement of what the openings share.

    Every opening carries no message and one column per distinct query
    index; every column is canonical, and all have one height, ``rows``
    or ``rows + 1`` with the mask row; two openings that open one index
    open equal columns there.  A parsed proof hands every opening the
    same read-only column object, so identity settles most repeats.
    Raises ``ValueError`` naming the first opening at fault; an honest
    batch never does, since its openings read one committed codeword
    matrix."""
    heights = (rows, rows + 1)
    table = {}          # codeword index -> (column as given, validated)
    for k, p in enumerate(openings):
        if p.message is not None:
            raise ValueError(f"opening {k} carries a message, but a "
                             "columns-mode opening is its columns")
        distinct = sorted(set(p.query_indices))
        if len(p.columns) != len(distinct):
            raise ValueError(f"opening {k} opens {len(p.columns)} columns "
                             f"for {len(distinct)} distinct query indices")
        for idx, col in zip(distinct, p.columns):
            seen = table.get(idx)
            if seen is not None and seen[0] is col:
                continue
            arr = _field_array(col)
            if arr is None or arr.size not in heights:
                raise ValueError(
                    f"opening {k} opens no column of "
                    f"{' or '.join(map(str, heights))} canonical elements "
                    f"at index {idx}")
            if seen is not None and not np.array_equal(arr, seen[1]):
                raise ValueError(f"opening {k} opens a column at index {idx} "
                                 "that an earlier opening opened with other "
                                 "values")
            heights = (arr.size,)
            table.setdefault(idx, (col, arr))
    indices = sorted(table)
    stacked = np.array([table[i][1] for i in indices], np.uint64)
    return indices, stacked.reshape(len(indices), heights[0])


def shared_message(openings: Sequence[OrionEvalProof], rows: int,
                   cols: int) -> np.ndarray:
    """The one message of a rows-mode batch: what the proof's rows block
    carries and what :meth:`OrionPCS.verify_openings` encodes.  Every
    opening is the message alone (:meth:`OrionEvalProof.disclosed`), the
    first a canonical ``(rows [+1 mask], cols)`` matrix and every other
    one equal to it.  Raises ``ValueError`` naming the first opening at
    fault; an honest batch never does, since its openings share the
    committed matrix, one object."""
    if not openings:
        raise ValueError("a rows-mode batch of no openings has no message")
    message = None
    for k, p in enumerate(openings):
        if not (isinstance(p, OrionEvalProof) and p.disclosed()):
            carries = ("no message" if getattr(p, "message", None) is None
                       else "a message and a PCS part")
            raise ValueError(f"opening {k} carries {carries}, but a "
                             "rows-mode opening is the message alone")
        if k and p.message is openings[0].message:
            continue
        given = _field_array(p.message, ndim=2)
        if message is None:
            if (given is None or given.shape[1] != cols
                    or len(given) not in (rows, rows + 1)):
                raise ValueError(f"opening 0 carries no ({rows} or "
                                 f"{rows + 1}) x {cols} message of canonical "
                                 "elements")
            message = given
        elif given is None or not np.array_equal(given, message):
            raise ValueError(f"opening {k} carries another message than "
                             "opening 0")
    return message


class OrionPCS:
    """Commit/open/verify for multilinear polynomials given as MLE tables."""

    #: Read by ``bench/`` only (see :data:`DEFAULT_STREAMING_CELLS`).
    streaming_cells = DEFAULT_STREAMING_CELLS

    def __init__(self, code: Optional[LinearCode] = None,
                 params: Optional[PCSParams] = None,
                 rng: Optional[np.random.Generator] = None):
        self.code = code or ReedSolomonCode()
        self.params = params or PCSParams()
        self._rng = rng or np.random.default_rng()

    # -- commit ---------------------------------------------------------------
    def commit(self, table: np.ndarray
               ) -> tuple[OrionCommitment, _ProverState]:
        table = np.asarray(table, dtype=np.uint64)
        n = len(table)
        if n == 0 or n & (n - 1):
            raise ValueError("table length must be a power of two")
        rows = self.params.rows_for(n)
        cols = n // rows
        with _span("pcs.commit", "other", n=n, rows=rows, cols=cols):
            matrix = table.reshape(rows, cols)
            mask = (fv.rand_vector(cols, self._rng) if self.params.zk_mask
                    else None)
            codewords = self._encode_tiles(
                [matrix] if mask is None else [matrix, mask[None]], cols)
            with _span("merkle.build", "merkle",
                       leaves=codewords.shape[1]):
                tree = MerkleTree.from_columns(codewords)
        commitment = OrionCommitment(
            root=tree.root, table_len=n, num_rows=rows, num_cols=cols)
        return commitment, _ProverState(matrix, mask, codewords, tree)

    # -- open -----------------------------------------------------------------
    def eval_row(self, state: _ProverState, commitment: OrionCommitment,
                 point: Sequence[int]) -> np.ndarray:
        """The opening's evaluation row u = eq(q_row)^T M (mask excluded:
        coefficient 0).  :meth:`evaluate_from_row` turns it into P~(point),
        and :meth:`open` takes it back as ``eval_row=`` so a caller that
        needs the value first pays for one row combination, not two."""
        if (1 << len(point)) != commitment.table_len:
            raise ValueError("point dimension does not match committed table")
        with _span("pcs.open.eval_row", "polyarith"):
            row_point, _col_point = self._split_point(point,
                                                      commitment.num_rows)
            return self._combine(state, eq_table(row_point), mask_coeff=0)

    def open(self, state: _ProverState, commitment: OrionCommitment,
             point: Sequence[int], transcript: Transcript, *,
             eval_row: Optional[np.ndarray] = None) -> OrionEvalProof:
        """Produce an evaluation proof for P~(point); in columns mode it
        mutates the transcript, in rows mode (:func:`rows_mode`) it is the
        committed message and the transcript is untouched.

        ``eval_row`` (optional) is :meth:`eval_row`'s result for this
        state and point, computed by the caller beforehand; it must be a
        uint64 array of shape ``(cols,)`` (``ValueError`` otherwise) and
        is trusted to be that row — a wrong one yields a proof
        :meth:`verify` rejects.
        """
        rows, cols = commitment.num_rows, commitment.num_cols
        if (1 << len(point)) != commitment.table_len:
            raise ValueError("point dimension does not match committed table")
        if eval_row is not None and not (
                isinstance(eval_row, np.ndarray)
                and eval_row.dtype == np.uint64 and eval_row.shape == (cols,)):
            raise ValueError(f"eval_row must be a uint64 array of shape "
                             f"({cols},)")
        if rows_mode(cols, self.code.num_queries):
            # The opening is the message: the transcript is left alone.
            return OrionEvalProof(message=state.matrix)
        transcript.absorb_digest(b"pcs/root", commitment.root)

        with _span("pcs.open", "other", rows=rows, cols=cols):
            # Proximity test rows (mask folded in with coefficient 1).
            with _span("pcs.open.proximity", "polyarith",
                       vectors=self.params.num_proximity_vectors):
                proximity_rows = []
                for k in range(self.params.num_proximity_vectors):
                    gamma = transcript.challenge_vector(
                        b"pcs/gamma%d" % k, rows)
                    u = self._combine(state, gamma, mask_coeff=1)
                    transcript.absorb_array(b"pcs/prox%d" % k, u)
                    proximity_rows.append(u)

            if eval_row is None:
                eval_row = self.eval_row(state, commitment, point)
            transcript.absorb_array(b"pcs/eval-row", eval_row)

            # Column queries, shared by all tests; one multiproof for all
            # paths.
            codeword_len = self.code.codeword_length(cols)
            indices = transcript.challenge_indices(
                b"pcs/queries", self.code.num_queries, codeword_len)
            with _span("merkle.open", "merkle", queries=len(indices)):
                multiproof = open_many(state.tree, indices)
                opened = state.codewords[:, multiproof.indices]
                columns = [np.ascontiguousarray(opened[:, k])
                           for k in range(opened.shape[1])]
        return OrionEvalProof(proximity_rows, eval_row, indices, columns,
                              multiproof)

    def evaluate_from_row(self, eval_row: np.ndarray,
                          point: Sequence[int], num_rows: int) -> int:
        """P~(point) = <eval_row, eq(q_col)>: the one definition of how an
        evaluation row determines the value.  The prover derives its claim
        from :meth:`eval_row` with it and :meth:`verify` checks the claim
        with it."""
        _row_point, col_point = self._split_point(point, num_rows)
        return fv.dot(eval_row, eq_table(col_point))

    # -- verify ---------------------------------------------------------------
    def verify(self, commitment: OrionCommitment, point: Sequence[int],
               value: int, proof: OrionEvalProof,
               transcript: Transcript) -> bool:
        """Check one evaluation proof: :meth:`verify_openings` of a
        one-opening batch (it mutates the transcript identically to
        :meth:`open`)."""
        return self.verify_openings(commitment,
                                    [(point, value, proof, transcript)])

    def verify_openings(self, commitment: OrionCommitment,
                        openings: Sequence[tuple]) -> bool:
        """Check evaluation proofs of ONE commitment, each opening a
        ``(point, value, proof, transcript)``; True only if all hold.

        Rows mode (:func:`rows_mode`) is :meth:`_verify_disclosed`.  In
        columns mode each opening replays :meth:`open`'s transcript in
        lockstep on its own transcript, with every structural check before
        the first absorb.  Then every opening's checks run, with the work
        they share done once: :func:`opened_columns` validates each
        distinct opened column once (two openings that open one index must
        open it with equal values: unequal ones cannot both match one
        Merkle leaf, docs/PROTOCOL.md), each is leaf-hashed once and each
        multiproof checked against those digests; all claimed rows are
        encoded in one tiled call, and each opening's proximity and
        evaluation combinations of its columns come from one
        :func:`~repro.field.vector.vecmat`.

        The proofs come from an untrusted prover: a malformed one is
        answered with ``False`` — never an ``IndexError``, a broadcast
        error, or a stuck loop.
        """
        if not self._commitment_well_formed(commitment):
            return False
        rows, cols = commitment.num_rows, commitment.num_cols
        if rows != self.params.rows_for(commitment.table_len):
            return False  # geometry must match the verifier's parameters
        if rows_mode(cols, self.code.num_queries):
            return self._verify_disclosed(commitment, openings)
        replayed = []
        for point, _value, proof, transcript in openings:
            claims = self._replay(commitment, point, proof, transcript)
            if claims is None:
                return False
            replayed.append(claims)
        if not replayed:
            return True
        proofs = [proof for _point, _value, proof, _tr in openings]
        try:
            distinct, stacked = opened_columns(proofs, rows)
        except ValueError:
            return False
        # C-ordered (height, count): every opening's vecmat gathers its
        # columns from it, and an F-ordered view of ``stacked`` reads slower.
        opened = np.ascontiguousarray(stacked.T)
        height = len(opened)

        at = {idx: k for k, idx in enumerate(distinct)}
        digests = hash_columns(opened)
        codeword_len = self.code.codeword_length(cols)
        for proof in proofs:
            if not verify_many(commitment.root,
                               [digests[at[i]] for i in proof.merkle.indices],
                               proof.merkle, codeword_len):
                return False

        # Every claimed row of every opening in one tiled encode; opening
        # j's rows are codes[j * per:(j + 1) * per], its evaluation row last.
        per = self.params.num_proximity_vectors + 1
        codes = self._encode_tiles(
            [np.stack([u for claimed, _g in replayed for u in claimed])],
            cols)
        coeffs = np.zeros((per, height), dtype=np.uint64)
        coeffs[:-1, rows:] = 1      # the mask row enters each proximity row
        for j, ((point, value, proof, _tr), (claimed, gammas)) in \
                enumerate(zip(openings, replayed)):
            row_point, _col_point = self._split_point(point, rows)
            coeffs[:, :rows] = gammas + [eq_table(row_point)]
            # Proximity and evaluation consistency at every query at once.
            qidx = np.asarray(proof.merkle.indices, dtype=np.int64)
            cols_at = [at[i] for i in proof.merkle.indices]
            if (codes[j * per:(j + 1) * per, qidx]
                    != fv.vecmat(coeffs, opened[:, cols_at])).any():
                return False
            # Finally, the claimed value must follow from the evaluation row.
            if not self._claim_holds(claimed[-1], point, value, rows):
                return False
        return True

    def _verify_disclosed(self, commitment: OrionCommitment,
                          openings: Sequence[tuple]) -> bool:
        """Rows mode: every opening is the one message matrix M
        (:func:`shared_message`, which validates it once).  Its
        non-zero rows encoded once; the Merkle tree over every column of
        that encoding must have the commitment's root, so a message other
        than the committed one is a hash collision.  Each claimed value is
        then ``eq(q_row)^T M`` completed by :meth:`evaluate_from_row`, for
        all openings in one :func:`~repro.field.vector.vecmat`.  Nothing
        is sampled and the transcripts are not read (docs/PROTOCOL.md,
        §6b)."""
        rows, cols = commitment.num_rows, commitment.num_cols
        if any((1 << len(point)) != commitment.table_len
               for point, _v, _p, _tr in openings):
            return False
        if not openings:
            return True
        try:
            message = shared_message([p for _pt, _v, p, _tr in openings],
                                     rows, cols)
        except ValueError:
            return False
        live = message.any(axis=1)
        codewords = np.zeros((len(message), self.code.codeword_length(cols)),
                             dtype=np.uint64)
        if live.any():
            codewords[live] = self._encode_tiles([message[live]], cols)
        with _span("merkle.build", "merkle", leaves=codewords.shape[1]):
            if MerkleTree.from_columns(codewords).root != commitment.root:
                return False
        coeffs = np.array([eq_table(self._split_point(point, rows)[0])
                           for point, _v, _p, _tr in openings],
                          dtype=np.uint64)
        for (point, value, _p, _tr), row in zip(
                openings, fv.vecmat(coeffs, message[:rows])):
            if not self._claim_holds(row, point, value, rows):
                return False
        return True

    def _claim_holds(self, eval_row: np.ndarray, point: Sequence[int],
                     value, rows: int) -> bool:
        """The claimed value is a plain integer and follows from the
        evaluation row."""
        if not isinstance(value, (int, np.integer)) or isinstance(value,
                                                                  bool):
            return False
        return (self.evaluate_from_row(eval_row, point, rows)
                == int(value) % MODULUS)

    def _replay(self, commitment: OrionCommitment, point: Sequence[int],
                proof: OrionEvalProof, transcript: Transcript
                ) -> Optional[tuple]:
        """One columns-mode opening's structural checks and transcript
        replay, in :meth:`open`'s order: ``(claimed rows, gammas)`` (the
        proximity rows then the evaluation row, validated), or None to
        reject.  Its columns are :func:`opened_columns`' to check."""
        rows, cols = commitment.num_rows, commitment.num_cols
        if (1 << len(point)) != commitment.table_len:
            return None
        if not isinstance(proof, OrionEvalProof):
            return None
        # Count checks first: the proximity loop length and every absorbed
        # array must be attacker-independent before challenges are derived.
        if len(proof.proximity_rows) != self.params.num_proximity_vectors:
            return None
        claimed = [_field_array(u, cols)
                   for u in list(proof.proximity_rows) + [proof.eval_row]]
        if any(u is None for u in claimed):
            return None
        codeword_len = self.code.codeword_length(cols)
        if not isinstance(proof.query_indices, list) or not all(
                isinstance(i, int) and 0 <= i < codeword_len
                for i in proof.query_indices):
            return None

        transcript.absorb_digest(b"pcs/root", commitment.root)
        # Re-derive challenges in lockstep.
        gammas = []
        for k, u in enumerate(claimed[:-1]):
            gammas.append(transcript.challenge_vector(b"pcs/gamma%d" % k,
                                                      rows))
            transcript.absorb_array(b"pcs/prox%d" % k, u)
        transcript.absorb_array(b"pcs/eval-row", claimed[-1])
        indices = transcript.challenge_indices(
            b"pcs/queries", self.code.num_queries, codeword_len)
        if indices != proof.query_indices:
            return None
        if not isinstance(proof.merkle, MerkleMultiProof):
            return None
        if proof.merkle.indices != sorted(set(indices)):
            return None
        return claimed, gammas

    def _encode_tiles(self, blocks: Sequence[np.ndarray],
                      cols: int) -> np.ndarray:
        """The codewords of the rows of ``blocks`` (2-D, ``cols`` wide,
        read as one stacked matrix), encoded in balanced row tiles of at
        most :data:`ENCODE_TILE_CELLS` codeword cells: 129 rows in two
        tiles are 64 + 65, never 128 + 1.  Only a tile that spans two
        blocks is stacked.  The commit's rows and the verifier's claimed
        rows both come through here."""
        cw_len = self.code.codeword_length(cols)
        total = sum(len(b) for b in blocks)
        codewords = np.empty((total, cw_len), dtype=np.uint64)
        tiles = -(-total // max(1, ENCODE_TILE_CELLS // cw_len))
        bounds = [total * k // tiles for k in range(tiles + 1)]
        starts = list(itertools.accumulate(map(len, blocks), initial=0))
        for lo, hi in zip(bounds, bounds[1:]):
            parts = [b[max(0, lo - s):hi - s] for b, s in zip(blocks, starts)
                     if s < hi and s + len(b) > lo]
            tile = parts[0] if len(parts) == 1 else np.vstack(parts)
            with _span("rs.encode", "rs_encode", rows=hi - lo, cols=cols):
                codewords[lo:hi] = self.code.encode_rows(tile)
        return codewords

    # -- helpers ---------------------------------------------------------------
    @staticmethod
    def _split_point(point: Sequence[int], rows: int) -> tuple[list, list]:
        log_rows = rows.bit_length() - 1
        pt = [int(x) for x in point]
        return pt[:log_rows], pt[log_rows:]

    @staticmethod
    def _combine(state: _ProverState, coeffs: np.ndarray,
                 mask_coeff: int) -> np.ndarray:
        """coeffs^T rows + mask_coeff * mask (``mask_coeff`` 0 or 1): the
        combination of the stacked message matrix, without stacking it."""
        u = combine_rows(state.rows, coeffs)
        if state.mask is None or not mask_coeff:
            return u
        return fv.add(u, state.mask)

    @staticmethod
    def _commitment_well_formed(c: OrionCommitment) -> bool:
        """Geometry sanity for an untrusted commitment: 32-byte root,
        power-of-two table split exactly into rows x cols."""
        if not isinstance(c, OrionCommitment):
            return False
        if not isinstance(c.root, (bytes, bytearray)) or len(c.root) != 32:
            return False
        for n in (c.table_len, c.num_rows, c.num_cols):
            if not isinstance(n, int) or n < 1:
                return False
        if c.table_len & (c.table_len - 1) or c.num_rows & (c.num_rows - 1):
            return False
        return c.num_rows * c.num_cols == c.table_len


def _field_array(x, length: Optional[int] = None,
                 ndim: int = 1) -> Optional[np.ndarray]:
    """Coerce untrusted input to a canonical uint64 array of ``ndim``
    dimensions (a vector unless told otherwise), or None.

    Rejects anything numpy cannot losslessly view as uint64 (negative or
    huge ints, nested/ragged data, wrong dimensionality or length) and
    any non-canonical element — all before the value touches a kernel
    that assumes well-formed operands.
    """
    try:
        arr = np.asarray(x, dtype=np.uint64)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.ndim != ndim:
        return None
    if length is not None and arr.shape != (length,):
        return None
    if arr.size and int(arr.max()) >= MODULUS:
        return None
    return arr
