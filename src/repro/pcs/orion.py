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

The full Orion scheme additionally compresses this proof with an inner
SNARK ("proof composition"); prover-side cost is unchanged, so the
performance model charges for exactly what is implemented here, and the
*composed* proof sizes are modeled analytically in
:mod:`repro.analysis.proofsize`.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def size_bytes(self) -> int:
        return 32


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

    @property
    def matrix(self) -> np.ndarray:
        """The message matrix, mask row last — stacked on each read, for
        tests and oracles."""
        if self.mask is None:
            return self.rows
        return np.vstack([self.rows, self.mask])


@dataclass
class OrionEvalProof:
    """Everything the verifier needs beyond the commitment and the claim.

    All opened columns share ONE Merkle multiproof: sibling digests common
    to several query paths ship once, which both shrinks the proof and
    removes the per-query path-building loop from ``open``.  ``columns``
    is ordered by ``merkle.indices`` (sorted, deduplicated); the raw
    transcript query order is kept in ``query_indices`` for the lockstep
    Fiat-Shamir check.
    """

    proximity_rows: List[np.ndarray]   # u_k = gamma_k^T M (+ mask)
    eval_row: np.ndarray               # u = eq(q_row)^T M
    query_indices: List[int]
    columns: List[np.ndarray]          # opened codeword columns (incl. mask row)
    merkle: MerkleMultiProof

    def size_bytes(self) -> int:
        total = sum(r.size for r in self.proximity_rows) * 8
        total += self.eval_row.size * 8
        total += sum(c.size for c in self.columns) * 8
        total += self.merkle.size_bytes()  # includes 4 bytes per query index
        return total


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
            cw_len = self.code.codeword_length(cols)
            total = rows + (mask is not None)
            codewords = np.empty((total, cw_len), dtype=np.uint64)
            # Balanced tiles of at most ENCODE_TILE_CELLS cells: 129 rows
            # in two tiles are 64 + 65, never 128 + 1.  Only the tile that
            # holds the mask row is stacked.
            tiles = -(-total // max(1, ENCODE_TILE_CELLS // cw_len))
            bounds = [total * k // tiles for k in range(tiles + 1)]
            for lo, hi in zip(bounds, bounds[1:]):
                tile = matrix[lo:hi] if hi <= rows else np.vstack(
                    [matrix[lo:], mask[None]])
                with _span("rs.encode", "rs_encode", rows=hi - lo,
                           cols=cols):
                    codewords[lo:hi] = self.code.encode_rows(tile)
            with _span("merkle.build", "merkle", leaves=cw_len):
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
        """Produce an evaluation proof for P~(point); mutates the transcript.

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
        """Check an evaluation proof; mutates the transcript identically to
        :meth:`open` so Fiat-Shamir challenges line up.

        The proof comes from an untrusted prover: structure is validated
        *before* any transcript absorption or numpy arithmetic, so a
        malformed proof is answered with ``False`` — never an
        ``IndexError``, a broadcast error, or a stuck loop.
        """
        if not self._commitment_well_formed(commitment):
            return False
        rows, cols = commitment.num_rows, commitment.num_cols
        if rows != self.params.rows_for(commitment.table_len):
            return False  # geometry must match the verifier's parameters
        if (1 << len(point)) != commitment.table_len:
            return False
        if not isinstance(proof, OrionEvalProof):
            return False
        # Count checks first: the proximity loop length and every absorbed
        # array must be attacker-independent before challenges are derived.
        if len(proof.proximity_rows) != self.params.num_proximity_vectors:
            return False
        prox_rows = [_field_array(u, cols) for u in proof.proximity_rows]
        eval_row = _field_array(proof.eval_row, cols)
        if eval_row is None or any(u is None for u in prox_rows):
            return False
        codeword_len = self.code.codeword_length(cols)
        if not isinstance(proof.query_indices, list) or not all(
                isinstance(i, int) and 0 <= i < codeword_len
                for i in proof.query_indices):
            return False

        transcript.absorb_digest(b"pcs/root", commitment.root)
        # Re-derive challenges in lockstep.
        gammas = []
        for k, u in enumerate(prox_rows):
            gamma = transcript.challenge_vector(b"pcs/gamma%d" % k, rows)
            transcript.absorb_array(b"pcs/prox%d" % k, u)
            gammas.append(gamma)
        transcript.absorb_array(b"pcs/eval-row", eval_row)
        indices = transcript.challenge_indices(
            b"pcs/queries", self.code.num_queries, codeword_len)
        if indices != proof.query_indices:
            return False
        if not isinstance(proof.merkle, MerkleMultiProof):
            return False
        if proof.merkle.indices != sorted(set(indices)):
            return False
        if len(proof.columns) != len(proof.merkle.indices):
            return False

        expected_col_rows = rows + (1 if self._mask_present(proof, rows)
                                    else 0)
        cols_list = [_field_array(c, expected_col_rows)
                     for c in proof.columns]
        if any(c is None for c in cols_list):
            return False

        # One multiproof check covers every opened column.
        cols_mat = np.stack(cols_list, axis=1)
        if not verify_many(commitment.root, hash_columns(cols_mat),
                           proof.merkle, codeword_len):
            return False

        # Encode all claimed combination rows in one batched call.
        stacked = np.stack(prox_rows + [eval_row])
        codes = self.code.encode_rows(stacked)
        prox_codes, eval_code = codes[:-1], codes[-1]

        row_point, _col_point = self._split_point(point, rows)
        r = eq_table(row_point)

        qidx = np.asarray(proof.merkle.indices, dtype=np.int64)
        data = cols_mat[:rows]
        mask_syms = (cols_mat[rows] if expected_col_rows > rows
                     else fv.zeros(len(qidx)))
        # Proximity consistency at every query at once (mask coefficient 1).
        for gamma, code_row in zip(gammas, prox_codes):
            rhs = fv.add(fv.vecmat(gamma, data), mask_syms)
            if (code_row[qidx] != rhs).any():
                return False
        # Evaluation consistency (mask coefficient 0).
        if (eval_code[qidx] != fv.vecmat(r, data)).any():
            return False

        # Finally, the claimed value must follow from the evaluation row.
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            return False
        expected = self.evaluate_from_row(eval_row, point, rows)
        return expected == int(value) % MODULUS

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
    def _mask_present(proof: OrionEvalProof, rows: int) -> bool:
        if not proof.columns:
            return False
        first = _field_array(proof.columns[0])
        return first is not None and first.size == rows + 1

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


def _field_array(x, length: Optional[int] = None) -> Optional[np.ndarray]:
    """Coerce untrusted input to a 1-D canonical uint64 vector, or None.

    Rejects anything numpy cannot losslessly view as uint64 (negative or
    huge ints, nested/ragged data, wrong dimensionality or length) and
    any non-canonical element — all before the value touches a kernel
    that assumes well-formed operands.
    """
    try:
        arr = np.asarray(x, dtype=np.uint64)
    except (TypeError, ValueError, OverflowError):
        return None
    if arr.ndim != 1:
        return None
    if length is not None and arr.shape != (length,):
        return None
    if arr.size and int(arr.max()) >= MODULUS:
        return None
    return arr
