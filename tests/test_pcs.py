"""Tests for the Orion polynomial commitment scheme."""

import copy
import dataclasses
import functools

import numpy as np
import pytest

from repro.code import ExpanderCode, ReedSolomonCode
from repro.field import vector as fv
from repro.field.goldilocks import MODULUS
from repro.hashing import Transcript
from repro.multilinear import eq_table, mle_eval
from repro.pcs import OrionPCS, PCSParams


#: ``_setup`` rows for a columns-mode opening: 64 columns, more than the
#: 20 queries (the default 16 rows leave 16 columns, no more than 20
#: queries, so those openings are the message matrix instead).
COLUMNS_MODE_ROWS = 4


def _setup(log_n=8, rows=16, code=None, zk=True, seed=3):
    rng = np.random.default_rng(seed)
    pcs = OrionPCS(code=code or ReedSolomonCode(num_queries=20),
                   params=PCSParams(num_rows=rows, zk_mask=zk), rng=rng)
    table = fv.rand_vector(1 << log_n, rng)
    point = [int(x) for x in fv.rand_vector(log_n, rng)]
    return pcs, table, point


class TestCommitOpenVerify:
    @pytest.mark.parametrize("log_n,rows", [(6, 4), (8, 16), (10, 128),
                                            (4, 16), (7, 1)])
    def test_roundtrip(self, log_n, rows):
        pcs, table, point = _setup(log_n, rows)
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        assert pcs.verify(com, point, value, proof, Transcript())

    def test_expander_code_roundtrip(self):
        pcs, table, point = _setup(8, 8, code=ExpanderCode())
        pcs.code.num_queries = 20  # keep the test fast
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        assert pcs.verify(com, point, value, proof, Transcript())

    def test_no_mask_roundtrip(self):
        pcs, table, point = _setup(8, 16, zk=False)
        com, state = pcs.commit(table)
        proof = pcs.open(state, com, point, Transcript())
        assert pcs.verify(com, point, mle_eval(table, point), proof,
                          Transcript())

    @pytest.mark.parametrize("zk", [True, False])
    @pytest.mark.parametrize("vectors", [0, 1, 4])
    def test_proximity_vector_counts(self, vectors, zk):
        """The verifier's coefficient matrix has one row per proximity
        vector plus the evaluation row, none to many."""
        pcs, table, point = _setup(8, 16, zk=zk)
        pcs.params.num_proximity_vectors = vectors
        com, state = pcs.commit(table)
        proof = pcs.open(state, com, point, Transcript())
        value = mle_eval(table, point)
        assert pcs.verify(com, point, value, proof, Transcript())
        assert not pcs.verify(com, point, value + 1, proof, Transcript())

    @pytest.mark.parametrize("zk", [True, False])
    @pytest.mark.parametrize("log_n", [4, 7, 10, 14])
    def test_eval_row_gives_the_value_and_the_opening(self, log_n, zk):
        """One row combination serves both: ``evaluate_from_row`` of it is
        the MLE value, and handing it to ``open`` changes nothing."""
        pcs, table, _ = _setup(log_n, 16, zk=zk)
        com, state = pcs.commit(table)
        rng = np.random.default_rng(log_n)
        for _ in range(3):
            point = [int(x) for x in fv.rand_vector(log_n, rng)]
            row = pcs.eval_row(state, com, point)
            assert row.dtype == np.uint64 and row.shape == (com.num_cols,)
            value = pcs.evaluate_from_row(row, point, com.num_rows)
            assert value == mle_eval(table, point)
            reused = pcs.open(state, com, point, Transcript(), eval_row=row)
            plain = pcs.open(state, com, point, Transcript())
            assert reused.query_indices == plain.query_indices
            assert reused.merkle == plain.merkle
            for got, want in zip(
                    [reused.eval_row] + reused.proximity_rows + reused.columns,
                    [plain.eval_row] + plain.proximity_rows + plain.columns,
                    strict=True):
                assert np.array_equal(got, want)
            assert pcs.verify(com, point, value, reused, Transcript())

    def test_eval_row_keyword_is_validated(self):
        pcs, table, point = _setup(8, 16)
        com, state = pcs.commit(table)
        row = pcs.eval_row(state, com, point)
        for bad in (row[:-1], row.astype(np.int64), row.tolist(),
                    row.reshape(1, -1)):
            with pytest.raises(ValueError, match="eval_row"):
                pcs.open(state, com, point, Transcript(), eval_row=bad)
        with pytest.raises(ValueError, match="point dimension"):
            pcs.eval_row(state, com, point[:-1])

    def test_non_power_of_two_rejected(self):
        pcs, _, _ = _setup()
        with pytest.raises(ValueError):
            pcs.commit(fv.zeros(12))

    def test_rows_capped_for_tiny_tables(self):
        pcs, _, _ = _setup(2, 128)
        com, _ = pcs.commit(fv.ones(4))
        assert com.num_rows == 4


class TestRejections:
    def test_wrong_value(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        assert not pcs.verify(com, point, (value + 1) % MODULUS, proof,
                              Transcript())

    def test_wrong_point(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        other = list(point)
        other[0] = (other[0] + 1) % MODULUS
        assert not pcs.verify(com, other, value, proof, Transcript())

    def test_tampered_eval_row(self):
        pcs, table, point = _setup(rows=COLUMNS_MODE_ROWS)
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.eval_row = bad.eval_row.copy()
        bad.eval_row[0] = np.uint64((int(bad.eval_row[0]) + 1) % MODULUS)
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_tampered_proximity_row(self):
        pcs, table, point = _setup(rows=COLUMNS_MODE_ROWS)
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.proximity_rows[0] = bad.proximity_rows[0].copy()
        bad.proximity_rows[0][0] ^= np.uint64(1)
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_tampered_column(self):
        pcs, table, point = _setup(rows=COLUMNS_MODE_ROWS)
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.columns[2] = bad.columns[2].copy()
        bad.columns[2][1] ^= np.uint64(1)
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_swapped_columns(self):
        pcs, table, point = _setup(rows=COLUMNS_MODE_ROWS)
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.columns[0], bad.columns[1] = bad.columns[1], bad.columns[0]
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_opening_modes(self):
        """A message no wider than the query count opens by disclosure:
        the opening is the message matrix alone (mask row last, read-only,
        one object per commit) and leaves the transcript untouched.  A
        wider one carries its PCS part and columns."""
        from repro.pcs.orion import rows_mode

        for rows, mode in ((16, "rows"), (COLUMNS_MODE_ROWS, "columns")):
            pcs, table, point = _setup(rows=rows)
            com, state = pcs.commit(table)
            assert rows_mode(com.num_cols, pcs.code.num_queries) == (
                mode == "rows")
            transcripts = [Transcript() for _ in range(2)]
            proofs = [pcs.open(state, com, point, tr) for tr in transcripts]
            for proof, tr in zip(proofs, transcripts):
                if mode == "rows":
                    assert proof.disclosed()
                    assert proof.message is state.matrix
                    assert proof.message.shape == (com.num_rows + 1,
                                                   com.num_cols)
                    assert not proof.message.flags.writeable
                    assert tr.challenge_field(b"x") == \
                        Transcript().challenge_field(b"x")
                else:
                    assert proof.message is None and not proof.disclosed()
                    assert len(proof.columns) == len(proof.merkle.indices)
                assert pcs.verify(com, point, mle_eval(table, point), proof,
                                  Transcript())

    @pytest.mark.parametrize("edit", ["bump", "bump-mask-row", "swap-rows",
                                      "drop-mask-row", "zero-row-live",
                                      "widen", "non-canonical", "columns",
                                      "proximity-rows", "eval-row",
                                      "query-indices", "multiproof",
                                      "not-a-matrix", "none"])
    def test_tampered_message(self, edit):
        """A rows-mode opening is its message: any one-element edit of it
        (the mask row's too) moves the rebuilt root, a message of another
        height or width is refused, and so is a PCS part beside it."""
        from repro.hashing.merkle import MerkleMultiProof

        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        assert pcs.verify(com, point, value, proof, Transcript())
        message = np.array(proof.message)
        codewords = pcs.code.encode_rows(message)
        extra = {}
        if edit == "bump":
            message[1, 2] = (int(message[1, 2]) + 1) % MODULUS
        elif edit == "bump-mask-row":
            message[-1, 0] = (int(message[-1, 0]) + 1) % MODULUS
        elif edit == "swap-rows":
            message[[0, 1]] = message[[1, 0]]
        elif edit == "drop-mask-row":
            message = message[:-1]
        elif edit == "zero-row-live":
            message = np.vstack([message, message[:1]])
        elif edit == "widen":
            message = np.hstack([message, message[:, :1]])
        elif edit == "non-canonical":
            message[0, 0] = MODULUS
        elif edit == "columns":
            extra = dict(columns=[codewords[:, 0]])
        elif edit == "proximity-rows":
            extra = dict(proximity_rows=[message[0]])
        elif edit == "eval-row":
            extra = dict(eval_row=pcs.eval_row(state, com, point))
        elif edit == "query-indices":
            extra = dict(query_indices=[0])
        elif edit == "multiproof":
            extra = dict(merkle=MerkleMultiProof([0], []))
        elif edit == "not-a-matrix":
            message = message[0]
        else:
            message = None
        bad = dataclasses.replace(proof, message=message, **extra)
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_wrong_root(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        com2 = copy.deepcopy(com)
        com2.root = b"\x00" * 32
        assert not pcs.verify(com2, point, value, proof, Transcript())

    def test_commitment_binding_to_other_polynomial(self):
        """A proof for one polynomial must not verify against the
        commitment to a different one."""
        pcs, table, point = _setup()
        rng = np.random.default_rng(9)
        other = fv.rand_vector(len(table), rng)
        com_other, state_other = pcs.commit(other)
        proof_other = pcs.open(state_other, com_other, point, Transcript())
        # Claim the first table's value under the other commitment.
        value = mle_eval(table, point)
        if value != mle_eval(other, point):
            assert not pcs.verify(com_other, point, value, proof_other,
                                  Transcript())

    def test_wrong_point_dimension(self):
        pcs, table, point = _setup()
        com, state = pcs.commit(table)
        proof = pcs.open(state, com, point, Transcript())
        assert not pcs.verify(com, point[:-1], 0, proof, Transcript())


class TestZeroKnowledgeMask:
    def test_proximity_rows_are_masked(self):
        """With the zk mask, the proximity responses differ from the raw
        gamma-combination of the data rows."""
        pcs, table, point = _setup(8, COLUMNS_MODE_ROWS, zk=True)
        com, state = pcs.commit(table)
        proof = pcs.open(state, com, point, Transcript())
        # Recompute the unmasked combination with the same transcript.
        tr = Transcript()
        tr.absorb_digest(b"pcs/root", com.root)
        gamma = tr.challenge_vector(b"pcs/gamma0", com.num_rows)
        from repro.multilinear import combine_rows

        unmasked = combine_rows(state.matrix[:com.num_rows], gamma)
        assert (proof.proximity_rows[0] != unmasked).any()

    def test_mask_is_random_per_commit(self):
        pcs, table, _ = _setup(8, 16, zk=True)
        _, s1 = pcs.commit(table)
        _, s2 = pcs.commit(table)
        assert (s1.matrix[-1] != s2.matrix[-1]).any()


class TestSizes:
    def test_multiproof_smaller_than_individual_paths(self):
        """The shared multiproof must ship fewer sibling digests than
        per-query authentication paths."""
        pcs, table, point = _setup(10, 16)
        com, state = pcs.commit(table)
        proof = pcs.open(state, com, point, Transcript())
        individual = len(proof.query_indices) * state.tree.depth
        assert len(proof.merkle.nodes) < individual

    def test_more_queries_bigger_proof(self):
        small_pcs = OrionPCS(code=ReedSolomonCode(num_queries=10),
                             params=PCSParams(num_rows=16))
        big_pcs = OrionPCS(code=ReedSolomonCode(num_queries=40),
                           params=PCSParams(num_rows=16))
        rng = np.random.default_rng(4)
        table = fv.rand_vector(1 << 10, rng)
        point = [int(x) for x in fv.rand_vector(10, rng)]
        opened = []
        for pcs in (small_pcs, big_pcs):
            com, state = pcs.commit(table)
            proof = pcs.open(state, com, point, Transcript())
            opened.append((len(proof.columns), len(proof.merkle.nodes)))
        # More queries open more columns under more sibling digests.
        assert opened[1][0] > opened[0][0]
        assert opened[1][1] > opened[0][1]


class TestMalformedProofs:
    def test_missing_proximity_row(self):
        pcs, table, point = _setup(rows=COLUMNS_MODE_ROWS)
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.proximity_rows.pop()
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_extra_proximity_row(self):
        pcs, table, point = _setup(rows=COLUMNS_MODE_ROWS)
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.proximity_rows.append(bad.proximity_rows[0].copy())
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_dropped_column(self):
        pcs, table, point = _setup(rows=COLUMNS_MODE_ROWS)
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.columns.pop()
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_tampered_multiproof_node(self):
        pcs, table, point = _setup(rows=COLUMNS_MODE_ROWS)
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        assert proof.merkle.nodes, "expected shipped sibling digests"
        bad = copy.deepcopy(proof)
        bad.merkle.nodes[0] = b"\xff" * 32
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_truncated_multiproof_nodes(self):
        pcs, table, point = _setup(rows=COLUMNS_MODE_ROWS)
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.merkle.nodes.pop()
        assert not pcs.verify(com, point, value, bad, Transcript())

    def test_truncated_column(self):
        pcs, table, point = _setup(rows=COLUMNS_MODE_ROWS)
        com, state = pcs.commit(table)
        value = mle_eval(table, point)
        proof = pcs.open(state, com, point, Transcript())
        bad = copy.deepcopy(proof)
        bad.columns[0] = bad.columns[0][:-1]
        assert not pcs.verify(com, point, value, bad, Transcript())


# ---------------------------------------------------------------------------
# One batch of openings == each opening alone
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _paper_openings(name):
    """``(pcs, commitment, openings)`` of a seed-7 PAPER proof decoded from
    its bytes: the three ``(point, value, proof, transcript)`` the
    Spartan verifier hands :meth:`OrionPCS.verify_openings`, each
    transcript captured before the batch reads it.  Every registry
    message is no wider than PAPER's 189 queries, so each opening is the
    message (rows mode)."""
    from repro import PAPER, ProofBundle, prove, setup
    from repro.workloads import synthetic_r1cs
    from repro.workloads.registry import build_workload

    if name == "synthetic-2p12":
        circuit_id, (r1cs, public, witness) = name, synthetic_r1cs(12)
    else:
        circuit_id, circuit = build_workload(name)
        r1cs, public, witness = circuit.compile()
    pk, vk = setup(r1cs, PAPER)
    blob = prove(pk, public, witness, seed=7, circuit_id=circuit_id).to_bytes()
    bundle = ProofBundle.from_bytes(blob)
    verifier = vk.verifier()
    seen = []
    real = verifier.pcs.verify_openings

    def capture(commitment, openings):
        seen.append((commitment, [(pt, v, p, copy.copy(tr))
                                  for pt, v, p, tr in openings]))
        return real(commitment, openings)

    verifier.pcs.verify_openings = capture
    assert verifier.verify(bundle.public, bundle.proof)
    del verifier.pcs.verify_openings
    (commitment, openings), = seen
    return verifier.pcs, commitment, tuple(openings)


def _fresh(openings):
    return [(pt, v, p, copy.copy(tr)) for pt, v, p, tr in openings]


def _bumped(values, k=0):
    """A writable copy of a field vector with element ``k`` moved."""
    out = np.array(values, dtype=np.uint64)
    out[k] = (int(out[k]) + 1) % MODULUS
    return out


def _column_owners(openings):
    """codeword index -> the repetitions that open it."""
    owners = {}
    for j, (_pt, _v, proof, _tr) in enumerate(openings):
        for idx in proof.merkle.indices:
            owners.setdefault(idx, []).append(j)
    return owners


def _requeried(pcs, com, proof, tr, state):
    """``proof`` with the query indices its rows draw from ``tr``, and the
    committed columns and multiproof at them: what a prover that changed
    a row and re-ran the transcript sends.  Only the row checks are left
    to catch it."""
    from repro.hashing.merkle import open_many

    tr = copy.copy(tr)
    tr.absorb_digest(b"pcs/root", com.root)
    for k, u in enumerate(proof.proximity_rows):
        tr.challenge_vector(b"pcs/gamma%d" % k, com.num_rows)
        tr.absorb_array(b"pcs/prox%d" % k, u)
    tr.absorb_array(b"pcs/eval-row", proof.eval_row)
    indices = tr.challenge_indices(b"pcs/queries", pcs.code.num_queries,
                                   pcs.code.codeword_length(com.num_cols))
    merkle = open_many(state.tree, indices)
    return dataclasses.replace(
        proof, query_indices=indices, merkle=merkle,
        columns=list(state.codewords[:, merkle.indices].T))


def _mutate(part, openings, j, pcs, com, state=None):
    """Opening ``j`` with one part changed (the others untouched)."""
    pt, value, proof, tr = openings[j]
    cw_len = pcs.code.codeword_length(com.num_cols)
    if part.startswith("proximity-row"):
        rows = list(proof.proximity_rows)
        rows[0] = _bumped(rows[0])
        proof = dataclasses.replace(proof, proximity_rows=rows)
    elif part == "eval-row":
        proof = dataclasses.replace(proof, eval_row=_bumped(proof.eval_row))
    elif part == "eval-row-requeried":
        # Moved along a vector orthogonal to eq(q_col), so the claimed value
        # still follows from it: only the encoded-row check is left.
        eq_col = eq_table(OrionPCS._split_point(pt, com.num_rows)[1])
        row = np.array(proof.eval_row, dtype=np.uint64)
        row[0] = (int(row[0]) + int(eq_col[1])) % MODULUS
        row[1] = (int(row[1]) - int(eq_col[0])) % MODULUS
        proof = dataclasses.replace(proof, eval_row=row)
    elif part == "query-index":
        indices = list(proof.query_indices)
        indices[0] = (indices[0] + 1) % cw_len
        proof = dataclasses.replace(proof, query_indices=indices)
    elif part == "merkle-node":
        nodes = list(proof.merkle.nodes)
        if nodes:
            nodes[0] = bytes([nodes[0][0] ^ 1]) + nodes[0][1:]
        else:                   # every column opened: no sibling ships
            nodes.append(b"\x00" * 32)
        proof = dataclasses.replace(
            proof, merkle=dataclasses.replace(proof.merkle, nodes=nodes))
    elif part == "message":
        message = np.array(proof.message)
        message[0] = _bumped(message[0])
        proof = dataclasses.replace(proof, message=message)
    elif part in ("shared-column", "unshared-column"):
        owners = _column_owners(openings)
        shared = part == "shared-column"
        k = next(k for k, idx in enumerate(proof.merkle.indices)
                 if (len(owners[idx]) > 1) == shared)
        columns = list(proof.columns)
        columns[k] = _bumped(columns[k])
        proof = dataclasses.replace(proof, columns=columns)
    else:
        assert part == "value"
        value = (value + 1) % MODULUS
    if part.endswith("-requeried"):
        proof = _requeried(pcs, com, proof, tr, state)
    return pt, value, proof, tr


_PARTS = ("proximity-row", "eval-row", "query-index", "merkle-node",
          "shared-column", "value")


@functools.lru_cache(maxsize=None)
def _columns_state(name):
    """``(pcs, state)``: a PCS of PAPER's rows and proximity vectors but
    ``C - 1`` column queries, fewer than the message is wide, so it opens
    in columns mode, and the prover state of the commitment
    ``_paper_openings(name)`` checks — its message is the committed
    matrix, so the rebuilt tree has the commitment's root."""
    from repro.hashing.merkle import MerkleTree
    from repro.pcs.orion import _ProverState

    paper, com, openings = _paper_openings(name)
    pcs = OrionPCS(code=ReedSolomonCode(num_queries=com.num_cols - 1),
                   params=dataclasses.replace(paper.params))
    message = openings[0][2].message
    codewords = pcs.code.encode_rows(np.asarray(message))
    codewords.flags.writeable = False
    state = _ProverState(message[:com.num_rows], message[com.num_rows],
                         codewords, MerkleTree.from_columns(codewords))
    assert state.tree.root == com.root
    return pcs, state


@functools.lru_cache(maxsize=None)
def _column_openings(name):
    """``(pcs, commitment, openings)``: ``_paper_openings(name)``'s
    commitment opened in columns mode (:func:`_columns_state`) at the same
    points on the same transcripts — one read-only column object per
    codeword index, shared by the openings as a decoded column table
    shares them."""
    pcs, state = _columns_state(name)
    _, com, openings = _paper_openings(name)
    shared = {}
    out = []
    for pt, v, _p, tr in openings:
        proof = pcs.open(state, com, pt, copy.copy(tr))
        proof.columns = [shared.setdefault(i, state.codewords[:, i])
                         for i in proof.merkle.indices]
        out.append((pt, v, proof, tr))
    return pcs, com, tuple(out)


class TestVerifyOpenings:
    """``verify_openings`` on the three openings of a PAPER proof gives
    the verdict of checking each opening alone.  The decoded openings are
    in rows mode (each is the message); the PCS parts and columns are
    mutated on openings of the same commitment in columns mode
    (:func:`_column_openings`, ``C - 1`` queries).  ``sha`` (63 queries
    of 256 codeword columns) has columns one repetition opens alone and
    columns several open; a changed row can re-draw its queries and
    re-open the committed columns at them, which leaves the row checks
    alone to catch it."""

    @pytest.mark.parametrize("name", ["litmus", "sha", "synthetic-2p12"])
    def test_honest_openings_accepted(self, name):
        pcs, com, openings = _paper_openings(name)
        assert len(openings) == 3
        assert pcs.verify_openings(com, _fresh(openings))
        for pt, v, proof, tr in _fresh(openings):
            assert pcs.verify(com, pt, v, proof, tr)
        # The decoded repetitions share one read-only message object.
        message = openings[0][2].message
        assert not message.flags.writeable
        assert all(p.message is message and p.disclosed()
                   for _pt, _v, p, _tr in openings)
        # The columns-mode openings of the same commitment are accepted
        # too, and identity settles the repeats of a shared column.
        pcs, com, columns = _column_openings(name)
        assert pcs.verify_openings(com, _fresh(columns))
        for pt, v, proof, tr in _fresh(columns):
            assert pcs.verify(com, pt, v, proof, tr)
        second = {id(c) for c in columns[1][2].columns}
        assert any(id(c) in second for c in columns[2][2].columns)

    @pytest.mark.parametrize("name", ["litmus", "sha"])
    def test_mixed_representations_reject(self, name):
        """The mode rule fixes one representation: an honest rows-mode
        opening next to honest columns-mode ones rejects under the PCS
        whose rule says rows mode and under the one whose rule says
        columns mode."""
        pcs, com, openings = _paper_openings(name)
        columns_pcs, _, columns = _column_openings(name)
        for verifier in (pcs, columns_pcs):
            mixed = _fresh(columns[:2] + openings[2:])
            assert verifier.verify_openings(com, mixed) is False

    def test_diverging_messages_reject(self):
        """The openings' messages: an equal copy of another type is
        accepted, an unequal one rejected (no raise)."""
        pcs, com, openings = _paper_openings("sha")
        message = openings[1][2].message
        for bump, verdict in ((False, True), (True, False)):
            copy_ = [[int(x) for x in row] for row in message]
            if bump:
                copy_[0][0] = (copy_[0][0] + 1) % MODULUS
            mutated = _fresh(openings)
            pt, v, proof, tr = mutated[1]
            mutated[1] = (pt, v, dataclasses.replace(proof, message=copy_),
                          tr)
            assert pcs.verify_openings(com, mutated) is verdict

    @pytest.mark.parametrize("name,part", [
        (name, part) for name in ("litmus", "sha", "synthetic-2p12")
        for part in _PARTS] + [("sha", "unshared-column")] + [
        (name, part) for name in ("litmus", "synthetic-2p12")
        for part in ("proximity-row-requeried", "eval-row-requeried")] + [
        (name, "message") for name in ("litmus", "sha", "synthetic-2p12")])
    def test_one_mutated_part_rejects_as_alone(self, name, part):
        rows_mode = part in ("message", "value")
        pcs, com, openings = (_paper_openings if rows_mode
                              else _column_openings)(name)
        j = 1
        mutated = list(_fresh(openings))
        mutated[j] = _mutate(part, mutated, j, pcs, com,
                             None if rows_mode else _columns_state(name)[1])
        pt, v, proof, tr = mutated[j]
        alone = pcs.verify(com, pt, v, proof, copy.copy(tr))
        batch = pcs.verify_openings(com, mutated)
        assert batch == alone
        assert not alone

    def test_diverging_views_of_one_column_reject(self):
        """Two repetitions' views of one shared column: an equal copy of
        another type is accepted, a differing one rejected (no raise)."""
        pcs, com, openings = _column_openings("sha")
        owners = _column_owners(openings)
        proof = openings[1][2]
        k = next(k for k, idx in enumerate(proof.merkle.indices)
                 if len(owners[idx]) > 1)
        for bump, verdict in ((False, True), (True, False)):
            view = [int(x) for x in proof.columns[k]]
            if bump:
                view[-1] = (view[-1] + 1) % MODULUS
            columns = list(proof.columns)
            columns[k] = view
            mutated = _fresh(openings)
            pt, v, _p, tr = mutated[1]
            mutated[1] = (pt, v, dataclasses.replace(proof, columns=columns),
                          tr)
            assert pcs.verify_openings(com, mutated) is verdict

    @pytest.mark.parametrize("name", ["litmus", "sha"])
    def test_repetition_without_the_mask_row_rejects(self, name):
        """Its columns, or its message, cut by the mask row."""
        for openings_of, cut in (
                (_column_openings, lambda p: dict(
                    columns=[np.array(c[:-1]) for c in p.columns])),
                (_paper_openings, lambda p: dict(message=p.message[:-1]))):
            pcs, com, openings = openings_of(name)
            mutated = _fresh(openings)
            pt, v, proof, tr = mutated[2]
            short = dataclasses.replace(proof, **cut(proof))
            mutated[2] = (pt, v, short, tr)
            assert pcs.verify(com, pt, v, short, copy.copy(tr)) is False
            assert pcs.verify_openings(com, mutated) is False

    def test_empty_batch_and_bad_commitment(self):
        pcs, com, openings = _paper_openings("litmus")
        assert pcs.verify_openings(com, [])
        bad = dataclasses.replace(com, root=b"\x00" * 31)
        assert not pcs.verify_openings(bad, _fresh(openings))
