"""Tests for field hashing, Merkle trees, and the Fiat-Shamir transcript."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.field import vector as fv
from repro.field.goldilocks import MODULUS
from repro.hashing.fieldhash import (
    COLUMN_BLOCK,
    ColumnChainHasher,
    hash_columns,
)
from repro.hashing import (
    LEAF_TAG,
    MerkleTree,
    Transcript,
    hash_elements,
    hash_pair,
    open_many,
    verify_many,
)


class TestFieldHash:
    def test_leaf_is_one_tagged_sha3(self):
        elems = np.arange(8, dtype=np.uint64)
        packed = b"".join(int(x).to_bytes(8, "little") for x in elems)
        assert hash_elements(elems) == hashlib.sha3_256(
            LEAF_TAG + packed).digest()

    def test_leaf_binds_its_length(self):
        """No zero padding: a column and its zero-extended copy differ (the
        word chain hashed them alike)."""
        short = np.array([1, 2, 3, 4, 5], dtype=np.uint64)
        padded = np.array([1, 2, 3, 4, 5, 0, 0, 0], dtype=np.uint64)
        assert hash_elements(short) != hash_elements(padded)

    def test_leaf_is_never_a_pair_node(self):
        """Leaf/node separation: an 8-row column is 64 bytes, the size of
        a pair-node preimage, and must not hash like one; and no column
        height gives a 64-byte leaf preimage at all."""
        column = np.arange(1, 9, dtype=np.uint64)
        raw = column.astype("<u8").tobytes()
        as_node = hash_pair(raw[:32], raw[32:])
        assert hash_elements(column) != as_node
        assert hash_columns(column.reshape(8, 1)) != [as_node]
        assert (64 - len(LEAF_TAG)) % 8 != 0

    def test_hash_elements_deterministic(self, rng):
        v = fv.rand_vector(16, rng)
        assert hash_elements(v) == hash_elements(v.copy())

    def test_hash_elements_sensitive(self, rng):
        v = fv.rand_vector(16, rng)
        w = v.copy()
        w[7] ^= np.uint64(1)
        assert hash_elements(v) != hash_elements(w)

    def test_hash_pair_is_sha3(self):
        a, b = b"x" * 32, b"y" * 32
        assert hash_pair(a, b) == hashlib.sha3_256(a + b).digest()


class TestMerkle:
    """Single-leaf openings: a one-index multiproof is the
    authentication path."""

    def test_single_leaf(self):
        t = MerkleTree([b"\x01" * 32])
        assert t.depth == 0
        assert verify_many(t.root, [b"\x01" * 32], open_many(t, [0]), 1)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 17])
    def test_open_verify_all_leaves(self, n):
        leaves = [bytes([i]) * 32 for i in range(n)]
        t = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            proof = open_many(t, [i])
            assert len(proof.nodes) == t.depth
            assert verify_many(t.root, [leaf], proof, n), i

    def test_wrong_leaf_rejected(self):
        leaves = [bytes([i]) * 32 for i in range(8)]
        t = MerkleTree(leaves)
        proof = open_many(t, [3])
        assert not verify_many(t.root, [leaves[4]], proof, 8)

    def test_wrong_index_rejected(self):
        leaves = [bytes([i]) * 32 for i in range(8)]
        t = MerkleTree(leaves)
        proof = open_many(t, [3])
        proof.indices = [5]
        assert not verify_many(t.root, [leaves[3]], proof, 8)

    def test_tampered_sibling_rejected(self):
        leaves = [bytes([i]) * 32 for i in range(8)]
        t = MerkleTree(leaves)
        proof = open_many(t, [2])
        proof.nodes[1] = b"\xff" * 32
        assert not verify_many(t.root, [leaves[2]], proof, 8)

    def test_out_of_range_open(self):
        t = MerkleTree([b"\x00" * 32] * 4)
        with pytest.raises(IndexError):
            open_many(t, [4])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MerkleTree([])

    def test_from_columns(self, rng):
        mat = fv.rand_vector(8 * 16, rng).reshape(8, 16)
        t = MerkleTree.from_columns(mat)
        assert t.num_leaves == 16
        for j in range(16):
            assert verify_many(t.root, [hash_elements(mat[:, j])],
                               open_many(t, [j]), 16)
        # A tampered column fails.
        bad = mat[:, 3].copy()
        bad[0] ^= np.uint64(1)
        assert not verify_many(t.root, [hash_elements(bad)],
                               open_many(t, [3]), 16)

    def test_total_hashes(self):
        t = MerkleTree([bytes([i]) * 32 for i in range(8)])
        # 4 + 2 + 1 internal hash layers.
        assert t.total_hashes() == 7

    def test_root_depends_on_order(self):
        a = [bytes([i]) * 32 for i in range(4)]
        t1 = MerkleTree(a)
        t2 = MerkleTree(list(reversed(a)))
        assert t1.root != t2.root


class TestTranscript:
    def test_deterministic(self):
        t1, t2 = Transcript(), Transcript()
        for t in (t1, t2):
            t.absorb_field(b"x", 42)
        assert t1.challenge_field(b"c") == t2.challenge_field(b"c")

    def test_absorption_changes_challenges(self):
        t1, t2 = Transcript(), Transcript()
        t1.absorb_field(b"x", 42)
        t2.absorb_field(b"x", 43)
        assert t1.challenge_field(b"c") != t2.challenge_field(b"c")

    def test_label_separation(self):
        t1, t2 = Transcript(), Transcript()
        t1.absorb_bytes(b"a", b"xy")
        t2.absorb_bytes(b"ax", b"y")
        assert t1.challenge_field(b"c") != t2.challenge_field(b"c")

    def test_challenges_in_field(self):
        t = Transcript()
        for c in t.challenge_fields(b"many", 100):
            assert 0 <= c < MODULUS

    def test_sequential_challenges_differ(self):
        t = Transcript()
        a = t.challenge_field(b"c")
        b = t.challenge_field(b"c")
        assert a != b

    def test_scalar_challenges_pinned(self):
        """``challenge_field`` / ``challenge_fields`` / ``challenge_indices``
        stay one hash per challenge: values recorded on the commit before
        ``challenge_vector`` became its own derivation (NCPE v2)."""
        t = Transcript()
        t.absorb_field(b"x", 42)
        assert t.challenge_field(b"c") == 15112383701456111614
        assert t.challenge_fields(b"tau", 3) == [
            3618400546244744003, 7482160405908904149, 2012833361256794280]
        assert t.challenge_indices(b"q", 5, 1000) == [141, 116, 300, 754, 543]
        assert t.challenge_field(b"c") == 3278811987417285615

    def test_challenge_vector_contract(self):
        """Deterministic, in the field, and a function of everything that
        went before: the label, the count and every earlier absorb each
        change the whole vector."""
        def draw(label=b"v", count=64, absorbed=1):
            t = Transcript()
            t.absorb_field(b"x", absorbed)
            return t.challenge_vector(label, count)

        base = draw()
        assert base.dtype == np.uint64 and base.shape == (64,)
        assert (base == draw()).all()
        assert (base < np.uint64(MODULUS)).all()
        assert len(set(base.tolist())) == 64
        for other in (draw(label=b"w"), draw(count=65), draw(absorbed=2)):
            assert not (other[:64] == base).any()

    def test_challenge_vector_unrelated_to_fields(self):
        """Same label, separate derivations (``challenge-vec/`` vs
        ``challenge/`` tags): no element is shared."""
        v = Transcript().challenge_vector(b"v", 16)
        f = Transcript().challenge_fields(b"v", 16)
        assert not set(v.tolist()) & set(f)

    def test_challenge_vector_is_one_absorb(self, sha3_calls):
        """128 coefficients: 1 absorb + 32 four-candidate squeezes (a
        candidate is rejected with probability 2^-32), where one
        ``challenge_field`` each made 256 calls."""
        t = Transcript()
        del sha3_calls[:]
        v = t.challenge_vector(b"pcs/gamma0", 128)
        assert len(sha3_calls) == 1 + 32
        # The definition, spelled out: blocks in order, LE64 candidates.
        ref = Transcript()
        ref.absorb_bytes(b"challenge-vec/pcs/gamma0", (128).to_bytes(8, "little"))
        words = b"".join(ref._squeeze() for _ in range(32))
        assert v.tolist() == [int.from_bytes(words[i:i + 8], "little")
                              for i in range(0, 1024, 8)]
        # Both sides of a proof continue from the same state.
        assert t.challenge_field(b"next") == ref.challenge_field(b"next")

    def test_challenge_vector_rejects_out_of_field_candidates(self, monkeypatch):
        """Candidates >= p are skipped, in order, and further blocks are
        squeezed until the count is met."""
        good = iter(range(1, 100))
        p = MODULUS

        def pack(*words):
            return b"".join(w.to_bytes(8, "little") for w in words)

        blocks = iter([
            pack(p, next(good), 2**64 - 1, next(good)),      # 2 of 4 rejected
            pack(p + 5, p, p + 1, 2**64 - 1),                # all rejected
            pack(next(good), next(good), next(good), p - 1),
            pack(next(good), 7, 7, 7),
        ])
        t = Transcript()
        squeezes = []
        monkeypatch.setattr(t, "_squeeze",
                            lambda: squeezes.append(1) or next(blocks))
        assert t.challenge_vector(b"v", 7).tolist() == [1, 2, 3, 4, 5, p - 1, 6]
        assert len(squeezes) == 4

    def test_empty_challenge_vector_still_absorbs(self):
        t1, t2 = Transcript(), Transcript()
        v = t1.challenge_vector(b"v", 0)
        assert v.dtype == np.uint64 and v.shape == (0,)
        assert t1.challenge_field(b"c") != t2.challenge_field(b"c")

    def test_indices_distinct_and_bounded(self):
        t = Transcript()
        idx = t.challenge_indices(b"q", 50, 1000)
        assert len(idx) == 50
        assert len(set(idx)) == 50
        assert all(0 <= i < 1000 for i in idx)

    def test_indices_small_domain_returns_all(self):
        t = Transcript()
        assert t.challenge_indices(b"q", 50, 10) == list(range(10))

    def test_indices_bad_bound(self):
        with pytest.raises(ValueError):
            Transcript().challenge_indices(b"q", 5, 0)

    def test_fork_independence(self):
        t = Transcript()
        t.absorb_field(b"x", 1)
        f1 = t.fork(b"a")
        f2 = t.fork(b"b")
        assert f1.challenge_field(b"c") != f2.challenge_field(b"c")
        # Forking does not disturb the parent.
        t2 = Transcript()
        t2.absorb_field(b"x", 1)
        assert t.challenge_field(b"c") == t2.challenge_field(b"c")

    def test_absorb_array_matches_fields(self, rng):
        v = fv.rand_vector(8, rng)
        t1, t2 = Transcript(), Transcript()
        t1.absorb_array(b"v", v)
        t2.absorb_bytes(b"v", v.astype("<u8").tobytes())
        assert t1.challenge_field(b"c") == t2.challenge_field(b"c")


class TestKeccakFromScratch:
    """The from-scratch SHA3 (what the Hash FU computes) vs hashlib."""

    @pytest.mark.parametrize("msg", [b"", b"abc", b"a" * 135, b"a" * 136,
                                     b"a" * 137, bytes(range(200))])
    def test_matches_hashlib(self, msg):
        import hashlib

        from repro.hashing.keccak import sha3_256 as scratch

        assert scratch(msg) == hashlib.sha3_256(msg).digest()

    def test_permutation_shape_check(self):
        from repro.hashing.keccak import keccak_f1600

        with pytest.raises(ValueError):
            keccak_f1600([0] * 24)

    def test_permutation_changes_state(self):
        from repro.hashing.keccak import keccak_f1600

        out = keccak_f1600([0] * 25)
        assert out != [0] * 25
        # Deterministic.
        assert keccak_f1600([0] * 25) == out


class TestMerkleMultiProof:
    def _tree(self, n=37):
        leaves = [bytes([i]) * 32 for i in range(n)]
        return leaves, MerkleTree(leaves)

    def test_roundtrip_random_subsets(self, pyrng):
        from repro.hashing.merkle import open_many, verify_many

        leaves, tree = self._tree()
        for _ in range(10):
            idxs = sorted(set(pyrng.randrange(37)
                              for _ in range(pyrng.randrange(1, 10))))
            proof = open_many(tree, idxs)
            digests = [leaves[i] for i in proof.indices]
            assert verify_many(tree.root, digests, proof, tree.num_leaves)

    def test_single_leaf_equals_path(self):
        from repro.hashing.merkle import open_many, verify_many

        leaves, tree = self._tree(8)
        proof = open_many(tree, [3])
        assert verify_many(tree.root, [leaves[3]], proof, 8)

    def test_all_leaves_no_siblings_needed(self):
        from repro.hashing.merkle import open_many, verify_many

        leaves, tree = self._tree(8)
        proof = open_many(tree, range(8))
        assert proof.nodes == []  # everything derivable
        assert verify_many(tree.root, leaves, proof, 8)

    def test_smaller_than_individual_paths(self):
        from repro.hashing.merkle import open_many

        leaves, tree = self._tree(64)
        idxs = list(range(0, 64, 3))
        proof = open_many(tree, idxs)
        individual = len(idxs) * tree.depth  # one path per index
        assert len(proof.nodes) < individual / 2

    def test_tampered_leaf_rejected(self):
        from repro.hashing.merkle import open_many, verify_many

        leaves, tree = self._tree()
        proof = open_many(tree, [2, 9])
        digests = [leaves[2], b"\xff" * 32]
        assert not verify_many(tree.root, digests, proof, tree.num_leaves)

    def test_wrong_count_rejected(self):
        from repro.hashing.merkle import open_many, verify_many

        leaves, tree = self._tree()
        proof = open_many(tree, [2, 9])
        assert not verify_many(tree.root, [leaves[2]], proof, tree.num_leaves)

    def test_truncated_nodes_rejected(self):
        from repro.hashing.merkle import open_many, verify_many

        leaves, tree = self._tree()
        proof = open_many(tree, [5])
        proof.nodes.pop()
        assert not verify_many(tree.root, [leaves[5]], proof, tree.num_leaves)

    def test_out_of_range_rejected(self):
        from repro.hashing.merkle import open_many

        _, tree = self._tree(8)
        with pytest.raises(IndexError):
            open_many(tree, [8])

    @pytest.mark.parametrize("indices", [None, 3, (2,), [2.0]])
    def test_malformed_indices_rejected(self, indices):
        """Indices that are not a list of ints are a rejection, not a
        crash."""
        leaves, tree = self._tree(8)
        proof = open_many(tree, [2])
        proof.indices = indices
        assert not verify_many(tree.root, [leaves[2]], proof, 8)


class TestCompressionAccounting:
    """Pin the functional leaf packing to the Hash-FU cost accounting:
    one Keccak-f permutation per 136 bytes of tag + packed elements."""

    @pytest.mark.parametrize("n,calls", [(1, 1), (4, 1), (5, 1), (8, 1),
                                         (9, 1), (12, 1), (14, 1), (15, 2),
                                         (16, 2), (128, 8), (129, 8)])
    def test_call_counts(self, n, calls):
        from repro.hashing.fieldhash import compression_calls_for_elements

        assert compression_calls_for_elements(n) == calls

    @pytest.mark.parametrize("n", [0, 1, 14, 15, 129])
    def test_counts_match_the_from_scratch_sponge(self, n, monkeypatch):
        """The formula is the number of permutations a real SHA3-256 runs
        on the leaf preimage (counted on the repo's own Keccak)."""
        from repro.hashing import keccak
        from repro.hashing.fieldhash import compression_calls_for_elements

        calls = []
        real = keccak.keccak_f1600
        monkeypatch.setattr(keccak, "keccak_f1600",
                            lambda state: calls.append(1) or real(state))
        column = np.arange(n, dtype=np.uint64)
        digest = keccak.sha3_256(LEAF_TAG + column.astype("<u8").tobytes())
        assert digest == hash_elements(column)
        assert len(calls) == compression_calls_for_elements(n)


@pytest.fixture
def sha3_calls(monkeypatch):
    """Every ``hashlib.sha3_256(...)`` construction while the test runs,
    as the list of first arguments (counted here, not by a counter in
    ``src/``)."""
    calls = []
    real = hashlib.sha3_256

    def counting(data=b"", **kwargs):
        calls.append(data)
        return real(data, **kwargs)

    monkeypatch.setattr(hashlib, "sha3_256", counting)
    return calls


class TestOneSha3PerLeaf:
    def test_paper_geometry_makes_one_call_per_column(self, sha3_calls):
        """129 x 8192 is the 2^19 PAPER commit: 8,192 leaf hashes, where
        the word chain made 32 per column (262,144)."""
        matrix = np.random.default_rng(7).integers(
            0, MODULUS, size=(129, 8192), dtype=np.uint64)
        leaves = hash_columns(matrix)
        assert len(leaves) == len(sha3_calls) == 8192
        assert all(len(data) == len(LEAF_TAG) + 8 * 129
                   and bytes(data[:len(LEAF_TAG)]) == LEAF_TAG
                   for data in sha3_calls)

    @pytest.mark.parametrize("tile_cells", [1, 1 << 60])
    def test_commit_hashes_once_tiled_or_not(self, sha3_calls, monkeypatch,
                                             tile_cells):
        """A commit is cw_len leaf calls + cw_len - 1 node calls whatever
        the encode tile (one row per tile, or the whole matrix): no hash
        call in the tile loop."""
        from repro.pcs import orion
        from repro.pcs.orion import OrionPCS, PCSParams

        monkeypatch.setattr(orion, "ENCODE_TILE_CELLS", tile_cells)
        pcs = OrionPCS(params=PCSParams(num_rows=16),
                       rng=np.random.default_rng(3))
        table = np.arange(1 << 10, dtype=np.uint64)
        _, state = pcs.commit(table)
        cw_len = state.codewords.shape[1]
        assert len(sha3_calls) == cw_len + (cw_len - 1)


class TestFixedCostOfAProof:
    """SHA3 calls of one PAPER prove and one verify, seeded: Fiat-Shamir
    is one hash per message and one absorb per challenge *vector*
    (NCPE v3), so a small proof's hash count is the Merkle work plus a
    few hundred transcript calls.  At v2 ``litmus`` read 3,394 / 3,456
    and ``sha`` 4,220 / 5,018 — 1,536 gamma coefficients at two calls
    each, on both sides.  The ceilings sit just above the measured counts
    (304 / 304 and 880 / 880).  With each repetition's columns opened
    (NCPE v6) they read 718 / 748 and 1,555 / 2,034; since NCPE v7 a
    registry opening is its message, so the prover draws no queries and
    the verifier rebuilds the commit's tree instead of checking
    multiproofs: both sides make the tree's 2 * cw_len - 1 calls plus the
    Spartan transcript's, whatever the seed."""

    @pytest.mark.parametrize("name,prove_ceiling,verify_ceiling", [
        ("litmus", 320, 320),
        ("sha", 900, 900),
    ])
    def test_sha3_calls_per_prove_and_verify(self, sha3_calls, name,
                                             prove_ceiling, verify_ceiling):
        from repro import PAPER, prove, setup, verify
        from repro.workloads.registry import build_workload

        circuit_id, circuit = build_workload(name)
        r1cs, public, witness = circuit.compile()
        pk, vk = setup(r1cs, PAPER)
        del sha3_calls[:]
        bundle = prove(pk, public, witness, seed=7, circuit_id=circuit_id)
        proving = len(sha3_calls)
        del sha3_calls[:]
        assert verify(vk, bundle)
        verifying = len(sha3_calls)
        assert proving <= prove_ceiling, proving
        assert verifying <= verify_ceiling, verifying
        # Not a vacuous pin: each side hashes the whole codeword tree.
        cw_len = 4 * bundle.proof.witness_commitment.num_cols
        assert min(proving, verifying) > 2 * cw_len - 1 + 200


def _reference_leaf(column) -> bytes:
    """Byte-at-a-time leaf: the definition, with no numpy packing."""
    return hashlib.sha3_256(LEAF_TAG + b"".join(
        int(x).to_bytes(8, "little") for x in column)).digest()


_LAYOUTS = ("c", "fortran", "transposed_view", "fancy_gather")


class TestPackedLeafDifferential:
    """`hash_columns` (blocked transpose), `hash_elements` (one column) and
    `ColumnChainHasher` (incremental, any tile split) are one function."""

    @given(rows=st.integers(0, 40),
           cols=st.integers(1, 2 * COLUMN_BLOCK + 3),
           layout=st.sampled_from(_LAYOUTS),
           seed=st.integers(0, 2**32 - 1),
           cuts=st.lists(st.integers(0, 40), max_size=8))
    @example(rows=0, cols=3, layout="c", seed=1, cuts=[])
    @example(rows=1, cols=1, layout="fortran", seed=2, cuts=[0, 1])
    @example(rows=9, cols=COLUMN_BLOCK, layout="transposed_view", seed=3,
             cuts=[3])
    @example(rows=9, cols=COLUMN_BLOCK + 1, layout="fancy_gather", seed=4,
             cuts=[4, 8])
    @example(rows=40, cols=2 * COLUMN_BLOCK + 3, layout="fancy_gather",
             seed=5, cuts=list(range(1, 40)))  # every tile one row high
    def test_every_path_equals_the_bytewise_reference(
            self, rows, cols, layout, seed, cuts):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, MODULUS, size=(rows, cols), dtype=np.uint64)
        if values.size:
            values.flat[0] = MODULUS - 1
            values.flat[-1] = 0
        if layout == "c":
            m = values
        elif layout == "fortran":
            m = np.asfortranarray(values)
        elif layout == "transposed_view":
            m = np.ascontiguousarray(values.T).T
        else:
            # codewords[:, idx], the gather `OrionPCS.open` / `verify` feed
            # hash_columns: numpy hands back a non-C-contiguous array.
            wide = np.zeros((rows, 2 * cols), dtype=np.uint64)
            idx = rng.permutation(2 * cols)[:cols]
            wide[:, idx] = values
            m = wide[:, idx]
        assert np.array_equal(m, values)

        leaves = hash_columns(m)
        assert len(leaves) == cols
        assert leaves == [_reference_leaf(values[:, j]) for j in range(cols)]
        assert leaves == [hash_elements(m[:, j]) for j in range(cols)]

        if rows:
            cuts = sorted(min(c, rows) for c in cuts)
            chains = ColumnChainHasher(cols, rows)
            for lo, hi in zip([0] + cuts, cuts + [rows]):
                chains.update(m[lo:hi])
            assert chains.finalize() == b"".join(leaves)
