"""Equivalence tests pinning the batched hot-path kernels to reference
semantics.

Every optimized kernel (batched RS encoding, vectorized Merkle hashing,
split-accumulate reductions, the fused multiply-accumulate, the stacked
SpMV) is checked against a slow, obviously-correct oracle — object-dtype
numpy, pure-Python ints, or the pre-batching per-item formulation — on
random AND adversarial inputs (all p-1, non-canonical representatives).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.code.reed_solomon import ReedSolomonCode
from repro.field import vector as fv
from repro.field.goldilocks import MODULUS, inv
from repro.hashing.fieldhash import hash_columns, hash_elements, hash_pair
from repro.hashing.merkle import (
    MerkleTree,
    open_many,
    verify_many,
)
from repro.ntt.radix2 import ntt, ntt_zero_padded
from repro.r1cs.matrices import SparseMatrix, StackedMatrices
from repro.spartan.matrixeval import combined_matrix_row
from repro.workloads import synthetic_r1cs

P_MINUS_1 = MODULUS - 1


def random_field(rng, n):
    return rng.integers(0, MODULUS, size=n, dtype=np.uint64)


def random_u64(rng, n):
    """Arbitrary uint64 values, including non-canonical representatives."""
    return rng.integers(0, 1 << 63, size=n, dtype=np.uint64) << np.uint64(1) \
        | rng.integers(0, 2, size=n, dtype=np.uint64)


# ---------------------------------------------------------------------------
# Batched Reed-Solomon encoding == per-row reference
# ---------------------------------------------------------------------------

class TestBatchedEncoding:
    def test_encode_rows_matches_per_row_encode(self, rng):
        code = ReedSolomonCode()
        matrix = random_field(rng, (9, 64))
        batched = code.encode_rows(matrix)
        for i in range(matrix.shape[0]):
            row = code.encode(matrix[i])
            assert np.array_equal(batched[i], row)

    @pytest.mark.parametrize("n,domain", [(1, 1), (1, 8), (4, 4), (4, 8),
                                          (8, 32), (16, 64), (64, 256)])
    def test_ntt_zero_padded_matches_padded_ntt(self, rng, n, domain):
        coeffs = random_field(rng, n)
        padded = np.zeros(domain, dtype=np.uint64)
        padded[:n] = coeffs
        assert np.array_equal(ntt_zero_padded(coeffs, domain), ntt(padded))

    def test_ntt_zero_padded_batch_dims(self, rng):
        coeffs = random_field(rng, (3, 5, 16))
        padded = np.zeros((3, 5, 64), dtype=np.uint64)
        padded[..., :16] = coeffs
        assert np.array_equal(ntt_zero_padded(coeffs, 64), ntt(padded))

    def test_ntt_zero_padded_adversarial_values(self):
        coeffs = np.full(32, P_MINUS_1, dtype=np.uint64)
        padded = np.zeros(128, dtype=np.uint64)
        padded[:32] = coeffs
        assert np.array_equal(ntt_zero_padded(coeffs, 128), ntt(padded))

    def test_ntt_zero_padded_rejects_small_domain(self):
        with pytest.raises(ValueError):
            ntt_zero_padded(np.ones(8, dtype=np.uint64), 4)


# ---------------------------------------------------------------------------
# Vectorized Merkle construction == scalar reference
# ---------------------------------------------------------------------------

def _scalar_merkle_root(leaves):
    """Reference: list-of-digests tree built pair by pair."""
    layer = list(leaves)
    size = 1 if len(layer) == 1 else 1 << (len(layer) - 1).bit_length()
    layer += [b"\x00" * 32] * (size - len(layer))
    while len(layer) > 1:
        layer = [hash_pair(layer[i], layer[i + 1])
                 for i in range(0, len(layer), 2)]
    return layer[0]


class TestVectorizedMerkle:
    @pytest.mark.parametrize("num_cols", [1, 2, 3, 8, 13, 32])
    def test_root_matches_scalar_reference(self, rng, num_cols):
        matrix = random_field(rng, (6, num_cols))
        tree = MerkleTree.from_columns(matrix)
        leaves = [hash_elements(matrix[:, j]) for j in range(num_cols)]
        assert tree.root == _scalar_merkle_root(leaves)

    def test_hash_columns_matches_per_column(self, rng):
        matrix = random_field(rng, (7, 11))
        batched = hash_columns(matrix)
        assert batched == [hash_elements(matrix[:, j]) for j in range(11)]


# ---------------------------------------------------------------------------
# Field-vector kernels vs object-dtype / pure-Python oracles
# ---------------------------------------------------------------------------

class TestFieldKernels:
    @pytest.mark.parametrize("make", [
        lambda rng: random_field(rng, 1000),
        lambda rng: np.full(1000, P_MINUS_1, dtype=np.uint64),
        lambda rng: random_u64(rng, 1000),  # non-canonical representatives
    ])
    def test_vsum_vs_object_dtype(self, rng, make):
        a = make(rng)
        expected = int(np.sum(a.astype(object))) % MODULUS
        assert fv.vsum(a) == expected

    def test_powers_vs_python_loop(self, rng):
        base = int(rng.integers(0, MODULUS, dtype=np.uint64))
        expected, acc = [], 1
        for _ in range(257):
            expected.append(acc)
            acc = acc * base % MODULUS
        assert fv.to_ints(fv.powers(base, 257)) == expected

    def test_inv_vector_vs_fermat(self, rng):
        a = random_field(rng, 97)
        a[a == 0] = 1
        out = fv.inv_vector(a)
        assert fv.to_ints(out) == [inv(int(x)) for x in a]

    def test_mul_adversarial_all_p_minus_1(self):
        a = np.full(300, P_MINUS_1, dtype=np.uint64)
        expected = P_MINUS_1 * P_MINUS_1 % MODULUS
        assert np.all(fv.mul(a, a) == np.uint64(expected))

    def test_mul_exact_on_noncanonical_inputs(self, rng):
        a, b = random_u64(rng, 500), random_u64(rng, 500)
        expected = (a.astype(object) * b.astype(object)) % MODULUS
        assert np.array_equal(fv.mul(a, b).astype(object), expected)

    def test_mul_noncanonical_output_is_congruent(self, rng):
        a, b = random_field(rng, 500), random_field(rng, 500)
        loose = fv.mul(a, b, canonical=False).astype(object) % MODULUS
        assert np.array_equal(loose, fv.mul(a, b).astype(object))

    def test_mul_strided_input(self, rng):
        a = random_field(rng, 128).reshape(8, 16)
        sliced = a[:, 8:]  # non-contiguous, the NTT's butterfly view
        expected = (sliced.astype(object) * 3) % MODULUS
        assert np.array_equal(fv.mul_scalar(sliced, 3).astype(object), expected)

    def test_scale_add_vs_mul_then_add(self, rng):
        base, diff = random_field(rng, 777), random_field(rng, 777)
        r = int(rng.integers(0, MODULUS, dtype=np.uint64))
        expected = fv.add(base, fv.mul_scalar(diff, r))
        assert np.array_equal(fv.scale_add(base, diff, r), expected)

    def test_scale_add_adversarial(self):
        base = np.full(100, P_MINUS_1, dtype=np.uint64)
        diff = np.full(100, P_MINUS_1, dtype=np.uint64)
        expected = (P_MINUS_1 + P_MINUS_1 * P_MINUS_1) % MODULUS
        assert np.all(fv.scale_add(base, diff, P_MINUS_1) == np.uint64(expected))

    @pytest.mark.parametrize("make", [
        lambda rng: (random_field(rng, 400), random_field(rng, 400)),
        lambda rng: (random_u64(rng, 400), random_u64(rng, 400)),
        lambda rng: (np.full(4, 2**64 - 1, dtype=np.uint64),
                     np.full(4, 2**64 - 1, dtype=np.uint64)),
        lambda rng: (np.zeros(4, dtype=np.uint64),
                     np.full(4, 2**64 - 1, dtype=np.uint64)),
    ])
    def test_combine_halves_vs_int_oracle(self, rng, make):
        lo, hi = make(rng)
        expected = (lo.astype(object) + (hi.astype(object) << 32)) % MODULUS
        got = fv.combine_halves(lo, hi)
        assert np.all(got < np.uint64(MODULUS))
        assert np.array_equal(got.astype(object), expected)

    def test_asfield_uint64_above_modulus(self):
        # uint64 input >= p must be canonicalized, not passed through.
        arr = np.array([MODULUS, MODULUS + 5, 2**64 - 1], dtype=np.uint64)
        out = fv.asfield(arr)
        assert fv.to_ints(out) == [0, 5, (2**64 - 1) % MODULUS]

    def test_asfield_python_ints_above_modulus(self):
        out = fv.asfield([MODULUS + 7, -1])
        assert fv.to_ints(out) == [7, MODULUS - 1]


# ---------------------------------------------------------------------------
# Limb-deferred row combination vs a Python-int sum of products
# ---------------------------------------------------------------------------

def _vecmat_reference(coeffs, matrix):
    return [sum(int(c) * int(v) for c, v in zip(coeffs, matrix[:, j]))
            % MODULUS for j in range(matrix.shape[1])]


class TestVecmat:
    """``fv.vecmat`` reduces once per column; the oracle reduces once per
    column too, but in Python ints.  The row counts sit on both sides of
    ``LIMB_SUM_CAP`` (one chunk, exactly one, two, three)."""

    @given(st.sampled_from([1, 2, 129, 512, 513, 1100]), st.integers(0, 9),
           st.sampled_from(["canonical", "u64", "saturated"]),
           st.sampled_from(["contiguous", "row-slice", "strided",
                            "transposed"]),
           st.integers(0, 2**32))
    def test_matches_python_int_reference(self, rows, cols, values, layout,
                                          seed):
        rng = np.random.default_rng(seed)
        make = {"canonical": random_field, "u64": random_u64,
                "saturated": lambda _r, n: np.full(n, 2**64 - 1,
                                                   dtype=np.uint64)}[values]
        coeffs = make(rng, rows)
        if layout == "contiguous":
            matrix = make(rng, rows * cols).reshape(rows, cols)
        elif layout == "row-slice":     # the verifier's cols_mat[:rows]
            matrix = make(rng, (rows + 1) * cols).reshape(rows + 1, cols)[:rows]
        elif layout == "strided":
            matrix = make(rng, 2 * rows * 3 * cols).reshape(
                2 * rows, 3 * cols)[::2, 1::3]
        else:                           # F-ordered, like an m[:, idx] gather
            matrix = make(rng, rows * cols).reshape(cols, rows).T
        got = fv.vecmat(coeffs, matrix)
        assert got.dtype == np.uint64 and got.shape == (cols,)
        assert fv.to_ints(got) == _vecmat_reference(coeffs, matrix)

    def test_many_column_tiles(self, rng):
        coeffs, matrix = random_u64(rng, 129), random_u64(rng, 129 * 700)
        matrix = matrix.reshape(129, 700)       # 254 columns per tile
        assert fv.to_ints(fv.vecmat(coeffs, matrix)) == \
            _vecmat_reference(coeffs, matrix)

    @given(st.sampled_from([1, 5, 129, 512, 513, 1100]), st.integers(0, 9),
           st.integers(1, 6), st.booleans(), st.integers(0, 2**32))
    def test_coefficient_matrix_is_k_single_calls(self, rows, cols, k,
                                                  gathered, seed):
        """``(k, rows)`` coefficients give row i = the 1-D call on
        ``coeffs[i]`` = its Python-int sum, on both sides of the
        ``LIMB_SUM_CAP`` chunk, also on an ``m[:, idx]`` gather (the
        verifier's opened columns of one repetition)."""
        rng = np.random.default_rng(seed)
        coeffs = random_u64(rng, k * rows).reshape(k, rows)
        if gathered:
            wide = random_u64(rng, rows * 2 * cols).reshape(rows, 2 * cols)
            matrix = wide[:, rng.permutation(2 * cols)[:cols]]
        else:
            matrix = random_u64(rng, rows * cols).reshape(rows, cols)
        got = fv.vecmat(coeffs, matrix)
        assert got.dtype == np.uint64 and got.shape == (k, cols)
        for i in range(k):
            assert np.array_equal(got[i], fv.vecmat(coeffs[i], matrix))
            assert fv.to_ints(got[i]) == _vecmat_reference(coeffs[i], matrix)

    def test_coefficient_matrix_many_column_tiles(self, rng):
        coeffs = random_u64(rng, 5 * 129).reshape(5, 129)
        matrix = random_u64(rng, 129 * 700).reshape(129, 700)[:, ::-1]
        got = fv.vecmat(coeffs, matrix)
        for i in range(5):
            assert fv.to_ints(got[i]) == _vecmat_reference(coeffs[i], matrix)

    def test_contract_edges(self, rng):
        assert fv.vecmat(fv.zeros(0), np.zeros((0, 5), dtype=np.uint64)
                         ).tolist() == [0] * 5
        assert fv.vecmat(np.zeros((3, 0), dtype=np.uint64),
                         np.zeros((0, 5), dtype=np.uint64)
                         ).tolist() == [[0] * 5] * 3
        with pytest.raises(ValueError, match="2-D"):
            fv.vecmat(fv.zeros(4), fv.zeros(4))
        with pytest.raises(ValueError, match="coefficient count"):
            fv.vecmat(fv.zeros(3), np.zeros((4, 2), dtype=np.uint64))
        with pytest.raises(ValueError, match="coefficient count"):
            fv.vecmat(np.zeros((2, 3), dtype=np.uint64),
                      np.zeros((4, 2), dtype=np.uint64))
        with pytest.raises(ValueError, match="coefficient count"):
            fv.vecmat(np.zeros((1, 2, 4), dtype=np.uint64),
                      np.zeros((4, 2), dtype=np.uint64))

    def test_makes_no_field_multiply(self, rng, monkeypatch):
        """No cell is reduced on its own: the kernel never enters ``mul``."""
        monkeypatch.setattr(fv, "mul", None)
        matrix = random_field(rng, 600 * 4).reshape(600, 4)
        fv.vecmat(random_field(rng, 600), matrix)
        fv.vecmat(random_field(rng, 3 * 600).reshape(3, 600), matrix)


# ---------------------------------------------------------------------------
# Stacked SpMV == per-matrix reference
# ---------------------------------------------------------------------------

class TestStackedMatrices:
    def _system(self):
        r1cs, public, witness = synthetic_r1cs(8, band=4, seed=3)
        z = r1cs.assemble_z(public, witness)
        return r1cs, z

    def test_products_take_the_planes_and_match_the_segmented_sum(
            self, monkeypatch):
        """With the tile patched small every product runs the plane
        kernel (L = 3, 3, 1); at the shipped constants the same products
        are segmented sums."""
        from repro.r1cs import matrices

        r1cs, z = self._system()
        mats = (r1cs.a, r1cs.b, r1cs.c)
        want = [m.matvec(z) for m in mats]
        assert [m._plane_width() for m in mats] == [0, 0, 0]
        monkeypatch.setattr(matrices, "PLANE_TILE", 64)
        assert [m._plane_width() for m in mats] == [3, 3, 1]
        for got, w in zip(r1cs.products(z), want):
            assert np.array_equal(got, w)

    def test_scaled_transpose_matches_combined_matrix_row(self, rng):
        r1cs, z = self._system()
        from repro.multilinear.mle import eq_table

        coeffs = tuple(int(c) for c in rng.integers(0, MODULUS, size=3, dtype=np.uint64))
        rx = [int(c) for c in rng.integers(0, MODULUS, size=8, dtype=np.uint64)]
        eq = eq_table(rx)
        got = r1cs.combined_transpose_matvec(coeffs, eq)
        expected = combined_matrix_row(r1cs.a, r1cs.b, r1cs.c,
                                       coeffs[0], coeffs[1], coeffs[2], rx)
        assert np.array_equal(got, np.asarray(expected, dtype=np.uint64))

    def test_matvec_rows_with_gaps(self, rng):
        # A matrix with empty rows exercises the scatter path (the dense
        # fast path returns the segment sums directly).
        m = SparseMatrix.from_entries(8, 8, [(0, 1, 5), (3, 2, 7), (7, 7, 11)])
        x = random_field(rng, 8)
        dense = m.to_dense()
        expected = [int(sum(int(dense[i, j]) * int(x[j]) for j in range(8))
                        % MODULUS) for i in range(8)]
        assert fv.to_ints(m.matvec(x)) == expected


class TestPlaneLayoutSaturation:
    """The limb accumulators' overflow bound, at the shipped constants:
    2^9 products of a 32-bit half and a 22-bit limb must sum below 2^63
    with every operand bit set, and a row one entry past the plane cap
    must go to the residual, whose sums are exact at any length."""

    @pytest.mark.parametrize("value", [2**64 - 1, P_MINUS_1])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_all_ones_rows_at_and_past_the_plane_cap(self, value, extra):
        from repro.r1cs import matrices

        length = matrices.PLANE_CAP + extra
        n = matrices.PLANE_TILE // matrices.PLANE_CAP   # just fills a tile
        rows = np.repeat(np.arange(n), length)
        # Circulant: every column carries ``length`` entries too.
        cols = (rows + np.tile(np.arange(length), n)) % n
        mat = SparseMatrix(n, n, rows, cols,
                           np.full(n * length, value, dtype=np.uint64))
        stacked = StackedMatrices([mat])
        side = stacked._transposed
        if extra:       # one past the cap: every row is residual
            assert side.groups == []
            rows, residual = side.residual
            assert rows is None and residual.stored_nnz == n * length
            assert mat._plane_width() == 0
        else:           # at the cap: one group of 512 planes
            assert side.residual is None
            assert [g[1].shape for g in side.groups] == [(length, n)]
            assert mat._plane_width() == length
        x = np.full(n, value, dtype=np.uint64)
        want = length * value * value % MODULUS
        assert fv.to_ints(mat.matvec(x)) == [want] * n
        # scaled_transpose_matvec would canonicalize nothing but still
        # multiply by a coefficient; feed the transposed planes directly.
        assert fv.to_ints(stacked._transposed.matvec(x)) == [want] * n

    def test_saturated_values_against_random_noncanonical_vector(self, rng):
        from repro.r1cs import matrices

        length, n = matrices.PLANE_CAP, 64
        rows = np.repeat(np.arange(n), length)
        cols = rng.integers(0, n, size=n * length)
        mat = SparseMatrix(n, n, rows, cols,
                           np.full(n * length, 2**64 - 1, dtype=np.uint64))
        x = random_u64(rng, n)
        got = mat.matvec(x)
        hits = np.zeros((n, n), dtype=object)
        np.add.at(hits, (rows, cols), 1)
        want = [(2**64 - 1) * sum(int(h) * int(v) for h, v in zip(row, x))
                % MODULUS for row in hits]
        assert fv.to_ints(got) == want


# ---------------------------------------------------------------------------
# Merkle multiproof round-trip property (satellite: open_many/verify_many)
# ---------------------------------------------------------------------------

@st.composite
def _tree_and_queries(draw):
    num_leaves = draw(st.integers(min_value=1, max_value=40))
    queries = draw(st.lists(st.integers(0, num_leaves - 1),
                            min_size=1, max_size=24))
    # Force duplicates and boundary indices into the mix regularly.
    if draw(st.booleans()):
        queries += [0, num_leaves - 1, queries[0]]
    return num_leaves, queries


class TestMerkleMultiProof:
    @given(_tree_and_queries())
    def test_round_trip(self, case):
        num_leaves, queries = case
        leaves = [hash_elements(np.array([i, i + 1], dtype=np.uint64))
                  for i in range(num_leaves)]
        tree = MerkleTree(leaves)
        proof = open_many(tree, queries)
        assert proof.indices == sorted(set(queries))
        opened = [leaves[i] for i in proof.indices]
        assert verify_many(tree.root, opened, proof, num_leaves)

    @given(_tree_and_queries())
    def test_rejects_wrong_leaf(self, case):
        num_leaves, queries = case
        leaves = [hash_elements(np.array([i], dtype=np.uint64))
                  for i in range(num_leaves)]
        tree = MerkleTree(leaves)
        proof = open_many(tree, queries)
        opened = [leaves[i] for i in proof.indices]
        opened[0] = hash_elements(np.array([999], dtype=np.uint64))
        assert not verify_many(tree.root, opened, proof, num_leaves)

    def test_rejects_truncated_and_padded_proofs(self):
        leaves = [hash_elements(np.array([i], dtype=np.uint64))
                  for i in range(16)]
        tree = MerkleTree(leaves)
        proof = open_many(tree, [2, 9, 15])
        opened = [leaves[i] for i in proof.indices]
        assert verify_many(tree.root, opened, proof, 16)
        truncated = type(proof)(indices=proof.indices,
                                nodes=proof.nodes[:-1])
        assert not verify_many(tree.root, opened, truncated, 16)
        padded = type(proof)(indices=proof.indices,
                             nodes=proof.nodes + [b"\x00" * 32])
        assert not verify_many(tree.root, opened, padded, 16)

    def test_out_of_range_index_raises(self):
        tree = MerkleTree([hash_elements(np.array([1], dtype=np.uint64))])
        with pytest.raises(IndexError):
            open_many(tree, [1])


# ---------------------------------------------------------------------------
# Gruen eq-factorized constraint sumcheck vs the eq-table-folding reference
# ---------------------------------------------------------------------------

def _reference_constraint_sumcheck(eq, az, bz, cz, transcript, label):
    """The pre-factorization prover: eq carried as a fourth folded table,
    g sampled directly at t = 1, 2, 3."""
    from repro.field.poly import interpolate_eval

    tables = [np.asarray(t, dtype=np.uint64) for t in (eq, az, bz, cz)]
    round_evals, challenges = [], []
    current = 0
    xs = [0, 1, 2, 3]
    for rnd in range(len(tables[0]).bit_length() - 1):
        half = len(tables[0]) // 2
        bottoms = [t[:half] for t in tables]
        tops = [t[half:] for t in tables]
        diffs = [fv.sub(tp, bt) for tp, bt in zip(tops, bottoms)]

        def g_sum(eq_t, az_t, bz_t, cz_t):
            h = fv.sub(fv.mul(az_t, bz_t, canonical=False), cz_t)
            return fv.vsum(fv.mul(eq_t, h, canonical=False))

        g1 = g_sum(*tops)
        evals = [(current - g1) % MODULUS, g1]
        samples = tops
        for _t in range(2, 4):
            samples = [fv.add(s, d) for s, d in zip(samples, diffs)]
            evals.append(g_sum(*samples))
        transcript.absorb_fields(label + b"/round%d" % rnd, evals)
        r = transcript.challenge_field(label + b"/r%d" % rnd)
        challenges.append(r)
        current = interpolate_eval(xs, evals, r)
        tables = [fv.scale_add(bt, df, r) for bt, df in zip(bottoms, diffs)]
        round_evals.append(evals)
    va, vb, vc = int(tables[1][0]), int(tables[2][0]), int(tables[3][0])
    transcript.absorb_fields(label + b"/final", [va, vb, vc])
    return round_evals, (va, vb, vc), challenges


class TestGruenConstraintSumcheck:
    @staticmethod
    def _assert_matches_reference(rng, log_n, pinned=()):
        """Both provers on one satisfied system (claim 0) and one tau, with
        the ``pinned`` (index, value) coordinates of tau overwritten."""
        from repro.hashing.transcript import Transcript
        from repro.multilinear.mle import eq_table
        from repro.spartan.sumcheck1 import prove_constraint_sumcheck

        n = 1 << log_n
        az = random_field(rng, n)
        bz = random_field(rng, n)
        cz = fv.mul(az, bz)
        tau = [int(t) for t in rng.integers(0, MODULUS, size=log_n,
                                            dtype=np.uint64)]
        for j, value in pinned:
            tau[j] = value
        got = prove_constraint_sumcheck(tau, az, bz, cz, Transcript(),
                                        b"test/sc1")
        want = _reference_constraint_sumcheck(eq_table(tau), az, bz, cz,
                                              Transcript(), b"test/sc1")
        assert got == want

    @pytest.mark.parametrize("log_n", [1, 3, 6])
    def test_matches_reference_prover(self, rng, log_n):
        self._assert_matches_reference(rng, log_n)

    @pytest.mark.parametrize("pinned", [
        {0: 1}, {2: 1}, {4: 1}, {0: 0}, {2: 0}, {4: 0},
        {0: 1, 1: 0, 4: 1}, dict.fromkeys(range(5), 1),
        dict.fromkeys(range(5), 0),
    ], ids=lambda d: ",".join(f"tau{j}={bit}" for j, bit in d.items()))
    def test_boolean_tau_coordinates(self, rng, pinned):
        """tau_j = 1 zeroes the round's g(0) scalar, so inner(0) cannot be
        read off the claim invariant (the ``denom == 0`` branch evaluates
        it); tau_j = 0 zeroes g(1) instead."""
        self._assert_matches_reference(rng, 5, pinned.items())
