"""Microbenchmarks of the functional layer's primitive kernels — the
operations NoCap's FUs implement (Sec. IV-B): modular vector arithmetic,
NTTs, hashing/Merkle trees, the sumcheck DP, and SpMV.

These measure the *Python* substrate (pytest-benchmark timings), giving
the measured per-element costs the performance model's CPU comparisons
are sanity-checked against.
"""

import numpy as np
import pytest

from repro.field import vector as fv
from repro.hashing import MerkleTree, Transcript
from repro.multilinear import prove_sumcheck
from repro.ntt import four_step_ntt, ntt
from repro.r1cs.matrices import SparseMatrix
from repro.workloads import synthetic_r1cs

RNG = np.random.default_rng(0xBE)
VEC = fv.rand_vector(1 << 16, RNG)
VEC_B = fv.rand_vector(1 << 16, RNG)


def test_vector_mul(benchmark):
    out = benchmark(fv.mul, VEC, VEC_B)
    assert out.shape == VEC.shape


def test_vector_add(benchmark):
    out = benchmark(fv.add, VEC, VEC_B)
    assert out.shape == VEC.shape


def test_vector_inner_product(benchmark):
    out = benchmark(fv.dot, VEC[:4096], VEC_B[:4096])
    assert isinstance(out, int)


@pytest.mark.parametrize("n,max_ratio", [
    (64, 1.0), (1 << 10, 1.0), (1 << 14, 1.0),
    (1 << 16, 1 / 1.2), (1 << 20, 1 / 1.2),
])
def test_dot_deferred_reduction_pays(n, max_ratio):
    """``fv.dot`` against the reduce-every-term form it replaced: never
    slower, small vectors included (a per-call overhead would show there),
    and at least 1.2x faster once the passes dominate.  Interleaved
    median-of-5, each sample the mean over enough calls to fill ~10 ms.
    No ``benchmark`` fixture: CI's bench-gate job runs this one test with
    plain pytest."""
    import time

    a = fv.rand_vector(n, RNG)
    b = fv.rand_vector(n, RNG)

    def reduced_terms():
        return fv.vsum(fv.mul(a, b, canonical=False))

    def deferred():
        return fv.dot(a, b)

    assert deferred() == reduced_terms()
    calls = max(1, (1 << 18) // n)
    samples = {reduced_terms: [], deferred: []}
    for _ in range(5):
        for fn, out in samples.items():
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            out.append((time.perf_counter() - t0) / calls)
    old_s, new_s = (sorted(v)[2] for v in samples.values())
    assert new_s <= max_ratio * old_s, (n, old_s, new_s)


@pytest.mark.parametrize("n,max_ratio", [
    (64, 1.0), (1 << 10, 1.0), (1 << 16, 1 / 1.15), (1 << 20, 1 / 1.15),
])
def test_constant_operand_multiply_pays(n, max_ratio):
    """``fv._scale_tiles`` (limb weights folded into three precomputed
    constants) against the vector kernel ``_mul_tiles`` fed the constant
    as a broadcast vector: never slower, and at least 1.15x faster once
    the passes dominate.  Interleaved median-of-5 like the ``dot`` gate
    above; CI's bench-gate job runs it with plain pytest."""
    import time

    a = fv.rand_vector(n, RNG)
    s = int(fv.rand_vector(1, RNG)[0])
    broadcast = np.full(n, s, dtype=np.uint64)
    out_vec = np.empty(n, dtype=np.uint64)
    out_const = np.empty(n, dtype=np.uint64)

    def vector():
        fv._mul_tiles(a, broadcast, out_vec)

    def constant():
        fv._scale_tiles(a, s, out_const)

    vector()
    constant()
    assert np.array_equal(out_vec, out_const)
    calls = max(1, (1 << 18) // n)
    samples = {vector: [], constant: []}
    for _ in range(5):
        for fn, times in samples.items():
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append((time.perf_counter() - t0) / calls)
    old_s, new_s = (sorted(v)[2] for v in samples.values())
    assert new_s <= max_ratio * old_s, (n, old_s, new_s)


@pytest.mark.parametrize("log_n", [10, 14, 16])
def test_ntt_radix2(benchmark, log_n):
    x = VEC[: 1 << log_n]
    out = benchmark(ntt, x)
    assert out.shape == x.shape


def test_ntt_four_step(benchmark):
    x = VEC[: 1 << 14]
    out = benchmark(four_step_ntt, x, False, 1 << 6)
    assert (out == ntt(x)).all()


def test_merkle_tree_build(benchmark):
    mat = VEC[: 128 * 256].reshape(128, 256)
    tree = benchmark(MerkleTree.from_columns, mat)
    assert tree.num_leaves == 256


def test_sumcheck_prover(benchmark):
    tables = [VEC[: 1 << 12], VEC_B[: 1 << 12]]

    def run():
        return prove_sumcheck(tables, Transcript())

    proof, _ = benchmark(run)
    assert proof.num_rounds == 12


def test_spmv(benchmark):
    r1cs, pub, wit = synthetic_r1cs(12, band=32, seed=5)
    z = r1cs.assemble_z(pub, wit)
    out = benchmark(r1cs.a.matvec, z)
    assert out.shape == z.shape
