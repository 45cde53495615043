"""Every fast path against a slow, obviously-right one.

* The constant-operand multiply (``fv._scale_tiles``, under ``mul`` with a
  0-d operand, ``mul_scalar`` and ``scale_add``) against Python ints, and
  against the vector kernel fed a broadcast copy of the constant.
* Kernel scratch is per thread: threads running the tiled kernels, or
  whole proofs, at once get exactly the single-threaded results.
* The commit's encode tiles: codewords equal one whole-matrix
  ``encode_rows``, tiles are balanced, and proof bytes do not depend on
  ``ENCODE_TILE_CELLS``.
* Batch inversion's product tree against Fermat, and the synthetic
  generator's instance against digests recorded before it stopped going
  through ``SparseMatrix.matvec``.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import PAPER, prove, setup, verify
from repro.field import vector as fv
from repro.field.goldilocks import MODULUS, inv
from repro.pcs import orion
from repro.pcs.orion import OrionPCS, PCSParams

TILE = fv._TILE
U64_MAX = 2**64 - 1
EDGES = np.array([0, 1, MODULUS - 1, MODULUS, U64_MAX], dtype=np.uint64)
SCALARS = [0, 1, 2, MODULUS - 1, 2**32 - 1, 2**32, 2**63]


def _words(rng, n):
    """n uint64 words over the full range, a quarter of them edge values
    (0, 1, p - 1, p, 2^64 - 1)."""
    v = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    pick = rng.random(n) < 0.25
    v[pick] = rng.choice(EDGES, size=int(pick.sum()))
    return v


def _layout(v, layout):
    """``v`` as a contiguous vector, a slice of a longer one, or a
    stride-3 view (same values either way)."""
    if layout == "contiguous":
        return v
    if layout == "sliced":
        pad = np.full(3, U64_MAX, dtype=np.uint64)
        return np.concatenate([pad, v, pad])[3:3 + len(v)]
    spread = np.zeros(3 * len(v), dtype=np.uint64)
    spread[1::3] = v
    return spread[1::3]


class TestConstantOperandMultiply:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([0, 1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5]),
           st.one_of(st.sampled_from(SCALARS), st.integers(0, U64_MAX)),
           st.sampled_from(["contiguous", "sliced", "strided"]),
           st.sampled_from(["mul", "mul-left", "mul_scalar", "loose",
                            "scale_add"]),
           st.integers(0, 2**32))
    def test_matches_python_ints(self, n, s, layout, entry, seed):
        rng = np.random.default_rng(seed)
        x = _layout(_words(rng, n), layout)
        xs = [int(v) for v in x]
        want = [v * s % MODULUS for v in xs]
        if entry == "mul":
            got = fv.mul(x, np.uint64(s))
        elif entry == "mul-left":
            got = fv.mul(np.uint64(s), x)
        elif entry == "mul_scalar":
            got = fv.mul_scalar(x, s)
        elif entry == "loose":
            got = fv.mul(x, np.uint64(s), canonical=False)
            assert got.dtype == np.uint64
            got = got.astype(object) % MODULUS
        else:
            base = _layout(_words(rng, n), layout)
            got = fv.scale_add(base, x, s)
            want = [(int(b) + w) % MODULUS for b, w in zip(base, want)]
        assert len(got) == n
        assert [int(v) for v in got] == want

    @pytest.mark.parametrize("value", [U64_MAX, MODULUS - 1])
    @pytest.mark.parametrize("s", SCALARS + [0x123456789ABCDEF])
    def test_saturated_operands(self, value, s):
        """Every limb product and sum at its bound, with and without an
        all-(2^64 - 1) addend."""
        x = np.full(TILE + 3, value, dtype=np.uint64)
        assert set(fv.mul(x, np.uint64(s)).tolist()) == {value * s % MODULUS}
        assert set(fv.scale_add(np.full_like(x, U64_MAX), x, s).tolist()) \
            == {(U64_MAX + value * s) % MODULUS}

    @pytest.mark.parametrize("shape", [(5,), (TILE + 7,), (3, 1000)])
    def test_agrees_with_the_vector_kernel(self, rng, shape):
        """``mul(a, s)`` and ``mul(s, a)`` are ``mul(a, full_like(a, s))``:
        the constant kernel against the vector kernel as its oracle."""
        a = _words(rng, int(np.prod(shape))).reshape(shape)
        for s in SCALARS + [int(rng.integers(0, MODULUS, dtype=np.uint64))]:
            want = fv.mul(a, np.full_like(a, s))
            assert np.array_equal(fv.mul(a, np.uint64(s)), want)
            assert np.array_equal(fv.mul(np.uint64(s), a), want)

    def test_vector_kernel_takes_only_vectors(self, monkeypatch):
        """A 0-d operand never reaches ``_mul_tiles``."""
        monkeypatch.setattr(fv, "_mul_tiles", None)
        x = fv.rand_vector(100, np.random.default_rng(1))
        fv.mul(x, np.uint64(3))
        fv.mul_scalar(x, 5)
        fv.scale_add(x, x, 7)


class TestKernelScratchPerThread:
    def test_concurrent_threads_get_single_threaded_results(self):
        """numpy releases the GIL inside every ufunc: with one scratch per
        module, threads interleave tiles and overwrite each other's
        intermediates (57-58 wrong results of 60 per thread, two threads,
        before the scratch became per-thread).  Three threads: more than
        the cores of a 2-CPU host."""
        rng = np.random.default_rng(5)
        n = 1 << 17
        operands = [(fv.rand_vector(n, rng), fv.rand_vector(n, rng),
                     int(rng.integers(0, MODULUS, dtype=np.uint64)))
                    for _ in range(3)]
        expected = [(fv.mul(a, b), fv.dot(a, b), fv.scale_add(a, b, s))
                    for a, b, s in operands]
        wrong = [0] * len(operands)

        def worker(k):
            a, b, s = operands[k]
            want_mul, want_dot, want_fold = expected[k]
            for _ in range(20):
                wrong[k] += not np.array_equal(fv.mul(a, b), want_mul)
                wrong[k] += fv.dot(a, b) != want_dot
                wrong[k] += not np.array_equal(fv.scale_add(a, b, s),
                                               want_fold)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(len(operands))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [0] * len(operands)

    def test_two_threads_prove_the_serial_envelopes(self):
        """Two threads calling ``prove()`` on ``sha`` at once get the bytes
        a serial caller gets, and both verify (the shared scratch turned
        such a pair into "witness does not satisfy the constraint
        system")."""
        from repro.workloads.registry import build_workload

        r1cs, public, witness = build_workload("sha")[1].compile()
        pk, vk = setup(r1cs, PAPER)
        seeds = (11, 12)
        serial = [prove(pk, public, witness, seed=s).to_bytes()
                  for s in seeds]
        start = threading.Barrier(len(seeds))
        got = {}

        def worker(seed):
            start.wait(30)
            got[seed] = prove(pk, public, witness, seed=seed)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(s,))
                       for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert [got[s].to_bytes() for s in seeds] == serial
        assert all(verify(vk, got[s]) for s in seeds)


def _rs_encode_rows(tracer):
    return [r.attrs["rows"] for r in tracer.records() if r.name == "rs.encode"]


class TestEncodeTiles:
    @pytest.mark.parametrize("log_n,num_rows,tiles", [
        (10, 16, [17]),                       # 17 x 256 cells: one tile
        (14, 128, [64, 65]),                  # aes geometry: 129 x 512
        (16, 128, [25, 26, 26, 26, 26]),      # 129 x 2048, 32 rows a tile
    ])
    def test_codewords_are_the_whole_matrix_encode(self, log_n, num_rows,
                                                   tiles):
        from repro import obs

        table = fv.rand_vector(1 << log_n, np.random.default_rng(log_n))
        pcs = OrionPCS(params=PCSParams(num_rows=num_rows),
                       rng=np.random.default_rng(2))
        with obs.tracing() as tracer:
            _, state = pcs.commit(table)
        assert _rs_encode_rows(tracer) == tiles
        assert np.array_equal(state.codewords,
                              pcs.code.encode_rows(state.matrix))

    @pytest.mark.parametrize("name", ["litmus", "sha", "synthetic-2p12",
                                      "synthetic-2p16"])
    def test_proof_bytes_do_not_depend_on_the_tile(self, name):
        from repro.workloads import synthetic_r1cs
        from repro.workloads.registry import build_workload

        if name.startswith("synthetic"):
            r1cs, public, witness = synthetic_r1cs(int(name[-2:]))
        else:
            r1cs, public, witness = build_workload(name)[1].compile()
        pk, vk = setup(r1cs, PAPER)

        def digest(cells):
            with mock.patch.object(orion, "ENCODE_TILE_CELLS", cells):
                bundle = prove(pk, public, witness, seed=7, circuit_id=name)
            assert verify(vk, bundle)
            return hashlib.sha256(bundle.to_bytes()).hexdigest()

        assert len({digest(c) for c in (1, orion.ENCODE_TILE_CELLS,
                                         1 << 30)}) == 1

    def test_streaming_cells_is_not_an_argument(self):
        with pytest.raises(TypeError):
            OrionPCS(**{"streaming_cells": 1})
        # What bench/ reads stays, as a class attribute nothing uses.
        assert OrionPCS.streaming_cells == orion.DEFAULT_STREAMING_CELLS


class TestBatchInversion:
    @pytest.mark.parametrize("n", list(range(1, 41))
                             + [2**k + d for k in (6, 9, 12) for d in (-1, 1)])
    def test_matches_fermat(self, n):
        rng = np.random.default_rng(n)
        a = rng.integers(1, MODULUS, size=n, dtype=np.uint64)
        a[::7] = MODULUS - 1
        assert fv.to_ints(fv.inv_vector(a)) == [inv(int(x)) for x in a]

    @pytest.mark.parametrize("at", [0, 5, 16, 32])
    def test_zero_raises(self, at):
        a = np.arange(1, 34, dtype=np.uint64)
        a[at] = 0
        with pytest.raises(ZeroDivisionError):
            fv.inv_vector(a)
        a[at] = MODULUS                       # zero, as a representative
        with pytest.raises(ZeroDivisionError):
            fv.inv_vector(a)

    def test_empty_input(self):
        out = fv.inv_vector(np.zeros(0, dtype=np.uint64))
        assert out.dtype == np.uint64 and out.shape == (0,)


class TestSyntheticGenerator:
    #: sha256 over (rows, cols, vals) of A, B, C, then public and witness,
    #: recorded while A z and B z still went through SparseMatrix.matvec
    #: and the indices were int64 (hashed as such, so the digests hold).
    DIGESTS = {
        4: "06858967efebcc21cf033c52ebe3792f977d5d19190b672ca026f1112e346f9b",
        12: "a3ddd6cbda03f03894d59e45fcf49eeec2481178e0e0fd855c50e21247f675a2",
        16: "99a8aa1504f223693ae7a605c022bb97488bc40c69b99ac46d76a963603cd64d",
    }

    @pytest.mark.parametrize("log_size", sorted(DIGESTS))
    def test_instance_is_unchanged_and_caches_no_plan(self, log_size):
        from repro.workloads import synthetic_r1cs

        r1cs, public, witness = synthetic_r1cs(log_size)
        h = hashlib.sha256()
        for m in (r1cs.a, r1cs.b, r1cs.c):
            for arr in (m.rows, m.cols, m.vals):
                h.update(np.asarray(arr, dtype="<i8").tobytes())
        h.update(public.tobytes())
        h.update(witness.tobytes())
        assert h.hexdigest() == self.DIGESTS[log_size]
        assert r1cs.a._groups is None and r1cs.b._groups is None

    @pytest.mark.parametrize("nnz_per_row", [0, 1, 2, 7, 600])
    def test_any_row_width_is_satisfied(self, nnz_per_row):
        """The generator's A z and B z run on the plane kernel, at most
        PLANE_CAP planes a call: every width gives a satisfied instance
        whose C z is A z o B z, and width 0 gives all-zero products."""
        from repro.workloads import synthetic_r1cs

        r1cs, public, witness = synthetic_r1cs(6, band=4,
                                               nnz_per_row=nnz_per_row)
        z = r1cs.assemble_z(public, witness)
        assert r1cs.is_satisfied(z)
        az = r1cs.a.to_dense().dot([int(v) for v in z]) % MODULUS
        assert [int(v) for v in r1cs.products(z)[0]] == list(az)
        if nnz_per_row == 0:
            assert not any(int(v) for v in r1cs.products(z)[2])
