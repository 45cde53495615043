"""Synthetic satisfiable R1CS instances with the paper's matrix structure.

The performance model consumes only structural properties of an instance
(padded size, non-zeros, bandedness), so paper-scale workloads are
represented by generated instances whose A, B, C have O(1) non-zeros per
row concentrated in a band around the diagonal — the "limited-bandwidth"
property Sec. V-A's SpMV mapping exploits.  The generator also produces a
satisfying assignment, so the same instances exercise the functional
prover at small scale.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from ..errors import VerificationError
from ..field import vector as fv
from ..r1cs.matrices import (
    PLANE_CAP,
    PLANE_TILE,
    REDUCE_ROWS,
    SparseMatrix,
    _plane_matvec,
)
from ..r1cs.system import R1CS


def synthetic_r1cs(log_size: int, band: int = 64, nnz_per_row: int = 3,
                   seed: int = 0xBEEF) -> Tuple[R1CS, np.ndarray, np.ndarray]:
    """Generate a satisfiable banded R1CS of 2^log_size constraints.

    Returns (r1cs, public, witness).  Row i of A and B each draw
    ``nnz_per_row`` columns within ``band`` of i; C has one non-zero per
    row whose value is solved so the row is satisfied.
    """
    if log_size < 2:
        raise ValueError("log_size must be >= 2")
    n = 1 << log_size
    half = n // 2
    rng = np.random.default_rng(seed)

    # z = [1, x | zero-pad]  ++  [witness, all non-zero].
    num_public = min(2, half)
    z = np.zeros(n, dtype=np.uint64)
    z[0] = 1
    if num_public > 1:
        z[1] = int(rng.integers(1, 1 << 32))
    wit = fv.rand_vector(half, rng)
    wit = np.where(wit == 0, np.uint64(1), wit)
    z[half:] = wit

    def banded_cols(count: int) -> np.ndarray:
        # The key stores int32 indices: the rng draws stay the int64 ones
        # (same instance), and the columns are narrowed once.  Row i owns
        # entries [i*count, (i+1)*count), so no row id is materialised.
        cols = rng.integers(-band, band + 1, size=n * count)
        cols.reshape(n, count)[:] += np.arange(n)[:, None]
        np.clip(cols, 0, n - 1, out=cols)
        return cols.astype(np.int32)

    cols_a = banded_cols(nnz_per_row)
    cols_b = banded_cols(nnz_per_row)
    vals_a = fv.rand_vector(cols_a.size, rng)
    vals_b = fv.rand_vector(cols_b.size, rng)

    # CSR directly: fixed-width rows are one arithmetic offset sequence.
    indptr = np.arange(n + 1, dtype=np.int32) * np.int32(nnz_per_row)
    a = SparseMatrix.from_csr(n, n, indptr, cols_a, vals_a)
    b = SparseMatrix.from_csr(n, n, indptr, cols_b, vals_b)

    def fixed_width_matvec(cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
        # Row i owns entries [i*k, (i+1)*k) by construction, so entry j
        # of every row is one strided plane: the limb-deferred plane
        # kernel reduces once per row, at most PLANE_CAP planes a call.
        tile = np.empty((7, max(PLANE_TILE, PLANE_CAP)), dtype=np.uint64)
        acc = np.empty((7, REDUCE_ROWS), dtype=np.uint64)
        idx = cols.reshape(n, nnz_per_row).T
        coef = vals.reshape(n, nnz_per_row).T
        sums = [_plane_matvec(idx[j:j + PLANE_CAP], coef[j:j + PLANE_CAP], z,
                              tile, acc)
                for j in range(0, nnz_per_row, PLANE_CAP)]
        return functools.reduce(fv.add, sums) if sums else fv.zeros(n)

    # C: one entry per row at a witness column with a non-zero z value;
    # use column half + (i mod half), whose z entry is never zero.
    # Each witness value serves two rows: invert the half once, and write
    # row i's value over the product (A z o B z)_i it is solved from.
    cols_c = np.arange(half, half + n, dtype=np.int32)
    cols_c[half:] -= np.int32(half)
    vals_c = fv.mul(fixed_width_matvec(cols_a, vals_a),
                    fixed_width_matvec(cols_b, vals_b))
    inv = fv.inv_vector(wit)
    for rows in (vals_c[:half], vals_c[half:]):
        fv.mul(rows, inv, out=rows)
    del inv
    c = SparseMatrix.from_csr(n, n, np.arange(n + 1, dtype=np.int32), cols_c,
                              vals_c)

    # The check runs through the key's layout, built first, while the
    # generator holds nothing but the key and the witness (z is
    # assembled again from the public half for the check).
    public = z[:num_public].copy()
    del z
    r1cs = R1CS(a, b, c, num_public=num_public, num_witness=half)
    r1cs._stacked()
    if not r1cs.is_satisfied(r1cs.assemble_z(public, wit)):
        # Explicit check: a bare assert would vanish under python -O.
        raise VerificationError("synthetic R1CS generator produced an "
                                "unsatisfied instance")
    return r1cs, public, wit
