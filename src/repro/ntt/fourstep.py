"""The four-step (Bailey) NTT — the algorithm NoCap's NTT FU implements.

NoCap's NTT functional unit natively transforms at most 2^12 elements
(two 64-point pipelines plus a 64x64 transpose; Sec. IV-B).  Larger NTTs
decompose as N = N1 * N2: column NTTs, a twiddle multiplication, row NTTs,
and a transpose.  Applying the split recursively supports arbitrary
power-of-two lengths; transposes above the register-file capacity
(2^20 elements) go through main memory.

This module implements that exact decomposition, verified against the
radix-2 reference.  The NoCap model does not call it: it charges
``nocap.tasks.ntt_passes`` base-kernel passes per element, a count the
tests hold equal to the passes this recursion makes.
"""

from __future__ import annotations

import numpy as np

from ..field import vector as fv
from ..field.goldilocks import MODULUS
from .radix2 import ntt as radix2_ntt
from .roots import inverse_root, primitive_root

#: Largest NTT the hardware FU performs in a single pass (Sec. IV-B);
#: ``NoCapConfig.ntt_base_size`` defaults to it.
HW_BASE_SIZE = 1 << 12


def _twiddle_grid(n1: int, n2: int, inverse: bool) -> np.ndarray:
    """Matrix T[k1, n2] = w_N^(k1*n2) for N = n1*n2."""
    n = n1 * n2
    w = inverse_root(n) if inverse else primitive_root(n)
    col = np.empty(n1, dtype=np.uint64)
    acc = 1
    for i in range(n1):
        col[i] = acc
        acc = acc * w % MODULUS
    # Row j of the grid is col^j computed by iterated multiply; build by
    # cumulative products along axis 1.
    grid = np.empty((n1, n2), dtype=np.uint64)
    grid[:, 0] = 1
    for j in range(1, n2):
        grid[:, j] = fv.mul(grid[:, j - 1], col)
    return grid


def four_step_ntt(
    a: np.ndarray,
    inverse: bool = False,
    base_size: int = HW_BASE_SIZE,
) -> np.ndarray:
    """Length-N NTT via recursive four-step decomposition.

    Produces output identical to :func:`repro.ntt.radix2.ntt`.
    """
    a = np.asarray(a, dtype=np.uint64)
    n = a.shape[-1]
    if a.ndim != 1:
        raise ValueError("four_step_ntt operates on 1-D vectors")
    if n & (n - 1):
        raise ValueError(f"NTT length must be a power of two, got {n}")
    if base_size < 2 or base_size & (base_size - 1):
        raise ValueError(
            f"base_size must be a power of two >= 2, got {base_size}")

    return _four_step(a, inverse, base_size)


def _four_step(a: np.ndarray, inverse: bool, base_size: int) -> np.ndarray:
    """Four-step transform.  For the inverse, the 1/N scaling emerges from
    the column pass (1/n1) composed with the row pass (1/n2), so no global
    correction is needed."""
    n = a.shape[-1]
    if n <= base_size:
        return radix2_ntt(a, inverse=inverse)

    # Split N = n1 * n2 with n1 <= base_size, recursing on n2 if needed.
    n1 = base_size
    n2 = n // n1

    # Step 1: view x[n1_idx * n2 + n2_idx] as an (n1, n2) matrix and
    # transform each column (length n1).  We transpose so columns become
    # rows for the vectorized base kernel.
    mat = a.reshape(n1, n2)
    cols = np.ascontiguousarray(mat.T)  # (n2, n1)
    cols = radix2_ntt(cols, inverse=inverse)  # length-n1 NTT per row

    # Step 2: twiddle multiply T[k1, n2_idx] = w^(k1 * n2_idx).
    grid = _twiddle_grid(n1, n2, inverse)  # (n1, n2)
    cols = fv.mul(cols, grid.T)  # (n2, n1) layout

    # Step 3: transform each row of the (n1, n2) matrix -> recurse on n2.
    rows = np.ascontiguousarray(cols.T)  # (n1, n2)
    if n2 <= base_size:
        rows = radix2_ntt(rows, inverse=inverse)
    else:
        transformed = np.empty_like(rows)
        for i in range(n1):
            transformed[i] = _four_step(rows[i], inverse, base_size)
        rows = transformed

    # Step 4: output in k = k2 * n1 + k1 order -> transpose and flatten.
    return np.ascontiguousarray(rows.T).reshape(n)
