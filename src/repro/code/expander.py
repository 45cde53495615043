"""Brakedown-style recursive expander-graph code — the baseline Orion used
before the paper's Reed-Solomon substitution.

The construction (after Spielman / Brakedown / Orion) encodes a length-n
message x as::

    Enc(x) = [ x | Enc(A x) | B * Enc(A x) ]
               n      2n          n           -> blowup 4

where A is a sparse (n/2 x n) random bipartite-expander matrix and B is a
sparse (n x 2n) one, both with fixed row degree.  The base case uses the
Reed-Solomon code so lengths compose exactly.

Why NoCap avoids it (Sec. II): the graphs take gigabytes at paper scale
and encoding traverses neighbours in data-dependent order, producing
serialized off-chip accesses.  This encoder is functional only: no
performance model reads it.  The Sec. VIII-C expander ablation's 1.2x is
the CPU model's calibrated constant
:data:`repro.baselines.cpu.REED_SOLOMON_SPEEDUP`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from ..field import vector as fv
from .base import LinearCode
from .reed_solomon import ReedSolomonCode

#: Fixed row degree of the expander matrices (Orion-like sparsity).
ROW_DEGREE = 8

#: Messages at or below this length are RS-encoded directly.
BASE_CASE = 64


class ExpanderCode(LinearCode):
    """Blowup-4 recursive expander code with seeded, shared graphs."""

    blowup = 4
    #: Orion's expander parameters need 1,222 column queries (Sec. VII-A).
    num_queries = 1222

    def __init__(self, seed: int = 0xE2C0DE, row_degree: int = ROW_DEGREE):
        self.seed = seed
        self.row_degree = row_degree
        self._base = ReedSolomonCode(blowup=4)

    # -- graph generation (deterministic; prover and verifier share it) ----
    @lru_cache(maxsize=None)
    def _graph(self, rows: int, cols: int, level: int, which: int) -> Tuple[np.ndarray, np.ndarray]:
        """Sparse matrix as (indices, values), each of shape (rows, degree)."""
        rng = np.random.default_rng((self.seed, rows, cols, level, which))
        indices = rng.integers(0, cols, size=(rows, self.row_degree), dtype=np.int64)
        values = fv.rand_vector(rows * self.row_degree, rng).reshape(rows, self.row_degree)
        # Avoid zero coefficients so every edge contributes.
        values = np.where(values == 0, np.uint64(1), values)
        return indices, values

    def _spmv(self, indices: np.ndarray, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """y[i] = sum_k values[i,k] * x[indices[i,k]] (mod p)."""
        gathered = x[indices]  # the data-dependent accesses
        prods = fv.mul(values, gathered)
        acc = prods[:, 0]
        for k in range(1, prods.shape[1]):
            acc = fv.add(acc, prods[:, k])
        return acc

    # -- encoding -----------------------------------------------------------
    def encode(self, message: np.ndarray) -> np.ndarray:
        message = np.asarray(message, dtype=np.uint64)
        n = message.shape[-1]
        if n & (n - 1):
            raise ValueError(f"message length must be a power of two, got {n}")
        return self._encode(message, level=0)

    def _encode(self, x: np.ndarray, level: int) -> np.ndarray:
        n = x.shape[-1]
        if n <= BASE_CASE:
            return self._base.encode(x)
        a_idx, a_val = self._graph(n // 2, n, level, 0)
        y = self._spmv(a_idx, a_val, x)          # length n/2
        w = self._encode(y, level + 1)            # length 2n
        b_idx, b_val = self._graph(n, 2 * n, level, 1)
        v = self._spmv(b_idx, b_val, w)           # length n
        return np.concatenate([x, w, v])
