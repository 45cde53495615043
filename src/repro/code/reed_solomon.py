"""Rate-1/4 Reed-Solomon code via the NTT (the Shockwave substitution).

Orion's original implementation used expander-graph codes; the paper
replaces them with Reed-Solomon codes (Sec. II, Sec. V-A) because RS
encoding is a single large NTT — regular, streaming, and NTT-FU friendly —
whereas expander encoding makes serialized, data-dependent off-chip
accesses.  Parameters follow Shockwave/Sec. VII-A: blowup 4, so only 189
column queries are needed (vs 1,222 for the expander code).

Encoding: interpret the n-element message as coefficients of a degree-<n
polynomial and evaluate it on the size-4n NTT domain.  Any n codeword
symbols determine the message, giving distance 3n + 1.
"""

from __future__ import annotations

import numpy as np

from ..ntt.polymul import poly_eval_domain
from ..ntt.radix2 import intt
from ..obs import count as _count, get_tracer as _get_tracer
from .base import LinearCode

#: Shockwave parameters used throughout the paper (Sec. VII-A).
DEFAULT_BLOWUP = 4
DEFAULT_QUERIES = 189


class ReedSolomonCode(LinearCode):
    """Systematic-in-spirit RS code: codeword = NTT_(blowup*n)(pad(message))."""

    def __init__(self, blowup: int = DEFAULT_BLOWUP, num_queries: int = DEFAULT_QUERIES):
        if blowup < 2 or blowup & (blowup - 1):
            raise ValueError("blowup must be a power of two >= 2")
        self.blowup = blowup
        self.num_queries = num_queries

    def encode(self, message: np.ndarray) -> np.ndarray:
        message = np.asarray(message, dtype=np.uint64)
        n = message.shape[-1]
        if n & (n - 1):
            raise ValueError(f"message length must be a power of two, got {n}")
        if _get_tracer() is not None:
            # Nominal full-NTT cost: (N/2)*log2(N) butterflies per row
            # (the zero-pad optimization skips the first log2(blowup)
            # stages; the counter tracks the structural count the paper's
            # cost model charges for).
            codeword_len = self.blowup * n
            rows = 1
            for dim in message.shape[:-1]:
                rows *= dim
            _count("ntt.butterflies",
                   rows * (codeword_len // 2)
                   * max(1, codeword_len.bit_length() - 1))
            _count("rs.rows_encoded", rows)
        return poly_eval_domain(message, self.blowup * n)

    def encode_rows(self, matrix: np.ndarray) -> np.ndarray:
        """Encode every row in ONE batched NTT call.

        The radix-2 transform operates along the last axis, so the whole
        (rows, cols) message matrix goes through a single length-4*cols NTT
        — no per-row Python dispatch (the paper's NTT FU processes 64 such
        rows per pass; here one numpy call covers them all).
        :meth:`repro.pcs.orion.OrionPCS.commit` hands it row tiles of
        ``ENCODE_TILE_CELLS`` codeword cells, so each call's temporaries
        stay cache-resident.
        """
        return self.encode(np.asarray(matrix, dtype=np.uint64))

    def decode_systematic(self, codeword: np.ndarray) -> np.ndarray:
        """Recover the message from an *uncorrupted* codeword (test helper)."""
        codeword = np.asarray(codeword, dtype=np.uint64)
        coeffs = intt(codeword)
        n = codeword.shape[-1] // self.blowup
        if coeffs[..., n:].any():
            raise ValueError("codeword is not a valid RS codeword")
        return coeffs[..., :n]
