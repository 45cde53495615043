"""Abstract interface for the linear error-correcting codes used by the
Orion polynomial commitment (Sec. V-A, "Reed-Solomon codes").

A linear code here is an injective linear map GF(p)^n -> GF(p)^(blowup*n).
Linearity is what the commitment scheme exploits: the encoding of a random
combination of rows equals the same combination of the rows' encodings.
"""

from __future__ import annotations

import abc

import numpy as np


class LinearCode(abc.ABC):
    """Systematic-or-not linear code with a fixed integer blowup factor."""

    #: codeword length / message length
    blowup: int

    #: Column queries needed for the target soundness at this code's
    #: relative distance (paper: 189 for RS blowup 4, 1222 for expanders).
    num_queries: int

    @abc.abstractmethod
    def encode(self, message: np.ndarray) -> np.ndarray:
        """Encode one message vector (power-of-two length) into a codeword."""

    def encode_rows(self, matrix: np.ndarray) -> np.ndarray:
        """Encode each row of a 2-D matrix; returns (rows, blowup * cols).

        Generic per-row fallback; codes whose encoder batches along leading
        axes (e.g. :class:`ReedSolomonCode`) override this with a single
        batched call.
        """
        matrix = np.asarray(matrix, dtype=np.uint64)
        out = np.empty((matrix.shape[0], self.blowup * matrix.shape[1]), dtype=np.uint64)
        for i in range(matrix.shape[0]):
            out[i] = self.encode(matrix[i])
        return out

    def codeword_length(self, message_length: int) -> int:
        return self.blowup * message_length
