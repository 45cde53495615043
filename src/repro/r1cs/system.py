r"""R1CS constraint systems with the Spartan-friendly z-vector layout.

An R1CS instance is (A, B, C, x) and a witness w such that
(A z) o (B z) = (C z), where o is the element-wise product and z is the
wire-value vector (Fig. 2 of the paper).

Layout.  Spartan's verifier must split the multilinear extension of z into
a public part it can evaluate itself and a committed witness part.  We use::

    z = [ 1, x_0 .. x_{k-1}, 0-pad ]  ++  [ w_0 .. w_{m-1}, 0-pad ]
        \____ public half (2^(L-1)) _/    \___ witness half (2^(L-1)) __/

so  z~(r_0, r) = (1 - r_0) * pub~(r) + r_0 * w~(r)  and only w~ needs a
polynomial-commitment opening.  Constraints are padded to the same 2^L.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from ..field import vector as fv
from ..ntt.polymul import next_pow2
from .matrices import SparseMatrix, StackedMatrices


@dataclass
class R1CSShape:
    """Dimensions of a padded R1CS instance."""

    num_constraints: int   # padded, power of two, == z length
    num_public: int        # count of public entries incl. the leading 1
    num_witness: int       # count of live witness wires

    @property
    def log_size(self) -> int:
        return self.num_constraints.bit_length() - 1

    @property
    def half(self) -> int:
        return self.num_constraints // 2


class R1CS:
    """A padded rank-1 constraint system over Goldilocks.

    It owns the A, B, C matrices (:class:`SparseMatrix`, whose
    :meth:`~SparseMatrix.matvec` is each forward product) and, built
    lazily, one :class:`StackedMatrices`: the transposed layout behind
    :meth:`combined_row`."""

    def __init__(self, a: SparseMatrix, b: SparseMatrix, c: SparseMatrix,
                 num_public: int, num_witness: int):
        if not (a.num_rows == b.num_rows == c.num_rows):
            raise ValueError("A, B, C must have equal row counts")
        if not (a.num_cols == b.num_cols == c.num_cols):
            raise ValueError("A, B, C must have equal column counts")
        if a.num_rows != a.num_cols:
            raise ValueError("padded R1CS must be square (rows == z length)")
        n = a.num_rows
        if n < 2 or n & (n - 1):
            raise ValueError("padded size must be a power of two >= 2")
        half = n // 2
        if num_public > half or num_witness > half:
            raise ValueError("public/witness sections exceed their halves")
        self.a, self.b, self.c = a, b, c
        self.shape = R1CSShape(n, num_public, num_witness)
        self._stacked_cache: StackedMatrices | None = None

    def __getstate__(self):
        """Drop the transposed layout from pickles (rebuilt lazily by the
        receiver); with SparseMatrix's own cache trimming this keeps a
        pickled proving key to the CSR arrays."""
        state = self.__dict__.copy()
        state["_stacked_cache"] = None
        return state

    def _stacked(self) -> StackedMatrices:
        """Lazily-built transposed layout of (A, B, C)."""
        if self._stacked_cache is None:
            self._stacked_cache = StackedMatrices([self.a, self.b, self.c])
        return self._stacked_cache

    # -- z-vector assembly ---------------------------------------------------
    def assemble_z(self, public: np.ndarray, witness: np.ndarray) -> np.ndarray:
        """Build the padded z vector from public inputs (incl. leading 1)
        and witness values."""
        public = np.asarray(public, dtype=np.uint64)
        witness = np.asarray(witness, dtype=np.uint64)
        if len(public) != self.shape.num_public:
            raise ValueError(f"expected {self.shape.num_public} public entries")
        if len(witness) != self.shape.num_witness:
            raise ValueError(f"expected {self.shape.num_witness} witness entries")
        if self.shape.num_public >= 1 and int(public[0]) != 1:
            raise ValueError("public[0] must be the constant 1")
        z = np.zeros(self.shape.num_constraints, dtype=np.uint64)
        z[: len(public)] = public
        z[self.shape.half : self.shape.half + len(witness)] = witness
        return z

    def split_z(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (public half, witness half) of a padded z vector."""
        half = self.shape.half
        return z[:half], z[half:]

    # -- satisfaction ---------------------------------------------------------
    def is_satisfied(self, z: np.ndarray) -> bool:
        """Check (A z) o (B z) == (C z), holding at most two n-word
        products at once: A z o B z is written over A z, and B z is
        dropped before C z is formed."""
        az = self.a.matvec(z)
        fv.mul(az, self.b.matvec(z), out=az)
        return bool((az == self.c.matvec(z)).all())

    def products(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (A z, B z, C z) — the inputs to Spartan's first
        sumcheck, one :meth:`SparseMatrix.matvec` each."""
        return self.a.matvec(z), self.b.matvec(z), self.c.matvec(z)

    def combined_row(self, coeffs, rx) -> np.ndarray:
        """(coeffs[0]*A + coeffs[1]*B + coeffs[2]*C)^T eq(rx, .) in one
        fused pass — the first factor of Spartan's second sumcheck, with
        eq(rx) expanded straight into the pass's scaled input."""
        return self._stacked().scaled_transpose_eq(coeffs, rx)

    def combined_transpose_matvec(self, coeffs, x: np.ndarray) -> np.ndarray:
        """(coeffs[0]*A + coeffs[1]*B + coeffs[2]*C)^T x for any table
        ``x``, through the same fill as :meth:`combined_row` (which the
        prover calls; ``bench/`` times this form)."""
        return self._stacked().scaled_transpose_matvec(coeffs, x)

    @property
    def nnz(self) -> int:
        return self.a.nnz + self.b.nnz + self.c.nnz

    @property
    def nbytes(self) -> int:
        """Bytes this system holds: the arrays of A, B, C (each array
        once; 12 B per stored non-zero, int32 ``cols`` and uint64
        ``vals``, 4 B per stored row of int32 ``indptr`` and 4 B per row
        of an int32 ``row_map``) plus, once built, the transposed layout
        (:attr:`StackedMatrices.nbytes`)."""
        csr = {id(arr): arr.nbytes for m in (self.a, self.b, self.c)
               for arr in (m.indptr, m.cols, m.vals, m.row_map)
               if arr is not None}
        layout = self._stacked_cache
        return sum(csr.values()) + (layout.nbytes if layout is not None else 0)

    def __repr__(self) -> str:
        s = self.shape
        return (f"R1CS(n={s.num_constraints}, public={s.num_public}, "
                f"witness={s.num_witness}, nnz={self.nnz})")


def pad_r1cs(a: SparseMatrix, b: SparseMatrix, c: SparseMatrix,
             num_public: int, num_witness: int,
             min_size: int = 4) -> R1CS:
    """Pad raw constraint matrices to the square power-of-two Spartan shape.

    Raw matrices are (m constraints) x (num_public + num_witness) with
    columns ordered [1, x..., w...].  Witness columns are relocated to the
    second half of the padded z vector.
    """
    raw_cols = num_public + num_witness
    for m in (a, b, c):
        if m.num_cols != raw_cols:
            raise ValueError("matrix columns must equal num_public + num_witness")
    half = max(next_pow2(num_public), next_pow2(num_witness), min_size // 2)
    n = max(next_pow2(a.num_rows), 2 * half, min_size)
    half = n // 2

    def relocate(m: SparseMatrix) -> SparseMatrix:
        m = m.pad_to(n, m.num_cols)
        cols = m.cols.copy()
        wit = cols >= num_public
        cols[wit] = cols[wit] - num_public + half
        return SparseMatrix.from_csr(n, n, m.indptr, cols, m.vals, m.row_map)

    return R1CS(relocate(a), relocate(b), relocate(c), num_public, num_witness)
