"""Proof-size and verifier-time models for Spartan+Orion (Table III).

Both quantities are O(log^2 N) in the constraint count (Sec. III, citing
Orion), with constants set by the proof-composition layer (the inner
SNARK Orion wraps around the column openings).  We model them as
quadratics in L = log2(padded N), anchored at Table III's five
measurements; the fits reproduce all five rows to within 0.1 MB / 0.5 ms:

    size_MB(L)  = 8.1   + 0.600*(L-24) + 0.0222*(L-24)^2
    verify_ms(L) = 134.0 + 18.98*(L-24) + 0.7833*(L-24)^2

The functional layer's proof is *uncomposed*: we substitute direct
Brakedown-style verification for Orion's inner-SNARK composition (see
DESIGN.md).  Through 2^22 it is nevertheless smaller than this composed
model.  Measured as ``len(bundle.to_bytes())`` (NCPE v5, PAPER preset,
``synthetic_r1cs(L, seed=1)``, prove seed 1):

    L = 16:    554,229 B envelope vs 4,720,800 B modelled (8.5x)
    L = 20:  1,178,237 B envelope vs 6,055,200 B modelled (5.1x)

At the top of that range the envelope grows roughly like N (PAPER
commits 128 rows at every size, so each evaluation and proximity row
holds N/256 elements) and the composed size like log^2 N, so the two
cross near 2^24-2^25 (ROADMAP item 14).
"""

from __future__ import annotations

from ..ntt.polymul import next_pow2

#: Fit anchored at Table III (L = 24): see module docstring.
_SIZE_BASE_MB = 8.1
_SIZE_LINEAR = 0.600
_SIZE_QUAD = 0.0222

_VERIFY_BASE_MS = 134.0
_VERIFY_LINEAR = 18.98
_VERIFY_QUAD = 0.7833

#: The Table I/III scenario: a 10 MB/s prover-verifier link.
LINK_BYTES_PER_S = 10e6


def padded_log(raw_constraints: int) -> int:
    return next_pow2(raw_constraints).bit_length() - 1


def proof_size_mb(raw_constraints: int) -> float:
    """Composed Spartan+Orion proof size in MB (Table III model)."""
    x = padded_log(raw_constraints) - 24
    return _SIZE_BASE_MB + _SIZE_LINEAR * x + _SIZE_QUAD * x * x


def proof_size_bytes(raw_constraints: int) -> float:
    return proof_size_mb(raw_constraints) * 1e6


def verifier_seconds(raw_constraints: int) -> float:
    """CPU verification time in seconds (Table III model)."""
    x = padded_log(raw_constraints) - 24
    ms = _VERIFY_BASE_MS + _VERIFY_LINEAR * x + _VERIFY_QUAD * x * x
    return ms / 1e3


def send_seconds(proof_bytes: float,
                 link_bytes_per_s: float = LINK_BYTES_PER_S) -> float:
    """Time to ship a proof over the prover-verifier link."""
    return proof_bytes / link_bytes_per_s
