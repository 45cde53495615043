"""Polynomial commitment schemes: Orion over linear codes (the one the
prover uses) and FRI (:mod:`.fri`, import it from its module)."""

from .orion import (
    DEFAULT_PROXIMITY_VECTORS,
    DEFAULT_ROWS,
    OrionCommitment,
    OrionEvalProof,
    OrionPCS,
    PCSParams,
)

__all__ = [
    "DEFAULT_PROXIMITY_VECTORS",
    "DEFAULT_ROWS",
    "OrionCommitment",
    "OrionEvalProof",
    "OrionPCS",
    "PCSParams",
]
