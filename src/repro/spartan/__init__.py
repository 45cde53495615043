"""The Spartan IOP composed with the Orion PCS."""

from . import memcheck
from .matrixeval import combined_matrix_eval, combined_matrix_row, matrix_mle_eval
from .protocol import (
    DEFAULT_REPETITIONS,
    RepetitionProof,
    SpartanParams,
    SpartanProof,
    SpartanProver,
    SpartanVerifier,
)
from .sumcheck1 import (
    SatisfiedRound0,
    finish_constraint_sumcheck,
    prove_constraint_sumcheck,
)

__all__ = [
    "memcheck",
    "combined_matrix_eval",
    "combined_matrix_row",
    "matrix_mle_eval",
    "DEFAULT_REPETITIONS",
    "RepetitionProof",
    "SpartanParams",
    "SpartanProof",
    "SpartanProver",
    "SpartanVerifier",
    "SatisfiedRound0",
    "finish_constraint_sumcheck",
    "prove_constraint_sumcheck",
]
