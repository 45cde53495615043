"""Multilinear extensions and the sumcheck protocol."""

from .listing1 import final_challenge_point, sumcheck_dp, verify_sumcheck_dp
from .mle import (
    combine_rows,
    eq_eval,
    eq_table,
    fold,
    hypercube_sum,
    mle_eval,
    mle_eval_head,
    num_vars,
    tensor_split_eval,
)
from .sumcheck import (
    SumcheckProof,
    SumcheckResult,
    evaluate_terms,
    product_terms,
    prove_sumcheck,
    verify_sumcheck,
    verify_sumcheck_rounds,
    wire_degree,
)

__all__ = [
    "final_challenge_point",
    "sumcheck_dp",
    "verify_sumcheck_dp",
    "combine_rows",
    "eq_eval",
    "eq_table",
    "fold",
    "hypercube_sum",
    "mle_eval",
    "mle_eval_head",
    "num_vars",
    "tensor_split_eval",
    "SumcheckProof",
    "SumcheckResult",
    "evaluate_terms",
    "product_terms",
    "prove_sumcheck",
    "verify_sumcheck",
    "verify_sumcheck_rounds",
    "wire_degree",
]
