"""Benchmark workloads: the paper's five applications plus synthetic R1CS.

The circuits (:mod:`.aes`, :mod:`.sha`, ...), the Table III specs
(:mod:`.spec`) and the circuit-id registry load from their own modules.
"""

from .synthetic import synthetic_r1cs

__all__ = ["synthetic_r1cs"]
