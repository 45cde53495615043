"""Groth16 cost models: the zk-SNARK prior accelerators target (Sec. III).

Groth16 proving is dominated by multi-scalar multiplications (MSMs) over
BLS12-381 plus large NTTs; its cost is linear in the constraint count
(no power-of-two padding requirement for the MSMs).  Calibration points
are Table I at 16M constraints: 53.99 s on the 32-core CPU (libsnark),
37.44 s on a V100 GPU (GZKP); proofs are ~0.2 KB and verify in ~10 ms
regardless of circuit size.

The operation-count side of Sec. III's analysis lives in
:mod:`repro.analysis.opcounts`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Table I calibration: Groth16 on the 32-core CPU, 16M constraints.
CPU_SECONDS_PER_CONSTRAINT = 53.99 / 16e6
#: Table I: GZKP on an NVIDIA V100.
GPU_SECONDS_PER_CONSTRAINT = 37.44 / 16e6

#: Groth16 proofs: 3 group elements (~0.2 KB, Table I caption).
PROOF_BYTES = 200
#: Pairing-based verification, independent of circuit size.
VERIFY_SECONDS = 0.01


@dataclass
class Groth16Cpu:
    """libsnark-style parallel Groth16 prover on the reference CPU."""

    def prover_seconds(self, raw_constraints: int) -> float:
        return CPU_SECONDS_PER_CONSTRAINT * raw_constraints

    def proof_bytes(self, raw_constraints: int) -> int:
        return PROOF_BYTES

    def verify_seconds(self, raw_constraints: int) -> float:
        return VERIFY_SECONDS


@dataclass
class Groth16Gpu:
    """GZKP (V100 GPU) Groth16 prover."""

    def prover_seconds(self, raw_constraints: int) -> float:
        return GPU_SECONDS_PER_CONSTRAINT * raw_constraints

    def proof_bytes(self, raw_constraints: int) -> int:
        return PROOF_BYTES

    def verify_seconds(self, raw_constraints: int) -> float:
        return VERIFY_SECONDS
