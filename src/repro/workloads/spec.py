"""The paper's benchmark suite (Table III) as workload specifications.

Each spec carries the paper-scale R1CS size (raw constraints before
power-of-two padding) and names, as :attr:`WorkloadSpec.circuit_id`, the
registry statement (:mod:`.registry`) that is its structurally identical
small functional instance.  Performance models consume the paper-scale
dimensions; the functional layer proves the registry's instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..ntt.polymul import next_pow2


@dataclass(frozen=True)
class WorkloadSpec:
    """One row of Table III."""

    name: str
    raw_constraints: int           # Table III "R1CS Size"
    description: str
    paper_proof_mb: float          # Table III "Proof [MB]"
    paper_verify_ms: float         # Table III "V time [ms]"
    paper_nocap_s: float           # Table IV NoCap proving time (seconds)
    paper_cpu_s: float             # Table IV CPU proving time (seconds)
    paper_pipezk_s: float          # Table IV PipeZK proving time (seconds)

    @property
    def circuit_id(self) -> str:
        """The registry id of this row's demo statement."""
        return self.name.lower()

    @property
    def padded_constraints(self) -> int:
        return next_pow2(self.raw_constraints)

    @property
    def log_padded(self) -> int:
        return self.padded_constraints.bit_length() - 1


#: Table III / Table IV, verbatim paper numbers.
AES = WorkloadSpec(
    name="AES", raw_constraints=16_000_000,
    description="AES-128 encryption of 1,000 blocks (16 KB message)",
    paper_proof_mb=8.1, paper_verify_ms=134.0,
    paper_nocap_s=0.1513, paper_cpu_s=94.2, paper_pipezk_s=8.0)

SHA = WorkloadSpec(
    name="SHA", raw_constraints=32_000_000,
    description="SHA-256 over 1,000 512-bit blocks (64 KB file)",
    paper_proof_mb=8.7, paper_verify_ms=153.7,
    paper_nocap_s=0.311, paper_cpu_s=188.4, paper_pipezk_s=16.0)

RSA = WorkloadSpec(
    name="RSA", raw_constraints=98_000_000,
    description="RSA-2048 exponentiation of 1,000 256-byte messages",
    paper_proof_mb=10.1, paper_verify_ms=198.0,
    paper_nocap_s=1.3, paper_cpu_s=753.6, paper_pipezk_s=49.1)

LITMUS = WorkloadSpec(
    name="Litmus", raw_constraints=268_400_000,
    description="Verifiable DBMS: 10,000 YCSB transactions, 2 rows each",
    paper_proof_mb=10.9, paper_verify_ms=222.4,
    paper_nocap_s=2.6, paper_cpu_s=1507.2, paper_pipezk_s=134.6)

AUCTION = WorkloadSpec(
    name="Auction", raw_constraints=550_000_000,
    description="Verifiable sealed-bid auction, 100x the bids of [33]",
    paper_proof_mb=12.5, paper_verify_ms=276.1,
    paper_nocap_s=10.8, paper_cpu_s=6120.0, paper_pipezk_s=275.8)

PAPER_WORKLOADS: List[WorkloadSpec] = [AES, SHA, RSA, LITMUS, AUCTION]

WORKLOADS_BY_NAME: Dict[str, WorkloadSpec] = {w.name: w for w in PAPER_WORKLOADS}

#: The Table I / Fig. 5 / Fig. 6 reference statement size.
REFERENCE_CONSTRAINTS = 16_000_000
