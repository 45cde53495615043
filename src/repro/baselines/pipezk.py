"""PipeZK cost model: the state-of-the-art Groth16 ASIC the paper
compares against (Sec. III, Sec. VII).

Per the paper's methodology, PipeZK is optimistically scaled to NoCap's
14nm technology, area, frequency and memory bandwidth, and moved from
MNT4-753 to the 4-10x faster BLS12-381 curve.  None of that helps its
end-to-end time, because PipeZK offloads the MSM G2 phase to the CPU and
is CPU-bound (Sec. III item 3): its proving time is linear in the raw
constraint count at ~0.501 s per million constraints (Table IV column).

Sec. III also reports the split at 16M constraints: the accelerated
portion runs in 1.43 s (a 32x speedup over the CPU for that part), while
the CPU portion caps the end-to-end speedup at 6.7x.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groth16 import PROOF_BYTES, VERIFY_SECONDS

#: Table IV: 8.02 s at 16M constraints, linear in raw constraints.
SECONDS_PER_CONSTRAINT = 8.02 / 16e6

#: Sec. III: the ASIC-accelerated portion at 16M constraints.
ACCELERATED_SECONDS_AT_16M = 1.43


@dataclass
class PipeZkModel:
    """Iso-resource-scaled PipeZK running Groth16 over BLS12-381."""

    def prover_seconds(self, raw_constraints: int) -> float:
        return SECONDS_PER_CONSTRAINT * raw_constraints

    def accelerated_part_seconds(self, raw_constraints: int) -> float:
        """Time of the ASIC-resident portion alone."""
        return ACCELERATED_SECONDS_AT_16M * raw_constraints / 16e6

    def cpu_part_seconds(self, raw_constraints: int) -> float:
        """Time of the CPU-resident MSM G2 phase (the bottleneck)."""
        return (self.prover_seconds(raw_constraints)
                - self.accelerated_part_seconds(raw_constraints))

    def proof_bytes(self, raw_constraints: int) -> int:
        return PROOF_BYTES

    def verify_seconds(self, raw_constraints: int) -> float:
        return VERIFY_SECONDS
