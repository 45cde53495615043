"""Task-level cost models for the Spartan+Orion prover on NoCap.

The paper's simulator "models the timing of each task by using timing
models for the functional units and main memory" (Sec. VII); tasks run
serially and each task's time is the maximum over its bottleneck
resources, because decoupled data orchestration overlaps loads with
compute (Sec. IV-C).

Each builder below derives *structural* operation and traffic counts from
the protocol (sumcheck inventory of Sec. V-A and VII-A, Reed-Solomon
encode via the four-step NTT, Merkle hashing, output-stationary SpMV),
scaled by the per-family calibration constants of
:mod:`repro.nocap.constants`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from . import constants as C
from .config import NoCapConfig


@dataclass
class TaskCost:
    """Resource demands of one task (work, not cycles; the simulator
    divides by the configured lane counts)."""

    name: str
    family: str
    mul_ops: float = 0.0
    add_ops: float = 0.0
    #: Elements through the 1 KB/cycle hash FU.  Charged per element
    #: absorbed, which is what the functional layer's packed leaf sponge
    #: does (``hashing/fieldhash.py``: 8 bytes of rate per element).
    hash_elements: float = 0.0
    shuffle_elements: float = 0.0   # elements routed through the Benes network
    ntt_element_passes: float = 0.0 # elements x four-step passes through NTT FU
    mem_bytes: float = 0.0

    def compute_cycles(self, cfg: NoCapConfig) -> Dict[str, float]:
        return {
            "mul": self.mul_ops / cfg.mul_lanes,
            "add": self.add_ops / cfg.add_lanes,
            "hash": self.hash_elements / cfg.hash_lanes,
            "shuffle": self.shuffle_elements / cfg.shuffle_lanes,
            "ntt": self.ntt_element_passes / cfg.ntt_lanes,
        }

    def time_seconds(self, cfg: NoCapConfig) -> float:
        compute = max(self.compute_cycles(cfg).values()) / cfg.frequency_hz
        memory = self.mem_bytes / cfg.hbm_bytes_per_s
        return max(compute, memory)


def _dp_op_factor(degree: int) -> float:
    """Multiplies per table element of the sumcheck DP, summed over rounds.

    Per round over m remaining entries: (degree-1) extra sample points
    each costing degree muls on m/2 entries, (degree+1) cross-factor
    product chains of (degree-1) muls on m/2 entries, and degree folds of
    one mul per entry.  Summing m = M, M/2, ... gives a constant factor.
    """
    per_round_half = ((degree - 1) * degree            # extra sample points
                      + (degree + 1) * (degree - 1))   # product chains
    fold = degree  # one mul per entry per factor (on m/2 after restructuring)
    return 2.0 * (per_round_half / 2.0 + fold / 2.0)


def ntt_passes(length: int, base_size: int) -> int:
    """Four-step passes to transform ``length`` points with a base kernel
    of ``base_size`` (Sec. V-A: one pass per recursion level)."""
    if length <= 1:
        return 1
    return max(1, math.ceil(math.log2(length) / math.log2(base_size)))


def _spill_rounds(table_elements: float, tables: int, cfg: NoCapConfig) -> int:
    """Sumcheck rounds whose working set exceeds the register file.

    With ``tables`` live arrays (double-buffered), the DP fits on chip
    once tables * 2 * m <= RF capacity; earlier rounds stream from HBM.
    """
    capacity = cfg.register_file_elements / (2 * tables)
    if capacity < 1:
        return max(1, math.ceil(math.log2(max(table_elements, 2))))
    if table_elements <= capacity:
        return 0
    return max(0, math.ceil(math.log2(table_elements / capacity)))


def sumcheck_tasks(n: int, cfg: NoCapConfig,
                   repetitions: int = C.SUMCHECK_REPETITIONS,
                   recompute: bool | None = None) -> List[TaskCost]:
    """The sumcheck inventory: Spartan's two core sumchecks plus the
    Spark/memory-checking ones totalling 18N (Sec. V-A, VII-A), all run
    ``repetitions`` times.

    ``recompute`` selects NoCap's DP-recomputation optimization
    (default: the config's flag): spill rounds stream the 61-bit circuit
    plus witness (2N values) instead of every DP table, at the cost of
    re-deriving table entries with extra multiplies.
    """
    if recompute is None:
        recompute = cfg.recompute_sumcheck
    instances = [("sc1", 1, 3, 4, 1.0), ("sc2", 1, 2, 2, 1.0)]
    instances += [("spark%d" % i, s, d, t, C.SPARK_COMPUTE_FACTOR)
                  for i, (s, d, t) in enumerate(C.SPARK_SUMCHECKS)]

    tasks: List[TaskCost] = []
    for name, size_factor, degree, streams, compute_factor in instances:
        m = size_factor * n
        dp_muls = (C.SUMCHECK_COMPUTE_SCALE * compute_factor
                   * _dp_op_factor(degree) * m)
        # Adds issue alongside multiplies; the add FU runs somewhat below
        # the multiply FU (linear accumulations vs multiply-heavy samples).
        dp_adds = 0.65 * dp_muls
        spill = _spill_rounds(m, streams, cfg)
        # Streaming option A — recompute (Sec. V-A): spill rounds stream the
        # 61-bit circuit plus witness (2N values) and re-derive DP entries
        # with the rx fast-forward, costing extra multiplies.  The
        # fast-forward keeps many intermediates live ("this recomputation
        # uses many intermediates, which is why NoCap requires an 8 MB
        # scratchpad", Sec. V-A): below the reference capacity they spill,
        # multiplying the recompute traffic.
        rf_deficit = max(1.0, C.RECOMPUTE_RF_REFERENCE_BYTES
                         / cfg.register_file_bytes)
        mem_recompute = (C.SUMCHECK_TRAFFIC_SCALE * 8.0 * 2 * n * spill
                         * rf_deficit)
        extra_muls = C.RECOMPUTE_MULS_PER_ELEMENT * n * spill
        # Streaming option B — materialize: stream every live table each
        # spill round (reads, plus the fraction of folded write-backs that
        # cannot be kept on chip).
        streamed = 0.0
        live = float(m)
        for _ in range(spill):
            streamed += streams * live * 1.2
            live /= 2
        # Below the reference capacity, double-buffering and reduction
        # intermediates spill in this option too.
        mem_materialize = C.SUMCHECK_TRAFFIC_SCALE * 8.0 * streamed * rf_deficit

        option_a = TaskCost(
            name=name, family="sumcheck",
            mul_ops=dp_muls + extra_muls, add_ops=dp_adds + extra_muls,
            hash_elements=4.0 * math.log2(max(m, 2)),
            mem_bytes=mem_recompute)
        option_b = TaskCost(
            name=name, family="sumcheck",
            mul_ops=dp_muls, add_ops=dp_adds,
            hash_elements=4.0 * math.log2(max(m, 2)),
            mem_bytes=mem_materialize)
        if recompute and option_a.time_seconds(cfg) < option_b.time_seconds(cfg):
            task = option_a
        else:
            task = option_b
        tasks.append(task)
    # Repetitions re-run every instance with fresh challenges.
    out: List[TaskCost] = []
    for rep in range(repetitions):
        for t in tasks:
            out.append(TaskCost(
                name=f"{t.name}/rep{rep}", family=t.family,
                mul_ops=t.mul_ops, add_ops=t.add_ops,
                hash_elements=t.hash_elements,
                shuffle_elements=t.shuffle_elements,
                ntt_element_passes=t.ntt_element_passes,
                mem_bytes=t.mem_bytes))
    return out


def commit_tasks(n: int, cfg: NoCapConfig) -> List[TaskCost]:
    """Orion commitment work: Reed-Solomon row encodes (NTT FU) and the
    Merkle tree over codeword columns (hash FU)."""
    committed = C.COMMITTED_ELEMENTS_PER_CONSTRAINT * n
    codeword = 4.0 * committed
    row_len = max(2, int(committed / C.ORION_ROWS))
    passes = ntt_passes(4 * row_len, cfg.ntt_base_size)

    rs = TaskCost(
        name="rs-encode", family="rs_encode",
        ntt_element_passes=C.RS_ENCODE_SCALE * codeword * passes,
        mul_ops=C.RS_ENCODE_SCALE * codeword * math.log2(max(4 * row_len, 2)) / 2,
        add_ops=C.RS_ENCODE_SCALE * codeword * math.log2(max(4 * row_len, 2)),
        mem_bytes=C.RS_ENCODE_SCALE * 8.0 * (committed + 1.5 * codeword),
    )
    merkle = TaskCost(
        name="merkle", family="merkle",
        hash_elements=C.MERKLE_SCALE * 2.0 * codeword,
        mem_bytes=C.MERKLE_SCALE * 8.0 * 1.75 * codeword,
    )
    return [rs, merkle]


POLY_NTTS_PER_PRODUCT = 3  # two forward NTTs + one inverse
#: Pure-streaming polynomial passes (random combinations, masked sums) per
#: repetition: add-only traffic with negligible compute.
POLY_LINEAR_PASSES_PER_REP = 12


def polyarith_tasks(n: int, cfg: NoCapConfig,
                    repetitions: int = C.SUMCHECK_REPETITIONS) -> List[TaskCost]:
    """Polynomial arithmetic (masking polynomials, composition products):
    NTT-based multiplies plus streaming linear combinations.  Large NTTs
    are intrinsically balanced between the 64-lane NTT FU and HBM; the
    linear passes push the family memory-bound, matching Fig. 6."""
    tasks = []
    products_per_rep = C.POLYARITH_PRODUCTS_PER_REP
    size = n  # product length (witness-sized operands)
    passes = ntt_passes(size, cfg.ntt_base_size)
    for rep in range(repetitions):
        ntt_elements = POLY_NTTS_PER_PRODUCT * products_per_rep * size * passes
        linear_elements = POLY_LINEAR_PASSES_PER_REP * n
        tasks.append(TaskCost(
            name=f"polyarith/rep{rep}", family="polyarith",
            ntt_element_passes=C.POLYARITH_SCALE * ntt_elements,
            mul_ops=C.POLYARITH_SCALE * products_per_rep * size * 2,
            add_ops=C.POLYARITH_SCALE * (products_per_rep * size * 2
                                         + linear_elements),
            mem_bytes=(C.POLYARITH_SCALE * 8.0
                       * (2 * ntt_elements + 2 * linear_elements)),
        ))
    return tasks



def spmv_tasks(n: int, cfg: NoCapConfig) -> List[TaskCost]:
    """Output-stationary SpMV for A z, B z, C z: each matrix streamed
    exactly once, input vector reused via the banded structure, Benes
    network aligning operands (Sec. V-A)."""
    nnz = 3 * C.NNZ_PER_ROW * n
    return [TaskCost(
        name="spmv", family="spmv",
        mul_ops=C.SPMV_SCALE * nnz,
        add_ops=C.SPMV_SCALE * nnz,
        shuffle_elements=C.SPMV_SCALE * nnz,
        mem_bytes=C.SPMV_SCALE * 8.0 * (nnz + 2 * n),
    )]


def host_tasks(n: int, cfg: NoCapConfig) -> List[TaskCost]:
    """Wire-value ingest over PCIe 5.0 (Sec. IV-D) and misc control."""
    pcie_bytes_per_s = 64e9
    ingest_s = 8.0 * n / pcie_bytes_per_s
    # Modeled as a memory-time-only task at equivalent HBM bytes.
    return [TaskCost(name="host-ingest", family="other",
                     mem_bytes=ingest_s * cfg.hbm_bytes_per_s)]


def build_prover_tasks(n: int, cfg: NoCapConfig,
                       repetitions: int = C.SUMCHECK_REPETITIONS,
                       recompute: bool | None = None) -> List[TaskCost]:
    """The full serial task list for one Spartan+Orion proof of a padded
    2^L = n constraint statement."""
    if n & (n - 1):
        raise ValueError("n must be the padded (power-of-two) size")
    tasks: List[TaskCost] = []
    tasks += spmv_tasks(n, cfg)
    tasks += commit_tasks(n, cfg)
    tasks += sumcheck_tasks(n, cfg, repetitions, recompute)
    tasks += polyarith_tasks(n, cfg, repetitions)
    tasks += host_tasks(n, cfg)
    return tasks
