"""Functional prover/verifier benchmarks: real Spartan+Orion proofs over
real workload circuits at laptop scale.

These time the cryptographic implementation itself (not the performance
model) and report measured proof sizes for the uncomposed proofs — the
functional counterpart of Tables III/IV.
"""

import numpy as np
import pytest
from conftest import emit

from repro.analysis.tables import format_table
from repro.hashing import Transcript
from repro.pcs import OrionPCS, PCSParams
from repro.snark import TEST, prove, setup, verify
from repro.snark.serialize import proof_to_bytes
from repro.spartan import SpartanParams, SpartanProver, SpartanVerifier
from repro.workloads import synthetic_r1cs


def _snark_for(log_size: int):
    r1cs, pub, wit = synthetic_r1cs(log_size, band=16, seed=log_size)
    params = SpartanParams(repetitions=1)
    pcs = OrionPCS(params=PCSParams(num_rows=16),
                   rng=np.random.default_rng(1))
    return (SpartanProver(r1cs, pcs, params),
            SpartanVerifier(r1cs, pcs, params), pub, wit)


@pytest.mark.parametrize("log_size", [6, 8, 10])
def test_prove_synthetic(benchmark, log_size):
    prover, verifier, pub, wit = _snark_for(log_size)
    # A fresh transcript per round: proving mutates it.
    proof = benchmark(lambda: prover.prove(pub, wit, Transcript()))
    assert verifier.verify(pub, proof, Transcript())


@pytest.mark.parametrize("log_size", [6, 8, 10])
def test_verify_synthetic(benchmark, log_size):
    prover, verifier, pub, wit = _snark_for(log_size)
    proof = prover.prove(pub, wit, Transcript())

    def run():
        return verifier.verify(pub, proof, Transcript())

    assert benchmark(run)


def test_prove_rsa_circuit(benchmark):
    from repro.workloads.rsa import rsa_demo_circuit

    circuit, _ = rsa_demo_circuit(num_messages=1, modulus_bits=64, exponent=17)
    r1cs, pub, wit = circuit.compile()
    pk, vk = setup(r1cs, TEST)
    bundle = benchmark(lambda: prove(pk, pub, wit))
    assert verify(vk, bundle)


def test_prove_auction_circuit(benchmark):
    from repro.workloads.auction import auction_demo_circuit

    circuit, _ = auction_demo_circuit(num_bids=16, bid_bits=16)
    r1cs, pub, wit = circuit.compile()
    pk, vk = setup(r1cs, TEST)
    bundle = benchmark(lambda: prove(pk, pub, wit))
    assert verify(vk, bundle)


def test_functional_proof_sizes(benchmark):
    """Measured (uncomposed) proof sizes vs statement size — the raw
    counterpart of Table III before Orion's inner-SNARK compression."""

    def measure():
        rows = []
        for log_size in (6, 8, 10, 12):
            prover, verifier, pub, wit = _snark_for(log_size)
            proof = prover.prove(pub, wit, Transcript())
            assert verifier.verify(pub, proof, Transcript())
            rows.append((f"2^{log_size}", len(proof_to_bytes(proof)) / 1024))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    table = format_table(
        ["Padded constraints", "Uncomposed proof (KiB)"], rows,
        "Functional-layer proof sizes (reps=1, 16-row PCS, 189 queries)")
    emit("functional_proof_sizes", table)
    sizes = [s for _, s in rows]
    assert all(b >= a for a, b in zip(sizes, sizes[1:]))
