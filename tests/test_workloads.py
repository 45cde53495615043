"""Tests for the five paper workload circuits and the synthetic generator."""

import hashlib
import random

import numpy as np
import pytest

from repro.field.goldilocks import MODULUS
from repro.workloads import synthetic_r1cs
from repro.workloads.aes import aes_circuit, aes_demo_circuit
from repro.workloads.auction import auction_circuit, auction_demo_circuit
from repro.workloads.litmus import (
    Access,
    Transaction,
    litmus_circuit,
    litmus_demo_circuit,
    random_transactions,
)
from repro.workloads.rsa import rsa_circuit, rsa_demo_circuit
from repro.workloads.sha import sha_circuit, sha_demo_circuit
from repro.workloads.registry import (build_keys, build_workload,
                                      resolve_workload, workload_choices)
from repro.workloads.spec import PAPER_WORKLOADS, WORKLOADS_BY_NAME
from repro.workloads.aes_reference import aes128_encrypt_block, key_expansion
from repro.workloads.sha256_reference import IV, compress, sha256


def _satisfied(circuit):
    r1cs, pub, wit = circuit.compile()
    return r1cs.is_satisfied(r1cs.assemble_z(pub, wit))


class TestAesReference:
    def test_fips197_vector(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        pt = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        ct = aes128_encrypt_block(list(pt), list(key))
        assert bytes(ct).hex() == "3925841d02dc09fbdc118597196a0b32"

    def test_key_expansion_first_round(self):
        key = list(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        rks = key_expansion(key)
        assert len(rks) == 11
        assert bytes(rks[1]).hex() == "a0fafe1788542cb123a339392a6c7605"

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            aes128_encrypt_block([0] * 15, [0] * 16)


class TestAesCircuit:
    def test_reduced_round_satisfied(self):
        circuit, expected = aes_demo_circuit(num_blocks=1, num_rounds=2)
        assert _satisfied(circuit)
        assert len(expected) == 1

    def test_circuit_matches_reference(self):
        rng = random.Random(7)
        key = [rng.randrange(256) for _ in range(16)]
        block = [rng.randrange(256) for _ in range(16)]
        circuit, expected = aes_circuit([block], key, num_rounds=3)
        assert expected[0] == aes128_encrypt_block(block, key, 3)
        assert _satisfied(circuit)

    def test_multi_block(self):
        circuit, expected = aes_demo_circuit(num_blocks=2, num_rounds=1)
        assert len(expected) == 2
        assert _satisfied(circuit)

    def test_constraints_scale_with_blocks(self):
        c1, _ = aes_demo_circuit(num_blocks=1, num_rounds=1)
        c2, _ = aes_demo_circuit(num_blocks=2, num_rounds=1)
        assert c2.num_constraints > 1.5 * c1.num_constraints

    def test_wrong_ciphertext_unsatisfiable(self):
        rng = random.Random(8)
        key = [rng.randrange(256) for _ in range(16)]
        block = [rng.randrange(256) for _ in range(16)]
        circuit, expected = aes_circuit([block], key, num_rounds=2)
        r1cs, pub, wit = circuit.compile()
        z = r1cs.assemble_z(pub, wit)
        assert r1cs.is_satisfied(z)
        # Corrupt a public ciphertext byte: 16 pt + 16 ct wires after the 1.
        pub2 = pub.copy()
        pub2[1 + 16] = (int(pub2[1 + 16]) + 1) % 256
        assert not r1cs.is_satisfied(r1cs.assemble_z(pub2, wit))


class TestShaReference:
    @pytest.mark.parametrize("msg", [b"", b"abc", b"a" * 64, b"x" * 1000])
    def test_matches_hashlib(self, msg):
        assert sha256(msg) == hashlib.sha256(msg).digest()

    def test_compress_shape_checks(self):
        with pytest.raises(ValueError):
            compress(IV, [0] * 15)


class TestShaCircuit:
    def test_reduced_round_satisfied(self):
        circuit, digest = sha_demo_circuit(num_blocks=1, num_rounds=8)
        assert _satisfied(circuit)
        assert len(digest) == 8

    def test_full_compression_satisfied(self):
        circuit, digest = sha_demo_circuit(num_blocks=1, num_rounds=64)
        assert _satisfied(circuit)

    def test_digest_matches_reference(self):
        rng = random.Random(5)
        block = [rng.getrandbits(32) for _ in range(16)]
        circuit, digest = sha_circuit([block], num_rounds=64)
        assert digest == compress(IV, block, 64)

    def test_chained_blocks(self):
        rng = random.Random(6)
        blocks = [[rng.getrandbits(32) for _ in range(16)] for _ in range(2)]
        circuit, digest = sha_circuit(blocks, num_rounds=16)
        state = list(IV)
        for b in blocks:
            state = compress(state, b, 16)
        assert digest == state
        assert _satisfied(circuit)

    def test_wrong_digest_unsatisfiable(self):
        circuit, _ = sha_demo_circuit(num_blocks=1, num_rounds=8)
        r1cs, pub, wit = circuit.compile()
        pub2 = pub.copy()
        pub2[1] = (int(pub2[1]) + 1) % MODULUS
        assert not r1cs.is_satisfied(r1cs.assemble_z(pub2, wit))


class TestRsaCircuit:
    def test_demo_satisfied(self):
        circuit, cts = rsa_demo_circuit(num_messages=1, modulus_bits=64,
                                        exponent=17)
        assert _satisfied(circuit)

    def test_ciphertexts_match_pow(self):
        modulus = 0xC34F_7281_9D01  # odd composite
        msgs = [12345, 67890]
        circuit, cts = rsa_circuit(msgs, modulus, exponent=5)
        assert cts == [pow(m, 5, modulus) for m in msgs]
        assert _satisfied(circuit)

    def test_message_range_checked(self):
        with pytest.raises(ValueError):
            rsa_circuit([10**30], 997, exponent=3)

    def test_constraints_scale_with_messages(self):
        c1, _ = rsa_demo_circuit(num_messages=1, modulus_bits=64, exponent=5)
        c2, _ = rsa_demo_circuit(num_messages=2, modulus_bits=64, exponent=5)
        assert c2.num_constraints > 1.5 * c1.num_constraints


class TestLitmusCircuit:
    def test_demo_satisfied(self):
        circuit, final_table, final_log = litmus_demo_circuit(6, 8)
        assert _satisfied(circuit)

    def test_write_semantics(self):
        txns = [Transaction((Access(addr=2, op=1, value=99),
                             Access(addr=2, op=0, value=0)))]
        circuit, final_table, _ = litmus_circuit(txns, [10, 11, 12, 13])
        assert final_table == [10, 11, 99, 13]
        assert _satisfied(circuit)

    def test_read_leaves_state(self):
        txns = [Transaction((Access(addr=1, op=0, value=0),
                             Access(addr=3, op=0, value=0)))]
        circuit, final_table, _ = litmus_circuit(txns, [5, 6, 7, 8])
        assert final_table == [5, 6, 7, 8]
        assert _satisfied(circuit)

    def test_log_binds_reads(self):
        """Two schedules with the same final table but different reads
        produce different log accumulators."""
        t1 = [Transaction((Access(0, 0, 0), Access(1, 0, 0)))]
        t2 = [Transaction((Access(1, 0, 0), Access(0, 0, 0)))]
        _, _, log1 = litmus_circuit(t1, [4, 5])
        _, _, log2 = litmus_circuit(t2, [4, 5])
        assert log1 != log2

    def test_tampered_final_table_unsatisfiable(self):
        circuit, final_table, _ = litmus_demo_circuit(4, 4)
        r1cs, pub, wit = circuit.compile()
        pub2 = pub.copy()
        pub2[1 + 4] = (int(pub2[1 + 4]) + 1) % MODULUS  # final table entry
        assert not r1cs.is_satisfied(r1cs.assemble_z(pub2, wit))

    def test_non_power_of_two_table_rejected(self):
        with pytest.raises(ValueError):
            litmus_circuit([], [1, 2, 3])

    def test_random_transactions_shape(self):
        txns = random_transactions(10, 8)
        assert len(txns) == 10
        for t in txns:
            for a in t.accesses:
                assert 0 <= a.addr < 8
                assert a.op in (0, 1)


class TestAuctionCircuit:
    def test_demo_satisfied(self):
        circuit, amount = auction_demo_circuit(8, 12)
        assert _satisfied(circuit)

    def test_winner_must_hold_max(self):
        with pytest.raises(ValueError):
            auction_circuit([10, 50, 20], winner=0)

    def test_correct_winner_accepted(self):
        circuit, amount = auction_circuit([10, 50, 20], winner=1)
        assert amount == 50
        assert _satisfied(circuit)

    def test_bid_range_checked(self):
        with pytest.raises(ValueError):
            auction_circuit([1 << 40], winner=0, bid_bits=32)

    def test_tampered_amount_unsatisfiable(self):
        circuit, amount = auction_circuit([10, 50, 20], winner=1,
                                          bid_bits=8)
        r1cs, pub, wit = circuit.compile()
        pub2 = pub.copy()
        pub2[2] = amount + 1  # announced price
        assert not r1cs.is_satisfied(r1cs.assemble_z(pub2, wit))

    def test_ties_allowed(self):
        circuit, amount = auction_circuit([50, 50, 20], winner=0, bid_bits=8)
        assert _satisfied(circuit)


class TestSynthetic:
    @pytest.mark.parametrize("log_size", [2, 4, 8, 10])
    def test_satisfiable(self, log_size):
        r1cs, pub, wit = synthetic_r1cs(log_size, band=8, seed=log_size)
        assert r1cs.is_satisfied(r1cs.assemble_z(pub, wit))

    def test_banded_structure(self):
        r1cs, _, _ = synthetic_r1cs(10, band=16, seed=1)
        assert r1cs.a.bandwidth() <= 16
        assert r1cs.b.bandwidth() <= 16

    def test_sparse(self):
        r1cs, _, _ = synthetic_r1cs(10, nnz_per_row=3, seed=2)
        n = r1cs.shape.num_constraints
        assert r1cs.a.nnz <= 3 * n
        assert r1cs.c.nnz == n

    def test_deterministic(self):
        a1 = synthetic_r1cs(6, seed=9)[0]
        a2 = synthetic_r1cs(6, seed=9)[0]
        assert a1.a.entries() == a2.a.entries()

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            synthetic_r1cs(1)


class TestWorkloadSpecs:
    def test_table3_rows_present(self):
        assert [w.name for w in PAPER_WORKLOADS] == \
            ["AES", "SHA", "RSA", "Litmus", "Auction"]

    def test_table3_values(self):
        assert WORKLOADS_BY_NAME["AES"].raw_constraints == 16_000_000
        assert WORKLOADS_BY_NAME["Auction"].raw_constraints == 550_000_000
        assert WORKLOADS_BY_NAME["Litmus"].paper_proof_mb == 10.9

    def test_padded_sizes(self):
        # Table IV's CPU doubling pattern implies these padded exponents.
        expect = {"AES": 24, "SHA": 25, "RSA": 27, "Litmus": 28, "Auction": 30}
        for w in PAPER_WORKLOADS:
            assert w.log_padded == expect[w.name], w.name

    def test_demo_builders_produce_satisfiable_circuits(self):
        for w in PAPER_WORKLOADS:
            circuit = build_workload(w.circuit_id)[1]
            assert _satisfied(circuit), w.name


def _statement(r1cs, public, witness):
    """An R1CS and its assignment as comparable bytes: each of A, B, C in
    plain CSR (a row map's repeated rows in full), then the vectors."""
    parts = [repr(r1cs.shape).encode()]
    for m in (r1cs.a.expanded(), r1cs.b.expanded(), r1cs.c.expanded()):
        parts += [np.asarray(arr, dtype="<i8").tobytes()
                  for arr in (m.rows, m.cols, m.vals)]
    return parts + [np.asarray(public, dtype="<u8").tobytes(),
                    np.asarray(witness, dtype="<u8").tobytes()]


class TestSpecRowsAreRegistryStatements:
    """A Table III row names a registry id and builds nothing itself, so
    the statement a row's demo proves is the one an envelope labelled
    with that id carries.  (Table III rows that built their own Litmus
    and Auction demos compiled to 2,048 rows, the registry's to 1,024.)"""

    #: Padded constraint count of each registry statement.
    PADDED = {"aes": 1 << 15, "sha": 1 << 14, "rsa": 1 << 13,
              "litmus": 1 << 10, "auction": 1 << 10}

    def test_rows_name_every_registry_id_once(self):
        ids = [w.circuit_id for w in PAPER_WORKLOADS]
        assert [resolve_workload(i) for i in ids] == ids
        assert sorted(ids) == sorted(
            {resolve_workload(name) for name in workload_choices()})

    @pytest.mark.parametrize("row", PAPER_WORKLOADS, ids=lambda w: w.name)
    def test_row_demo_is_the_registry_statement(self, row):
        circuit_id, circuit = build_workload(row.circuit_id)
        r1cs, public, witness = circuit.compile()
        assert r1cs.shape.num_constraints == self.PADDED[circuit_id]
        keys = build_keys(row.circuit_id, "test-fast")
        assert keys.circuit_id == circuit_id
        assert keys.raw_constraints == circuit.num_constraints
        assert _statement(keys.pk.r1cs, keys.public, keys.witness) == \
            _statement(r1cs, public, witness)


class TestFullAes:
    def test_full_ten_round_fips_vector(self):
        """The complete AES-128 (all 10 rounds, real S-boxes and key
        schedule) satisfies its circuit on the FIPS-197 test vector."""
        key = list(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        pt = list(bytes.fromhex("3243f6a8885a308d313198a2e0370734"))
        circuit, expected = aes_circuit([pt], key, num_rounds=10)
        assert bytes(expected[0]).hex() == "3925841d02dc09fbdc118597196a0b32"
        r1cs, pub, wit = circuit.compile()
        assert r1cs.is_satisfied(r1cs.assemble_z(pub, wit))
        # Size is in the ballpark of the paper's per-block cost
        # (16M constraints / 1,000 blocks = 16k; our bitwise
        # arithmetization with interpolated S-boxes is ~60k).
        assert 30_000 < circuit.num_constraints < 100_000
