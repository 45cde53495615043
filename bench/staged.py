"""The staged proof: ``prove`` and ``verify`` re-enacted call by call.

``SpartanProver.prove`` / ``SpartanVerifier.verify`` /
``OrionPCS.commit`` are replayed here through the layers' public
functions, one span per call, so the per-layer ledger is read at the
layer boundaries without a line of ``src/`` knowing.  The re-enactment
is held to the real thing: the staged bundle's bytes must equal
``prove(seed=s)``'s, the real ``verify`` must accept them, and the
staged commit's Merkle root must equal the real commitment's.
"""

from __future__ import annotations

import numpy as np

from repro import ProofBundle
from repro.field import vector as fv
from repro.field.goldilocks import MODULUS
from repro.hashing import MerkleTree, Transcript
from repro.hashing.fieldhash import ColumnChainHasher
from repro.multilinear import (eq_eval, eq_table, mle_eval, prove_sumcheck,
                               verify_sumcheck_rounds)
from repro.pcs.orion import STREAM_TILE_ROWS
from repro.spartan import (RepetitionProof, SpartanProof,
                           combined_matrix_eval, finish_constraint_sumcheck,
                           prove_constraint_sumcheck)

from spans import SpanRecorder

PROVE_ROOT = "staged.prove"
VERIFY_ROOT = "staged.verify"
COMMIT_ROOT = "staged.commit"


def staged_prove(pk, public, witness, seed: int, rec: SpanRecorder,
                 circuit_id: str = "") -> ProofBundle:
    """``repro.prove(pk, public, witness, seed=seed)`` stage by stage."""
    r1cs, preset = pk.r1cs, pk.preset
    log_n = r1cs.shape.log_size
    with rec.span(PROVE_ROOT):
        with rec.span("snark.prover_init"):
            pcs = preset.make_pcs(rng=np.random.default_rng(seed))
            repetitions = preset.make_spartan_params().repetitions
            tr = Transcript()
        with rec.span("r1cs.assemble_z"):
            z = r1cs.assemble_z(public, witness)
        with rec.span("r1cs.products"):
            az, bz, cz = r1cs.products(z)
        with rec.span("field.satisfied_check"):
            if (fv.mul(az, bz) != cz).any():
                raise ValueError("witness does not satisfy the constraints")
        _pub_half, wit_half = r1cs.split_z(z)
        tr.absorb_array(b"spartan/public",
                        np.asarray(public, dtype=np.uint64))
        with rec.span("pcs.commit"):
            commitment, state = pcs.commit(wit_half)
        tr.absorb_digest(b"spartan/witness-commitment", commitment.root)
        reps = []
        for rep in range(repetitions):
            label = b"spartan/rep%d" % rep
            tau = tr.challenge_fields(label + b"/tau", log_n)
            with rec.span("spartan.sumcheck1"):
                sc1_rounds, (va, vb, vc), rx = prove_constraint_sumcheck(
                    tau, az, bz, cz, tr, label + b"/sc1")
            r_a = tr.challenge_field(label + b"/ra")
            r_b = tr.challenge_field(label + b"/rb")
            r_c = tr.challenge_field(label + b"/rc")
            claim2 = (r_a * va + r_b * vb + r_c * vc) % MODULUS
            with rec.span("multilinear.eq_table"):
                eq_rx = eq_table(rx)
            with rec.span("r1cs.transpose_matvec"):
                m_row = r1cs.combined_transpose_matvec((r_a, r_b, r_c), eq_rx)
            with rec.span("multilinear.sumcheck2"):
                sc2, ry = prove_sumcheck([m_row, z], tr, label + b"/sc2",
                                         claim=claim2)
            w_point = ry[1:]
            with rec.span("multilinear.mle_eval"):
                w_eval = mle_eval(wit_half, w_point)
            tr.absorb_field(label + b"/w-eval", w_eval)
            with rec.span("pcs.open"):
                pcs_proof = pcs.open(state, commitment, w_point,
                                     tr.fork(label + b"/pcs"))
            reps.append(RepetitionProof(sc1_rounds, va, vb, vc, sc2,
                                        w_eval, pcs_proof))
        with rec.span("snark.bundle"):
            bundle = ProofBundle(
                proof=SpartanProof(commitment, reps),
                public=np.asarray(public, dtype=np.uint64),
                preset_name=preset.name, circuit_id=circuit_id)
    return bundle


def staged_verify(vk, bundle: ProofBundle, rec: SpanRecorder) -> bool:
    """``repro.verify(vk, bundle)`` stage by stage, for a bundle this
    process produced (the structural checks on untrusted input are the
    real verifier's business and are not replayed)."""
    r1cs, preset = vk.r1cs, vk.preset
    log_n = r1cs.shape.log_size
    proof = bundle.proof
    with rec.span(VERIFY_ROOT):
        with rec.span("snark.verifier_init"):
            pcs = preset.make_pcs()
            tr = Transcript()
            public = np.asarray(bundle.public, dtype=np.uint64)
            pub_half = np.zeros(r1cs.shape.half, dtype=np.uint64)
            pub_half[: len(public)] = public
        tr.absorb_array(b"spartan/public", public)
        tr.absorb_digest(b"spartan/witness-commitment",
                         proof.witness_commitment.root)
        for rep, rp in enumerate(proof.repetitions):
            label = b"spartan/rep%d" % rep
            va, vb, vc = int(rp.va), int(rp.vb), int(rp.vc)
            tau = tr.challenge_fields(label + b"/tau", log_n)
            with rec.span("multilinear.verify_sumcheck1"):
                res1 = verify_sumcheck_rounds(0, rp.sc1_round_evals, 3, tr,
                                              label + b"/sc1")
            if not res1.ok or len(res1.challenges) != log_n:
                return False
            rx = res1.challenges
            tr.absorb_fields(label + b"/sc1/final", [va, vb, vc])
            if not finish_constraint_sumcheck(
                    res1.final_claim, eq_eval(tau, rx), va, vb, vc):
                return False
            r_a = tr.challenge_field(label + b"/ra")
            r_b = tr.challenge_field(label + b"/rb")
            r_c = tr.challenge_field(label + b"/rc")
            claim2 = (r_a * va + r_b * vb + r_c * vc) % MODULUS
            with rec.span("multilinear.verify_sumcheck2"):
                res2 = verify_sumcheck_rounds(claim2, rp.sc2.round_evals, 2,
                                              tr, label + b"/sc2")
            if not res2.ok or len(res2.challenges) != log_n:
                return False
            ry = res2.challenges
            tr.absorb_fields(label + b"/sc2/final", rp.sc2.final_values)
            m_val, z_val = (int(v) for v in rp.sc2.final_values)
            if m_val * z_val % MODULUS != res2.final_claim:
                return False
            with rec.span("spartan.matrix_eval"):
                expected_m = combined_matrix_eval(
                    r1cs.a, r1cs.b, r1cs.c, r_a, r_b, r_c, rx, ry)
            if m_val % MODULUS != expected_m:
                return False
            w_point = ry[1:]
            w_eval = int(rp.w_eval)
            tr.absorb_field(label + b"/w-eval", w_eval)
            with rec.span("multilinear.mle_eval"):
                pub_eval = mle_eval(pub_half, w_point)
            ry0 = ry[0] % MODULUS
            if z_val % MODULUS != ((1 - ry0) * pub_eval
                                   + ry0 * w_eval) % MODULUS:
                return False
            with rec.span("pcs.verify"):
                ok = pcs.verify(proof.witness_commitment, w_point, w_eval,
                                rp.pcs_proof, tr.fork(label + b"/pcs"))
            if not ok:
                return False
    return True


def commit_geometry(pk) -> dict:
    """Shape of the witness commitment ``prove`` makes for ``pk``."""
    pcs = pk.preset.make_pcs()
    n = pk.r1cs.shape.half
    rows = pcs.params.rows_for(n)
    cols = n // rows
    total_rows = rows + (1 if pcs.params.zk_mask else 0)
    cw_len = pcs.code.codeword_length(cols)
    return {"table_len": n, "rows": rows, "cols": cols,
            "total_rows": total_rows, "cw_len": cw_len,
            "cells": total_rows * cw_len,
            "streamed": total_rows * cw_len >= pcs.streaming_cells}


def staged_commit(pk, table: np.ndarray, seed: int,
                  rec: SpanRecorder) -> MerkleTree:
    """``OrionPCS.commit(table)`` stage by stage, on either side of the
    streaming threshold; returns the Merkle tree over codeword columns
    (its root must equal the real commitment's for the same seed)."""
    rng = np.random.default_rng(seed)
    pcs = pk.preset.make_pcs(rng=rng)
    geo = commit_geometry(pk)
    with rec.span(COMMIT_ROOT):
        with rec.span("field.mask_row"):
            matrix = np.asarray(table, dtype=np.uint64).reshape(
                geo["rows"], geo["cols"])
            if pcs.params.zk_mask:
                mask = fv.rand_vector(geo["cols"], rng).reshape(1, -1)
                matrix = np.vstack([matrix, mask])
        if geo["streamed"]:
            total_rows = geo["total_rows"]
            chains = ColumnChainHasher(geo["cw_len"], total_rows)
            for lo in range(0, total_rows, STREAM_TILE_ROWS):
                hi = min(total_rows, lo + STREAM_TILE_ROWS)
                with rec.span("code.encode_rows"):
                    tile = pcs.code.encode_rows(matrix[lo:hi])
                with rec.span("hashing.chain_fold"):
                    chains.update(tile)
            with rec.span("hashing.chain_fold"):
                leaves = chains.finalize()
            with rec.span("hashing.merkle_build"):
                tree = MerkleTree(leaves)
        else:
            with rec.span("code.encode_rows"):
                codewords = pcs.code.encode_rows(matrix)
            with rec.span("hashing.merkle_build"):
                tree = MerkleTree.from_columns(codewords)
    return tree
