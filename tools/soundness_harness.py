#!/usr/bin/env python
"""Soundness fault-injection harness.

Generates valid proofs for several small circuits, then attacks them with
every structured mutator class in :mod:`repro.fuzz.mutate` plus N seeded
random byte mutations, and asserts the trichotomy on every mutant:

* rejected at parse time with a typed :class:`repro.errors.ReproError`, or
* rejected by the verifier (``verify -> False``), or
* NOTHING ELSE: no other exception may escape, and no mutant may verify.

Two passes: the toy circuits under the TEST preset (one repetition), and
registry ``litmus`` and ``sha`` under PAPER (three repetitions), whose
repetitions open shared columns of one commitment — ``litmus`` opens all
16 columns in each, ``sha`` ~250 distinct of 567 — so the column mutators
there edit a column of the proof's shared column table.

A machine-readable report is written to ``--out`` (default
``BENCH_soundness.json``, the committed 150-mutant run).  Exit status is
nonzero if any mutant was accepted or crashed untyped — CI runs this with
small parameters on every push, writing ``soundness_ci.json``.

Usage::

    PYTHONPATH=src python tools/soundness_harness.py \
        [--seed 0] [--random-mutants 150] [--out BENCH_soundness.json]
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.errors import ReproError
from repro.fuzz.mutate import (
    Mutant,
    random_mutants,
    splice_mutants,
    structured_mutants,
)
from repro.r1cs import Circuit
from repro.snark import (
    PAPER,
    TEST,
    ProofBundle,
    proof_from_bytes,
    proof_to_bytes,
    prove,
    setup,
    verify,
)
from repro.snark.serialize import column_table
from repro.workloads.registry import build_workload


# ---------------------------------------------------------------------------
# Target circuits: three distinct statements, all tiny (TEST preset)
# ---------------------------------------------------------------------------

def circuit_cubic() -> Circuit:
    """x^3 + x + 5 == 35 (the classic toy statement)."""
    c = Circuit()
    o = c.public(35)
    x = c.witness(3)
    c.assert_equal(c.mul(c.mul(x, x), x) + x + 5, o)
    return c


def circuit_linear() -> Circuit:
    """Multi-public linear system: 2a + 3b == out1, a - b == out2."""
    c = Circuit()
    o1 = c.public(26)
    o2 = c.public(3)
    a = c.witness(7)
    b = c.witness(4)
    c.assert_equal(a + a + b + b + b, o1)
    c.assert_equal(a - b, o2)
    return c


def circuit_mulchain() -> Circuit:
    """A chain of multiplications: prod(2..6) == 720."""
    c = Circuit()
    o = c.public(720)
    acc = c.witness(2)
    for v in (3, 4, 5, 6):
        acc = c.mul(acc, c.witness(v))
    c.assert_equal(acc, o)
    return c


CIRCUITS = {
    "cubic": circuit_cubic,
    "linear": circuit_linear,
    "mulchain": circuit_mulchain,
}

#: Registry circuits of the PAPER pass (three repetitions).
PAPER_CIRCUITS = ("litmus", "sha")


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def classify(vk, public, mutant: Mutant, tally: dict,
             failures: list) -> None:
    """Run one mutant through parse + verify, enforcing the trichotomy."""
    bucket = tally.setdefault(mutant.mutator, {
        "parse_rejected": 0, "verify_rejected": 0,
        "accepted": 0, "crashed": 0})
    try:
        proof = proof_from_bytes(mutant.data)
    except ReproError:
        bucket["parse_rejected"] += 1
        return
    except Exception as exc:  # noqa: BLE001 -- the harness's whole point
        bucket["crashed"] += 1
        failures.append({"mutator": mutant.mutator, "stage": "parse",
                         "exception": type(exc).__name__, "message": str(exc)})
        return
    try:
        ok = verify(vk, ProofBundle(proof=proof, public=public))
    except Exception as exc:  # noqa: BLE001
        bucket["crashed"] += 1
        failures.append({"mutator": mutant.mutator, "stage": "verify",
                         "exception": type(exc).__name__, "message": str(exc)})
        return
    if ok:
        bucket["accepted"] += 1
        failures.append({"mutator": mutant.mutator, "stage": "verify",
                         "exception": None,
                         "message": "mutant proof ACCEPTED"})
    else:
        bucket["verify_rejected"] += 1


def garbage_corpus(rng: random.Random) -> list:
    """Edge-case inputs no honest serializer would ever emit."""
    out = [
        Mutant("garbage", b""),
        Mutant("garbage", b"NCAP"),
        Mutant("garbage", b"NCAP\x02"),
        Mutant("garbage", b"\x00" * 57),
        Mutant("garbage", bytes(range(256))),
    ]
    for n in (1, 13, 64, 257, 4096):
        out.append(Mutant("garbage", rng.randbytes(n)))
    return out


def baselines(compiled: dict, preset, seed: int):
    """``{name: (vk, public, proof bytes)}`` of one honest proof per
    compiled circuit, or None (after a FATAL line) when one does not
    verify."""
    targets = {}
    for idx, (name, (r1cs, public, witness)) in enumerate(compiled.items()):
        # Seed the zk-mask generator from --seed too: the recorded seed
        # then reproduces the *entire* run — baseline proof bytes
        # included — not just the mutation choices.
        pk, vk = setup(r1cs, preset)
        bundle = prove(pk, public, witness,
                       seed=np.random.SeedSequence([seed, idx]))
        data = proof_to_bytes(bundle.proof)
        # Baseline sanity: the honest proof must verify, including after a
        # serialization round trip, or mutant rejections mean nothing.
        if not verify(vk, bundle):
            print(f"FATAL: honest proof for {name!r} failed verification")
            return None
        if not verify(vk, ProofBundle(proof=proof_from_bytes(data),
                                      public=bundle.public)):
            print(f"FATAL: round-tripped proof for {name!r} failed")
            return None
        targets[name] = (vk, bundle.public, data)
        print(f"  {name}: {len(data)} bytes")
    return targets


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0,
                    help="PRNG seed for mutation choices (default 0)")
    ap.add_argument("--random-mutants", type=int, default=150,
                    help="random byte mutations per circuit (default 150)")
    ap.add_argument("--out", default="BENCH_soundness.json",
                    help="report path (default BENCH_soundness.json)")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    t0 = time.perf_counter()

    print(f"building {len(CIRCUITS)} circuits and baseline proofs ...")
    compiled = {name: build().compile() for name, build in CIRCUITS.items()}
    targets = baselines(compiled, TEST, args.seed)
    if targets is None:
        return 2

    tally: dict = {}
    failures: list = []
    total = 0

    for name, (vk, public, data) in targets.items():
        mutants = structured_mutants(data, rng)
        mutants += random_mutants(data, rng, args.random_mutants)
        mutants += garbage_corpus(rng)
        for m in mutants:
            classify(vk, public, m, tally, failures)
        total += len(mutants)
        print(f"  {name}: {len(mutants)} mutants")

    # PAPER pass: three repetitions share one column table.
    print(f"PAPER pass: {', '.join(PAPER_CIRCUITS)} (3 repetitions) ...")
    compiled = {name: build_workload(name)[1].compile()
                for name in PAPER_CIRCUITS}
    paper_targets = baselines(compiled, PAPER, args.seed)
    if paper_targets is None:
        return 2
    paper_tally: dict = {}
    paper_total = 0
    for name, (vk, public, data) in paper_targets.items():
        mutants = structured_mutants(data, rng)
        mutants += random_mutants(data, rng, args.random_mutants)
        for m in mutants:
            classify(vk, public, m, paper_tally, failures)
        paper_total += len(mutants)
        print(f"  {name}: {len(mutants)} mutants")
    (vka, pa, da), (_, _, db) = paper_targets.values()
    for m in splice_mutants(da, db, rng):
        classify(vka, pa, m, paper_tally, failures)
        paper_total += 1
    for mutator, counts in paper_tally.items():
        bucket = tally.setdefault(mutator, dict.fromkeys(counts, 0))
        for k, v in counts.items():
            bucket[k] += v
    total += paper_total

    # Cross-proof splices between every ordered pair of circuits.
    names = list(targets)
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            vka, pa, da = targets[na]
            _, _, db = targets[nb]
            for m in splice_mutants(da, db, rng):
                classify(vka, pa, m, tally, failures)
                total += 1

    # Cross-circuit verification: an honest proof of statement A must not
    # verify against statement B (transcript domain separation).
    cross = tally.setdefault("cross_verify", {
        "parse_rejected": 0, "verify_rejected": 0,
        "accepted": 0, "crashed": 0})
    for na in names:
        for nb in names:
            if na == nb:
                continue
            vkb, pb, _ = targets[nb]
            _, _, da = targets[na]
            classify(vkb, pb, Mutant("cross_verify", da), tally, failures)
            total += 1
    del cross  # populated via classify

    # Type confusion at the API boundary: never a crash.
    api = tally.setdefault("api_type_confusion", {
        "parse_rejected": 0, "verify_rejected": 0,
        "accepted": 0, "crashed": 0})
    vk0, public0, _ = targets["cubic"]
    for bogus in (None, 42, b"bytes", "proof", [1, 2], object()):
        try:
            if verify(vk0, bogus):
                api["accepted"] += 1
                failures.append({"mutator": "api_type_confusion",
                                 "stage": "verify", "exception": None,
                                 "message": f"verify({bogus!r}) returned True"})
            else:
                api["verify_rejected"] += 1
        except Exception as exc:  # noqa: BLE001
            api["crashed"] += 1
            failures.append({"mutator": "api_type_confusion",
                             "stage": "verify",
                             "exception": type(exc).__name__,
                             "message": str(exc)})
        total += 1

    elapsed = time.perf_counter() - t0
    accepted = sum(b["accepted"] for b in tally.values())
    crashed = sum(b["crashed"] for b in tally.values())
    report = {
        "seed": args.seed,
        "circuits": names,
        "total_mutants": total,
        "paper_pass": {
            "preset": PAPER.name,
            "circuits": list(paper_targets),
            # Columns the repetitions open, and how many are distinct
            # (the rows of the payload's column table).
            "opened_columns": {
                name: {"opened": sum(len(rp.pcs_proof.columns)
                                     for rp in proof.repetitions),
                       "distinct": len(column_table(proof)[0])}
                for name, proof in ((name, proof_from_bytes(data))
                                    for name, (_, _, data)
                                    in paper_targets.items())},
            "total_mutants": paper_total,
            "per_mutator": paper_tally,
        },
        "elapsed_seconds": round(elapsed, 3),
        "accepted": accepted,
        "crashed": crashed,
        "per_mutator": tally,
        "failures": failures,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    print(f"\n{total} mutants in {elapsed:.1f}s "
          f"(report: {args.out})")
    width = max(len(k) for k in tally)
    for mutator, b in sorted(tally.items()):
        print(f"  {mutator:<{width}}  parse-rej {b['parse_rejected']:>4}  "
              f"verify-rej {b['verify_rejected']:>4}  "
              f"accepted {b['accepted']}  crashed {b['crashed']}")
    if accepted or crashed:
        print(f"\nFAIL: {accepted} mutants accepted, {crashed} untyped "
              "crashes — soundness boundary violated")
        return 1
    print("\nOK: every mutant rejected via False or a typed ReproError")
    return 0


if __name__ == "__main__":
    sys.exit(main())
