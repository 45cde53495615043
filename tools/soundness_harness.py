#!/usr/bin/env python
"""Soundness fault-injection harness.

Generates valid proofs for several small circuits, then attacks them with
every structured mutator class in :mod:`repro.fuzz.mutate` plus N seeded
random byte mutations, and asserts the trichotomy on every mutant:

* rejected at parse time with a typed :class:`repro.errors.ReproError`, or
* rejected by the verifier (``verify -> False``), or
* NOTHING ELSE: no other exception may escape, and no mutant may verify.

Every mutant is an envelope (the preset id names the query count that
decides the payload's mode).  Two passes: the toy circuits and registry
``litmus`` under the TEST preset (one repetition), and registry
``litmus`` and ``sha`` and ``synthetic_r1cs(16)`` under PAPER (three
repetitions).  The toy circuits and the two PAPER registry circuits have
messages no wider than their preset's query count, so each opening is
the message and the payload ends in the rows block; TEST ``litmus`` (32
columns, 24 queries) and PAPER 2^16 (256 columns, 189 queries) are in
columns mode: each repetition carries its PCS part, and the payload ends
in the column table 2^16's three repetitions share.  The span edits run
on every span kind of each layout, in each repetition, so both modes get
them.  Parse rejections are also tallied by the kind of the span the
reader was reading (``per_span_kind``).

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
from collections import Counter
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
from repro.snark import PAPER, TEST, ProofBundle, prove, setup, verify
from repro.pcs.orion import opened_columns, rows_mode
from repro.workloads import synthetic_r1cs
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
    "litmus": lambda: build_workload("litmus")[1],
}

#: Statements of the PAPER pass (three repetitions): two registry
#: circuits in rows mode, and 2^16 in columns mode.
PAPER_CIRCUITS = {
    "litmus": lambda: build_workload("litmus")[1].compile(),
    "sha": lambda: build_workload("sha")[1].compile(),
    "synthetic-2p16": lambda: synthetic_r1cs(16),
}


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def classify(vk, mutant: Mutant, tally: dict, failures: list,
             span_kinds: Counter) -> None:
    """Run one mutant envelope through parse + verify, enforcing the
    trichotomy; a parse rejection also counts under the kind of the span
    the reader was reading (``none`` past the last span)."""
    bucket = tally.setdefault(mutant.mutator, {
        "parse_rejected": 0, "verify_rejected": 0,
        "accepted": 0, "crashed": 0})
    try:
        bundle = ProofBundle.from_bytes(mutant.data)
    except ReproError as exc:
        bucket["parse_rejected"] += 1
        span_kinds[getattr(exc, "span_kind", None) or "none"] += 1
        return
    except Exception as exc:  # noqa: BLE001 -- the harness's whole point
        bucket["crashed"] += 1
        failures.append({"mutator": mutant.mutator, "stage": "parse",
                         "exception": type(exc).__name__, "message": str(exc)})
        return
    try:
        ok = verify(vk, bundle)
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
    """``{name: (vk, envelope bytes)}`` of one honest proof per compiled
    circuit, or None (after a FATAL line) when one does not verify."""
    targets = {}
    for idx, (name, (r1cs, public, witness)) in enumerate(compiled.items()):
        # Seed the zk-mask generator from --seed too: the recorded seed
        # then reproduces the *entire* run — baseline proof bytes
        # included — not just the mutation choices.
        pk, vk = setup(r1cs, preset)
        bundle = prove(pk, public, witness,
                       seed=np.random.SeedSequence([seed, idx]))
        data = bundle.to_bytes()
        # Baseline sanity: the honest proof must verify, including after a
        # serialization round trip, or mutant rejections mean nothing.
        if not verify(vk, bundle):
            print(f"FATAL: honest proof for {name!r} failed verification")
            return None
        if not verify(vk, ProofBundle.from_bytes(data)):
            print(f"FATAL: round-tripped proof for {name!r} failed")
            return None
        targets[name] = (vk, data)
        print(f"  {name}: {len(data)} bytes")
    return targets


def _opened(bundle) -> dict:
    """What a PAPER payload ships: the message (rows block), or the
    columns its repetitions open, once each (column table)."""
    c = bundle.proof.witness_commitment
    if rows_mode(c.num_cols, PAPER.column_queries):
        return {"opened": 0, "distinct": 0, "ships": "rows block"}
    reps = [rp.pcs_proof for rp in bundle.proof.repetitions]
    return {"opened": sum(len(p.merkle.indices) for p in reps),
            "distinct": len(opened_columns(reps, c.num_rows)[0]),
            "ships": "column table"}


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
    span_kinds: Counter = Counter()
    total = 0

    for name, (vk, data) in targets.items():
        mutants = structured_mutants(data, rng)
        mutants += random_mutants(data, rng, args.random_mutants)
        mutants += garbage_corpus(rng)
        for m in mutants:
            classify(vk, m, tally, failures, span_kinds)
        total += len(mutants)
        print(f"  {name}: {len(mutants)} mutants")

    # PAPER pass: three repetitions share one message or column table.
    print(f"PAPER pass: {', '.join(PAPER_CIRCUITS)} (3 repetitions) ...")
    compiled = {name: build() for name, build in PAPER_CIRCUITS.items()}
    paper_targets = baselines(compiled, PAPER, args.seed)
    if paper_targets is None:
        return 2
    paper_tally: dict = {}
    paper_total = 0
    for name, (vk, data) in paper_targets.items():
        mutants = structured_mutants(data, rng)
        mutants += random_mutants(data, rng, args.random_mutants)
        for m in mutants:
            classify(vk, m, paper_tally, failures, span_kinds)
        paper_total += len(mutants)
        print(f"  {name}: {len(mutants)} mutants")
    # Splices: rows mode into rows mode, and columns mode into rows mode.
    paper = list(paper_targets.values())
    for (vka, da), (_, db) in zip(paper, paper[1:]):
        for m in splice_mutants(da, db):
            classify(vka, m, paper_tally, failures, span_kinds)
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
            vka, da = targets[na]
            _, db = targets[nb]
            for m in splice_mutants(da, db):
                classify(vka, m, tally, failures, span_kinds)
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
            vkb, _ = targets[nb]
            _, da = targets[na]
            classify(vkb, Mutant("cross_verify", da), tally, failures,
                     span_kinds)
            total += 1
    del cross  # populated via classify

    # Type confusion at the API boundary: never a crash.
    api = tally.setdefault("api_type_confusion", {
        "parse_rejected": 0, "verify_rejected": 0,
        "accepted": 0, "crashed": 0})
    vk0, _ = targets["cubic"]
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
            # Columns the repetitions open, how many are distinct, and
            # what the payload ships: those columns once (the column
            # table) or the message they fix (the rows block).
            "opened_columns": {
                name: _opened(ProofBundle.from_bytes(data))
                for name, (_, data) in paper_targets.items()},
            "total_mutants": paper_total,
            "per_mutator": paper_tally,
        },
        "elapsed_seconds": round(elapsed, 3),
        "accepted": accepted,
        "crashed": crashed,
        "per_mutator": tally,
        # Parse rejections by the kind of span the reader was reading.
        "per_span_kind": dict(sorted(span_kinds.items())),
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
