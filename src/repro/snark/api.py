"""High-level zk-SNARK API: explicit keygen / prove / verify lifecycle.

    from repro.r1cs import Circuit
    from repro.snark import setup, prove, verify, TEST

    circuit = Circuit()
    ...build constraints, allocating public inputs and witnesses...
    r1cs, public, witness = circuit.compile()
    pk, vk = setup(r1cs, preset=TEST)
    bundle = prove(pk, public, witness)
    if not verify(vk, bundle):
        ...  # reject

The three stages are separate objects so a verifier never constructs a
prover: :class:`ProvingKey` is what a proving service holds,
:class:`VerifyingKey` is what a relying party holds, and
:class:`ProofBundle` is the self-contained artifact that travels between
them — it serializes to a versioned envelope
(:meth:`ProofBundle.to_bytes` / :meth:`ProofBundle.from_bytes`, format in
:mod:`repro.snark.envelope`) carrying the preset id, the public inputs,
and the proof payload over the paper's 10 MB/s link.

Throughput comes from :mod:`repro.parallel`: :func:`prove_many` runs
independent proof jobs on ``workers=N`` worker processes.  A single
:func:`prove` is one job and runs on the caller.  Proof bytes are
bit-identical at any worker count.

A long-running process serves this API over a socket via
:mod:`repro.service` (``repro serve``), which keeps keys resident across
requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import ProverTimeoutError, ReproError
from ..hashing.transcript import Transcript
from ..obs import JobReport
from ..obs import span as _span
from ..obs.events import FLIGHT as _FLIGHT
from ..parallel.pool import prove_batch, usable_cpus
from ..parallel.deadline import deadline_scope
from ..r1cs.system import R1CS
from ..spartan.protocol import SpartanProof, SpartanProver, SpartanVerifier
from .envelope import (bundle_from_bytes, bundle_to_bytes, bundle_wire_size,
                       envelope_labels)
from .params import TEST, SecurityPreset


@dataclass
class ProofBundle:
    """A proof plus the statement metadata it attests to.

    ``preset_name``/``circuit_id`` make the bundle self-describing on the
    wire (see :mod:`repro.snark.envelope`); bundles built by hand for the
    legacy API may leave them empty, in which case :meth:`to_bytes` and
    :meth:`size_bytes` raise ``ValueError`` and preset binding is skipped
    at verification.

    ``report`` is local-only telemetry: the flight-recorder
    :class:`~repro.obs.events.JobReport` of the :func:`prove` or
    :func:`prove_many` call that produced this bundle (``None`` on a
    bundle parsed from bytes).  It never serializes into the envelope.
    """

    proof: SpartanProof
    public: np.ndarray
    preset_name: str = ""
    circuit_id: str = ""
    report: Optional[JobReport] = None

    def size_bytes(self) -> int:
        """Length of the envelope :meth:`to_bytes` writes, counted from
        the objects (no serialization)."""
        return bundle_wire_size(self)

    def to_bytes(self) -> bytes:
        """Serialize to the versioned self-describing envelope format."""
        return bundle_to_bytes(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ProofBundle":
        """Strictly parse an envelope; raises
        :class:`~repro.errors.DeserializationError` on malformed input."""
        return bundle_from_bytes(data)


@dataclass(frozen=True)
class ProvingKey:
    """Everything a prover needs for one R1CS instance: the constraint
    system plus the protocol parameters.  Hold one per circuit; forked
    :func:`prove_many` workers inherit it, and it is picklable for
    platforms that must spawn them."""

    r1cs: R1CS
    preset: SecurityPreset

    def prover(self, rng: Optional[np.random.Generator] = None
               ) -> SpartanProver:
        """Instantiate the underlying protocol prover (``rng`` feeds the
        zk-mask)."""
        return SpartanProver(self.r1cs, self.preset.make_pcs(rng=rng),
                             self.preset.make_spartan_params())


@dataclass(frozen=True)
class VerifyingKey:
    """Everything a relying party needs: the public constraint system and
    the protocol parameters.  Constructing one never builds a prover."""

    r1cs: R1CS
    preset: SecurityPreset

    def verifier(self) -> SpartanVerifier:
        return SpartanVerifier(self.r1cs, self.preset.make_pcs(),
                               self.preset.make_spartan_params())


def setup(r1cs: R1CS, preset: SecurityPreset = TEST
          ) -> Tuple[ProvingKey, VerifyingKey]:
    """Key generation: bind an R1CS instance to a security preset.

    This scheme is transparent (hash-based, no trusted setup), so "keys"
    carry no secrets — the split exists so the prover and verifier roles
    hold exactly the state they need and nothing more.
    """
    if not isinstance(r1cs, R1CS):
        raise TypeError(f"setup expects an R1CS, got {type(r1cs).__name__} "
                        "(compile circuits first: r1cs, pub, wit = "
                        "circuit.compile())")
    return ProvingKey(r1cs, preset), VerifyingKey(r1cs, preset)


def prove(pk: ProvingKey, public: np.ndarray, witness: np.ndarray, *,
          seed: Union[int, np.random.SeedSequence, None] = None,
          workers: Optional[int] = None,
          circuit_id: str = "",
          timeout_s: Optional[float] = None) -> ProofBundle:
    """Generate a proof that ``witness`` satisfies ``pk.r1cs`` on ``public``.

    Randomness: the zk-mask draws from ``np.random.default_rng(seed)``,
    so ``seed`` is an int or a :class:`numpy.random.SeedSequence` (fresh
    OS entropy when omitted).  Fixing the seed makes proof bytes fully
    deterministic.

    Parallelism: none — a single proof is one job and runs on the
    caller; batches fan out through :func:`prove_many`.  ``workers`` is
    accepted and **ignored**: a vestige kept only because the repo
    benchmark (``bench/layers.py::probe_kernel_fanout``) still calls
    ``prove(..., workers=2)`` as a counted operation; it goes when that
    probe does.

    ``timeout_s`` bounds the call with a cooperative deadline
    (:mod:`repro.parallel.deadline`): once the budget is spent, the next
    phase boundary or dispatch wait raises
    :class:`~repro.errors.ProverTimeoutError`.  Deadlines nest — inside
    an enclosing scope the effective budget is the tighter of the two.

    A ``circuit_id`` the envelope cannot carry raises ``to_bytes``'s
    ``ValueError`` before anything is proved or booked.

    Telemetry: every other call books one
    :class:`~repro.obs.events.JobReport` in the flight recorder, failed
    or not, and a returned bundle carries it as
    :attr:`ProofBundle.report` — its ``duration_s`` is the job's latency;
    under a tracer the ``snark.prove`` span tree holds the per-family
    breakdown.
    """
    envelope_labels(pk.preset.name, circuit_id)
    rng = np.random.default_rng(seed)
    # The job window encloses the deadline scope, so a spent budget's
    # ``timeout`` incident is counted in the report.
    with _FLIGHT.job("prove", pk.preset.name, circuit_id) as report:
        with deadline_scope(timeout_s, label="prove"):
            prover = pk.prover(rng=rng)
            with _span("snark.prove", "other",
                       constraints=pk.r1cs.shape.num_constraints,
                       repetitions=pk.preset.sumcheck_repetitions):
                proof = prover.prove(public, witness, Transcript())
        bundle = ProofBundle(proof=proof,
                             public=np.asarray(public, dtype=np.uint64),
                             preset_name=pk.preset.name,
                             circuit_id=circuit_id, report=report)
        report.proof_size_bytes = bundle.size_bytes()
    return bundle


def prove_many(pk: ProvingKey, jobs: Sequence[Tuple[np.ndarray, np.ndarray]],
               *, workers: Optional[int] = None,
               base_seed: Optional[int] = None,
               circuit_id: str = "",
               timeout_s: Optional[float] = None):
    """Prove a batch of independent ``(public, witness)`` jobs.

    Jobs share nothing, so each runs end to end on one worker process;
    results return in job order.  Each job's zk-mask generator is seeded
    from a ``SeedSequence(base_seed).spawn`` child derived on the calling
    process, so the bundle bytes for a fixed ``base_seed`` are identical
    at any worker count.  Every bundle — proved on a worker or here — is
    re-parsed from its envelope bytes, so every batched proof also
    round-trips the wire format.

    Fan-out: ``workers`` is the one knob.  ``workers=N`` with N >= 2
    forks N workers (at most one per job) on any host; the default,
    ``None``, means every usable CPU
    (:func:`~repro.parallel.usable_cpus`), so it stays in this process
    on a host with fewer than 2 — CPU-bound jobs would only time-slice
    the one core.  The workers are forked for this one batch
    (:func:`~repro.parallel.pool.prove_batch`): they inherit ``pk`` and
    the jobs' inputs, send envelope bytes back and are gone when the
    call returns; with one worker or one job the same loop proves every
    job in this process.  Because a batch forks, call this from a
    thread that holds no locks other threads need.

    Fault handling: a job whose worker died or hung gets one more round
    on fresh workers; a job that still has no proof — or that raised on
    its worker — is re-proved *in this process*, and the bytes are
    bit-identical because the job's seed is unchanged.  ``timeout_s``
    is a per-job cooperative budget
    (:class:`~repro.errors.ProverTimeoutError`; never retried).  A bad
    ``circuit_id`` raises before any job is proved, as in :func:`prove`.
    The batch is all-or-nothing: the first job still without a proof
    after every recovery path raises its typed error, and no later job
    is proved.

    Telemetry: the batch books one :class:`~repro.obs.events.JobReport`
    (``op="prove_many"``) whose ``events`` are the supervision incidents
    *of this batch only* — deltas of the recorder's sequence numbers, not
    absolute counter values, so back-to-back batches in one process
    never inherit each other's degradation or restart counts.  Every
    returned bundle carries that batch report.  Each job's own ``prove``
    record is booked by the process that ran it (a forked worker
    inherits the spool); a failed job is not booked a second time here.
    """
    envelope_labels(pk.preset.name, circuit_id)
    jobs = list(jobs)
    if not jobs:
        return []
    seeds = np.random.SeedSequence(base_seed).spawn(len(jobs))
    pubs = [np.asarray(pub, dtype=np.uint64) for pub, _ in jobs]
    wits = [np.asarray(wit, dtype=np.uint64) for _, wit in jobs]
    if workers is None:
        workers = usable_cpus()

    bundles = []
    with _FLIGHT.job("prove_many", pk.preset.name, circuit_id,
                     jobs=len(jobs)) as report, \
            _span("snark.prove_many", "other", jobs=len(jobs)):
        envelopes = None
        if workers > 1 and len(jobs) > 1:
            envelopes = prove_batch(pk, pubs, wits, seeds, workers,
                                    circuit_id, timeout_s)
            report.workers, report.dispatch = workers, "pool"
        for j, seed in enumerate(seeds):
            blob = None if envelopes is None else envelopes[j]
            if isinstance(blob, ProverTimeoutError):
                raise blob  # a spent budget is final: no retry
            if not isinstance(blob, bytes):
                if blob is not None:
                    # The worker failed; the rerun here is bit-identical.
                    _FLIGHT.record("degradation", kernel="prove_job",
                                   error=type(blob).__name__)
                blob = prove(pk, pubs[j], wits[j], seed=seed,
                             circuit_id=circuit_id,
                             timeout_s=timeout_s).to_bytes()
            bundle = ProofBundle.from_bytes(blob)
            bundle.report = report
            report.proof_size_bytes += len(blob)
            bundles.append(bundle)
    return bundles


def verify(vk: VerifyingKey, bundle: ProofBundle) -> bool:
    """Check a proof bundle against its public inputs.

    Total over untrusted input: any malformed bundle — wrong types,
    broken structure, a preset id that does not match the key, a typed
    :class:`~repro.errors.ReproError` from a lower layer — is a
    rejection (``False``), never a crash.

    Whatever the verdict, a bundle that reaches the verifier leaves one
    ``op="verify"`` :class:`~repro.obs.events.JobReport` in the flight
    recorder: ``ok`` is the verdict and ``error`` names the typed
    rejection, if any (``"PresetMismatch"`` for a bundle proved under
    another preset than the key's).
    """
    if not isinstance(vk, VerifyingKey) or not isinstance(bundle, ProofBundle):
        return False
    with _FLIGHT.job("verify", vk.preset.name, bundle.circuit_id) as report:
        report.ok = False
        if bundle.preset_name and bundle.preset_name != vk.preset.name:
            # proved under different parameters than this key
            report.error = "PresetMismatch"
            return False
        try:
            public = np.asarray(bundle.public, dtype=np.uint64)
        except (TypeError, ValueError, OverflowError) as exc:
            report.error = type(exc).__name__  # not field elements
            return False
        try:
            with _span("snark.verify", "other"):
                report.ok = vk.verifier().verify(public, bundle.proof,
                                                 Transcript())
        except ReproError as exc:
            # Typed rejection from a lower layer: the proof is invalid.
            report.error = type(exc).__name__
    return report.ok
