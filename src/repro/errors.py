"""Typed error hierarchy for the verification boundary.

The verifier sits across a trust boundary: proof bytes arrive from a
prover the verifier does not trust, over a transport that may corrupt
them.  The contract for every deserialization and verification path is

    **reject, never crash, never accept**:

malformed input is answered with ``False`` or one of the exceptions
below — never an ``IndexError``, a numpy broadcast error, or an
optimization-stripped ``assert``.

``DeserializationError`` and ``ConfigError`` also subclass ``ValueError``
so callers that predate the taxonomy (``except ValueError``) keep
working; new code should catch :class:`ReproError`.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ReproError",
    "DeserializationError",
    "VerificationError",
    "TranscriptError",
    "ConfigError",
    "ProverTimeoutError",
    "WorkerCrashError",
]


class ReproError(Exception):
    """Base class of every typed error raised at a trust boundary."""


class DeserializationError(ReproError, ValueError):
    """Malformed or malicious wire bytes.

    Carries the byte offset at which parsing failed (when known) so a
    transport-corruption report can point at the damage, and the span
    being read (its path, ``span``, and kind, ``span_kind``; see
    :func:`repro.snark.serialize.proof_layout`) when the reader failed.
    """

    def __init__(self, message: str, *, offset: Optional[int] = None,
                 span: Optional[str] = None,
                 span_kind: Optional[str] = None):
        self.offset = offset
        self.span = span
        self.span_kind = span_kind
        detail = []
        if offset is not None:
            detail.append(f"at byte offset {offset}")
        if span:
            detail.append(f"in {span}")
        if detail:
            message = f"{message} ({', '.join(detail)})"
        super().__init__(message)


class VerificationError(ReproError):
    """A proof whose *structure* is too broken to even evaluate.

    Ordinary invalid proofs are rejected by returning ``False``; this
    error marks inputs that could not have been produced by an honest
    prover at all (wrong container types, impossible shapes).
    """


class TranscriptError(ReproError, ValueError):
    """Invalid data fed to the Fiat-Shamir transcript.

    A backstop: verifier paths validate before absorbing, so reaching
    this from wire input indicates a missing check upstream.
    """


class ConfigError(ReproError, ValueError):
    """An impossible or inconsistent configuration (simulator design
    points and statement sizes, protocol parameter presets)."""


class ProverTimeoutError(ReproError, TimeoutError):
    """A proving deadline expired before the work completed.

    Raised by the cooperative deadline checks threaded through the
    prover (:mod:`repro.parallel.deadline`) and by the pool when a
    dispatch outlives the job budget.  Unlike worker crashes, a deadline
    expiry is *final*: the engine never degrades past it, because the
    caller asked for bounded latency, not a slower answer.  Carries the
    budget and the phase that tripped it.
    """

    def __init__(self, message: str, *, budget_s: Optional[float] = None,
                 phase: str = ""):
        self.budget_s = budget_s
        self.phase = phase
        detail = []
        if phase:
            detail.append(f"in {phase}")
        if budget_s is not None:
            detail.append(f"budget {budget_s:.3f}s")
        if detail:
            message = f"{message} ({', '.join(detail)})"
        super().__init__(message)


class WorkerCrashError(ReproError, RuntimeError):
    """A proof job could not be completed by worker processes.

    What :func:`repro.parallel.pool.prove_batch` returns for a job
    whose worker died or hung in both of its rounds.
    :func:`repro.snark.api.prove_many` answers it by re-proving the job
    in the calling process, which is bit-identical.
    """
