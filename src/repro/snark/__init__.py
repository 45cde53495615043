"""High-level zk-SNARK API (Spartan IOP + Orion PCS).

Lifecycle entry points: :func:`setup` -> (:class:`ProvingKey`,
:class:`VerifyingKey`), :func:`prove` -> :class:`ProofBundle`,
:func:`verify`; :func:`prove_many` batches independent jobs across
``workers=`` forked processes (:func:`~repro.parallel.pool.prove_batch`).
All of these are also re-exported at the top level (``from repro import
setup, prove, verify``).
"""

from .api import (
    ProofBundle,
    ProvingKey,
    VerifyingKey,
    prove,
    prove_many,
    setup,
    verify,
)
from .params import PAPER, PRESETS, TEST, SecurityPreset, preset_by_name
from .serialize import proof_from_bytes, proof_to_bytes

__all__ = [
    "ProofBundle",
    "ProvingKey",
    "VerifyingKey",
    "setup",
    "prove",
    "prove_many",
    "verify",
    "PAPER",
    "TEST",
    "PRESETS",
    "SecurityPreset",
    "preset_by_name",
    "proof_from_bytes",
    "proof_to_bytes",
]
