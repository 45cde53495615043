"""repro: a reproduction of "Accelerating Zero-Knowledge Proofs Through
Hardware-Algorithm Co-Design" (NoCap, MICRO 2024).

Two layers:

* A **functional** hash-based zk-SNARK — the Spartan IOP composed with an
  Orion-style polynomial commitment over the Goldilocks-64 field — that
  really proves and verifies R1CS statements (:mod:`repro.snark`,
  :mod:`repro.spartan`, :mod:`repro.pcs`, plus the field / NTT / hashing /
  code / R1CS substrates).
* A **performance-model** layer reproducing the paper's evaluation: the
  NoCap accelerator simulator (:mod:`repro.nocap`), CPU / Groth16 /
  PipeZK baselines (:mod:`repro.baselines`), the five benchmark workloads
  (:mod:`repro.workloads`), and the table/figure analyses
  (:mod:`repro.analysis`).

Quickstart (the canonical lifecycle surface, re-exported here)::

    from repro import setup, prove, verify
    from repro.r1cs import Circuit

    circuit = Circuit()
    out = circuit.public(35)
    x = circuit.witness(3)
    circuit.assert_equal(circuit.mul(circuit.mul(x, x), x) + x + 5, out)
    r1cs, public, witness = circuit.compile()
    pk, vk = setup(r1cs)
    bundle = prove(pk, public, witness)
    if not verify(vk, bundle):
        ...  # reject

Batches go through :func:`prove_many`; a long-running deployment runs
``repro serve`` and talks to it with :class:`ServiceClient`
(see ``docs/SERVICE.md``).
"""

__version__ = "1.0.0"

from . import errors  # noqa: F401
from . import (  # noqa: F401
    analysis,
    baselines,
    code,
    field,
    hashing,
    multilinear,
    nocap,
    ntt,
    obs,
    pcs,
    r1cs,
    snark,
    spartan,
    workloads,
)
from .errors import (  # noqa: F401
    ConfigError,
    DeserializationError,
    ReproError,
    TranscriptError,
    VerificationError,
)

# Canonical API surface: the lifecycle verbs, their key/bundle types,
# and the service client, importable straight off the package.
from .snark import (  # noqa: F401
    PAPER,
    TEST,
    JobResult,
    ProofBundle,
    ProvingKey,
    VerifyingKey,
    prove,
    prove_many,
    setup,
    verify,
)
from .service import ServiceClient  # noqa: F401

__all__ = [
    "analysis", "baselines", "code", "errors", "field", "hashing",
    "multilinear", "nocap", "ntt", "obs", "pcs", "r1cs", "snark", "spartan",
    "workloads", "__version__",
    "ReproError", "DeserializationError", "VerificationError",
    "TranscriptError", "ConfigError",
    "setup", "prove", "prove_many", "verify",
    "ProvingKey", "VerifyingKey", "ProofBundle", "JobResult",
    "TEST", "PAPER", "ServiceClient",
]
