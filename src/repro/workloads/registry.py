"""Named demo-workload circuit registry.

The one table of demo statements: a circuit id (the label carried in
proof envelopes and service requests, and the lower-cased name of a
Table III row in :mod:`.spec`) maps to a builder producing the demo
circuit at CLI-scale parameters.  :func:`build_keys` is the one path
from an id and a preset to keys: the command line (``repro prove sha``)
and the proving service (``repro serve``) both take it, so a bundle
proved by one is verifiable by the other.

Builders are lazy (imported on first use) and the compiled artifacts are
cheap enough to rebuild; the daemon keeps the *keys* built from them
(:mod:`repro.service.cache`), not the circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from ..errors import ConfigError

#: Circuit-id -> zero-argument builder returning the demo circuit.
_BUILDERS: Dict[str, Callable] = {}

#: Paper-name spellings accepted anywhere a circuit id is (CLI, service).
ALIASES = {"sha256": "sha", "aes128": "aes"}


def _register(name: str):
    def deco(fn):
        _BUILDERS[name] = fn
        return fn
    return deco


@_register("aes")
def _aes():
    from .aes import aes_demo_circuit
    return aes_demo_circuit(num_blocks=1, num_rounds=2)[0]


@_register("sha")
def _sha():
    from .sha import sha_demo_circuit
    return sha_demo_circuit(num_blocks=1, num_rounds=8)[0]


@_register("rsa")
def _rsa():
    from .rsa import rsa_demo_circuit
    return rsa_demo_circuit(num_messages=1, modulus_bits=64, exponent=17)[0]


@_register("litmus")
def _litmus():
    from .litmus import litmus_demo_circuit
    return litmus_demo_circuit(num_transactions=6, num_rows=8)[0]


@_register("auction")
def _auction():
    from .auction import auction_demo_circuit
    return auction_demo_circuit(num_bids=12, bid_bits=16)[0]


def workload_choices() -> List[str]:
    """Every accepted circuit id, canonical names and aliases, sorted."""
    return sorted(list(_BUILDERS) + list(ALIASES))


def resolve_workload(name: str) -> str:
    """Canonical circuit id for ``name`` (aliases folded), or
    :class:`~repro.errors.ConfigError` for unknown ids."""
    resolved = ALIASES.get(name, name)
    if resolved not in _BUILDERS:
        raise ConfigError(
            f"unknown circuit id {name!r}; known workloads: "
            f"{', '.join(workload_choices())}")
    return resolved


def build_workload(name: str) -> Tuple[str, object]:
    """Build the demo circuit for ``name``; returns (canonical id, circuit)."""
    resolved = resolve_workload(name)
    return resolved, _BUILDERS[resolved]()


@dataclass(frozen=True)
class WorkloadKeys:
    """One registry statement under one preset: its keys plus the demo
    assignment.  The circuit itself is not kept."""

    circuit_id: str          # canonical (aliases folded)
    raw_constraints: int     # before power-of-two padding
    pk: Any                  # ProvingKey
    vk: Any                  # VerifyingKey
    public: np.ndarray       # the workload's canonical public inputs
    witness: np.ndarray      # the workload's canonical witness


def build_keys(name: str, preset_name: str) -> WorkloadKeys:
    """Build, compile and set up circuit ``name`` under ``preset_name``.

    An unknown circuit id or preset is a
    :class:`~repro.errors.ConfigError` (exit 3 on the command line, a 400
    from the daemon), raised before anything is compiled.
    """
    from ..snark import preset_by_name, setup

    preset = preset_by_name(preset_name)
    resolved, circuit = build_workload(name)
    r1cs, public, witness = circuit.compile()
    pk, vk = setup(r1cs, preset)
    return WorkloadKeys(circuit_id=resolved,
                        raw_constraints=circuit.num_constraints, pk=pk, vk=vk,
                        public=np.asarray(public, dtype=np.uint64),
                        witness=np.asarray(witness, dtype=np.uint64))
