"""Security-parameter presets for the Spartan+Orion SNARK.

``PAPER`` mirrors Sec. VII-A: 128-bit target soundness via 3 sumcheck
repetitions, a 128-row Orion matrix, Reed-Solomon blowup 4 with 189
column queries, and 4 proximity vectors.  ``TEST`` shrinks everything for
fast functional runs; it proves the same statements with reduced
soundness, which is exactly how the test-suite exercises the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..code.reed_solomon import ReedSolomonCode
from ..pcs.orion import OrionPCS, PCSParams
from ..spartan.protocol import SpartanParams


@dataclass(frozen=True)
class SecurityPreset:
    """A named bundle of protocol parameters."""

    name: str
    sumcheck_repetitions: int
    pcs_rows: int
    rs_blowup: int
    column_queries: int
    proximity_vectors: int

    def make_pcs(self, rng=None) -> OrionPCS:
        code = ReedSolomonCode(blowup=self.rs_blowup,
                               num_queries=self.column_queries)
        params = PCSParams(num_rows=self.pcs_rows,
                           num_proximity_vectors=self.proximity_vectors)
        return OrionPCS(code=code, params=params, rng=rng)

    def make_spartan_params(self) -> SpartanParams:
        return SpartanParams(repetitions=self.sumcheck_repetitions)


#: The paper's 128-bit configuration (Sec. VII-A).
PAPER = SecurityPreset(
    name="paper-128bit",
    sumcheck_repetitions=3,
    pcs_rows=128,
    rs_blowup=4,
    column_queries=189,
    proximity_vectors=4,
)

#: Reduced-soundness preset for fast functional tests and examples.
TEST = SecurityPreset(
    name="test-fast",
    sumcheck_repetitions=1,
    pcs_rows=16,
    rs_blowup=4,
    column_queries=24,
    proximity_vectors=2,
)

#: Registry of named presets — the ids a proof envelope may carry.
PRESETS = {p.name: p for p in (PAPER, TEST)}


def preset_by_name(name: str) -> SecurityPreset:
    """Resolve a preset id (as carried in a proof envelope) to its preset.

    Raises :class:`~repro.errors.ConfigError` for unknown names, so a CLI
    caller gets the config exit code rather than a KeyError.
    """
    try:
        return PRESETS[name]
    except KeyError:
        from ..errors import ConfigError

        raise ConfigError(
            f"unknown security preset {name!r}; "
            f"known presets: {', '.join(sorted(PRESETS))}") from None
