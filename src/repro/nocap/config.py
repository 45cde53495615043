"""NoCap hardware configuration (Sec. IV, Table II).

The default values are the paper's chosen design point: a 1 GHz vector
processor with heterogeneous-width functional units (2,048-lane modular
multiply/add, 128-lane hash and shuffle, 64-lane NTT), an 8 MB banked
register file, and 1 TB/s of HBM.  Sensitivity and design-space studies
(Figs. 7 and 8) sweep these fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import ConfigError
from ..ntt.fourstep import HW_BASE_SIZE


@dataclass(frozen=True)
class NoCapConfig:
    """One NoCap design point.

    Impossible design points (zero lanes, negative bandwidth, a
    non-power-of-two NTT base kernel) fail fast at construction with a
    :class:`~repro.errors.ConfigError` naming the offending field, so a
    misconfigured sweep dies with an actionable message instead of
    producing nonsense simulation results downstream.
    """

    frequency_hz: float = 1e9          # Sec. VI: 1 GHz in 14nm
    mul_lanes: int = 2048              # modular multiply FU
    add_lanes: int = 2048              # modular add FU
    hash_lanes: int = 128              # SHA3 FU: 1 KB/cycle = 128 elem/cycle
    shuffle_lanes: int = 128           # Shuffle FU: one 128-wide Benes network
    ntt_lanes: int = 64                # NTT FU throughput (elements/cycle)
    ntt_base_size: int = HW_BASE_SIZE  # max single-pass NTT (two 64-pt pipes)
    register_file_bytes: int = 8 << 20 # 8 MB scratchpad
    hbm_bytes_per_s: float = 1e12      # 1 TB/s (2 x 512 GB/s PHYs)

    def __post_init__(self):
        for name in ("mul_lanes", "add_lanes", "hash_lanes", "shuffle_lanes",
                     "ntt_lanes", "ntt_base_size", "register_file_bytes"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ConfigError(
                    f"{name} must be a positive integer, got {v!r}")
        for name in ("frequency_hz", "hbm_bytes_per_s"):
            v = getattr(self, name)
            if (not isinstance(v, (int, float)) or isinstance(v, bool)
                    or not math.isfinite(v) or v <= 0):
                raise ConfigError(
                    f"{name} must be a positive finite number, got {v!r}")
        if self.ntt_base_size & (self.ntt_base_size - 1):
            raise ConfigError(
                f"ntt_base_size must be a power of two, "
                f"got {self.ntt_base_size}")
        if self.register_file_bytes < 8:
            raise ConfigError("register file must hold at least one "
                              "8-byte element")

    @property
    def register_file_elements(self) -> int:
        return self.register_file_bytes // 8

    def scale(self, **factors: float) -> "NoCapConfig":
        """Return a config with named resources scaled by the given factors.

        Keys: 'mul', 'add', 'arith' (both), 'hash', 'shuffle', 'ntt',
        'hbm', 'rf'.  Used by the Fig. 7 sensitivity sweep.
        """
        for key, factor in factors.items():
            if (not isinstance(factor, (int, float))
                    or isinstance(factor, bool)
                    or not math.isfinite(factor) or factor <= 0):
                raise ConfigError(f"scale factor for {key!r} must be a "
                                  f"positive finite number, got {factor!r}")
        changes = {}
        if "arith" in factors:
            changes["mul_lanes"] = max(1, int(self.mul_lanes * factors["arith"]))
            changes["add_lanes"] = max(1, int(self.add_lanes * factors["arith"]))
        if "mul" in factors:
            changes["mul_lanes"] = max(1, int(self.mul_lanes * factors["mul"]))
        if "add" in factors:
            changes["add_lanes"] = max(1, int(self.add_lanes * factors["add"]))
        if "hash" in factors:
            changes["hash_lanes"] = max(1, int(self.hash_lanes * factors["hash"]))
        if "shuffle" in factors:
            changes["shuffle_lanes"] = max(
                1, int(self.shuffle_lanes * factors["shuffle"]))
        if "ntt" in factors:
            changes["ntt_lanes"] = max(1, int(self.ntt_lanes * factors["ntt"]))
        if "hbm" in factors:
            changes["hbm_bytes_per_s"] = self.hbm_bytes_per_s * factors["hbm"]
        if "rf" in factors:
            changes["register_file_bytes"] = max(
                1 << 12, int(self.register_file_bytes * factors["rf"]))
        unknown = set(factors) - {"arith", "mul", "add", "hash", "shuffle",
                                  "ntt", "hbm", "rf"}
        if unknown:
            raise ConfigError(f"unknown resources: {sorted(unknown)}")
        return replace(self, **changes)


#: The paper's design point.
DEFAULT_CONFIG = NoCapConfig()
