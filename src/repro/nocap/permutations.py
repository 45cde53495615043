"""Wide-vector permutations (Sec. IV-B "Implementing wide permutations").

NoCap's shuffle FU is only 128 lanes wide, but two structured permutation
families on wider vectors are needed:

* **cyclic rotations** — used for the reduction folds in sumcheck; and
* **grouped interleavings** — used to compact hashes into adjacent lanes
  when Merkle layers shrink below the vector width.

Both decompose into one pass through the 128-wide Benes network plus
bank-offset writes across PE rows (the paper's example: a rotation by
520 = 8 + 512 is a lane rotation by 8 combined with writing 4 PEs
ahead).  This module implements the decomposition functionally (verified
against ``np.roll``/slicing oracles) and reports its pass/write cost.
No model reads that cost: the simulator charges shuffle work per element
routed (``TaskCost.shuffle_elements``) over ``NoCapConfig.shuffle_lanes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Shuffle FU width (Sec. IV-B); ``NoCapConfig.shuffle_lanes`` defaults
#: to it.
SHUFFLE_LANES = 128


@dataclass
class WidePermutationCost:
    """Cost of one wide permutation on the shuffle FU."""

    shuffle_passes: int       # passes through the Benes network
    elements: int             # elements routed per pass
    bank_writes: int          # distinct bank-offset write groups


def wide_rotate(vector: np.ndarray, amount: int,
                lanes: int = SHUFFLE_LANES) -> Tuple[np.ndarray, WidePermutationCost]:
    """Cyclic rotation of a wide vector: out[(i + amount) % n] = in[i].

    Decomposition: the output lane of element i depends only on
    (i + amount) mod lanes, so a single lane-rotation pass through the
    Benes network fixes all lane positions; the remaining movement is a
    whole-group offset absorbed into the write addressing, with wrapped
    elements landing one group further (two write targets per group).
    """
    vector = np.asarray(vector)
    n = vector.shape[-1]
    if n % lanes and n > lanes:
        raise ValueError("vector width must be a multiple of the lane count")
    lanes = min(lanes, n)
    amount %= n

    lane_shift = amount % lanes
    group_shift = amount // lanes
    num_groups = n // lanes

    groups = vector.reshape(num_groups, lanes)
    # One Benes pass: rotate every group by lane_shift.
    rotated = np.roll(groups, lane_shift, axis=1)

    out = np.empty_like(groups)
    # Non-wrapped lanes of group g land in group (g + group_shift);
    # wrapped lanes (the first lane_shift positions after rotation) came
    # from the group's tail and land one group further.
    for g in range(num_groups):
        base = (g + group_shift) % num_groups
        nxt = (base + 1) % num_groups
        out[base, lane_shift:] = rotated[g, lane_shift:]
        out[nxt, :lane_shift] = rotated[g, :lane_shift]

    cost = WidePermutationCost(
        shuffle_passes=1, elements=n,
        bank_writes=num_groups * (2 if lane_shift else 1))
    return out.reshape(vector.shape), cost


def grouped_interleave(vector: np.ndarray, group_log2: int
                       ) -> Tuple[np.ndarray, WidePermutationCost]:
    """Grouped interleaving: even-indexed 2^G-element chunks to the first
    half, odd-indexed chunks to the second half."""
    vector = np.asarray(vector)
    n = vector.shape[-1]
    chunk = 1 << group_log2
    if n % (2 * chunk):
        raise ValueError("vector width must be a multiple of 2 * 2^G")
    chunks = vector.reshape(-1, chunk)
    out = np.concatenate([chunks[0::2].reshape(-1), chunks[1::2].reshape(-1)])
    cost = WidePermutationCost(shuffle_passes=1, elements=n,
                               bank_writes=max(1, n // SHUFFLE_LANES))
    return out.reshape(vector.shape), cost


def grouped_uninterleave(vector: np.ndarray, group_log2: int) -> np.ndarray:
    """Inverse of :func:`grouped_interleave` (test helper)."""
    vector = np.asarray(vector)
    n = vector.shape[-1]
    chunk = 1 << group_log2
    half = n // 2
    evens = vector[:half].reshape(-1, chunk)
    odds = vector[half:].reshape(-1, chunk)
    out = np.empty((evens.shape[0] + odds.shape[0], chunk),
                   dtype=vector.dtype)
    out[0::2] = evens
    out[1::2] = odds
    return out.reshape(vector.shape)
