"""Forced vestige of the shared-memory transport (ROADMAP item 3(a)).

Nothing in ``src/`` creates a segment any more — a batch's workers
inherit their inputs (:mod:`repro.parallel.pool`).  The one function
left is what ``bench/host.py``'s leak check imports, and ``bench/`` may
not change yet; it goes when that check does.
"""

from __future__ import annotations

import re
from typing import Optional

#: Segment names the old transport minted: prefix, owner pid, counter.
_SEGMENT_NAME_RE = re.compile(r"^repro[A-Za-z0-9_.]*?_(\d+)_\d+$")


def segment_owner_pid(name: str) -> Optional[int]:
    """The pid embedded in a repro segment name, or None if the name is
    not ours."""
    m = _SEGMENT_NAME_RE.match(name)
    return int(m.group(1)) if m else None
