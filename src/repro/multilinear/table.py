"""One table, two representations: numpy tiles above a few dozen entries,
a ``list`` of Python ints at or below.

A tiled kernel call costs tens of microseconds of numpy dispatch however
short its operands (``fv.mul`` is 33 passes), so the last rounds of every
sumcheck, the first levels of every eq table and the last folds of every
MLE evaluation — all on tables of a handful of entries — were nearly all
dispatch.  Python's own integers do the same arithmetic on such tables
several times faster.  The operations below take either representation
and return the same one; :func:`fit` is the one place that decides which
a table of a given length has.  Both compute the same field elements, so
proof bytes do not depend on :data:`SCALAR_TAIL`: at 0 every table is an
array, at 2^30 every table is a list — the slow, obviously-right sumcheck
the vector path is tested against.
"""

from __future__ import annotations

from operator import mul as _int_mul

import numpy as np

from ..field import vector as fv
from ..field.goldilocks import MODULUS

#: Tables of at most this many entries are lists of ints.  One number for
#: every call site, set at the measured crossover (docs/PERFORMANCE.md).
SCALAR_TAIL = 64


def fit(table):
    """``table`` in the representation its length calls for."""
    if len(table) <= SCALAR_TAIL:
        return table if isinstance(table, list) else table.tolist()
    return np.asarray(table, dtype=np.uint64)


def halves(table):
    """(bottom, top): the entries with the leading variable at 0 and at 1."""
    half = len(table) // 2
    return fit(table[:half]), fit(table[half:])


def add(a, b):
    if isinstance(a, list):
        return [(x + y) % MODULUS for x, y in zip(a, b)]
    return fv.add(a, b)


def sub(a, b):
    if isinstance(a, list):
        return [(x - y) % MODULUS for x, y in zip(a, b)]
    return fv.sub(a, b)


def sub_into(a, b):
    """a - b, written over ``a`` when it is an array (a list is not
    shared: the result is a new one)."""
    if isinstance(a, list):
        return sub(a, b)
    return fv.sub(a, b, out=a)


def mul(a, b):
    """Element-wise product as ANY representative mod p — unreduced ints
    or ``canonical=False`` words — for consumers that reduce
    (:func:`sub`'s minuend, :func:`dot`, another :func:`mul`)."""
    if isinstance(a, list):
        return list(map(_int_mul, a, b))
    return fv.mul(a, b, canonical=False)


def dot(a, b) -> int:
    if isinstance(a, list):
        return sum(map(_int_mul, a, b)) % MODULUS
    return fv.dot(a, b)


def vsum(a) -> int:
    if isinstance(a, list):
        return sum(a) % MODULUS
    return fv.vsum(a)


def scale_add(base, diff, s: int):
    """base + s * diff, canonical: the fold's multiply-accumulate."""
    if isinstance(base, list):
        return [(x + s * d) % MODULUS for x, d in zip(base, diff)]
    return fv.scale_add(base, diff, s)


def fold(table, r: int):
    """Bind the leading variable to r: bottom + r * (top - bottom)."""
    bottom, top = halves(table)
    return scale_add(bottom, sub(top, bottom), r)


def eq_extend(table, r: int):
    """Put one more variable in front of an eq table:
    (table * (1 - r), table * r), end to end."""
    if isinstance(table, list):
        hi = [x * r % MODULUS for x in table]
        return fit([(x - h) % MODULUS for x, h in zip(table, hi)] + hi)
    hi = fv.mul_scalar(table, r)
    return np.concatenate([fv.sub(table, hi), hi])
