"""Vectorized Goldilocks-64 arithmetic on numpy uint64 arrays.

These kernels are the software analogue of NoCap's 2,048-lane modular
add/multiply functional units: element-wise operations over vectors of
64-bit residues, using only 64-bit integer operations plus the Goldilocks
reduction (adds, shifts, and conditional corrections) — exactly the
structure the paper exploits in hardware (Sec. IV-A).

All functions accept and return arrays in canonical form (values < p) with
dtype ``uint64``.  Scalars may be passed wherever an array is accepted.
"""

from __future__ import annotations

import functools
import threading

import numpy as np

from .goldilocks import MODULUS
from ..obs import count as _count


def _wrapping(fn):
    """Run ``fn`` with numpy overflow warnings suppressed.

    The kernels rely on 64-bit wraparound; numpy warns on overflow for
    0-d/scalar operands, so each kernel scopes the suppression to itself.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(over="ignore"):
            return fn(*args, **kwargs)

    return wrapper

_P = np.uint64(MODULUS)
_MASK32 = np.uint64(0xFFFFFFFF)
_EPS = np.uint64(0xFFFFFFFF)  # 2^64 mod p = 2^32 - 1
_SHIFT32 = np.uint64(32)
_ZERO = np.uint64(0)
_ONE = np.uint64(1)

#: On little-endian hosts a uint64 array reinterpreted as uint32 pairs puts
#: the low halves at even offsets — split-accumulate reductions can then
#: read the halves through strided views instead of materializing mask and
#: shift temporaries.
_LE = bool(np.little_endian)


def halves(a: np.ndarray):
    """(low, high) 32-bit halves of a 1-D uint64 array, as cheap views when
    the byte order allows, else as mask/shift copies."""
    if _LE and a.flags["C_CONTIGUOUS"]:
        pairs = a.view(np.uint32)
        return pairs[0::2], pairs[1::2]
    return a & _MASK32, a >> _SHIFT32


def asfield(values: "Sequence[int] | np.ndarray | int") -> np.ndarray:
    """Coerce Python ints / sequences / arrays into canonical uint64 residues."""
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        arr = values
    else:
        if np.isscalar(values):
            values = [values]
        arr = np.array([int(v) % MODULUS for v in np.asarray(values, dtype=object).ravel()],
                       dtype=np.uint64)
    # Canonicalize any values >= p (one subtract suffices: 2^64 - 1 < 2p).
    over = arr >= _P
    if over.any():
        arr = np.where(over, arr - _P, arr)
    return arr


def zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.uint64)


def ones(n: int) -> np.ndarray:
    return np.ones(n, dtype=np.uint64)


def full(n: int, value: int) -> np.ndarray:
    return np.full(n, np.uint64(value % MODULUS), dtype=np.uint64)


@_wrapping
def rand_vector(n: int, rng: np.random.Generator | None = None) -> np.ndarray:
    """Sample n uniform field elements."""
    g = rng or np.random.default_rng()
    # Rejection-free: 2^64 mod p = 2^32-1 values map onto [0, 2^32-1); the
    # bias is ~2^-32 per element, negligible for tests and benchmarks.
    raw = g.integers(0, 1 << 63, size=n, dtype=np.uint64) << _ONE
    raw |= g.integers(0, 2, size=n, dtype=np.uint64)
    return np.subtract(raw, _P, out=raw, where=raw >= _P)


@_wrapping
def add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Element-wise (a + b) mod p.

    Branch-free: ``np.where`` runs a masked inner loop that is ~10x slower
    than a plain arithmetic pass, so both carry corrections are applied by
    multiplying the carry bits (as uint64) into the correction constants.
    A 64-bit wraparound contributes +2^64 = +(2^32 - 1) mod p; one
    conditional subtract of p then canonicalizes everything.  Exact even
    when ONE operand is a non-canonical representative < 2^64 (e.g. a
    ``mul(..., canonical=False)`` result); both sides non-canonical could
    double-wrap.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    s = a + b
    over = (s < a).astype(np.uint64)
    over *= _EPS
    s += over
    exceeds = (s >= _P).astype(np.uint64)
    exceeds *= _P
    s -= exceeds
    return s


@_wrapping
def sub(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
        ) -> np.ndarray:
    """Element-wise (a - b) mod p (branch-free, see :func:`add`), into
    ``out`` when given (``a`` itself is allowed)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    borrow = (a < b).astype(np.uint64)
    borrow *= _EPS
    d = np.subtract(a, b, out=out)
    d -= borrow
    return d


def neg(a: np.ndarray) -> np.ndarray:
    """Element-wise -a mod p."""
    a = np.asarray(a, dtype=np.uint64)
    return np.where(a == _ZERO, _ZERO, _P - a)


#: Tile length for the blocked multiply kernel: all ~10 scratch vectors of
#: one tile (8 bytes each) fit comfortably in the L2 cache, so every pass
#: over a tile reads warm lines instead of streaming the whole operand
#: through DRAM.  This mirrors how NoCap's 2,048-lane mul FU consumes
#: register-file tiles rather than whole vectors (Sec. IV-A).
_TILE = 16384

_LOCAL = threading.local()


def _scratch() -> list:
    """This thread's ten ``_TILE``-long scratch vectors, made on first use
    and shared by :func:`_mul_tiles`, :func:`_scale_tiles` and :func:`dot`.

    Per thread, not per module: numpy releases the GIL inside every
    ufunc, so kernels running on two threads (two threads calling
    ``prove()``) interleave their tile passes and would overwrite each
    other's intermediates in shared buffers.
    """
    bufs = getattr(_LOCAL, "bufs", None)
    if bufs is None:
        bufs = _LOCAL.bufs = [np.empty(_TILE, dtype=np.uint64)
                              for _ in range(10)]
    return bufs


def _mul_tiles(x: np.ndarray, y: np.ndarray, out: np.ndarray,
               canonical: bool = True) -> None:
    """Tiled branch-free Goldilocks multiply: out[i] = x[i] * y[i] mod p.

    ``x``, ``y`` and ``out`` are 1-D contiguous uint64 of one length (a
    0-d operand goes to :func:`_scale_tiles`).  The 128-bit product is
    assembled from four 32x32->64 partial products; the high word is
    folded in via 2^64 = 2^32 - 1 (mod p) and 2^96 = -1 (mod p).  Every
    step writes into preallocated tile scratch — no allocations, no
    ``np.where`` (whose masked inner loop is ~10x a plain pass); carry
    bits land directly in uint64 scratch (comparison ufuncs with an
    unsafe-cast ``out``) and are folded in arithmetically.
    """
    scratch = _scratch()
    for start in range(0, len(x), _TILE):
        end = min(start + _TILE, len(x))
        m = end - start
        al, ah, bl, bh, t0, t1, t2, t3, tc, td = [s[:m] for s in scratch]
        xa = x[start:end]
        ya = y[start:end]
        np.bitwise_and(xa, _MASK32, out=al)
        np.right_shift(xa, _SHIFT32, out=ah)
        np.bitwise_and(ya, _MASK32, out=bl)
        np.right_shift(ya, _SHIFT32, out=bh)
        np.multiply(al, bh, out=t0)                 # lh
        np.multiply(ah, bl, out=t1)                 # hl
        np.add(t0, t1, out=t1)                      # mid (may wrap)
        np.less(t1, t0, out=tc, casting="unsafe")   # mid carry (as uint64)
        np.multiply(al, bl, out=t2)                 # ll
        np.left_shift(t1, _SHIFT32, out=t0)
        np.add(t2, t0, out=t0)                      # lo (may wrap)
        np.less(t0, t2, out=td, casting="unsafe")   # lo carry (as uint64)
        np.multiply(ah, bh, out=t3)                 # hh
        np.right_shift(t1, _SHIFT32, out=t1)
        np.add(t3, t1, out=t3)                      # hi = hh + mid>>32
        np.left_shift(tc, _SHIFT32, out=tc)
        np.add(t3, tc, out=t3)                      # + mid_carry * 2^32
        np.add(t3, td, out=t3)                      # + lo_carry
        # Reduce t3 * 2^64 + t0 mod p.
        np.bitwise_and(t3, _MASK32, out=t1)         # hi_lo
        np.right_shift(t3, _SHIFT32, out=t3)        # hi_hi
        np.less(t0, t3, out=tc, casting="unsafe")   # borrow: -2^64 = -(2^32-1)
        np.subtract(t0, t3, out=t0)                 # t = lo - hi_hi
        np.multiply(tc, _EPS, out=tc)
        np.subtract(t0, tc, out=t0)
        np.left_shift(t1, _SHIFT32, out=t2)
        np.subtract(t2, t1, out=t2)                 # hi_lo * (2^32 - 1)
        np.add(t0, t2, out=t2)                      # t2 = t + add_term
        np.less(t2, t0, out=tc, casting="unsafe")   # carry
        np.multiply(tc, _EPS, out=tc)
        if canonical:
            np.add(t2, tc, out=t2)
            np.less_equal(_P, t2, out=tc, casting="unsafe")  # conditional -p
            np.multiply(tc, _P, out=tc)
            np.subtract(t2, tc, out=out[start:end])
        else:
            # Caller accepts any uint64 representative (mod p): skip the
            # final conditional subtract of p.
            np.add(t2, tc, out=out[start:end])


def _scale_tiles(x: np.ndarray, s: int, out: np.ndarray,
                 canonical: bool = True,
                 addend: np.ndarray | None = None) -> None:
    """Tiled Goldilocks multiply by ONE constant: out[i] = x[i] * s mod p.

    ``x`` and ``out`` are 1-D contiguous uint64; ``s`` is any integer.
    Because s is fixed, the limb weights can live in precomputed
    constants: with x = x_0 + 2^22 x_1 + 2^44 x_2 (22/22/20-bit limbs)
    and c_k = s * 2^(22k) mod p = a_k + 2^32 b_k,

        x * s = sum_k x_k c_k = lo + 2^32 hi,
        lo = sum_k x_k a_k,  hi = sum_k x_k b_k      (each < 3 * 2^54).

    With hi = 2^32 h_1 + h_0, 2^32 hi = 2^32 h_0 + 2^64 h_1 and
    2^64 = 2^32 - 1 (mod p), so x * s = (h_0 << 32) + [lo + h_1 (2^32 - 1)]
    where the bracket is < 2^57: one add with one 2^64-wrap credit leaves
    a representative < 2^64, and one conditional subtract of p (here a
    ``minimum`` with the wrapped difference) makes it canonical.  That is
    24 passes against :func:`_mul_tiles`' 31, and 30 with ``addend`` where
    the vector kernel's fused form took 37; exact for ANY uint64 x and any
    s.

    ``addend`` (canonical-mode only) fuses out[i] = addend[i] + x[i] * s
    mod p into the same tile pass while the product is cache-warm — the
    sumcheck fold's multiply-accumulate.  Any uint64 addend is accepted
    (the add corrects one 2^64 wrap, and the sum is < 2p after it).
    """
    consts = [int(s) * (1 << (22 * k)) % MODULUS for k in range(3)]
    lows = [np.uint64(c & 0xFFFFFFFF) for c in consts]
    highs = [np.uint64(c >> 32) for c in consts]
    scratch = _scratch()
    for start in range(0, len(x), _TILE):
        end = min(start + _TILE, len(x))
        x0, x1, x2, lo, hi, t = [b[:end - start] for b in scratch[:6]]
        xa = x[start:end]
        np.bitwise_and(xa, _MASK22, out=x0)
        np.right_shift(xa, _SHIFT22, out=x1)
        x1 &= _MASK22
        np.right_shift(xa, _SHIFT44, out=x2)
        for acc, (c0, c1, c2) in ((lo, lows), (hi, highs)):
            np.multiply(x0, c0, out=acc)
            np.multiply(x1, c1, out=t)
            acc += t
            np.multiply(x2, c2, out=t)
            acc += t
        np.right_shift(hi, _SHIFT32, out=t)
        t *= _EPS
        lo += t                                      # the bracket, < 2^57
        hi <<= _SHIFT32
        hi += lo                                     # may wrap once
        np.less(hi, lo, out=t, casting="unsafe")
        t *= _EPS
        if not canonical:
            np.add(hi, t, out=out[start:end])
            continue
        hi += t
        # v >= p exactly when v - p (mod 2^64) < v: min() picks the
        # canonical one of the two.
        np.subtract(hi, _P, out=t)
        if addend is None:
            np.minimum(hi, t, out=out[start:end])
            continue
        np.minimum(hi, t, out=hi)
        np.add(hi, addend[start:end], out=lo)
        np.less(lo, hi, out=t, casting="unsafe")     # 2^64 wrap
        t *= _EPS
        lo += t
        np.subtract(lo, _P, out=t)
        np.minimum(lo, t, out=out[start:end])


@_wrapping
def mul(a: np.ndarray, b: np.ndarray, canonical: bool = True,
        out: np.ndarray | None = None) -> np.ndarray:
    """Element-wise (a * b) mod p using the Goldilocks 128-bit reduction.

    A 0-d operand goes to the constant-operand kernel
    (:func:`_scale_tiles`), two vectors to :func:`_mul_tiles`;
    broadcasting operands are materialized first so the vector kernel
    only ever sees equal-length contiguous vectors.

    Both kernels are exact for ANY uint64 inputs (not just canonical
    ones).  ``canonical=False`` skips the output's final conditional
    subtract of p, returning a representative < 2^64 — valid only when the
    result feeds a consumer that tolerates it (``vsum``, another ``mul``,
    the split-accumulate reductions), never ``add``/``sub``-style kernels
    that assume operands < p.  ``out`` (contiguous) takes the result; it
    may be an operand itself, as each tile reads its operands before it
    writes.
    """
    _count("field.mul_batches")
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.ndim == 0 and b.ndim == 0:
        return np.uint64(int(a) * int(b) % MODULUS)
    if a.ndim == 0 or b.ndim == 0:
        vec, s = (a, b) if b.ndim == 0 else (b, a)
        if not vec.flags["C_CONTIGUOUS"]:
            vec = np.ascontiguousarray(vec)
        if out is None:
            out = np.empty(vec.shape, dtype=np.uint64)
        _scale_tiles(vec.ravel(), s, out.ravel(), canonical)
        return out
    if a.shape == b.shape:
        vec = a if a.flags["C_CONTIGUOUS"] else np.ascontiguousarray(a)
        other = b if b.flags["C_CONTIGUOUS"] else np.ascontiguousarray(b)
    else:
        shape = np.broadcast_shapes(a.shape, b.shape)
        vec = np.ascontiguousarray(np.broadcast_to(a, shape))
        other = np.ascontiguousarray(np.broadcast_to(b, shape))
    if out is None:
        out = np.empty(vec.shape, dtype=np.uint64)
    _mul_tiles(vec.ravel(), other.ravel(), out.ravel(), canonical)
    return out


def mul_scalar(a: np.ndarray, s: int, canonical: bool = True,
               out: np.ndarray | None = None) -> np.ndarray:
    """Multiply a vector by a scalar field element.

    ``canonical=False`` and ``out`` have :func:`mul` semantics: the result
    is any uint64 representative, valid when the consumer tolerates values
    >= p (one operand of :func:`add`, ``vsum``, another ``mul``)."""
    return mul(a, np.uint64(s % MODULUS), canonical, out)


@_wrapping
def scale_add(base: np.ndarray, diff: np.ndarray, s: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """Fused (base + s * diff) mod p — the sumcheck fold's multiply-accumulate.

    One tiled pass of the constant-operand kernel (:func:`_scale_tiles`):
    the scalar product is formed and the addend folded in while the tile
    is still in cache, instead of writing the product out and streaming it
    back through :func:`add`.  ``base`` may be any uint64 representative;
    the result is canonical.  ``out`` (contiguous uint64, ``base``'s
    shape) receives it when given and may be ``base`` or ``diff`` itself:
    each tile reads its operands before it writes.
    """
    _count("field.scale_add_batches")
    base = np.asarray(base, dtype=np.uint64)
    diff = np.asarray(diff, dtype=np.uint64)
    if base.shape != diff.shape or base.ndim == 0:
        if out is not None:
            raise ValueError("out= needs operands of one non-scalar shape")
        return add(base, mul(diff, np.uint64(int(s) % MODULUS)))
    if not base.flags["C_CONTIGUOUS"]:
        base = np.ascontiguousarray(base)
    if not diff.flags["C_CONTIGUOUS"]:
        diff = np.ascontiguousarray(diff)
    if out is None:
        out = np.empty(base.shape, dtype=np.uint64)
    elif out.shape != base.shape or out.dtype != np.uint64 \
            or not out.flags["C_CONTIGUOUS"]:
        raise ValueError("out must be contiguous uint64 of the operands' "
                         "shape")
    _scale_tiles(diff.ravel(), s, out.ravel(), addend=base.ravel())
    return out


@_wrapping
def combine_halves(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Exact (lo + hi * 2^32) mod p for ANY uint64 inputs.

    The recombine step of every split-accumulate reduction (``vsum``,
    SpMV's segmented sums).  hi * 2^32 never needs a general multiply:
    with hi = hh * 2^32 + hl, it equals hl * 2^32 + hh * 2^64, and
    2^64 = 2^32 - 1 (mod p), so the whole combine is shifts and adds —
    about a third of the passes of :func:`mul`.
    """
    lo = np.asarray(lo, dtype=np.uint64)
    hi = np.asarray(hi, dtype=np.uint64)
    hl = hi & _MASK32
    hh = hi >> _SHIFT32
    hl <<= _SHIFT32                                 # hl * 2^32 < 2^64
    s = lo + hl
    carry = np.empty_like(s)
    np.less(s, hl, out=carry, casting="unsafe")     # 2^64 wrap
    np.left_shift(hh, _SHIFT32, out=hl)             # reuse: hh * 2^32
    hl -= hh                                        # hh * (2^32 - 1) < 2^64
    s += hl
    np.less(s, hl, out=hh, casting="unsafe")        # second wrap
    carry += hh
    carry *= _EPS                                   # total wrap credit < 2^33
    s += carry
    np.less(s, carry, out=hh, casting="unsafe")     # rare third wrap
    hh *= _EPS
    s += hh
    np.less_equal(_P, s, out=hh, casting="unsafe")  # s < 2p: one subtract
    hh *= _P
    s -= hh
    return s


#: Most products one set of limb accumulators may sum before
#: :func:`_reduce_rows`: a 32-bit half times a 22-bit limb is < 2^54, so
#: 2^9 of them stay < 2^63, the bound the reduction relies on.
LIMB_SUM_CAP = 1 << 9

_MASK22, _SHIFT22, _SHIFT44 = np.uint64((1 << 22) - 1), np.uint64(22), np.uint64(44)
_MASK10, _SHIFT10 = np.uint64((1 << 10) - 1), np.uint64(10)
_MASK20, _SHIFT20, _SHIFT12 = np.uint64((1 << 20) - 1), np.uint64(20), np.uint64(12)
#: Keeps the low half of :func:`_reduce_rows` non-negative: the terms
#: subtracted from it total < 2^53 + 2^44 + 2^32 < 2^54.
_LO_OFFSET = np.uint64(1 << 54)


def _reduce_rows(acc: np.ndarray, t: np.ndarray) -> np.ndarray:
    """ONE Goldilocks reduction per row of six limb accumulators — the
    end of every limb-deferred kernel (the grouped-plane SpMV of
    :mod:`repro.r1cs.matrices`, :func:`vecmat`).

    ``acc[k]`` (each < 2^63, clobbered) carries weight 2^w_k with
    w = (0, 22, 44, 32, 54, 76): the sums of ``lo(a) * b_j`` and
    ``hi(a) * b_j`` over a row, b = b_0 + 2^22 b_1 + 2^44 b_2.  Every
    term is split at a 32-bit boundary and folded with 2^64 = 2^32 - 1
    and 2^96 = -1 (mod p) into ``lo + 2^32 * hi``:

    ====  ==========================  =================================
    acc   into ``lo``                 into ``hi``
    ====  ==========================  =================================
    s0    + s0
    s1    + (s1 & m10) << 22          + s1 >> 10
    s2    - s2 >> 20                  + (s2 & m20) << 12  + s2 >> 20
    s3                                + s3
    s4    - s4 >> 10                  + (s4 & m10) << 22  + s4 >> 10
    s5    - (s5 & m20) << 12          + (s5 & m20) << 12
          - s5 >> 20
    ====  ==========================  =================================

    ``hi`` < 2^63 + 2^54 + 2^44 + 2^34 and ``lo`` + 2^54 stays inside
    [0, 2^64), so :func:`combine_halves` (exact for any uint64 halves)
    and one subtraction of the offset finish it.
    """
    s0, s1, s2, s3, s4, s5 = acc
    lo, hi = s0, s3
    lo += _LO_OFFSET
    np.bitwise_and(s1, _MASK10, out=t)
    t <<= _SHIFT22
    lo += t
    s1 >>= _SHIFT10
    hi += s1
    np.bitwise_and(s4, _MASK10, out=t)
    t <<= _SHIFT22
    hi += t
    s4 >>= _SHIFT10
    hi += s4
    lo -= s4
    np.bitwise_and(s2, _MASK20, out=t)
    t <<= _SHIFT12
    hi += t
    s2 >>= _SHIFT20
    hi += s2
    lo -= s2
    np.bitwise_and(s5, _MASK20, out=t)
    t <<= _SHIFT12
    hi += t
    lo -= t
    s5 >>= _SHIFT20
    lo -= s5
    return sub(combine_halves(lo, hi), _LO_OFFSET)


def _product_total(x: np.ndarray, y: np.ndarray, t: np.ndarray) -> int:
    """Exact integer sum of the 64-bit products x[i] * y[i] (operands
    < 2^32, at most ``_TILE`` of them; ``t`` is scratch).

    The sum S can pass 2^64, so it is read off two contiguous uint64
    reductions: the wrapped total w = S mod 2^64, and the sum H of the
    products' high halves (< 2^32 each, so H < 2^46).  The low halves sum
    to L = S - H * 2^32 < 2^46, which w - H * 2^32 (mod 2^64) recovers.
    """
    np.multiply(x, y, out=t)
    w = int(np.add.reduce(t))
    np.right_shift(t, _SHIFT32, out=t)
    h = int(np.add.reduce(t)) << 32
    return h + ((w - h) & 0xFFFFFFFFFFFFFFFF)


def dot(a: np.ndarray, b: np.ndarray) -> int:
    """Inner product <a, b> in GF(p), returned as a Python int.

    Deferred reduction: no term is reduced on its own.  Per tile the four
    32x32->64 partial products of every pair are summed exactly
    (:func:`_product_total`; a tile has <= 2^14 terms), the tile sums
    accumulate as Python ints, and one ``% p`` ends the call.  Exact for
    any uint64 inputs, canonical or not, contiguous or strided.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError(f"dot expects two equal-length vectors, got shapes "
                         f"{a.shape} and {b.shape}")
    ll = mid = hh = 0
    scratch = _scratch()
    for start in range(0, len(a), _TILE):
        xa = a[start:start + _TILE]
        ya = b[start:start + _TILE]
        al, ah, bl, bh, t = [s[:len(xa)] for s in scratch[:5]]
        np.bitwise_and(xa, _MASK32, out=al)
        np.right_shift(xa, _SHIFT32, out=ah)
        np.bitwise_and(ya, _MASK32, out=bl)
        np.right_shift(ya, _SHIFT32, out=bh)
        ll += _product_total(al, bl, t)
        mid += _product_total(al, bh, t) + _product_total(ah, bl, t)
        hh += _product_total(ah, bh, t)
    return (ll + (mid << 32) + (hh << 64)) % MODULUS


@_wrapping
def vsum(a: np.ndarray) -> int:
    """Sum of all elements mod p (exact split-accumulate kernel).

    The 32-bit halves of each element are accumulated separately in uint64
    (exact for up to 2^32 terms — the same trick as ``SparseMatrix.matvec``)
    and recombined in Python-int arithmetic, avoiding the object-dtype
    reduction entirely.
    """
    a = np.asarray(a, dtype=np.uint64).ravel()
    if a.size == 0:
        return 0
    if a.size >= (1 << 32):  # keep the uint64 half-sums exact
        return sum(vsum(chunk) for chunk in
                   np.array_split(a, 1 + a.size // (1 << 31))) % MODULUS
    lo_half, hi_half = halves(a)
    lo = int(np.add.reduce(lo_half, dtype=np.uint64))
    hi = int(np.add.reduce(hi_half, dtype=np.uint64))
    return (lo + (hi << 32)) % MODULUS


@_wrapping
def pow_vector(a: np.ndarray, e: int) -> np.ndarray:
    """Element-wise a^e mod p via square-and-multiply."""
    a = np.asarray(a, dtype=np.uint64)
    result = np.ones_like(a)
    base = a.copy()
    while e > 0:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


@_wrapping
def inv_vector(a: np.ndarray) -> np.ndarray:
    """Element-wise inverse via batch inversion (one modular exponentiation).

    A product tree: the input (padded with ones to a power of two) is
    multiplied up in halves, ``level[:h] * level[h:]``, to one root; the
    root is inverted once; on the way down each half's inverse is its
    parent's inverse times the other half.  About 3n multiplies, every one
    a contiguous vector ``mul``.

    Raises ZeroDivisionError if any element is zero mod p.
    """
    a = np.asarray(a, dtype=np.uint64)
    n = len(a)
    if n == 0:
        return a.copy()
    level = np.ones(1 << (n - 1).bit_length(), dtype=np.uint64)
    level[:n] = a
    levels = [level]
    while len(level) > 1:
        h = len(level) // 2
        level = mul(level[:h], level[h:])
        levels.append(level)
    root = int(level[0]) % MODULUS
    if root == 0:
        raise ZeroDivisionError("inverse of zero in GF(p)")
    inv = np.array([pow(root, MODULUS - 2, MODULUS)], dtype=np.uint64)
    for level in reversed(levels[:-1]):
        h = len(level) // 2
        inv = np.concatenate([mul(inv, level[h:]), mul(inv, level[:h])])
    return inv[:n]


def powers(base: int, n: int) -> np.ndarray:
    """Return [1, base, base^2, ..., base^(n-1)] (vectorized doubling)."""
    out = np.empty(n, dtype=np.uint64)
    if n == 0:
        return out
    out[0] = 1
    b = base % MODULUS
    filled, step = 1, b
    while filled < n:
        take = min(filled, n - filled)
        # out[filled + i] = out[i] * base^filled for i < take.
        out[filled:filled + take] = mul(out[:take], np.uint64(step))
        filled += take
        step = step * step % MODULUS
    return out


#: Cells per column tile of :func:`vecmat`: the two halves and one product
#: of a tile (8 B * 2^15 each) stay cache-resident, like ``_TILE``.
_VECMAT_TILE = 1 << 15


def vecmat(coeffs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Exact canonical coeffs^T @ matrix over GF(p) (row combination
    kernel), for ANY uint64 inputs, contiguous or strided.

    ``coeffs`` is one vector of ``rows`` coefficients (result
    ``(cols,)``) or a ``(k, rows)`` matrix of k of them (result
    ``(k, cols)``, row i the combination by ``coeffs[i]``): the k
    combinations share each tile's split and one reduction call, which
    is how the PCS verifier checks an opening's proximity and evaluation
    rows at once.

    Limb-deferred, like the grouped-plane SpMV: no cell's product is
    reduced on its own.  Per column tile the matrix is split into 32-bit
    halves and each row's coefficient into three 22-bit limbs (scalars
    per row); the six partial products are each summed down the row axis
    with a contiguous add, and :func:`_reduce_rows` runs ONCE per column.
    More than :data:`LIMB_SUM_CAP` (512) rows are processed in chunks of
    at most that many, whose canonical results are added.
    """
    matrix = np.asarray(matrix, dtype=np.uint64)
    coeffs = np.asarray(coeffs, dtype=np.uint64)
    if matrix.ndim != 2:
        raise ValueError("vecmat expects a 2-D matrix")
    rows, cols = matrix.shape
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != rows:
        raise ValueError("coefficient count must equal row count")
    if rows > LIMB_SUM_CAP:
        return functools.reduce(add, (
            vecmat(coeffs[..., r0:r0 + LIMB_SUM_CAP],
                   matrix[r0:r0 + LIMB_SUM_CAP])
            for r0 in range(0, rows, LIMB_SUM_CAP)))
    shape = coeffs.shape[:-1] + (cols,)     # (cols,) or (k, cols)
    if rows == 0:
        return np.zeros(shape, dtype=np.uint64)
    coeffs = coeffs.reshape(-1, rows)
    limbs = [(coeffs & _MASK22)[..., None],
             ((coeffs >> _SHIFT22) & _MASK22)[..., None],
             (coeffs >> _SHIFT44)[..., None]]
    width = max(1, min(cols, _VECMAT_TILE // rows))
    tile = np.empty((3, rows * width), dtype=np.uint64)
    acc = np.empty((7, len(coeffs), cols), dtype=np.uint64)
    for c0 in range(0, cols, width):
        c1 = min(cols, c0 + width)
        lo, hi, prod = (s[:rows * (c1 - c0)].reshape(rows, c1 - c0)
                        for s in tile)
        np.bitwise_and(matrix[:, c0:c1], _MASK32, out=lo)
        np.right_shift(matrix[:, c0:c1], _SHIFT32, out=hi)
        for j, (half, limb) in enumerate((h, b) for h in (lo, hi)
                                         for b in limbs):
            for i, row_limb in enumerate(limb):
                np.multiply(half, row_limb, out=prod)
                np.add.reduce(prod, axis=0, out=acc[j, i, c0:c1])
    return _reduce_rows(acc[:6], acc[6]).reshape(shape)


def to_ints(a: np.ndarray) -> list:
    """Convert a field vector to a list of Python ints."""
    return [int(x) for x in a]
