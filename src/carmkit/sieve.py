"""Smooth-shifted prime identification.

Finds primes q in the window [ceil(y**theta / ln y), floor(y**theta)] whose
shifted value q-1 is y-smooth and which satisfy the congruence
q = -1 (mod 4*phi(M)), plus the windowed smooth-prime counting function.

Each window flags its primes, keeps those in the residue class, and keeps a
prime q iff (q-1) // s <= v, s the part of q-1 made of the primes up to
min(v, isqrt(stop - 1)). The cofactor (q-1) / s is exact to compare: it is 1
or one prime above isqrt(stop - 1) when v reaches that root, and 1 or a
product of primes above v when it does not.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .arith import euler_phi, factorize
from .errors import CapacityError, DomainError

SIEVE_CAPACITY = 100_000_000
WINDOW_SEGMENT = 1 << 21  # integers per sieve window


def _smooth_primes(start: int, stop: int, d: int, b: int, v: int) -> np.ndarray:
    """Primes q in [start, stop) with q = b (mod d) and P(q-1) <= v, ascending.

    Sieved in windows of WINDOW_SEGMENT integers, so memory stays O(segment).
    """
    start = max(start, 2)
    # exact: a q < stop <= d has q = b (mod d) iff q = b mod d
    r, d = b % d, min(d, stop)
    if start >= stop or r >= stop:
        return np.empty(0, dtype=np.int64)
    base = _kernels.sieve_primes(math.isqrt(stop - 1))
    small = base[: np.searchsorted(base, v, side="right")]  # p <= min(v, isqrt(stop - 1))

    def scan(lo, hi):
        q = lo + np.flatnonzero(_kernels.prime_flags(lo, hi, base))
        q = q[q % d == r]
        # P(q-1) <= v iff the cofactor (q-1) // s <= v (module docstring)
        s = _kernels.smooth_part(lo - 1, hi - 1, small)
        return q[(q - 1) // s[q - lo] <= v]

    return np.concatenate(_kernels.scan_segments(scan, start, stop, WINDOW_SEGMENT))


def build_Q(y: int, theta: float, M: int = 1) -> list[int]:
    """Primes q in the window [ceil(y**theta / ln y), floor(y**theta)] with
    q ∤ M, q = -1 mod 4*phi(M), P(q-1) <= y.

    The congruence makes (q-1)/2 = -1 mod phi(M), so gcd((q-1)/2, phi(M)) = 1
    for every q returned. It also gives q ∤ M: q | M would make q-1 divide
    phi(M), and 4*phi(M) divides q+1, so 4(q-1) <= q+1, impossible for q >= 2.
    """
    if y < 2:
        raise DomainError(f"smoothness bound y must be >= 2, got {y}")
    if not 1 < theta < 2:
        raise DomainError(f"theta must lie in (1, 2), got {theta}")
    if M < 1:
        raise DomainError(f"M must be >= 1, got {M}")
    try:
        top = y**theta
    except OverflowError:  # far above the sieve capacity
        raise CapacityError(f"y**theta exceeds sieve capacity {SIEVE_CAPACITY}") from None
    lo, hi = math.ceil(top / math.log(y)), math.floor(top)
    if hi > SIEVE_CAPACITY:
        raise CapacityError(f"window end {hi} exceeds sieve capacity {SIEVE_CAPACITY}")
    c = 4 * euler_phi(factorize(M))
    return _smooth_primes(lo, hi + 1, c, c - 1, y).tolist()


def count_smooth_primes(z: int, v: int, d: int, b: int) -> int:
    """Number of primes q < z with P(q-1) <= v and q = b (mod d)."""
    if d < 1:
        raise DomainError(f"modulus d must be >= 1, got {d}")
    if z > SIEVE_CAPACITY:
        raise CapacityError(f"bound {z} exceeds sieve capacity {SIEVE_CAPACITY}")
    return int(_smooth_primes(2, z, d, b, v).size)
