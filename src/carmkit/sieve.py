"""Smooth-shifted prime identification.

Finds primes q in the window [ceil(y**theta / ln y), floor(y**theta)] whose
shifted value q-1 is y-smooth and which satisfy the congruence
q = -1 (mod 4*phi(M)), plus the windowed smooth-prime counting function.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .arith import euler_phi, factorize
from .errors import CapacityError, DomainError

SIEVE_CAPACITY = 100_000_000
WINDOW_SEGMENT = 1 << 21  # integers per lpf window


def _smooth_primes(start: int, stop: int, d: int, b: int, v: int) -> np.ndarray:
    """Primes q in [start, stop) with q = b (mod d) and P(q-1) <= v, ascending.

    Sieved in windows of WINDOW_SEGMENT integers, so memory stays O(segment).
    """
    start = max(start, 2)  # q - 1 >= 1, where lpf_range is defined
    if start >= stop:
        return np.empty(0, dtype=np.int64)
    base = _kernels.sieve_primes(math.isqrt(stop - 1))

    def scan(lo, hi):
        # P(q-1) sits one slot before P(q), also at a window's first q
        table = _kernels.lpf_range(lo - 1, hi - 1, base)
        q = np.arange(lo, hi, dtype=np.int64)
        return q[(table[1:] == q) & (table[:-1] <= v) & (q % d == b % d)]

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
