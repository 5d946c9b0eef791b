"""Smooth-shifted prime identification.

Finds primes q in the window [ceil(y**theta / ln y), floor(y**theta)] whose
shifted value q-1 is y-smooth and which satisfy the congruence
q = -1 (mod 4*phi(M)), plus the windowed smooth-prime counting function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .arith import euler_phi, factorize
from .errors import CapacityError, DomainError

SIEVE_CAPACITY = 100_000_000


@dataclass(frozen=True)
class SmoothPrimeQuery:
    """Window + congruence parameters for the shifted-smooth prime scan."""

    y: int
    theta: float
    M: int = 1

    def __post_init__(self):
        if self.y < 2:
            raise DomainError(f"smoothness bound y must be >= 2, got {self.y}")
        if not 1 < self.theta < 2:
            raise DomainError(f"theta must lie in (1, 2), got {self.theta}")
        if self.M < 1:
            raise DomainError(f"M must be >= 1, got {self.M}")

    @property
    def window_low(self) -> int:
        return math.ceil(self.y**self.theta / math.log(self.y))

    @property
    def window_high(self) -> int:
        return math.floor(self.y**self.theta)


def largest_prime_factor(n: int) -> int:
    """P(n): the largest prime dividing n, with P(1) = 1 by convention."""
    if n < 1:
        raise DomainError(f"largest_prime_factor requires n >= 1, got {n}")
    if n == 1:
        return 1
    return factorize(n).primes()[-1]


def lpf_table(lo: int, hi: int) -> np.ndarray:
    """Largest-prime-factor values for [lo, hi] via a windowed sieve."""
    if lo < 1 or hi < lo:
        raise DomainError(f"bad window [{lo}, {hi}]")
    if hi > SIEVE_CAPACITY:
        raise CapacityError(f"window end {hi} exceeds sieve capacity {SIEVE_CAPACITY}")
    base = _kernels.sieve_primes(math.isqrt(hi))
    return _kernels.lpf_range(lo, hi, base)


def build_Q(query: SmoothPrimeQuery) -> list[int]:
    """Primes q in the query window with q ∤ M, q = -1 mod 4*phi(M), P(q-1) <= y.

    The congruence makes (q-1)/2 = -1 mod phi(M), so gcd((q-1)/2, phi(M)) = 1
    for every q returned.
    """
    lo, hi = query.window_low, query.window_high
    if lo > hi:
        return []
    if hi > SIEVE_CAPACITY:
        raise CapacityError(f"window end {hi} exceeds sieve capacity {SIEVE_CAPACITY}")
    phi_M = euler_phi(factorize(query.M))
    c = 4 * phi_M
    base_lo = max(lo - 1, 1)
    table = lpf_table(base_lo, hi)
    vals = np.arange(base_lo, hi + 1, dtype=np.int64)
    is_p = table == vals
    mask = is_p & (vals >= max(lo, 2)) & (vals % c == c - 1)
    # q-1 sits one slot earlier in the same table
    mask[0] = False
    mask[1:] &= table[:-1] <= query.y
    return [q for q in vals[mask].tolist() if query.M % q != 0]


def count_smooth_primes(z: int, v: int, d: int, b: int) -> int:
    """Number of primes q < z with P(q-1) <= v and q = b (mod d)."""
    if d < 1:
        raise DomainError(f"modulus d must be >= 1, got {d}")
    if z > SIEVE_CAPACITY:
        raise CapacityError(f"bound {z} exceeds sieve capacity {SIEVE_CAPACITY}")
    if z <= 2:
        return 0
    table = lpf_table(1, z - 1)
    vals = np.arange(1, z, dtype=np.int64)
    is_p = table == vals
    is_p[0] = False  # 1 is not prime
    mask = is_p & (vals % d == b % d)
    # P(q-1) sits one slot earlier; P(1) = 1 covers the q = 2 slot
    mask[1:] &= table[:-1] <= v
    return int(np.count_nonzero(mask))
