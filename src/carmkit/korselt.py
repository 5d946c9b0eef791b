"""Carmichael verification and exhaustive enumeration.

korselt_check is the independent oracle every constructed number must pass:
composite, squarefree, and p-1 | n-1 for each prime p | n. The enumerator
sieves segments of odd integers; survivors are rare enough that their
factorizations are rebuilt one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .arith import Factorization, factorize
from .errors import CapacityError, DomainError

ENUMERATION_CAP = 100_000_000
CENSUS_MODULUS_CAP = 1_000_000
DEFAULT_SEGMENT = 1 << 20  # even, so every segment starts odd


def korselt_check(n: int, f: Factorization) -> bool:
    """True iff n is composite, squarefree, and p-1 | n-1 for every prime p | n."""
    if f.value() != n:
        raise DomainError(f"factorization {f.pairs} does not multiply to {n}")
    if f.big_omega < 2:
        return False
    if not f.is_squarefree:
        return False
    return all((n - 1) % (p - 1) == 0 for p in f.primes())


def fermat_witness(n: int, a: int) -> bool:
    """True iff a**n == a (mod n)."""
    if n < 2:
        raise DomainError(f"fermat_witness requires n >= 2, got {n}")
    return pow(a, n, n) == a % n


def enumerate_carmichael(limit: int, *, threads: int = 1) -> list[tuple[int, Factorization]]:
    """All Carmichael numbers below ``limit``, ascending, with factorizations."""
    if limit > ENUMERATION_CAP:
        raise CapacityError(f"limit {limit} exceeds enumeration cap {ENUMERATION_CAP}")
    if limit <= 561:
        return []
    odd_primes = _kernels.sieve_primes(math.isqrt(limit - 1))[1:]  # drop 2

    def scan(lo, hi):
        flags = _kernels.carmichael_segment(lo, hi, odd_primes)
        return lo + 2 * np.flatnonzero(flags)

    out: list[tuple[int, Factorization]] = []
    for arr in _kernels.scan_segments(scan, 3, limit, DEFAULT_SEGMENT, threads):
        for n in (int(v) for v in arr):
            f = factorize(n)
            if not korselt_check(n, f):  # sieve and oracle must agree
                raise AssertionError(f"segment scan produced non-Carmichael {n}")
            out.append((n, f))
    return out


@dataclass(frozen=True)
class Census:
    """Counts of Carmichael numbers below ``limit`` per residue class mod ``modulus``.

    ``counts`` covers every residue coprime to the modulus (zeros included);
    numbers sharing a factor with the modulus land in ``other``.
    """

    limit: int
    modulus: int
    counts: dict[int, int] = field(default_factory=dict)
    other: int = 0

    @property
    def total(self) -> int:
        return sum(self.counts.values()) + self.other


def census(limit: int, M: int, *, threads: int = 1) -> Census:
    """Bucket the Carmichael numbers below ``limit`` by residue mod M (M >= 1)."""
    if M < 1:
        raise DomainError(f"census requires modulus >= 1, got {M}")
    if M > CENSUS_MODULUS_CAP:
        raise CapacityError(f"modulus {M} exceeds census modulus cap {CENSUS_MODULUS_CAP}")
    counts = {a: 0 for a in range(M) if math.gcd(a, M) == 1}
    other = 0
    for n, _ in enumerate_carmichael(limit, threads=threads):
        r = n % M
        if r in counts:
            counts[r] += 1
        else:
            other += 1
    return Census(limit=limit, modulus=M, counts=counts, other=other)
