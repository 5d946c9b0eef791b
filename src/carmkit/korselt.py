"""Carmichael verification and exhaustive enumeration.

korselt_check is the independent oracle every constructed number must pass:
composite, squarefree, and p-1 | n-1 for each prime p | n. carmichael_factors
splits a claimed Carmichael number at square roots of 1. The enumerator
sieves segments of odd integers; survivors are rare enough that their
factorizations are rebuilt one by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .arith import _TRIAL_PRIMES, Factorization, _odd_part, _root_split, factorize, is_prime
from .errors import CapacityError, DomainError, int_text

ENUMERATION_CAP = 100_000_000
CENSUS_MODULUS_CAP = 1_000_000
DEFAULT_SEGMENT = 1 << 20  # even, so every segment starts odd
SPLIT_BASES = _TRIAL_PRIMES


def korselt_check(n: int, f: Factorization) -> bool:
    """True iff n is composite, squarefree, and p-1 | n-1 for every prime p | n."""
    if f.value() != n:
        pairs = ", ".join(f"({int_text(p)}, {int_text(e)})" for p, e in f.pairs)
        raise DomainError(f"factorization ({pairs}) does not multiply to {int_text(n)}")
    if f.big_omega < 2:
        return False
    if not f.is_squarefree:
        return False
    return all((n - 1) % (p - 1) == 0 for p in f.primes())


def carmichael_factors(n: int) -> Factorization | None:
    """The factorization of n if n is a Carmichael number; None once a base
    proves that n is not one.

    Miller's reduction: lambda(n) | n - 1 for a Carmichael n, so every base a
    coprime to a part m of n has a**(n-1) = 1 mod m, and the squaring chain
    up to a**(n-1) passes a square root of 1 that splits m unless it is +-1.
    Every part keeps the exponent n - 1, as lambda(m) | lambda(n); its own
    m - 1 need not work. Parts run through SPLIT_BASES in order until
    is_prime holds; a part that no base splits goes to arith.factorize. For an
    n that is not Carmichael the result can still be a factorization, which
    korselt_check then rejects.
    """
    if n < 3 or n % 2 == 0:
        return None
    d, s = _odd_part(n - 1)
    found: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        for a in SPLIT_BASES:
            g = _root_split(m, a, d, s)
            if g != 1:
                break
        else:  # no base splits m
            for p, e in factorize(m):
                found[p] = found.get(p, 0) + e
            continue
        if g == 0:
            return None
        stack += (g, m // g)
    return Factorization.of(sorted(found.items()))


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
