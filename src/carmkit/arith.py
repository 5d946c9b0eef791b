"""Exact integer arithmetic: primality, factoring, Jacobi symbols, group orders.

Everything operates on Python ints (arbitrary precision). Primality is
deterministic below 2**64 and strong-probable-prime + strong Lucas above;
``PROBABLE_PRIME_THRESHOLD`` marks where results become probabilistic.

Below 2**64, Miller-Rabin runs the smallest known base set for n's size, from
one table of (bound, bases): no composite below the bound is a strong
pseudoprime to every base of its set. The search method and the prime-base
bounds (OEIS A014233) are Jaeschke's ("On strong pseudoprimes to several
bases", Math. Comp. 61, 1993). The 3- to 6-base sets come from later
searches, as tabulated at miller-rabin.appspot.com and in sympy's
``isprime``; the 7-base set to 2**64 is Sinclair's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import DomainError, UnfactoredError, int_text

# (bound, bases): Miller-Rabin over the bases is exact for n < bound, and each
# bound but 2**64 is itself a composite strong pseudoprime to its own set.
_MR_TABLE = (
    (350269456337, (4230279247111683200, 14694767155120705706, 16641139526367750375)),
    (55245642489451, (2, 141889084524735, 1199124725622454117, 11096072698276303650)),
    (7999252175582851,
     (2, 4130806001517, 149795463772692060, 186635894390467037, 3967304179347715805)),
    (585226005592931977,
     (2, 123635709730000, 9233062284813009, 43835965440333360, 761179012939631437,
      1263739024124850375)),
    (1 << 64, (2, 325, 9375, 28178, 450775, 9780504, 1795265022)),
)
_MR_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # with strong Lucas, above 2**64
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

PROBABLE_PRIME_THRESHOLD = 1 << 64
TRIAL_BOUND = 100_000  # factorize's trial-division bound
RHO_BUDGET = 2_000_000  # factorize's total Brent-rho iterations


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, exponent) pairs, ascending by prime."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prev = 1
        for p, e in self.pairs:
            if p <= prev:
                raise DomainError(f"primes must be strictly ascending, got {p} after {prev}")
            if e < 1:
                raise DomainError(f"exponent for prime {p} must be >= 1, got {e}")
            prev = p

    @classmethod
    def of(cls, pairs) -> "Factorization":
        return cls(tuple((int(p), int(e)) for p, e in pairs))

    def value(self) -> int:
        return product(p**e for p, e in self.pairs)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)

    @property
    def big_omega(self) -> int:
        """Number of prime divisors counted with multiplicity."""
        return sum(e for _, e in self.pairs)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)


def product(factors) -> int:
    """The product of the ints ``factors``, multiplied pairwise up a balanced
    tree, so that big operands meet operands of like size: subquadratic where a
    running product of many small factors is quadratic in the result's size."""
    level = list(factors)
    while len(level) > 1:  # an odd one out moves up a level as it is
        level = [a * b for a, b in zip(level[::2], level[1::2])] + level[len(level) & ~1 :]
    return level[0] if level else 1


def mr_band(n: int) -> tuple[int, tuple[int, ...]]:
    """(bound, bases): the first _MR_TABLE band whose bound exceeds n, for
    0 <= n < 2**64. Miller-Rabin over the bases is exact below the bound."""
    for band in _MR_TABLE:
        if n < band[0]:
            return band
    raise DomainError(f"mr_band takes n < 2**64, got {int_text(n)}")


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _odd_part(m: int) -> tuple[int, int]:
    """(d, s) with m = d * 2**s and d odd, for m >= 1."""
    s = (m & -m).bit_length() - 1
    return m >> s, s


def _root_split(m: int, a: int, d: int, s: int) -> int:
    """A proper factor of m from base a and the exponent d * 2**s: a itself if
    it divides m, else gcd(x - 1, m) for a square root x != +-1 of 1 on the
    chain a**d, a**(2d), ...; 1 if the chain gives none; 0 if
    a**(d * 2**s) != 1 mod m. With d * 2**s = m - 1 this is Miller's test:
    1 means m is a strong probable prime to base a."""
    if m % a == 0:
        return a
    x = pow(a, d, m)
    if x == 1:
        return 1
    for _ in range(s):
        y = x * x % m
        if y == 1:
            return 1 if x == m - 1 else math.gcd(x - 1, m)
        x = y
    return 0


def _miller_rabin(n: int, bases) -> bool:
    d, s = _odd_part(n - 1)
    for a in bases:
        if a % n and _root_split(n, a, d, s) != 1:
            return False
    return True


def _strong_lucas(n: int) -> bool:
    # Selfridge parameter search: D = 5, -7, 9, -11, ... with (D/n) = -1.
    if _is_square(n):
        return False
    D = 5
    while True:
        j = jacobi(D % n, n)
        if j == -1:
            break
        if j == 0 and D % n != 0:
            return False  # proper factor found
        D = -(D + 2) if D > 0 else -(D - 2)
    P = 1
    Q = (1 - D) // 4
    d, s = _odd_part(n + 1)
    inv2 = (n + 1) // 2
    Dn = D % n
    U, V = 1, P
    Qk = Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (P * U + V) * inv2 % n, (Dn * U + P * V) * inv2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if V == 0:
            return True
    return False


def is_prime(n: int) -> bool:
    """Primality test: exact below 2**64 (the base table), Baillie-PSW style above.

    Above ``PROBABLE_PRIME_THRESHOLD`` the answer is a strong-probable-prime +
    strong Lucas verdict with no known counterexample; callers that certify
    results should record that via the threshold constant.
    """
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    if n < PROBABLE_PRIME_THRESHOLD:
        return _miller_rabin(n, mr_band(n)[1])
    return _miller_rabin(n, _MR_PRIME_BASES) and _strong_lucas(n)


def _pollard_brent(n: int, seed: int, budget: int) -> tuple[int, int]:
    """One Brent-rho round. Returns (factor, iterations used); factor == n on failure."""
    y, c, m = 2 + seed, 1 + seed, 128
    g, r, q = 1, 1, 1
    used = 0
    x = ys = y
    while g == 1 and used < budget:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            used += min(m, r - k)
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            used += 1
            if used >= budget:
                break
    return (g if 1 < g < n else n), used


def factorize(n: int) -> Factorization:
    """Exact factorization of n >= 1 under an explicit work budget.

    Trial division up to TRIAL_BOUND, then deterministic Brent-rho rounds
    capped at RHO_BUDGET total iterations. Raises UnfactoredError (naming
    the remaining cofactor) rather than stalling on hard inputs.
    """
    if n < 1:
        raise DomainError(f"factorize requires n >= 1, got {n}")
    found: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            found[p] = found.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)  # gaps coprime to 2,3,5
    w = 0
    while d * d <= n and d <= TRIAL_BOUND:
        while n % d == 0:
            found[d] = found.get(d, 0) + 1
            n //= d
        d += wheel[w]
        w = (w + 1) % 8
    if n > 1 and d * d > n:
        found[n] = found.get(n, 0) + 1
        n = 1

    remaining = RHO_BUDGET
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        if _is_square(m):
            r = math.isqrt(m)
            stack.extend((r, r))
            continue
        got = None
        for seed in range(8):
            if remaining <= 0:
                raise UnfactoredError(m, RHO_BUDGET)
            f, used = _pollard_brent(m, seed, remaining)
            remaining -= used
            if f != m:
                got = f
                break
        if got is None:
            raise UnfactoredError(m, RHO_BUDGET)
        stack.extend((got, m // got))
    return Factorization.of(sorted(found.items()))


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise DomainError(f"jacobi requires odd n >= 1, got {n}")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def euler_phi(f: Factorization) -> int:
    """Euler totient from a factorization."""
    out = 1
    for p, e in f:
        out *= p ** (e - 1) * (p - 1)
    return out


def carmichael_lambda(f: Factorization) -> int:
    """Exponent of the unit group, via local exponents at each prime power."""
    out = 1
    for p, e in f:
        if p == 2:
            local = 1 if e == 1 else (2 if e == 2 else 2 ** (e - 2))
        else:
            local = p ** (e - 1) * (p - 1)
        out = math.lcm(out, local)
    return out


def nth_root_floor(n: int, k: int) -> int:
    """Largest r with r**k <= n, exact integer arithmetic."""
    if n < 0 or k < 1:
        raise DomainError(f"nth_root_floor requires n >= 0, k >= 1, got {n}, {k}")
    if n < 2:
        return n
    if k == 1:
        return n
    r = 1 << (n.bit_length() // k + 1)
    while True:
        nr = ((k - 1) * r + n // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r**k > n:
        r -= 1
    return r
