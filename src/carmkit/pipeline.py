"""Construction pipeline: smooth primes -> modulus L -> multiplier k0 -> prime pool.

Two modes share one pool rule: primes p = d*k + 1 over divisors d of L, coprime
to M*L, listed by one bounded divisor walk and sieved by the primes to 53 on
the grid of all (d, k) before any primality test. In "agp" mode L is the
squarefree product of shifted-smooth primes, p <= x, the multiplier k0 is the
k whose pool is largest, and the primes may be filtered to quadratic residues
mod L and to a residue class mod M. "erdos" mode is that rule at k = 1 over every divisor
of a directly chosen smooth L = Lambda, unfiltered, so p-1 | Lambda; it is the
default desk-scale path since the faithful x = ceil((M*L)**(2/B)) is
astronomically large even for tiny prime sets.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arith import _TRIAL_PRIMES, Factorization, factorize, is_prime, jacobi, nth_root_floor
from .errors import CapacityError, ConstructionError, DomainError
from .sieve import SmoothPrimeQuery, build_Q

X_MAX_BITS = 1_000_000
DIVISOR_CAP = 2**17  # divisors one divisor walk may list
K0_SCAN_CAP = 2**21  # candidates d*k+1 one find_k0 scan may test


@dataclass(frozen=True)
class PoolFilters:
    """Individually toggleable congruence filters on pool primes."""

    require_qr: bool = False
    require_residue: bool = False


@dataclass(frozen=True)
class Caps:
    """Desk-scale overrides for quantities whose faithful values are astronomical."""

    x_cap: int | None = None
    k_cap: int = 10_000
    pool_cap: int | None = None

    def __post_init__(self):
        if self.x_cap is not None and self.x_cap < 2:
            raise DomainError("x_cap must be >= 2")
        if self.k_cap < 1:
            raise DomainError("k_cap must be >= 1")
        if self.pool_cap is not None and self.pool_cap < 1:
            raise DomainError("pool_cap must be >= 1")


@dataclass(frozen=True)
class ConstructionParams:
    M: int
    a: int
    mode: str = "erdos"
    y: int | None = None
    theta: float | None = None
    B: Fraction | None = None
    Lambda: int | None = None
    caps: Caps = field(default_factory=Caps)
    filters: PoolFilters = field(default_factory=lambda: PoolFilters(True, True))

    def __post_init__(self):
        if self.M < 1:
            raise DomainError(f"M must be >= 1, got {self.M}")
        if math.gcd(self.a, self.M) != 1:
            raise DomainError(f"residue {self.a} is not coprime to modulus {self.M}")
        if self.mode not in ("agp", "erdos"):
            raise DomainError(f"mode must be 'agp' or 'erdos', got {self.mode!r}")
        if self.mode == "agp":
            if self.y is None or self.theta is None or self.B is None:
                raise DomainError("agp mode requires y, theta and B")
            if self.y < 2:
                raise DomainError(f"y must be >= 2, got {self.y}")
            if not 0 < self.B < Fraction(5, 12):
                raise DomainError(f"B must lie in (0, 5/12), got {self.B}")
            if not 1 < self.theta < 2:
                raise DomainError(f"theta must lie in (1, 2), got {self.theta}")
        else:
            if self.Lambda is None or self.Lambda < 2:
                raise DomainError("erdos mode requires Lambda >= 2")


@dataclass(frozen=True)
class ConstructionState:
    """Everything derived from ConstructionParams, immutable once built.

    ``x_faithful`` is None when the exact value would exceed X_MAX_BITS bits;
    ``x_faithful_log2`` always records its size, and ``x`` is the bound the
    scans actually used (the cap, if one applied).
    """

    Q: tuple[int, ...]
    x_faithful: int | None
    x_faithful_log2: float
    x: int
    L: int
    L_fact: Factorization
    k0: int
    k0_count: int
    pool: tuple[tuple[int, int], ...]


def _as_fraction(B) -> Fraction:
    # floats go through their decimal string so 0.4 means 2/5, not the binary float
    if isinstance(B, Fraction):
        return B
    if isinstance(B, float):
        return Fraction(str(B))
    return Fraction(B)


def compute_x(M: int, L: int, B) -> int:
    """ceil((M*L)**(2/B)) with exact integer root/power arithmetic."""
    B = _as_fraction(B)
    if not 0 < B < Fraction(5, 12):
        raise DomainError(f"B must lie in (0, 5/12), got {B}")
    base = M * L
    if base < 1:
        raise DomainError("M * L must be >= 1")
    exp = 2 / B  # exact Fraction
    work_bits = base.bit_length() * exp.numerator
    if work_bits > X_MAX_BITS:
        raise CapacityError(
            f"x would need ~{work_bits // max(exp.denominator, 1)} bits "
            f"(> {X_MAX_BITS} working); set caps.x_cap instead"
        )
    powed = base**exp.numerator
    root = nth_root_floor(powed, exp.denominator)
    if root**exp.denominator == powed:
        return root
    return root + 1


def faithful_x_log2(M: int, L: int, B) -> float:
    """log2 of the uncapped x (math.inf past float range), for recording when x is oversized."""
    try:
        return math.log2(M * L) * float(2 / _as_fraction(B))
    except OverflowError:
        return math.inf


def build_L(Q) -> tuple[int, Factorization]:
    """Product of the smooth-shifted primes, with its factorization."""
    Q = sorted(Q)
    if not Q:
        raise ConstructionError("no usable primes at these parameters")
    return math.prod(Q), Factorization.of((q, 1) for q in Q)


def is_qr_mod_L(p: int, L_fact: Factorization) -> bool:
    """True iff p is a quadratic residue modulo every prime factor of squarefree odd L."""
    if not L_fact.is_squarefree or any(q == 2 for q in L_fact.primes()):
        raise DomainError("L must be squarefree and odd")
    if math.gcd(p, L_fact.value()) != 1:
        raise DomainError(f"gcd({p}, L) != 1")
    return all(jacobi(p, q) == 1 for q in L_fact.primes())


def _divisors_upto(fact: Factorization, bound: int) -> list[int]:
    """The divisors d <= bound of fact's value, ascending, grown one prime
    power at a time and cut at the bound, so the walk costs only what lies below it."""
    divs = [1] if bound >= 1 else []
    for q, e in fact:
        power = divs
        for _ in range(e):
            power = [d * q for d in power[: bisect_right(power, bound // q)]]
            divs = sorted(divs + power)
            if len(divs) > DIVISOR_CAP:
                raise CapacityError(
                    f"{fact.value()} has more divisors to list than the divisor cap {DIVISOR_CAP}")
    return divs


def _candidates(divs: list[int], ks: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The grid of candidates d*k + 1, k in ks (ascending) and d in divs with
    d <= limit // k, as flat index arrays (into divs, into ks), k-major and in
    the order of divs."""
    # d <= limit // k iff k <= limit // d: a k's prefix holds the d whose reach is
    # at least k, and reach capped at the largest k fits the dtype of ks
    reach = np.array([min(limit // d, int(ks[-1])) for d in reversed(divs)], dtype=ks.dtype)
    lens = len(divs) - np.searchsorted(reach, ks)
    k_at = np.repeat(np.arange(len(ks), dtype=np.int32), lens)
    starts = np.repeat((np.cumsum(lens) - lens).astype(np.int32), lens)
    return np.arange(k_at.size, dtype=np.int32) - starts, k_at


def _pool_grid(
    divs: list[int], ks: np.ndarray, limit: int, L_fact: Factorization, M: int, a: int,
    filters: PoolFilters,
) -> Iterator[tuple[int, int, int]]:
    """The pool rule over the candidate grid: the triples (k, p, d), k in ks
    (ascending) and d in divs with d <= limit // k, where p = d*k + 1 is prime,
    coprime to M*L and passes the enabled filters, k-major and in the order
    of divs.

    Before any primality test, a candidate with a factor r in _TRIAL_PRIMES
    other than itself is struck, read from (d mod r)(k mod r) + 1 = 0 (mod r)
    at any size of d and k, and so is one outside the residue class a mod M.
    """
    d_at, k_at = _candidates(divs, ks, limit)
    # a candidate p <= 53 may be a sieving prime itself: is_prime decides it
    top = _TRIAL_PRIMES[-1] - 1
    low = np.array(divs[: bisect_right(divs, top)], dtype=np.int64)
    small = d_at < np.searchsorted(low, top // ks, side="right")[k_at]
    live = np.flatnonzero(~small)
    for r in _TRIAL_PRIMES:
        d_mod = np.array([d % r for d in divs], dtype=np.int16)
        live = live[(d_mod[d_at[live]] * (ks % r).astype(np.int16)[k_at[live]] + 1) % r != 0]
    live = np.sort(np.concatenate((np.flatnonzero(small), live)))
    ML = M * L_fact.value()
    for i, k in zip(d_at[live].tolist(), ks[k_at[live]].tolist()):
        d = divs[i]
        p = d * k + 1
        if ((not filters.require_residue or p % M == a % M)
                and is_prime(p) and ML % p != 0
                and (not filters.require_qr or is_qr_mod_L(p, L_fact))):
            yield k, p, d


def find_k0(
    L_fact: Factorization, x: int, M: int, a: int, filters: PoolFilters, k_cap: int
) -> tuple[int, int]:
    """Scan k = 1..min(k_cap, x-1) coprime to L for the k giving the most pool primes.

    A k counts the primes p = d*k+1 <= x over d | L that are coprime to M*L
    and pass the enabled filters; its d are the prefix d <= (x-1)//k of one
    divisor walk at k = 1, and all k go through one pool-rule grid. Smallest
    k wins ties. Raises if every k yields zero, and, before any primality
    test, if there are more than K0_SCAN_CAP candidates.
    """
    if x < 2:
        raise DomainError(f"x must be >= 2, got {x}")
    if k_cap < 1:
        raise DomainError(f"k_cap must be >= 1, got {k_cap}")
    L = L_fact.value()
    divs = _divisors_upto(L_fact, x - 1)
    k_max = min(k_cap, x - 1)
    candidates = sum(min(k_max, (x - 1) // d) for d in divs)
    if candidates > K0_SCAN_CAP:
        raise CapacityError(f"{candidates} k0 candidates exceed the k0 scan cap {K0_SCAN_CAP}")
    ks = np.fromiter((k for k in range(1, k_max + 1) if math.gcd(k, L) == 1), dtype=np.int64)
    # counted in ascending k, so max() meets the smallest k of a tie first
    counts = Counter(k for k, _, _ in _pool_grid(divs, ks, x - 1, L_fact, M, a, filters))
    if not counts:
        raise ConstructionError(f"no multiplier k <= {k_cap} yields any pool prime")
    k0 = max(counts, key=counts.__getitem__)
    return k0, counts[k0]


def build_pool(
    L_fact: Factorization, x: int, k0: int, params: ConstructionParams
) -> list[tuple[int, int]]:
    """The first caps.pool_cap pairs (p, d) of the k0 pool, ascending in p.

    gcd((p-1)/d, L) = gcd(k0, L) = 1 holds for every entry when k0 comes
    from find_k0, which only picks k0 coprime to L.
    """
    divs = _divisors_upto(L_fact, (x - 1) // k0)
    grid = _pool_grid(divs, np.array([k0]), x - 1, L_fact, params.M, params.a, params.filters)
    return [(p, d) for _, p, d in grid][: params.caps.pool_cap]


def erdos_pool(Lambda: int, M: int, pool_cap: int | None = None) -> list[int]:
    """All primes p with p-1 | Lambda and p coprime to Lambda*M, ascending,
    cut at pool_cap: the agp pool rule at k = 1 with L = Lambda, bound Lambda
    and no filters. The residue class plays no role in membership: subset
    products, not single primes, hit it.
    """
    if Lambda < 2:
        raise DomainError(f"Lambda must be >= 2, got {Lambda}")
    f = factorize(Lambda)
    grid = _pool_grid(_divisors_upto(f, Lambda), np.array([1]), Lambda, f, M, 0, PoolFilters())
    return [p for _, p, _ in grid][:pool_cap]


def run_agp_construction(params: ConstructionParams) -> ConstructionState:
    """The full agp-mode pipeline at desk scale: Q, L, x, k0, pool."""
    if params.mode != "agp":
        raise DomainError("run_agp_construction requires agp-mode params")
    Q = build_Q(SmoothPrimeQuery(params.y, params.theta, params.M))
    L, L_fact = build_L(Q)
    log2x = faithful_x_log2(params.M, L, params.B)
    x_faithful: int | None
    try:
        x_faithful = compute_x(params.M, L, params.B)
    except CapacityError:
        x_faithful = None
    if params.caps.x_cap is not None:
        x = params.caps.x_cap if x_faithful is None else min(x_faithful, params.caps.x_cap)
    elif x_faithful is not None:
        x = x_faithful
    else:
        raise CapacityError("faithful x is oversized and no caps.x_cap was provided")
    k0, count = find_k0(L_fact, x, params.M, params.a, params.filters, params.caps.k_cap)
    return ConstructionState(
        Q=tuple(Q),
        x_faithful=x_faithful,
        x_faithful_log2=log2x,
        x=x,
        L=L,
        L_fact=L_fact,
        k0=k0,
        k0_count=count,
        pool=tuple(build_pool(L_fact, x, k0, params)),
    )
