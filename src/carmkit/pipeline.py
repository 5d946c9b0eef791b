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
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby

import numpy as np

from ._kernels import MR_LIMIT, strong_probable_primes
from .arith import (
    _TRIAL_PRIMES, Factorization, factorize, is_prime, jacobi, mr_band, nth_root_floor, product,
)
from .errors import CapacityError, ConstructionError, DomainError
from .sieve import build_Q

X_MAX_BITS = 1_000_000
DIVISOR_CAP = 2**17  # divisors one divisor walk may list
K0_SCAN_CAP = 2**21  # candidates d*k+1 one find_k0 scan may test
_GRID_BLOCK = 2**16  # candidates the pool rule sieves at once
# sieved candidates below which a block runs is_prime one at a time. On a
# 2-vCPU x86 box, numpy 2.4, best of 100: 128 candidates below 2**20 took
# 1.2 ms batched and 0.85 ms scalar, 256 of them 1.4 and 1.7 ms; 128
# candidates in (10**6, 10**12) took 3.0 and 2.8 ms, 256 of them 3.1 and
# 5.1 ms. A bound of 128 won three of six alternating agp run_s pairs
# against 256
_BATCH_MIN = 256


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
    pool: tuple[int, ...]


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
    return product(Q), Factorization.of((q, 1) for q in Q)


def is_qr_mod_L(p: int, L_fact: Factorization) -> bool:
    """True iff p is a quadratic residue modulo every prime factor of squarefree odd L."""
    primes = L_fact.primes()
    if not L_fact.is_squarefree or 2 in primes:
        raise DomainError("L must be squarefree and odd")
    if any(p % q == 0 for q in primes):
        raise DomainError(f"gcd({p}, L) != 1")
    return all(jacobi(p, q) == 1 for q in primes)


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
                    f"L of {len(fact.pairs)} primes ({fact.value().bit_length()} bits) has more"
                    f" divisors to list than the divisor cap {DIVISOR_CAP}")
    return divs


def _candidates(
    divs: list[int], ks: np.ndarray, limit: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The grid of candidates d*k + 1, k in ks (ascending) and d in divs with
    d <= limit // k, as flat index arrays (into divs, into ks), k-major and in
    the order of divs, in consecutive blocks of at most _GRID_BLOCK candidates."""
    # d <= limit // k iff k <= limit // d: a k's prefix holds the d whose reach is
    # at least k, and reach capped at the largest k fits the dtype of ks
    reach = np.array([min(limit // d, int(ks[-1])) for d in reversed(divs)], dtype=ks.dtype)
    for first in range(0, len(ks), _GRID_BLOCK):  # no array spans more than _GRID_BLOCK ks
        lens = len(divs) - np.searchsorted(reach, ks[first : first + _GRID_BLOCK])
        ends = np.cumsum(lens)  # flat positions, counted from this run's first k
        for lo in range(0, int(ends[-1]), _GRID_BLOCK):
            hi = min(lo + _GRID_BLOCK, int(ends[-1]))
            # the run's ks a..b hold [lo, hi); each gives the part of its prefix inside it
            a, b = np.searchsorted(ends, [lo, hi - 1], side="right")
            starts = ends[a : b + 1] - lens[a : b + 1]
            counts = np.minimum(ends[a : b + 1], hi) - np.maximum(starts, lo)
            yield (np.arange(lo, hi) - np.repeat(starts, counts),
                   np.repeat(np.arange(first + a, first + b + 1), counts))


def _batch_primes(p: np.ndarray, M: int, a: int, require_residue: bool) -> np.ndarray:
    """Flags, per sieved candidate p above 53 (int64, below MR_LIMIT): p is in
    the residue class a mod M if that filter is on, and is prime, tested on
    the base set of its own band, as is_prime tests it."""
    # p < MR_LIMIT <= M leaves p % M = p, and no p meets a % M >= MR_LIMIT:
    # M and a % M stay within int64
    flags = np.ones(p.size, dtype=bool)
    if require_residue:
        flags = (p % M if M < MR_LIMIT else p) == min(a % M, MR_LIMIT)
    todo = flags.copy()
    while todo.any():
        bound, bases = mr_band(int(p[todo].min()))
        band = todo & (p < bound)
        flags[band] = strong_probable_primes(p[band], bases)
        todo &= ~band
    return flags


def _pool_grid(
    divs: list[int], ks: np.ndarray, limit: int, L: int, L_fact: Factorization, M: int, a: int,
    filters: PoolFilters,
) -> Iterator[tuple[int, int]]:
    """The pool rule over the candidate grid: the pairs (k, p), k in ks
    (ascending) and d in divs with d <= limit // k, where p = d*k + 1 is prime,
    coprime to M*L and passes the enabled filters, k-major and in the order
    of divs.

    Before any primality test, a candidate with a factor r in _TRIAL_PRIMES
    other than itself is struck, read from (d mod r)(k mod r) + 1 = 0 (mod r)
    at any size of d and k, and so is one outside the residue class a mod M.
    The grid is sieved one block of candidates at a time. When limit <
    MR_LIMIT, a block with at least _BATCH_MIN candidates above 53 left is
    decided by _batch_primes in one pass; the rest, and every candidate of a
    larger grid, go through is_prime one at a time.
    """
    # a candidate p <= 53 may be a sieving prime itself: is_prime decides it
    top = _TRIAL_PRIMES[-1] - 1
    low = np.array(divs[: bisect_right(divs, top)], dtype=np.int64)
    d_mods = (np.array(divs, dtype=object) % np.array(_TRIAL_PRIMES, dtype=object)[:, None]).astype(np.int16)
    ML = M * L
    divs_int64 = np.array(divs, dtype=np.int64) if limit < MR_LIMIT else None
    for d_at, k_at in _candidates(divs, ks, limit):
        # the block's ks are one run ks[k_at[0]:k_at[-1]+1]; per-k values are taken there
        run, k_at = ks[k_at[0] : k_at[-1] + 1], k_at - k_at[0]
        small = d_at < np.searchsorted(low, top // run, side="right")[k_at]
        live = np.flatnonzero(~small)
        for r, d_mod in zip(_TRIAL_PRIMES, d_mods):
            live = live[(d_mod[d_at[live]] * (run % r).astype(np.int16)[k_at[live]] + 1) % r != 0]
        known = np.zeros(d_at.size, dtype=bool)  # residue and primality settled
        if divs_int64 is not None and live.size >= _BATCH_MIN:
            p = divs_int64[d_at[live]] * run[k_at[live]] + 1
            live = live[_batch_primes(p, M, a, filters.require_residue)]
            known[live] = True
        live = np.sort(np.concatenate((np.flatnonzero(small), live)))
        for i, k, sure in zip(d_at[live].tolist(), run[k_at[live]].tolist(), known[live].tolist()):
            p = divs[i] * k + 1
            if ((sure or ((not filters.require_residue or p % M == a % M) and is_prime(p)))
                    and ML % p != 0
                    and (not filters.require_qr or is_qr_mod_L(p, L_fact))):
                yield k, p


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
    # k_max <= candidates (d = 1 is a divisor) <= K0_SCAN_CAP, so int32 holds every k
    ks = np.fromiter((k for k in range(1, k_max + 1) if math.gcd(k, L) == 1), dtype=np.int32)
    # the grid is k-major, so each k's primes come in one run; only a strictly
    # larger count displaces the best, so the smallest k of a tie wins
    best = (0, 0)
    for k, run in groupby(k for k, _ in _pool_grid(divs, ks, x - 1, L, L_fact, M, a, filters)):
        count = sum(1 for _ in run)
        if count > best[1]:
            best = (k, count)
    if not best[1]:
        raise ConstructionError(f"no multiplier k <= {k_cap} yields any pool prime")
    return best


def build_pool(
    L_fact: Factorization, x: int, k0: int, params: ConstructionParams
) -> list[int]:
    """The k0 pool, ascending and cut at caps.pool_cap: the primes
    p = d*k0 + 1 <= x over d | L that pass the pool rule."""
    divs = _divisors_upto(L_fact, (x - 1) // k0)
    grid = _pool_grid(divs, np.array([k0]), x - 1, L_fact.value(), L_fact, params.M, params.a,
                      params.filters)
    return [p for _, p in grid][: params.caps.pool_cap]


def erdos_pool(Lambda: int, M: int, pool_cap: int | None = None) -> list[int]:
    """All primes p with p-1 | Lambda and p coprime to Lambda*M, ascending,
    cut at pool_cap: the agp pool rule at k = 1 with L = Lambda, bound Lambda
    and no filters. The residue class plays no role in membership: subset
    products, not single primes, hit it.
    """
    if Lambda < 2:
        raise DomainError(f"Lambda must be >= 2, got {Lambda}")
    f = factorize(Lambda)
    grid = _pool_grid(_divisors_upto(f, Lambda), np.array([1]), Lambda, Lambda, f, M, 0,
                      PoolFilters())
    return [p for _, p in grid][:pool_cap]


def run_agp_construction(params: ConstructionParams) -> ConstructionState:
    """The full agp-mode pipeline at desk scale: Q, L, x, k0, pool."""
    if params.mode != "agp":
        raise DomainError("run_agp_construction requires agp-mode params")
    Q = build_Q(params.y, params.theta, params.M)
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
