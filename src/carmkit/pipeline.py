"""Construction pipeline: smooth primes -> modulus L -> multiplier k0 -> prime pool.

Two modes share one pool rule: primes p = d*k + 1 over divisors d of L, coprime
to M*L, listed by one bounded divisor walk. In "agp" mode L is the squarefree
product of shifted-smooth primes, p <= x, the multiplier k0 is the k whose pool
is largest, and the primes may be filtered to quadratic residues mod L and to
a residue class mod M. "erdos" mode is that rule at k = 1 over every divisor
of a directly chosen smooth L = Lambda, unfiltered, so p-1 | Lambda; it is the
default desk-scale path since the faithful x = ceil((M*L)**(2/B)) is
astronomically large even for tiny prime sets.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .arith import Factorization, factorize, is_prime, jacobi, nth_root_floor
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


def _pool_pairs(
    divs: list[int], k: int, L_fact: Factorization, M: int, a: int, filters: PoolFilters
) -> list[tuple[int, int]]:
    """The pool rule: all (p, d) over d in divs with p = d*k + 1 prime, p
    coprime to M*L and passing the enabled filters, in the order of divs."""
    ML = M * L_fact.value()
    out = []
    for d in divs:
        p = d * k + 1
        if (is_prime(p) and ML % p != 0
                and (not filters.require_qr or is_qr_mod_L(p, L_fact))
                and (not filters.require_residue or p % M == a % M)):
            out.append((p, d))
    return out


def find_k0(
    L_fact: Factorization, x: int, M: int, a: int, filters: PoolFilters, k_cap: int
) -> tuple[int, int]:
    """Scan k = 1..min(k_cap, x-1) coprime to L for the k giving the most pool primes.

    A k counts the primes p = d*k+1 <= x over d | L that are coprime to M*L
    and pass the enabled filters; its d are the prefix d <= (x-1)//k of one
    divisor walk at k = 1. Smallest k wins ties. Raises if every k yields zero,
    and, before any primality test, if there are more than K0_SCAN_CAP candidates.
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
    best_k, best_count = 0, 0
    for k in range(1, k_max + 1):
        if math.gcd(k, L) != 1:
            continue
        prefix = divs[: bisect_right(divs, (x - 1) // k)]
        count = len(_pool_pairs(prefix, k, L_fact, M, a, filters))
        if count > best_count:
            best_k, best_count = k, count
    if best_count == 0:
        raise ConstructionError(f"no multiplier k <= {k_cap} yields any pool prime")
    return best_k, best_count


def build_pool(
    L_fact: Factorization, x: int, k0: int, params: ConstructionParams
) -> list[tuple[int, int]]:
    """The first caps.pool_cap pairs (p, d) of the k0 pool, ascending in p.

    gcd((p-1)/d, L) = gcd(k0, L) = 1 holds for every entry when k0 comes
    from find_k0, which only picks k0 coprime to L.
    """
    divs = _divisors_upto(L_fact, (x - 1) // k0)
    return _pool_pairs(divs, k0, L_fact, params.M, params.a, params.filters)[: params.caps.pool_cap]


def erdos_pool(Lambda: int, M: int, pool_cap: int | None = None) -> list[int]:
    """All primes p with p-1 | Lambda and p coprime to Lambda*M, ascending,
    cut at pool_cap: the agp pool rule at k = 1 with L = Lambda, bound Lambda
    and no filters. The residue class plays no role in membership: subset
    products, not single primes, hit it.
    """
    if Lambda < 2:
        raise DomainError(f"Lambda must be >= 2, got {Lambda}")
    f = factorize(Lambda)
    pairs = _pool_pairs(_divisors_upto(f, Lambda), 1, f, M, 0, PoolFilters())
    return [p for p, _ in pairs][:pool_cap]


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
