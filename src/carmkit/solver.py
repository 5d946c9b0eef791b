"""Unit-group invariants, residue targets, subset-product search, certification.

The searches are explicit and complete: meet-in-the-middle for pools up to 40
elements, a layered DP over the unit group (Z/m)^x with witness reconstruction
beyond that, and a full 2**n scan as the exhaustive oracle for small pools.
Meet-in-the-middle sorts one half's subsets as (product, size, mask) keys and
binary-searches them for each mask of the other half, in mask order, for any
modulus. Every pool element is a unit and the DP starts from 1, so the DP
table covers the phi(m) units only, with one axis of phi(q) positions per
prime power q of m, as the CRT splits the unit group. A found subset is
certified by independent re-checks before a certificate is emitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .arith import (
    Factorization,
    PROBABLE_PRIME_THRESHOLD,
    carmichael_lambda,
    crt,
    euler_phi,
    factorize,
    is_prime,
    multiplicative_order,
)
from .errors import (
    AssemblyError,
    CapacityError,
    CrtConflictError,
    DomainError,
    InfeasibleError,
    OrderingError,
)
from .korselt import korselt_check

MITM_LIMIT = 40
ENUMERATE_LIMIT = 24
DP_CELL_BOUND = 200_000_000
EXACT_GROUP_CAP = 36  # largest unit group exact_identity_threshold searches
_MASK_BLOCK = 1 << 14  # masks one numpy step looks up (MITM) or forms (exhaustive scan)


@dataclass(frozen=True)
class GroupSpec:
    """The unit group modulo ``modulus`` with its order and exponent.

    ``phi_M`` carries phi of the residue modulus M separately because the
    t-formula needs it while the group itself lives mod M*L (or lcm(Lambda, M)).
    """

    modulus: int
    modulus_fact: Factorization
    order: int
    exponent: int
    phi_M: int = 1

    def __post_init__(self):
        if self.order % self.exponent != 0:
            raise DomainError("group exponent must divide group order")

    @classmethod
    def from_modulus_fact(cls, fact: Factorization, phi_M: int = 1) -> "GroupSpec":
        return cls(
            modulus=fact.value(),
            modulus_fact=fact,
            order=euler_phi(fact),
            exponent=carmichael_lambda(fact),
            phi_M=phi_M,
        )


@dataclass(frozen=True)
class GroupInvariants:
    lambda_G: int
    omega_lambda: int
    omega_order: int
    n_bound: float
    s_G: int
    t: float
    omega_L: int
    degenerate: bool = False


@dataclass(frozen=True)
class ResidueTarget:
    """The element h with h = 1 mod L and h = a mod M, inside (Z/modulus)^x."""

    h: int
    modulus: int


@dataclass(frozen=True)
class AssemblySpec:
    """Shared construction data a certificate is checked against."""

    mode: str  # "agp" | "erdos" | "external"
    multiplier: int  # k0 (agp), Lambda (erdos), 0 (external)
    L: int  # 0 when unused
    M: int
    a: int


@dataclass(frozen=True)
class CarmichaelCertificate:
    n: int
    prime_factors: tuple[int, ...]
    mode: str
    shared_multiplier: int
    L: int
    M: int
    a: int
    checks: dict[str, bool]


def compute_invariants(spec: GroupSpec, omega_L: int, x: int) -> GroupInvariants:
    """Evaluate the zero-sum threshold s(G), the identity-threshold bound and t.

    n_bound = lambda * (1 + log|G|/lambda)
    s(G)    = ceil(5 * lambda^2 * Omega(lambda) * log(3 * lambda * Omega(|G|)))
    t       = (6/5)**omega_L / (60 * phi(M) * log x)

    Logarithms are natural.
    """
    if x < 3:
        raise DomainError(f"x must be >= 3, got {x}")
    lam = spec.exponent
    omega_lambda = factorize(lam).big_omega if lam > 1 else 0
    omega_order = factorize(spec.order).big_omega if spec.order > 1 else 0
    # lam * (1 + log|G|/lam) = lam + log|G|; may exceed float range for huge groups
    try:
        n_bound = float(lam) + (math.log(spec.order) if spec.order > 1 else 0.0)
    except OverflowError:
        n_bound = math.inf
    if lam >= 2:
        # ceil(A * c) in exact arithmetic (A can dwarf the float range)
        A = 5 * lam * lam * omega_lambda
        c = Fraction(math.log(3 * lam * omega_order))
        s_G = int(-(-A * c.numerator // c.denominator))
    else:
        s_G = 0
    t = (6 / 5) ** omega_L / (60 * spec.phi_M * math.log(x))
    return GroupInvariants(
        lambda_G=lam,
        omega_lambda=omega_lambda,
        omega_order=omega_order,
        n_bound=n_bound,
        s_G=s_G,
        t=t,
        omega_L=omega_L,
        degenerate=lam < 2,
    )


def exact_identity_threshold(modulus: int) -> int:
    """Exact smallest N such that every N non-identity units contain an
    identity-product subset (exhaustive search; unit groups of order <=
    EXACT_GROUP_CAP)."""
    if modulus < 1:
        raise DomainError(f"modulus must be >= 1, got {modulus}")
    order = euler_phi(factorize(modulus))
    if order > EXACT_GROUP_CAP:
        raise CapacityError(f"group order {order} exceeds exhaustive cap {EXACT_GROUP_CAP}")
    units = [a for a in range(1, modulus) if math.gcd(a, modulus) == 1] or [0]
    elems = [u for u in units if u != 1 % modulus]
    if not elems:
        return 1
    memo: dict[tuple[frozenset, int], int] = {}

    def extend(products: frozenset, start: int) -> int:
        key = (products, start)
        hit = memo.get(key)
        if hit is not None:
            return hit
        most = 0
        for idx in range(start, len(elems)):
            g = elems[idx]
            new = products | {p * g % modulus for p in products} | {g}
            if 1 % modulus in new:
                continue
            if len(new) >= order - 1:  # any further element would close a product to 1
                most = max(most, 1)
                continue
            most = max(most, 1 + extend(frozenset(new), idx))
        memo[key] = most
        return most

    return extend(frozenset(), 0) + 1


def derive_target(L: int, M: int, a: int) -> ResidueTarget:
    """CRT-combine h = 1 mod L with h = a mod M."""
    if math.gcd(a, M) != 1:
        raise DomainError(f"residue {a} is not coprime to {M}")
    try:
        h, modulus = crt([(1, L), (a, M)])
    except CrtConflictError as e:
        raise InfeasibleError(
            f"no element is 1 mod {L} and {a} mod {M}: gcd({L}, {M}) does not divide {a - 1}"
        ) from e
    return ResidueTarget(h=h, modulus=modulus)


def derive_target_exponent(p: int, L_fact: Factorization, M: int) -> int:
    """Least r >= 1 with r = 0 mod ord_L(p) and r = 1 mod phi(M)."""
    L = L_fact.value()
    if math.gcd(p, L) != 1:
        raise DomainError(f"gcd({p}, {L}) != 1")
    lam = carmichael_lambda(L_fact)
    order = multiplicative_order(p, L, factorize(lam))
    phi_M = euler_phi(factorize(M))
    g = math.gcd(order, phi_M)
    if g != 1:
        raise InfeasibleError(
            f"ord_L(p) = {order} shares factor {g} with phi(M) = {phi_M}; no exponent exists"
        )
    r, mod = crt([(0, order), (1, phi_M)])
    return r if r > 0 else r + mod


def _validate_pool(pool, modulus: int, min_size: int) -> list[int]:
    pool = [int(p) for p in pool]
    if min_size < 1:
        raise DomainError(f"min_size must be >= 1, got {min_size}")
    if modulus < 1:
        raise DomainError(f"modulus must be >= 1, got {modulus}")
    for p in pool:
        if math.gcd(p, modulus) != 1:
            raise DomainError(f"pool element {p} is not coprime to modulus {modulus}")
    return pool


def _find_mitm(pool, modulus, target, min_size, max_size):
    """First left mask (in mask order) with a right partner, and for it the
    right mask of least size, then least mask, that completes the target."""
    n = len(pool)
    nb = n // 2
    left, right = pool[: n - nb], pool[n - nb :]
    cap = max_size if max_size is not None else n
    # right half: one key per mask ordering (product, size, mask); the keys are
    # distinct and, for int64 products (< 2**31, nb <= 20), below 2**56
    w = nb + 1
    rp, rs = _kernels.all_subset_products([e % modulus for e in right], modulus)
    table = np.sort((rp * w + rs) << nb | np.arange(1 << nb))
    # left half: the product each left mask needs from the right
    inv, sizes = _kernels.all_subset_products([pow(e, -1, modulus) for e in left], modulus)
    for start in range(0, inv.shape[0], _MASK_BLOCK):
        base = inv[start : start + _MASK_BLOCK] * target % modulus * w
        sl = sizes[start : start + _MASK_BLOCK].astype(np.int64)
        # right sizes allowed; hi <= nb keeps each lookup inside its product's keys
        lo = np.maximum(min_size - sl, 0)
        hi = np.minimum(cap - sl, nb)
        pos = np.searchsorted(table, (base + lo) << nb)
        entry = table[np.minimum(pos, table.shape[0] - 1)]
        hits = np.flatnonzero((lo <= hi) & (pos < table.shape[0]) & ((entry >> nb) <= base + hi))
        if hits.size:
            lmask = start + int(hits[0])
            rmask = int(entry[hits[0]]) & ((1 << nb) - 1)
            idx = [i for i in range(len(left)) if lmask >> i & 1]
            idx += [len(left) + i for i in range(len(right)) if rmask >> i & 1]
            return tuple(idx)
    return None


def _find_dp(pool, modulus, target, min_size, max_size):
    n = len(pool)
    if modulus >= _kernels.INT64_MOD_LIMIT:
        raise CapacityError(
            f"modulus {modulus} is too large for the residue DP; reduce the pool to <= {MITM_LIMIT}"
        )
    capped = max_size is None
    n_classes = (min_size if capped else max_size) + 1
    pq = [(p, p**e) for p, e in factorize(modulus).pairs]
    cells = (n + 1) * n_classes * math.prod(q - q // p for p, q in pq)  # phi(m) units
    if cells > DP_CELL_BOUND:
        raise CapacityError(
            f"DP table would need {cells} cells (> {DP_CELL_BOUND}); reduce the pool"
        )
    inv = [pow(p, -1, modulus) for p in pool]
    reach = _kernels.dp_reach(inv, pq, n_classes, capped)
    def reached(i, c, r):  # a unit's cell: its position mod each prime power
        return reach[(i, c) + tuple(_kernels.unit_position(r, p, q) for p, q in pq)]
    top = n_classes - 1
    end_classes = [top] if capped else list(range(min_size, n_classes))
    end_c = next((c for c in end_classes if reached(n, c, target)), None)
    if end_c is None:
        return None
    taken = []
    c, r = end_c, target
    for i in range(n, 0, -1):
        if reached(i - 1, c, r):
            continue
        r_prev = r * inv[i - 1] % modulus
        cands = (c - 1, c) if (capped and c == top) else (c - 1,)
        for cp in cands:
            if cp >= 0 and reached(i - 1, cp, r_prev):
                taken.append(i - 1)
                c, r = cp, r_prev
                break
        else:
            raise AssertionError("DP reconstruction lost the witness")
    return tuple(sorted(taken))


def subset_product_find(pool, modulus: int, target: int, min_size: int, max_size: int | None = None):
    """Indices of some subset of ``pool`` whose product is ``target`` mod
    ``modulus``, with min_size <= size <= max_size, or None if none exists.

    Complete: meet-in-the-middle for pools up to 40 elements, a DP over the
    phi(modulus) units with witness reconstruction beyond that. A target that
    is not a unit is answered None before either search; the DP raises
    CapacityError when its table would exceed DP_CELL_BOUND cells.
    Meet-in-the-middle splits the pool into a left and a right half, keeps
    the right half as a sorted array of (product, size, mask) keys and scans
    the left masks in mask order; it returns the first left mask that has a
    partner, with its least-size, then least-mask right partner. Products are
    int64 below 2**31 and Python ints above, so any modulus works.
    """
    pool = _validate_pool(pool, modulus, min_size)
    if max_size is not None and max_size < min_size:
        raise DomainError(f"max_size {max_size} < min_size {min_size}")
    target %= modulus
    if len(pool) < min_size or math.gcd(target, modulus) > 1:
        return None  # too few elements, or a non-unit target: a product of units is a unit
    if max_size is not None and max_size >= len(pool):
        max_size = None  # no larger subset exists; search as with no bound
    if len(pool) <= MITM_LIMIT:
        return _find_mitm(pool, modulus, target, min_size, max_size)
    return _find_dp(pool, modulus, target, min_size, max_size)


def subset_product_enumerate(
    pool, modulus: int, target: int, min_size: int, max_size: int | None = None
) -> list[tuple[int, ...]]:
    """Every qualifying index subset, by full 2**n scan (n <= 24), ascending by mask.

    The low half's products are built once and multiplied by a block of high
    masks' products at a time, so memory stays O(_MASK_BLOCK).
    """
    pool = _validate_pool(pool, modulus, min_size)
    n = len(pool)
    if n > ENUMERATE_LIMIT:
        raise CapacityError(f"pool size {n} exceeds exhaustive-scan cap {ENUMERATE_LIMIT}")
    target %= modulus
    cap = max_size if max_size is not None else n
    nl = (n + 1) // 2
    lp, ls = _kernels.all_subset_products([p % modulus for p in pool[:nl]], modulus)
    hp, hs = _kernels.all_subset_products([p % modulus for p in pool[nl:]], modulus)
    rows = max(_MASK_BLOCK >> nl, 1)  # high masks per block
    masks: list[int] = []
    for h in range(0, hp.shape[0], rows):
        # row r, column l is mask (h + r) << nl | l
        prods = hp[h : h + rows, None] * lp % modulus
        sizes = hs[h : h + rows, None] + ls
        hit = (prods == target) & (sizes >= min_size) & (sizes <= cap)
        masks += (np.flatnonzero(hit) + (h << nl)).tolist()
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in masks]


@dataclass(frozen=True)
class SubsetCountBound:
    """Lower bound on the number of qualifying subsets, relaxed and exact forms."""

    log_bound: float  # natural log of the relaxed bound
    bound: float | None  # exp(log_bound) when representable as a float
    exact: Fraction | None  # C(P-n, t-n) / C(P, n) at integral n, t


def count_lower_bound(pool_size: int, n_bound: float, t: float) -> SubsetCountBound:
    """The binomial-quotient lower bound on subsets of size in (t-n, t].

    Relaxed form ((4/5)P/t)**((2/3)t) / ((3eP)/t)**(t/3) evaluated in log
    space; the exact binomial quotient is attached when ceil(n_bound) and
    floor(t) make it meaningful.
    """
    if t <= n_bound:
        raise OrderingError(
            f"lower ordering violated: t = {t} must exceed the identity-threshold bound {n_bound}"
        )
    if pool_size <= t:
        raise OrderingError(
            f"upper ordering violated: t = {t} must stay below the pool size {pool_size}"
        )
    log_bound = (2 / 3) * t * math.log(0.8 * pool_size / t) - (t / 3) * math.log(
        3 * math.e * pool_size / t
    )
    bound = math.exp(log_bound) if log_bound < 700 else None
    n_i = math.ceil(n_bound)
    t_i = math.floor(t)
    exact = None
    if n_i >= 0 and t_i > n_i and pool_size > t_i:
        exact = Fraction(math.comb(pool_size - n_i, t_i - n_i), math.comb(pool_size, n_i))
    return SubsetCountBound(log_bound=log_bound, bound=bound, exact=exact)


def assemble(subset, shared: AssemblySpec) -> CarmichaelCertificate:
    """Certify the product of ``subset`` as a Carmichael number in the class.

    Every check is recomputed from scratch (the subset itself is the
    factorization). Raises AssemblyError naming the first failed check; a
    certificate is only ever built fully verified.
    """
    primes = sorted(int(p) for p in subset)
    if len(primes) < 3:
        raise DomainError(f"need at least 3 primes, got {len(primes)}")
    if len(set(primes)) != len(primes):
        raise DomainError("subset primes must be distinct")
    for p in primes:
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
    n = 1
    for p in primes:
        n *= p
    results = {
        "korselt": all((n - 1) % (p - 1) == 0 for p in primes),
        "residue_class": n % shared.M == shared.a % shared.M,
    }
    if shared.mode == "agp":
        results["multiplier_congruence"] = (n - 1) % (shared.multiplier * shared.L) == 0
    elif shared.mode == "erdos":
        results["multiplier_congruence"] = (n - 1) % shared.multiplier == 0
    for name, ok in results.items():
        if not ok:
            raise AssemblyError(name, f"n = {n}")
    cert = CarmichaelCertificate(
        n=n,
        prime_factors=tuple(primes),
        mode=shared.mode,
        shared_multiplier=shared.multiplier,
        L=shared.L,
        M=shared.M,
        a=shared.a,
        checks={
            # at least three distinct primes, as validated above
            "composite": True,
            "squarefree": True,
            **results,
            "probabilistic_primality_used": any(p >= PROBABLE_PRIME_THRESHOLD for p in primes),
        },
    )
    # belt and braces: the korselt module must agree with its own entry point
    if not korselt_check(n, Factorization.of((p, 1) for p in primes)):
        raise AssemblyError("korselt", "re-verification disagreed")
    return cert
