"""Unit-group invariants, residue targets, subset-product search, certification.

The searches are explicit and complete: meet-in-the-middle for pools up to 40
elements, a layered DP over the unit group (Z/m)^x with witness reconstruction
beyond that, and a full 2**n scan as the exhaustive oracle for small pools.
Meet-in-the-middle sorts one half's subsets as (product, size, mask) keys and
binary-searches them for each mask of the other half, in mask order, for any
modulus. It and the scan form their masks' products block by block, small
blocks first (see _mask_blocks), so a search whose first hit comes early forms
few of them.

The search modulus. Meet-in-the-middle and the scan form their products mod
a search modulus s (see _search_modulus): s = m below 2**31; above, the block
of m's small prime-power factors below 2**31, used while 2**n <= s * 2**12
for n pool elements, else m with Python ints. A match mod s counts only if
the whole subset's product is the target mod m too, so the witness does not
depend on s. Meet-in-the-middle re-checks each match as it meets it and goes
mod m past _RECHECK_BUDGET (2**16) failed re-checks; the scan first collects
every match mod s and goes mod m when there are more than _RECHECK_BUDGET.

Every pool element is a unit and the DP starts from 1, so the DP table
covers the phi(m) units only, with one axis of phi(q) positions per prime
power q of m, as the CRT splits the unit group; each cell holds its size
classes as bits. A found subset is certified by independent re-checks before
a certificate is emitted.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .arith import (
    Factorization,
    PROBABLE_PRIME_THRESHOLD,
    TRIAL_BOUND,
    carmichael_lambda,
    euler_phi,
    factorize,
    is_prime,
)
from .errors import (
    AssemblyError,
    CapacityError,
    DomainError,
    InfeasibleError,
    OrderingError,
    int_text,
)
from .korselt import korselt_check

MITM_LIMIT = 40
ENUMERATE_LIMIT = 24
DP_CELL_BOUND = 200_000_000
_MASK_BLOCK = 1 << 14  # the longest block of masks _mask_blocks forms at once
_SPURIOUS_BITS = 12  # a search mod a block s of m allows 2**n <= s * 2**12
_RECHECK_BUDGET = 1 << 16  # matches mod s re-checked before a search goes mod m instead


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


def compute_invariants(
    fact: Factorization, omega_L: int, x: int, phi_M: int = 1
) -> GroupInvariants:
    """Evaluate the zero-sum threshold s(G), the identity-threshold bound and t
    for the unit group G modulo fact's value. phi_M is phi of the residue
    modulus M, which t needs while G lives mod M*L (or lcm(Lambda, M)).

    n_bound = lambda * (1 + log|G|/lambda)
    s(G)    = ceil(5 * lambda^2 * Omega(lambda) * log(3 * lambda * Omega(|G|)))
    t       = (6/5)**omega_L / (60 * phi(M) * log x)

    Logarithms are natural.
    """
    if x < 3:
        raise DomainError(f"x must be >= 3, got {x}")
    lam, order = carmichael_lambda(fact), euler_phi(fact)
    omega_lambda = factorize(lam).big_omega if lam > 1 else 0
    omega_order = factorize(order).big_omega if order > 1 else 0
    # lam * (1 + log|G|/lam) = lam + log|G|; may exceed float range for huge groups
    try:
        n_bound = float(lam) + (math.log(order) if order > 1 else 0.0)
    except OverflowError:
        n_bound = math.inf
    if lam >= 2:
        # ceil(A * c) in exact arithmetic (A can dwarf the float range)
        A = 5 * lam * lam * omega_lambda
        c = Fraction(math.log(3 * lam * omega_order))
        s_G = int(-(-A * c.numerator // c.denominator))
    else:
        s_G = 0
    t = (6 / 5) ** omega_L / (60 * phi_M * math.log(x))
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


def derive_target(L: int, M: int, a: int) -> tuple[int, int]:
    """(h, modulus): the h with h = 1 mod L and h = a mod M, a unit mod
    modulus = lcm(L, M). It exists exactly when g = gcd(L, M) divides a - 1
    (else InfeasibleError): h = 1 + L*t, t = ((a - 1)/g) * (L/g)**-1 mod M/g."""
    if math.gcd(a, M) != 1:
        raise DomainError(f"residue {a} is not coprime to {M}")
    for m in (L, M):
        if m < 1:
            raise DomainError(f"modulus must be >= 1, got {m}")
    g = math.gcd(L, M)
    if (a - 1) % g:
        L_text = int_text(L)
        raise InfeasibleError(f"no element is 1 mod {L_text} and {a} mod {M}: "
                              f"gcd({L_text}, {M}) does not divide {a - 1}")
    modulus = L // g * M
    t = (a - 1) // g * pow(L // g, -1, M // g)
    return (1 + L * t) % modulus, modulus


def _validate_pool(pool, modulus: int, min_size: int, max_size: int | None) -> list[int]:
    pool = [int(p) for p in pool]
    if min_size < 1:
        raise DomainError(f"min_size must be >= 1, got {min_size}")
    if max_size is not None and max_size < min_size:
        raise DomainError(f"max_size {max_size} < min_size {min_size}")
    if modulus < 1:
        raise DomainError(f"modulus must be >= 1, got {modulus}")
    for p in pool:
        if math.gcd(p, modulus) != 1:
            raise DomainError(f"pool element {p} is not coprime to modulus {int_text(modulus)}")
    return pool


def _search_modulus(m: int, n: int) -> int:
    """The modulus s a search over n pool elements forms its products mod.

    Below 2**31, s = m. Above, s is the product of the prime-power factors of
    m that trial division finds in ascending order, each joining while s
    stays below 2**31; the walk stops at the first prime p with s*p >= 2**31,
    or past TRIAL_BOUND. s is kept only while 2**n <= s * 2**_SPURIOUS_BITS,
    so that about 2**_SPURIOUS_BITS matches mod s at most fail mod m;
    otherwise s = m and the products are Python ints.
    """
    limit = _kernels.INT64_MOD_LIMIT
    if m < limit:
        return m
    s, rest, d = 1, m, 2
    while rest > 1 and d <= TRIAL_BOUND and s * d < limit:
        if rest % d == 0:  # d is prime: the primes below it are divided out of rest
            q = 1
            while rest % d == 0:
                q, rest = q * d, rest // d
            if s * q < limit:
                s *= q
        d += 1 if d == 2 else 2
    return s if 1 << n <= s << _SPURIOUS_BITS else m


def _product(elems, mask: int, m: int) -> int:
    """The product mod m of the elements whose bits are set in mask."""
    return math.prod(e for i, e in enumerate(elems) if mask >> i & 1) % m


def _left_blocks(total: int):
    """The [start, end) blocks of masks below ``total`` that _mask_blocks
    takes in turn: 2**8 masks, then each block as long as all before it, up
    to _MASK_BLOCK. Each block is aligned to its length, so none crosses a
    multiple of _MASK_BLOCK."""
    start, end = 0, min(total, 1 << 8)
    while start < total:
        yield start, end
        start, end = end, min(total, end + min(end, _MASK_BLOCK))


def _mask_blocks(elems, s: int, scale: int):
    """(start, products, sizes) per block of _left_blocks over the masks of
    ``elems``: entry i stands for mask start + i, its subset's product mod s
    times ``scale`` and its size (uint8). A block's products are one table of
    the low 14 bits' products times one scalar for its high bits."""
    low = min(len(elems), _MASK_BLOCK.bit_length() - 1)
    lp, ls = _kernels.all_subset_products([e % s for e in elems[:low]], s)
    high = [e % s for e in elems[low:]]
    for start, stop in _left_blocks(1 << len(elems)):
        h, off = start >> low, start % (1 << low)
        yield (start, lp[off : off + stop - start] * (_product(high, h, s) * scale % s) % s,
               ls[off : off + stop - start] + h.bit_count())


def _find_mitm(pool, modulus, s, target, min_size, max_size):
    """First left mask (in mask order) with a right partner, and for it the
    right mask of least size, then least mask, that completes the target,
    searched mod s under the search-modulus rule (see the module docstring).
    """
    n = len(pool)
    nb = n // 2
    left, right = pool[: n - nb], pool[n - nb :]
    cap = max_size if max_size is not None else n
    failed = 0
    # right half: one key per mask ordering (product, size, mask); the keys are
    # distinct and, for int64 products (< 2**31, nb <= 20), below 2**56
    w = nb + 1
    table, rs = _kernels.all_subset_products([e % s for e in right], s)
    table *= w  # in place: the keys take no more memory than the products
    table += rs
    table <<= nb
    table |= np.arange(1 << nb)
    table.sort()
    # left half: the product each left mask needs from the right
    inverses = [pow(e, -1, s) for e in left]
    for start, need, sizes in _mask_blocks(inverses, s, target % s):
        base = need * w
        sl = sizes.astype(np.int64)
        # right sizes allowed; hi <= nb keeps each lookup inside its product's keys
        lo = np.maximum(min_size - sl, 0)
        hi = np.minimum(cap - sl, nb)
        pos = np.searchsorted(table, (base + lo) << nb)
        entry = table[np.minimum(pos, table.shape[0] - 1)]
        hits = np.flatnonzero((lo <= hi) & (pos < table.shape[0]) & ((entry >> nb) <= base + hi))
        for i in hits:  # one at a time: the first exact match ends the search
            # its keys run from pos to the first key past its largest allowed size
            end = bisect_left(table, (base[i] + int(hi[i]) + 1) << nb, lo=int(pos[i]))
            for key in table[pos[i] : end].tolist():
                mask = start + int(i) | (key & ((1 << nb) - 1)) << len(left)
                if s == modulus or _product(pool, mask, modulus) == target:
                    return tuple(j for j in range(n) if mask >> j & 1)
                failed += 1
                if failed > _RECHECK_BUDGET:
                    return _find_mitm(pool, modulus, modulus, target, min_size, max_size)
    return None


def _find_dp(pool, modulus, target, min_size, max_size):
    n = len(pool)
    if modulus >= _kernels.INT64_MOD_LIMIT:
        raise CapacityError(
            f"modulus {int_text(modulus)} is too large for the residue DP; "
            f"reduce the pool to <= {MITM_LIMIT}"
        )
    capped = max_size is None
    n_classes = (min_size if capped else max_size) + 1
    f = factorize(modulus)
    pq = [(p, p**e) for p, e in f.pairs]
    cells = (n + 1) * n_classes * euler_phi(f)
    if cells > DP_CELL_BOUND:
        raise CapacityError(
            f"DP table would need {cells} cells (> {DP_CELL_BOUND}); reduce the pool"
        )
    inv = [pow(p, -1, modulus) for p in pool]
    reach = _kernels.dp_reach(inv, pq, n_classes, capped)
    def reached(i, c, r):  # bit c of a unit's cell: its position mod each prime power
        cell = (i, *(_kernels.unit_position(r, p, q) for p, q in pq), c // 8)
        return reach[cell] >> (c % 8) & 1
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
    partner, with its least-size, then least-mask right partner. Keys are
    taken mod the search modulus, as the module docstring sets out.
    """
    pool = _validate_pool(pool, modulus, min_size, max_size)
    target %= modulus
    if len(pool) < min_size or math.gcd(target, modulus) > 1:
        return None  # too few elements, or a non-unit target: a product of units is a unit
    if max_size is not None and max_size >= len(pool):
        max_size = None  # no larger subset exists; search as with no bound
    if len(pool) <= MITM_LIMIT:
        s = _search_modulus(modulus, len(pool))
        return _find_mitm(pool, modulus, s, target, min_size, max_size)
    return _find_dp(pool, modulus, target, min_size, max_size)


def subset_product_enumerate(
    pool, modulus: int, target: int, min_size: int, max_size: int | None = None
) -> list[tuple[int, ...]]:
    """Every qualifying index subset, by full 2**n scan (n <= 24), ascending by mask.

    The masks go in the blocks of _mask_blocks, so memory stays
    O(_MASK_BLOCK). Products are taken mod the search modulus, as the module
    docstring sets out.
    """
    pool = _validate_pool(pool, modulus, min_size, max_size)
    n = len(pool)
    if n > ENUMERATE_LIMIT:
        raise CapacityError(f"pool size {n} exceeds exhaustive-scan cap {ENUMERATE_LIMIT}")
    target %= modulus
    cap = max_size if max_size is not None else n
    s = _search_modulus(modulus, n)
    masks = _scan_masks(pool, s, target % s, min_size, cap)
    if len(masks) > _RECHECK_BUDGET and s != modulus:  # products crowd a few residues mod s
        s, masks = modulus, _scan_masks(pool, modulus, target, min_size, cap)
    # a match mod s counts only if it holds mod the modulus too
    return [tuple(i for i in range(n) if mask >> i & 1)
            for mask in masks if s == modulus or _product(pool, mask, modulus) == target]


def _scan_masks(pool, s: int, target: int, min_size: int, cap: int) -> list[int]:
    """The masks, ascending, whose subsets hit the target mod s with a size in
    [min_size, cap]."""
    masks: list[int] = []
    for start, prods, sizes in _mask_blocks(pool, s, 1):
        hit = (prods == target) & (sizes >= min_size) & (sizes <= cap)
        masks += (np.flatnonzero(hit) + start).tolist()
    return masks


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
    n = math.prod(primes)
    results = {
        "korselt": korselt_check(n, Factorization.of((p, 1) for p in primes)),
        "residue_class": n % shared.M == shared.a % shared.M,
    }
    if shared.mode == "agp":
        results["multiplier_congruence"] = (n - 1) % (shared.multiplier * shared.L) == 0
    elif shared.mode == "erdos":
        results["multiplier_congruence"] = (n - 1) % shared.multiplier == 0
    for name, ok in results.items():
        if not ok:
            raise AssemblyError(name, f"n = {n}")
    return CarmichaelCertificate(
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
