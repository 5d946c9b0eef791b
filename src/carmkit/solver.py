"""Unit-group invariants, residue targets, subset-product search, certification.

The searches are explicit and complete: meet-in-the-middle for pools up to 40
elements, a layered DP over the unit group (Z/m)^x with witness reconstruction
beyond that, and a full 2**n scan as the exhaustive oracle for small pools.
Meet-in-the-middle keeps one half's subsets as sorted (digest, size, mask)
keys and binary-searches them for each mask of the other half, in mask order,
for any modulus. Both halves and the scan form their products with one
walker, block by block (see _mask_blocks). As the right half is formed, the
digests that one of the left half's first 2**8 masks may need are marked
(see _slot); only their keys are sorted, and every key only when that block
has no match.

Columns. Both form their products mod CRT columns of the modulus m (see
_columns): int64 moduli below 2**31, packed from the prime powers that trial
division finds, then one column of Python ints for the rest. The scan takes
every column and tests each only at the masks of a block that the ones before
it passed, and none once no mask is left, so a mask it keeps matches mod m:
its hits are exact. Meet-in-the-middle alone takes a prefix: for n elements,
the first columns that carry n + 38 bits, or all of them, folded into one
int64 key below 2**38 (see _digest). Its match counts only once the subset's
product is the target mod m, so the witness does not depend on columns.
Over a pool spread across the taken columns, about 2**(n - 38) matches per
search fail mod m, from the fold, and the columns left out add about 2**-38
more. A match that holds on the taken columns but fails mod m shows that
the pool crowds them: the search then restarts on every column, where only
the fold can mislead.

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
    carmichael_lambda,
    euler_phi,
    factorize,
    is_prime,
    trial_division,
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
# _digest: digests below 2**38, so a key (digest * 21 + size) << 20 fits in
# int64, and a multiplier below 2**25, so d * _DIGEST_MUL + r does too
_DIGEST_BITS, _DIGEST_MUL = 38, (1 << 25) - 39


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


def _columns(m: int, bits: int) -> list[int]:
    """The first CRT columns of m that carry ``bits`` bits, or all of them:
    [m] below 2**31; above, the prime powers below 2**31 that trial division
    finds, packed in ascending order into int64 columns below 2**31, and last
    one column of Python ints for the rest and any prime power of 2**31 or
    more. Trial division stops once the columns carry the bits, so the scan,
    which asks for m.bit_length() bits, takes every column."""
    limit = _kernels.INT64_MOD_LIMIT
    if m < limit:
        return [m]
    cols, col, big, span = [], 1, 1, 1
    for p, e in trial_division(m):
        q = p**e if e else p  # e = 0: p is the rest trial division leaves
        if not e or q >= limit:
            big *= q
            continue
        if col * q >= limit:
            cols.append(col)
            span *= col
            if span >> bits:
                return cols
            col = 1
        col *= q
    if col > 1:
        cols.append(col)
        span *= col
    return cols + [big] if big > 1 and not span >> bits else cols


def _product(elems, mask: int, m: int) -> int:
    """The product mod m of the elements whose bits are set in mask."""
    return math.prod(e for i, e in enumerate(elems) if mask >> i & 1) % m


def _blocks(total: int):
    """The [start, end) blocks of masks below ``total`` that _mask_blocks
    takes in turn: 2**8 masks, then up to each multiple of _MASK_BLOCK, so
    none crosses one."""
    start, end = 0, min(total, 1 << 8)
    while start < total:
        yield start, end
        start, end = end, min(total, (end // _MASK_BLOCK + 1) * _MASK_BLOCK)


def _mask_blocks(elems, cols, scale: int):
    """(start, sizes, parts) per block of _blocks over the masks of
    ``elems``: entry i stands for mask start + i, of size sizes[i] (uint8).
    ``parts`` holds, per column c of ``cols``, the low 14 bits' products and
    the high bits' product times ``scale``; the block's products are table * factor % c."""
    low = min(len(elems), _MASK_BLOCK.bit_length() - 1)
    tables = [_kernels.all_subset_products([e % c for e in elems[:low]], c) for c in cols]
    sizes, span, high = tables[0][1], math.prod(cols), elems[low:]
    for start, stop in _blocks(1 << len(elems)):
        h, off = start >> low, start % (1 << low)
        f = _product(high, h, span) * scale
        yield (start, sizes[off : off + stop - start] + h.bit_count(),
               [(lp[off : off + stop - start], f % c) for (lp, _), c in zip(tables, cols)])


def _digest(parts, cols, q: int, d: np.ndarray) -> np.ndarray:
    """A block's digests, written into the int64 array d: its products mod
    each column c of ``cols``, folded in mod the fold prime q as d -> (d *
    _DIGEST_MUL + r) % q, so a lone int64 column is its own digest. A q that
    divided a column of Python ints would merge its residues that agree mod q."""
    for i, ((t, f), c) in enumerate(zip(parts, cols)):
        r = np.empty_like(d) if i else d
        if c >= _kernels.INT64_MOD_LIMIT:
            r[...] = t * f % c % q
        else:
            np.multiply(t, f, out=r)
            x = r // c  # r % c for r >= 0, faster than int64 %, with one temporary
            x *= c
            r -= x
        if i:
            d *= _DIGEST_MUL
            d += r
            d -= d // q * q
    return d


def _slot(digests) -> np.ndarray:
    """Each digest's slot of 2**16: the top 16 bits of its product with
    2**64 / golden ratio (mod 2**64), so digests that agree in their low
    bits still spread over the slots."""
    x = digests.view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return np.right_shift(x, np.uint64(48), out=x).view(np.int64)


def _right_keys(digests, sizes, masks, nb: int) -> np.ndarray:
    """The right half's keys (digest, size, mask) of the given masks, sorted,
    packed in place into ``digests``: distinct, and below 2**38 * 21 * 2**20
    < 2**63 (nb <= 20)."""
    digests *= nb + 1
    digests += sizes
    digests <<= nb
    digests |= masks
    digests.sort()
    return digests


def _find_mitm(pool, modulus, target, min_size, max_size, bits):
    """First left mask (in mask order) with a right partner, and for it the
    right mask of least size, then least mask, that completes the target.
    Keys hold the digest of the first columns that carry ``bits`` bits, and a
    match counts once confirmed mod the modulus; one that holds on those
    columns but not mod the modulus restarts the search on every column.
    The first left block looks its masks up among only the right keys whose
    digest one of them may need; the whole right table is sorted only when
    that block has no match."""
    n = len(pool)
    nb = n // 2
    left, right = pool[: n - nb], pool[n - nb :]
    cap = max_size if max_size is not None else n
    cols = _columns(modulus, bits)
    span, q = math.prod(cols), (1 << _DIGEST_BITS) - 45  # the largest prime below 2**38
    while cols[-1] % q == 0:  # a column of Python ints enters the digest mod q: q must not divide it
        q = next(p for p in range(q - 2, 0, -2) if is_prime(p))
    # left half: the digest of the product each left mask needs from the right
    inverses = [pow(e, -1, span) for e in left]
    for start, sizes, parts in _mask_blocks(inverses, cols, target % span):
        base = _digest(parts, cols, q, np.empty(sizes.shape[0], dtype=np.int64))
        if not start:  # the first block: the right half, and the keys its needles can meet
            slots = np.zeros(1 << 16, dtype=bool)
            slots[_slot(base)] = True
            table, rs = np.empty(1 << nb, dtype=np.int64), np.empty(1 << nb, dtype=np.uint8)
            passed = np.empty(1 << nb, dtype=bool)
            for r, r_sizes, r_parts in _mask_blocks(right, cols, 1):
                block = slice(r, r + r_sizes.shape[0])
                rs[block] = r_sizes
                slots.take(_slot(_digest(r_parts, cols, q, table[block])), out=passed[block])
            if passed.all():  # the first block's keys are the whole table's
                keys = _right_keys(table, rs, np.arange(1 << nb), nb)
            else:
                at = np.flatnonzero(passed)
                keys = _right_keys(table[at], rs[at], at, nb)
        elif keys is not table:  # the first block missed: every key, packed in place
            keys = _right_keys(table, rs, np.arange(1 << nb), nb)
        if not keys.shape[0]:  # no right digest meets the first block
            continue
        base *= nb + 1
        sl = sizes.astype(np.int64)
        # right sizes allowed; hi <= nb keeps each lookup inside its digest's keys
        lo = np.maximum(min_size - sl, 0)
        hi = np.minimum(cap - sl, nb)
        needles = (base + lo) << nb
        order = np.argsort(needles)  # ascending needles walk the keys in order
        pos = np.empty_like(order)
        pos[order] = np.searchsorted(keys, needles[order])
        entry = keys[np.minimum(pos, keys.shape[0] - 1)]
        hits = np.flatnonzero((lo <= hi) & (pos < keys.shape[0]) & ((entry >> nb) <= base + hi))
        for i in hits:  # one at a time: the first confirmed match ends the search
            # its keys run from pos to the first key past its largest allowed size
            end = bisect_left(keys, (base[i] + int(hi[i]) + 1) << nb, lo=int(pos[i]))
            for key in keys[pos[i] : end].tolist():
                mask = start + int(i) | (key & ((1 << nb) - 1)) << len(left)
                product = _product(pool, mask, modulus)
                if product == target:
                    return tuple(j for j in range(n) if mask >> j & 1)
                if (product - target) % span == 0:  # the pool crowds these columns
                    return _find_mitm(pool, modulus, target, min_size, max_size, modulus.bit_length())
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
    the right half as a sorted array of (digest, size, mask) keys and scans
    the left masks in mask order; it returns the first left mask that has a
    partner, with its least-size, then least-mask right partner. Both halves
    form their products block by block from a table of at most 14 elements'
    products, and the first 2**8 left masks look up only the right keys
    whose digest they may need; the whole right half is sorted only when
    none of them has a partner. Keys hold digests of the taken columns, and
    matches are confirmed mod the modulus, as the module docstring sets out.
    """
    pool = _validate_pool(pool, modulus, min_size, max_size)
    target %= modulus
    if len(pool) < min_size or math.gcd(target, modulus) > 1:
        return None  # too few elements, or a non-unit target: a product of units is a unit
    if max_size is not None and max_size >= len(pool):
        max_size = None  # no larger subset exists; search as with no bound
    if len(pool) <= MITM_LIMIT:
        return _find_mitm(pool, modulus, target, min_size, max_size, len(pool) + _DIGEST_BITS)
    return _find_dp(pool, modulus, target, min_size, max_size)


def subset_product_enumerate(
    pool, modulus: int, target: int, min_size: int, max_size: int | None = None
) -> list[tuple[int, ...]]:
    """Every qualifying index subset, by full 2**n scan (n <= 24), ascending by mask.

    The masks go in the blocks of _mask_blocks, so memory stays
    O(_MASK_BLOCK) beside the hits. Each block is tested on every column, as
    the module docstring sets out, so its hits are exact and none is confirmed.
    """
    pool = _validate_pool(pool, modulus, min_size, max_size)
    n = len(pool)
    if n > ENUMERATE_LIMIT:
        raise CapacityError(f"pool size {n} exceeds exhaustive-scan cap {ENUMERATE_LIMIT}")
    target %= modulus
    cap = max_size if max_size is not None else n
    cols = _columns(modulus, modulus.bit_length())
    masks: list[int] = []
    for start, sizes, ((t, f), *parts) in _mask_blocks(pool, cols, 1):
        # t * f = target iff t = target / f: f is a product of units
        at = np.flatnonzero(t == target * pow(f, -1, cols[0]) % cols[0])
        for (t, f), c in zip(parts, cols[1:]):
            if not at.size:
                break
            at = at[t[at] == target * pow(f, -1, c) % c]
        size = sizes[at]
        masks += (at[(size >= min_size) & (size <= cap)] + start).tolist()
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
