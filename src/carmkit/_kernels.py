"""Hot numeric kernels, vectorized with numpy, and the segment driver.

The sieves and the unit-group DP work on int64 arrays: callers keep values
< 2**62 and moduli < ``INT64_MOD_LIMIT`` where products are formed. The DP
table has one axis per prime power of its modulus and holds each cell's size
classes as the bits of uint8 bytes. The sieves touch only
arithmetic progressions, one strided slice each: ``prime_flags`` strikes the
multiples of each base prime over a window, and ``sieve_primes`` is its
window from 0; ``smooth_part`` multiplies each prime p into the multiples of
each power of p, so an entry n holds the part of n made of those primes,
with no division. The Carmichael scan multiplies each prime p into a
per-entry product s on the odd multiples v = p*t with t = 1 (mod p-1), one
strided slice per prime, the primes with at most one such entry per segment
in one batch. v is Carmichael iff s == v: each prime p of a Carmichael v
lies below sqrt(v), since p - 1 | v/p - 1.
``all_subset_products`` is int64 below ``INT64_MOD_LIMIT`` and Python ints
(object arrays) above. Other arbitrary-precision paths live outside this
module.
``strong_probable_primes`` runs Miller-Rabin over an array of odd
candidates below ``MR_LIMIT`` = 2**50: the first base on every candidate,
the later bases as one stacked test over its survivors. Each power runs left
to right in 3-bit exponent digits: per digit, three squarings and one
multiply by an entry of a per-candidate table of b**0..b**7. Each product
x*y mod n takes the float64 quotient q of x*y/n, off by at most 1: three
roundings (of x*y, 1/n and their product) of relative error 2**-53 each move
a quotient below 2**50 by less than 3/8. So x*y - q*n, exact in wrapping
uint64 arithmetic, lies in [-n, 2n), and one signed remainder corrects it.
Larger candidates take the scalar ``arith.is_prime``.
``scan_segments`` runs a sieve over a long range one segment at a time, so
memory stays O(segment).
"""

from __future__ import annotations

import concurrent.futures
import math

import numpy as np

INT64_MOD_LIMIT = 1 << 31  # residues below this multiply without int64 overflow
MR_LIMIT = 1 << 50  # strong_probable_primes takes candidates below this


def prime_flags(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Flags, per n in [lo, hi), lo >= 0: n is prime (sieve of Eratosthenes).

    Each base prime p strikes its multiples from max(p*p, lo) on, one strided
    slice each, so p itself stays flagged. ``base_primes`` must cover all
    primes <= isqrt(hi - 1).
    """
    flags = np.ones(max(0, hi - lo), dtype=bool)
    flags[: max(0, 2 - lo)] = False  # 0 and 1
    for p in base_primes.tolist():
        flags[max(p * p, -(-lo // p) * p) - lo :: p] = False
    return flags


def sieve_primes(limit: int) -> np.ndarray:
    """Primes <= limit as an int64 array: the window [0, limit] of ``prime_flags``."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = prime_flags(0, limit + 1, sieve_primes(math.isqrt(limit)))
    return np.flatnonzero(flags).astype(np.int64)


def smooth_part(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """Per n in [lo, hi), lo >= 1: s[n] = prod p**e || n over ``primes``.

    Each power p**k < hi multiplies p into its own multiples, one strided
    slice each, so no entry is divided. s divides n, so it never overflows.
    """
    s = np.ones(max(0, hi - lo), dtype=np.int64)
    for p in primes.tolist():
        pk = p
        while pk < hi:
            s[-lo % pk :: pk] *= p
            pk *= p
    return s


def scan_segments(scan, start: int, stop: int, size: int, threads: int = 1) -> list:
    """[scan(lo, hi) for consecutive pieces [lo, hi) of [start, stop)], in order.

    Each piece holds ``size`` integers, the last one possibly fewer.
    """
    segs = [(lo, min(lo + size, stop)) for lo in range(start, stop, size)]
    if threads <= 1 or len(segs) <= 1:
        # a pool for one worker made small census runs 15-100% slower, and one
        # segment has nothing to spread; stay inline
        return [scan(lo, hi) for lo, hi in segs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda seg: scan(*seg), segs))


def lpf_range(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Largest prime factor for each integer in [lo, hi], lo >= 1; lpf(1) = 1.

    No library code calls it; it is kept because the benchmark's tracer
    looks it up by name.

    Each prime p, ascending, marks its multiples (the slice from -lo % p, step
    p), and each power p**k <= hi divides one p out of its own multiples; what
    is left is 1 or the one prime factor above isqrt(hi). ``base_primes`` must
    cover all primes <= isqrt(hi).
    """
    rem = np.arange(lo, hi + 1, dtype=np.int64)
    lpf = np.ones(hi - lo + 1, dtype=np.int64)
    for p in base_primes:
        p = int(p)
        lpf[-lo % p :: p] = p
        pk = p
        while pk <= hi:
            rem[-lo % pk :: pk] //= p
            pk *= p
    return np.maximum(lpf, rem, out=lpf)


def carmichael_segment(lo: int, hi: int, odd_primes: np.ndarray) -> np.ndarray:
    """Flags, per odd v in [lo, hi), v composite + squarefree + (p-1 | v-1 for all p | v).

    Each prime p multiplies itself into the product s of the entries v = p*t,
    t >= 3 odd, with t = 1 (mod p-1): every (p-1)/2-th odd multiple, those
    where p passes Korselt's criterion. v is Carmichael iff s == v. Every p |
    v of a Carmichael v has p - 1 | v/p - 1, so v/p >= p, and v squarefree
    makes p < sqrt(v): s then holds every prime of v. Conversely s == v makes
    v squarefree, with p - 1 | v - 1 at each p | v, and composite, as each p
    lies below v. s | v, so it never overflows. A prime whose step p(p-1)/2
    is at least the n odd entries has at most one entry, so all such primes
    fold in at once. ``lo`` must be odd and at least 3; ``odd_primes`` must
    ascend and cover the odd primes <= isqrt(hi - 1).
    """
    n = max(0, (hi - lo + 1) // 2)
    s = np.ones(n, dtype=np.int64)
    p = np.asarray(odd_primes, dtype=np.int64)
    t = np.maximum(3, -(-lo // p)) | 1  # first odd t >= 3 with p*t >= lo
    # p*t - 1 = (p-1)*t + (t-1), so p-1 | v-1 iff t = 1 (mod p-1)
    k, step = (p * (t + (1 - t) % (p - 1)) - lo) // 2, p * (p - 1) // 2
    split = int(np.searchsorted(step, n))
    for q, j, d in zip(p[:split].tolist(), k[:split].tolist(), step[:split].tolist()):
        s[j::d] *= q
    hit = k[split:] < n
    np.multiply.at(s, k[split:][hit], p[split:][hit])  # several can share one entry
    # v is formed only where s >= lo, as s == v needs: a second n-entry array
    # per segment costs more in page faults than the whole strided loop
    i = np.flatnonzero(s >= lo)
    flags = np.zeros(n, dtype=np.uint8)
    flags[i[s[i] == lo + 2 * i]] = 1
    return flags


def unit_position(x, p: int, q: int):
    """Position of the unit x mod q, q a power of the prime p, among the units
    mod q in ascending order (1 sits at 0): x mod q // p non-units lie below it."""
    r = x % q
    r -= r // p + 1  # in place: a fresh array when x is one
    return r


def dp_reach(inv, pq, n_classes: int, capped: bool) -> np.ndarray:
    """Layered reachability table for subset products in the unit group mod m.

    The CRT splits (Z/m)^x into the unit groups mod each prime power q = p**e
    of m, and ``pq`` lists their (p, q): the table has one axis of phi(q)
    unit positions per q, then one axis of ceil(n_classes / 8) bytes. Item i
    is the unit whose inverse mod m is ``inv[i]``; layer i holds the products
    reachable from 1 with the first i items, gathered from layer i-1 by one
    permutation per unit axis. Class c counts chosen items and is bit c % 8
    of byte c // 8, so taking an item shifts a cell's bits up by one, bit 7
    carrying into the next byte; the top class keeps its bit when ``capped``
    and drops it otherwise, and no bit past the top class is ever set.
    """
    units = [np.flatnonzero(np.arange(q) % p) for p, q in pq]
    n_bytes, top = -(-n_classes // 8), n_classes - 1
    reach = np.zeros((len(inv) + 1, *(u.shape[0] for u in units), n_bytes), dtype=np.uint8)
    reach.flat[0] = 1  # layer 0, the unit 1, class 0
    for i, v in enumerate(inv):
        cur, nxt = reach[i], reach[i + 1]
        src = cur
        for axis, ((p, q), u) in enumerate(zip(pq, units)):
            src = np.take(src, unit_position(u * (v % q), p, q), axis=axis)  # cur[t * v]
        np.left_shift(src, 1, out=nxt)
        nxt[..., 1:] |= src[..., :-1] >> 7
        if capped:
            nxt[..., -1] |= src[..., -1] & (1 << top % 8)
        nxt[..., -1] &= (2 << top % 8) - 1  # the bits past the top class
        nxt |= cur
    return reach


def all_subset_products(res, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(product mod m, popcount) for every subset mask of the residues ``res``.

    Entry ``mask`` covers the items whose bits are set in it. Products are
    int64 for m < INT64_MOD_LIMIT, each doubling reduced in place as
    x - x // m * m, and Python ints (object dtype) otherwise, reduced by %.
    """
    dtype = np.int64 if m < INT64_MOD_LIMIT else object
    res = np.array(res, dtype=dtype)
    n = res.shape[0]
    total = 1 << n
    prod = np.empty(total, dtype=dtype)
    size = np.zeros(total, dtype=np.uint8)
    prod[0] = 1 % m
    for i in range(n):
        half = 1 << i
        out = np.multiply(prod[:half], res[i], out=prod[half : 2 * half])
        if dtype is object:
            out %= m
        else:  # x % m for x >= 0, and faster than int64 %
            out -= out // m * m
        size[half : 2 * half] = size[:half] + 1
    return prod, size


def _mulmod(x: np.ndarray, y: np.ndarray, n: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """x*y mod n for uint64 arrays x, y < n; ``inv`` is 1/n in float64 (the
    float quotient's bound: module docstring)."""
    q = np.multiply(x, y, dtype=np.float64)
    q *= inv
    r = x * y
    r -= q.astype(np.uint64) * n
    r = r.view(np.int64)
    r %= n.view(np.int64)  # from [-n, 2n) to [0, n)
    return r.view(np.uint64)


def _strong(n: np.ndarray, d: np.ndarray, s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Flags, per odd n = d * 2**s + 1 (uint64 arrays), n is a strong probable
    prime to its own base ``a`` (a base = 0 mod n passes).

    b**d mod n runs left to right in 3-bit digits of d, one shared schedule
    from the top bit of d.max(): three squarings, then one multiply by the
    digit's entry of the per-candidate table b**0, ..., b**7.
    """
    inv = 1.0 / n.astype(np.float64)
    b = a % n
    table = [np.ones_like(n), b]
    for _ in range(6):
        table.append(_mulmod(table[-1], b, n, inv))
    table = np.stack(table)
    cols = np.arange(n.size)
    seven = np.uint64(7)
    first = 3 * ((int(d.max()).bit_length() - 1) // 3)  # shift of the top digit
    x = table[(d >> np.uint64(first)) & seven, cols]
    for shift in range(first - 3, -1, -3):
        for _ in range(3):
            x = _mulmod(x, x, n, inv)
        x = _mulmod(x, table[(d >> np.uint64(shift)) & seven, cols], n, inv)
    top = n - np.uint64(1)
    ok = (b == 0) | (x == 1) | (x == top)
    # the squaring chain x**2, ..., x**(2**(s-1)) must reach n - 1
    at = np.flatnonzero(~ok)
    for i in range(1, int(s.max())):
        at = at[s[at] > i]
        if not at.size:
            break
        x[at] = _mulmod(x[at], x[at], n[at], inv[at])
        hit = x[at] == top[at]
        ok[at[hit]] = True
        at = at[~hit]
    return ok


def strong_probable_primes(n, bases) -> np.ndarray:
    """Flags, per odd n in (53, 2**50) with no prime factor <= 53: n is a
    strong probable prime to every base in ``bases``, as arith._miller_rabin
    decides it (a base = 0 mod n passes).

    The first base runs on every candidate; the later ones run as one
    stacked test over its survivors, one copy of them per base, so a
    composite costs about one base and a prime pays for all of them in one
    pass.
    """
    n = np.asarray(n, dtype=np.int64)
    if n.size and (n.min() <= 53 or n.max() >= MR_LIMIT or not np.all(n & 1)):
        raise ValueError("strong_probable_primes takes odd candidates in (53, 2**50)")
    n = n.astype(np.uint64)
    one = np.uint64(1)
    low = (n - one) & ~(n - one - one)  # the lowest set bit of n - 1, 2**s
    d = (n - one) // low  # n - 1 = d * 2**s, d odd
    s = np.frexp(low.astype(np.float64))[1] - 1  # exact: low = 0.5 * 2**(s+1)
    flags = np.zeros(n.size, dtype=bool)
    if not n.size or not bases:
        flags[:] = not bases
        return flags
    alive = np.flatnonzero(_strong(n, d, s, np.full(n.size, bases[0], dtype=np.uint64)))
    r = len(bases) - 1
    if r and alive.size:
        later = np.repeat(np.array(bases[1:], dtype=np.uint64), alive.size)
        stacked = (np.tile(v[alive], r) for v in (n, d, s))
        alive = alive[_strong(*stacked, later).reshape(r, -1).all(axis=0)]
    flags[alive] = True
    return flags
