"""Hot numeric kernels, vectorized with numpy, and the segment driver.

The sieves and the unit-group DP, which has one table axis per prime power
of its modulus, work on int64 arrays: callers keep values < 2**62 and moduli
< ``INT64_MOD_LIMIT`` where products are formed. Both sieves touch only
arithmetic progressions, each one strided slice: the lpf window marks the
multiples of each prime and divides by each prime power on its multiples,
and the Carmichael scan keeps, among the odd multiples v = p*t of each prime,
only those with t = 1 (mod p-1).
``all_subset_products`` is int64 below ``INT64_MOD_LIMIT`` and Python ints
(object arrays) above. Other arbitrary-precision paths live outside this
module.
``strong_probable_primes`` runs Miller-Rabin over an array of odd
candidates below ``MR_LIMIT`` = 2**50, keeping only the survivors of each
base. Below 2**32 it multiplies exactly, x*y % n. Above, the float64 quotient
q of x*y/n is off by at most 1: three roundings (of x*y, 1/n and their
product) of relative error 2**-53 each move a quotient below 2**50 by less
than 3/8. So x*y - q*n, exact in wrapping uint64 arithmetic, lies in
[-n, 2n), and one signed remainder corrects it. Larger candidates take the
scalar ``arith.is_prime``.
``scan_segments`` runs a sieve over a long range one segment at a time, so
memory stays O(segment).
"""

from __future__ import annotations

import concurrent.futures

import numpy as np

INT64_MOD_LIMIT = 1 << 31  # residues below this multiply without int64 overflow
MR_LIMIT = 1 << 50  # strong_probable_primes takes candidates below this
_MR_EXACT = 1 << 32  # below this, x*y < 2**64 is exact in uint64


def sieve_primes(limit: int) -> np.ndarray:
    """Primes <= limit as an int64 array (plain sieve of Eratosthenes)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def scan_segments(scan, start: int, stop: int, size: int, threads: int = 1) -> list:
    """[scan(lo, hi) for consecutive pieces [lo, hi) of [start, stop)], in order.

    Each piece holds ``size`` integers, the last one possibly fewer.
    """
    segs = [(lo, min(lo + size, stop)) for lo in range(start, stop, size)]
    if threads <= 1:
        # a one-worker pool made small census runs 15-100% slower; stay inline
        return [scan(lo, hi) for lo, hi in segs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda seg: scan(*seg), segs))


def lpf_range(lo: int, hi: int, base_primes: np.ndarray) -> np.ndarray:
    """Largest prime factor for each integer in [lo, hi], lo >= 1; lpf(1) = 1.

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

    The odd multiples v = p*t, t >= 3, of each prime p lose their flag except
    the progression t = 1 (mod p-1), every (p-1)/2-th of them, which keeps it
    unless p*p | v and has p divided out once. A survivor is composite iff
    something was divided out, and what is left is 1 or one prime above
    isqrt(hi - 1), checked last. ``lo`` must be odd; ``odd_primes`` must cover
    odd primes <= isqrt(hi - 1).
    """
    vals = np.arange(lo, hi, 2, dtype=np.int64)
    rem = vals.copy()
    alive = np.ones(vals.size, dtype=bool)
    for p in odd_primes:
        p = int(p)
        t = max(3, -(-lo // p)) | 1  # first odd t >= 3 with p*t >= lo
        # p*t - 1 = (p-1)*t + (t-1), so p-1 | v-1 iff t = 1 (mod p-1)
        t1 = t + (1 - t) % (p - 1)
        korselt = slice((p * t1 - lo) // 2, None, p * (p - 1) // 2)
        keep = alive[korselt] & (rem[korselt] % (p * p) != 0)  # p*p | v is not squarefree
        alive[(p * t - lo) // 2 :: p] = False
        alive[korselt] = keep
        rem[korselt] //= p
    return (alive & (rem != vals) & ((vals - 1) % np.maximum(rem - 1, 1) == 0)).astype(np.uint8)


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
    unit positions per q. Item i is the unit whose inverse mod m is
    ``inv[i]``; layer i holds the products reachable from 1 with the first i
    items, gathered from layer i-1 by one permutation per axis. Class c
    counts chosen items, with the top class saturating when ``capped``.
    """
    units = [np.flatnonzero(np.arange(q) % p) for p, q in pq]
    reach = np.zeros((len(inv) + 1, n_classes, *(u.shape[0] for u in units)), dtype=bool)
    reach.flat[0] = True  # layer 0, class 0, the unit 1
    for i, v in enumerate(inv):
        cur, nxt = reach[i], reach[i + 1]
        src = cur if capped else cur[:-1]  # the top class moves only when capped
        for axis, ((p, q), u) in enumerate(zip(pq, units), start=1):
            src = np.take(src, unit_position(u * (v % q), p, q), axis=axis)  # cur[c, t * v]
        nxt[0] = cur[0]
        np.logical_or(cur[1:], src[: n_classes - 1], out=nxt[1:])
        if capped:
            nxt[-1] |= src[-1]
    return reach


def all_subset_products(res, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(product mod m, popcount) for every subset mask of the residues ``res``.

    Entry ``mask`` covers the items whose bits are set in it. Products are
    int64 for m < INT64_MOD_LIMIT and Python ints (object dtype) otherwise.
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
        prod[half : 2 * half] = prod[:half] * res[i] % m
        size[half : 2 * half] = size[:half] + 1
    return prod, size


def _mulmod(x: np.ndarray, y: np.ndarray, n: np.ndarray, inv: np.ndarray | None) -> np.ndarray:
    """x*y mod n for uint64 arrays x, y < n; ``inv`` is 1/n in float64, or None
    when n < 2**32 and x*y is exact (the float quotient's bound: module docstring)."""
    if inv is None:
        return x * y % n
    q = np.multiply(x, y, dtype=np.float64)
    q *= inv
    r = x * y
    r -= q.astype(np.uint64) * n
    r = r.view(np.int64)
    r %= n.view(np.int64)  # from [-n, 2n) to [0, n)
    return r.view(np.uint64)


def strong_probable_primes(n, bases) -> np.ndarray:
    """Flags, per odd n in (53, 2**50) with no prime factor <= 53: n is a
    strong probable prime to every base in ``bases``, as arith._miller_rabin
    decides it (a base = 0 mod n passes).

    Each base runs on the survivors of the ones before it, so a composite
    costs about one base.
    """
    n = np.asarray(n, dtype=np.int64)
    if n.size and (n.min() <= 53 or n.max() >= MR_LIMIT or not np.all(n & 1)):
        raise ValueError("strong_probable_primes takes odd candidates in (53, 2**50)")
    n = n.astype(np.uint64)
    one = np.uint64(1)
    low = (n - one) & ~(n - one - one)  # the lowest set bit of n - 1, 2**s
    d = (n - one) // low  # n - 1 = d * 2**s, d odd
    s = np.frexp(low.astype(np.float64))[1] - 1  # exact: low = 0.5 * 2**(s+1)
    alive = np.arange(n.size)
    for a in bases:
        if not alive.size:
            break
        m, e = n[alive], d[alive]
        inv = None if m.max() < _MR_EXACT else 1.0 / m.astype(np.float64)
        b = np.uint64(a) % m
        # x = b**e mod m, right to left over the bits of e
        x = np.ones_like(m)
        sq = b
        while True:
            odd = (e & one).astype(bool)
            x = np.where(odd, _mulmod(x, sq, m, inv), x)
            e = e >> one
            if not e.any():
                break
            sq = _mulmod(sq, sq, m, inv)
        top = m - one
        ok = (b == 0) | (x == one) | (x == top)
        # the squaring chain x**2, ..., x**(2**(s-1)) must reach n - 1
        at = np.flatnonzero(~ok)
        for i in range(1, int(s[alive].max())):
            at = at[s[alive[at]] > i]
            if not at.size:
                break
            sub = None if inv is None else inv[at]
            x[at] = _mulmod(x[at], x[at], m[at], sub)
            hit = x[at] == top[at]
            ok[at[hit]] = True
            at = at[~hit]
        alive = alive[ok]
    flags = np.zeros(n.size, dtype=bool)
    flags[alive] = True
    return flags
