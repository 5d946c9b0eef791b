"""Kernel parity: each numpy kernel must agree exactly with a plain-Python loop oracle."""

import math
import random

import numpy as np
import pytest

from carmkit import _kernels as K
from carmkit import arith


def brute_lpf(n):
    if n == 1:
        return 1
    best = 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            best = d
            n //= d
        d += 1
    return max(best, n) if n > 1 else best


# ---------------------------------------------------------------------------
# reference oracles: one element at a time, no vectorization


def lpf_range_loops(lo, hi, base_primes):
    n = hi - lo + 1
    rem = [lo + i for i in range(n)]
    lpf = [1] * n
    for p in (int(p) for p in base_primes):
        start = ((lo + p - 1) // p) * p
        for v in range(start, hi + 1, p):
            i = v - lo
            r = rem[i]
            while r % p == 0:
                r //= p
            rem[i] = r
            lpf[i] = p
    for i in range(n):
        if rem[i] > 1:
            lpf[i] = rem[i]
    if lo <= 1 <= hi:
        lpf[1 - lo] = 1
    return np.array(lpf, dtype=np.int64)


def carmichael_segment_loops(lo, hi, odd_primes):
    n = (hi - lo + 1) // 2
    rem = [lo + 2 * i for i in range(n)]
    alive = [True] * n
    nfac = [0] * n
    for p in (int(p) for p in odd_primes):
        start = ((lo + p - 1) // p) * p
        if start % 2 == 0:
            start += p
        for v in range(start, hi, 2 * p):
            i = (v - lo) // 2
            if not alive[i]:
                continue
            r = rem[i] // p
            if r % p == 0:
                alive[i] = False  # not squarefree
                continue
            if (v - 1) % (p - 1) != 0:
                alive[i] = False
                continue
            rem[i] = r
            nfac[i] += 1
    out = np.zeros(n, np.uint8)
    for i in range(n):
        if not alive[i]:
            continue
        v = lo + 2 * i
        r = rem[i]
        cnt = nfac[i]
        if r > 1:
            if r == v:
                continue  # v is prime
            if (v - 1) % (r - 1) != 0:
                continue
            cnt += 1
        if cnt >= 2:
            out[i] = 1
    return out


def dp_reach_loops(res, m, n_classes, capped, start):
    n = len(res)
    reach = np.zeros((n + 1, n_classes, m), np.bool_)
    reach[0, 0, start] = True
    for i in range(n):
        p = int(res[i])
        for c in range(n_classes):
            for r in range(m):
                if reach[i, c, r]:
                    reach[i + 1, c, r] = True
        for c in range(1, n_classes):
            for r in range(m):
                if reach[i, c - 1, r]:
                    reach[i + 1, c, (r * p) % m] = True
        if capped:
            top = n_classes - 1
            for r in range(m):
                if reach[i, top, r]:
                    reach[i + 1, top, (r * p) % m] = True
    return reach


def all_products_loops(res, m):
    n = len(res)
    prod = [1 % m] * (1 << n)
    size = [0] * (1 << n)
    for i, p in enumerate(res):
        half = 1 << i
        for j in range(half):
            prod[half + j] = prod[j] * p % m
            size[half + j] = size[j] + 1
    return prod, size


# ---------------------------------------------------------------------------


def test_sieve_primes_matches_trial_division():
    primes = list(K.sieve_primes(500))
    for n in range(2, 501):
        is_p = all(n % d for d in range(2, n))
        assert (n in primes) == is_p


@pytest.mark.parametrize(
    "lo,hi",
    [(1, 2000), (500, 4000), (99_990, 100_500), (2, 2), (3**13, 3**13 + 3000), (2**21 - 1500, 2**21 + 1500)],
)
def test_lpf_backends_agree_and_match_brute(lo, hi):
    base = K.sieve_primes(math.isqrt(hi))
    out_np = K.lpf_range(lo, hi, base)
    out_ref = lpf_range_loops(lo, hi, base)
    assert np.array_equal(out_np, out_ref)
    for i, n in enumerate(range(lo, hi + 1)):
        assert out_np[i] == brute_lpf(n), n


@pytest.mark.parametrize("lo,hi", [(3, 20001), (1_000_001, 1_100_001), (99_000_001, 99_100_001)])
def test_carmichael_segment_backends_agree(lo, hi):
    odd_primes = K.sieve_primes(math.isqrt(hi - 1))[1:]
    out_np = K.carmichael_segment(lo, hi, odd_primes)
    out_ref = carmichael_segment_loops(lo, hi, odd_primes)
    assert np.array_equal(out_np.astype(np.uint8), out_ref)


def test_dp_reach_backends_agree():
    # the kernel's table is the all-residue oracle's table on the units, each
    # unit at its position mod each prime power of m; m = 1, a prime, prime
    # powers and moduli with 3 and 4 prime-power factors, 2**4 among them
    rng = random.Random(17)
    for m in (1, 2, 101, 3**4, 2**5, 60, 210, 720, 1155):
        pq = [(p, p**e) for p, e in arith.factorize(m).pairs]
        units = [u for u in range(m) if math.gcd(u, m) == 1]
        non_units = [r for r in range(m) if math.gcd(r, m) != 1]
        for _ in range(6):
            n = rng.randrange(1, 14)
            res = [rng.choice(units) for _ in range(n)]
            n_classes = rng.randrange(2, 5)
            capped = rng.random() < 0.5
            a = K.dp_reach([pow(r, -1, m) for r in res], pq, n_classes, capped)
            b = dp_reach_loops(res, m, n_classes, capped, 1 % m)
            assert a.shape == (n + 1, n_classes, *(q - q // p for p, q in pq))
            for u in units:
                cell = tuple(K.unit_position(u, p, q) for p, q in pq)
                assert np.array_equal(a[(slice(None), slice(None)) + cell], b[:, :, u]), m
            assert not b[:, :, non_units].any(), m


def test_all_products_backends_agree_and_match_brute():
    rng = random.Random(23)
    for _ in range(20):
        m = rng.randrange(2, 5000)
        units = [u for u in range(1, m) if math.gcd(u, m) == 1]
        n = rng.randrange(1, 12)
        res = [rng.choice(units) for _ in range(n)]
        pa, sa = K.all_subset_products(res, m)
        pb, sb = all_products_loops(res, m)
        assert pa.dtype == np.int64
        assert pa.tolist() == pb and sa.tolist() == sb
        for mask in range(1 << n):
            prod = 1
            for i in range(n):
                if mask >> i & 1:
                    prod = prod * res[i] % m
            assert pa[mask] == prod
            assert sa[mask] == bin(mask).count("1")


def test_all_products_big_modulus_matches_oracle():
    # past the int64 limit the products are exact Python ints
    rng = random.Random(29)
    for m in (K.INT64_MOD_LIMIT, K.INT64_MOD_LIMIT + 1, 10**21 + 117, 2**89 - 1):
        res = [rng.randrange(1, m) for _ in range(rng.randrange(1, 12))]
        pa, sa = K.all_subset_products(res, m)
        pb, sb = all_products_loops(res, m)
        assert pa.dtype == object
        assert pa.tolist() == pb and sa.tolist() == sb
