"""Kernel parity: each numpy kernel must agree exactly with a plain-Python loop oracle."""

import itertools
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


def prime_flags_loops(lo, hi):
    return np.array([n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
                     for n in range(lo, hi)], dtype=bool)


def smooth_part_loops(lo, hi, primes):
    out = []
    for n in range(lo, hi):
        s, r = 1, n
        for p in (int(p) for p in primes):
            while r % p == 0:
                r //= p
                s *= p
        out.append(s)
    return np.array(out, dtype=np.int64)


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
    # sieve_primes is prime_flags from 0, with the base primes of its own root
    for limit in (0, 1, 2, 3, 4, 48, 49, 500, 10**4):
        want = [n for n in range(limit + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]
        assert K.sieve_primes(limit).tolist() == [n for n in want if n >= 2], limit


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


@pytest.mark.parametrize(
    "lo,hi",
    [(0, 2000), (1, 2000), (2, 2), (2, 3000), (3**13 - 1500, 3**13 + 1500),
     (2**21 - 1500, 2**21 + 1500), (2**20 - 700, 2**20 + 1), (2**26 - 300, 2**26 + 300),
     (9967**2 - 500, 9967**2 + 500), (9973**2 - 800, 9973**2 + 800)],
)
def test_prime_flags_and_smooth_part_match_loops(lo, hi):
    # around 3**13 and powers of 2, and around p**2 for p near sqrt(hi); every
    # subset of the base primes up to isqrt(hi - 1) that _smooth_primes passes
    base = K.sieve_primes(math.isqrt(max(hi - 1, 0)))
    flags = K.prime_flags(lo, hi, base)
    assert flags.dtype == bool and np.array_equal(flags, prime_flags_loops(lo, hi))
    if lo < 1:
        return
    for k in sorted({0, 1, 2, 5, len(base) // 2, len(base)}):
        out = K.smooth_part(lo, hi, base[:k])
        assert out.dtype == np.int64
        assert np.array_equal(out, smooth_part_loops(lo, hi, base[:k])), (lo, hi, k)


@pytest.mark.parametrize(
    "lo,hi",
    [(3, 20001), (1_000_001, 1_100_001), (99_000_001, 99_100_001),
     (99_759_661, 99_862_061), (84_264_183, 84_420_001), (99_819_719, 99_879_979),
     (52_633, 62_747)],
)
def test_carmichael_segment_backends_agree(lo, hi):
    # the primes 3 to 13 are seeded from a wheel of 30030 odd entries, read
    # from the phase (lo - 1) // 2 % 30030, and a wrong seed unflags a
    # Carmichael number; so each wheel window starts at phase 0, 1, 30029 or
    # 26316 and holds some: past its first period (phase 0), in each of its
    # three periods (phase 1), in its first (30029), and on both sides of
    # the wrap to phase 0 (26316)
    odd_primes = K.sieve_primes(math.isqrt(hi - 1))[1:]
    out_np = K.carmichael_segment(lo, hi, odd_primes)
    out_ref = carmichael_segment_loops(lo, hi, odd_primes)
    assert np.array_equal(out_np.astype(np.uint8), out_ref)


def test_carmichael_segment_batched_primes_share_an_entry():
    # 17586361 = 13 * 61 * 67 * 331: four primes, each with at most one
    # progression entry in a 32-entry window, all on this one entry
    lo, hi = 17_586_349, 17_586_413
    odd_primes = K.sieve_primes(math.isqrt(hi - 1))[1:]
    out = K.carmichael_segment(lo, hi, odd_primes)
    assert np.array_equal(out, carmichael_segment_loops(lo, hi, odd_primes))
    assert list(lo + 2 * np.flatnonzero(out)) == [17_586_361]


def test_carmichael_segment_random_windows():
    rng = random.Random(19)
    for _ in range(200):
        lo = rng.randrange(10**6, 10**8 - 512) | 1
        hi = lo + 2 * rng.randint(4, 256)
        odd_primes = K.sieve_primes(math.isqrt(hi - 1))[1:]
        out = K.carmichael_segment(lo, hi, odd_primes)
        assert np.array_equal(out, carmichael_segment_loops(lo, hi, odd_primes)), lo


# two slices of OEIS A002997 (the Carmichael numbers): the first 16 terms
# above 10**6 and the last 16 below 10**8
A002997_SLICES = (
    1024651, 1033669, 1050985, 1082809, 1152271, 1193221, 1461241, 1569457,
    1615681, 1773289, 1857241, 1909001, 2100901, 2113921, 2433601, 2455921,
    83966401, 84311569, 84350561, 84417985, 87318001, 88689601, 90698401, 92625121,
    93030145, 93614521, 93869665, 94536001, 96895441, 99036001, 99830641, 99861985,
)


def test_carmichael_segment_windows_around_known_carmichael():
    # a window that holds no Carmichael number reads all-False for almost any
    # wrong s, so each of these holds one from outside carmkit: the slices
    # above and Chernick's (6k+1)(12k+1)(18k+1) with all three factors prime.
    # Those in (10**10, 10**11), at k = 206, 216, 255, 276, 370 and 380, take
    # the primes to sqrt(10**11) that enumerate_carmichael sieves at its cap
    sympy = pytest.importorskip("sympy")
    chernick = [(6 * k + 1) * (12 * k + 1) * (18 * k + 1) for k in range(1, 400)
                if all(sympy.isprime(c * k + 1) for c in (6, 12, 18))]
    known = A002997_SLICES + tuple(v for v in chernick if 10**6 < v < 10**11)
    assert len(known) == 32 + 8 + 6
    at_cap = K.sieve_primes(math.isqrt(10**11 - 1))[1:]
    rng = random.Random(23)
    for v in known:
        f = sympy.factorint(v)  # Korselt's criterion, apart from carmkit
        assert len(f) >= 3 and set(f.values()) == {1} and all((v - 1) % (p - 1) == 0 for p in f)
        width = rng.randint(4, 256)
        lo = v - 2 * rng.randrange(width)
        hi = lo + 2 * width
        odd_primes = at_cap if v > 10**10 else K.sieve_primes(math.isqrt(hi - 1))[1:]
        out = K.carmichael_segment(lo, hi, odd_primes)
        assert out[(v - lo) // 2], v
        assert np.array_equal(out, carmichael_segment_loops(lo, hi, odd_primes)), v


@pytest.mark.parametrize(
    "lo,hi",
    [(3, 3 + 2**20), (3 + 94 * 2**20, 3 + 95 * 2**20), (3 + 95 * 2**20, 10**8)],
    ids=["first", "last-full", "last-short"],
)
def test_carmichael_segment_at_the_cap(lo, hi):
    # the segments of enumerate_carmichael(10**8), each with the cap's primes
    odd_primes = K.sieve_primes(math.isqrt(10**8 - 1))[1:]
    out = K.carmichael_segment(lo, hi, odd_primes)
    assert out.dtype == np.bool_ and out.size == (hi - lo + 1) // 2
    assert np.array_equal(out, carmichael_segment_loops(lo, hi, odd_primes))


def test_carmichael_segment_small_starts_and_widths():
    # v is flagged iff the product s of the primes p | v with p - 1 | v - 1
    # equals v: a prime (v = 3 at lo = 3 among them) has s = 1, and a prime
    # square or cube p**e has s = p
    odd_primes = K.sieve_primes(math.isqrt(2064))[1:]
    ref = carmichael_segment_loops(3, 2065, odd_primes)  # v at entry (v - 3) // 2
    assert list(3 + 2 * np.flatnonzero(ref)) == [561, 1105, 1729]
    # every odd start below 2000 lands somewhere inside each small prime's progression
    for lo in range(3, 2000, 2):
        for width in range(2, 65, 2):
            out = K.carmichael_segment(lo, lo + width, odd_primes)
            i = (lo - 3) // 2
            assert np.array_equal(out, ref[i : i + width // 2]), (lo, width)


@pytest.mark.parametrize(
    "v,carmichael",
    [(3**7, False), (43**3, False), (97**2, False), (2153**3, False), (99991**2, False),
     (99991, False), (9_999_109_081, True)],
    ids=["3^7", "43^3", "97^2", "2153^3", "99991^2", "prime-99991", "largest-below-1e10"],
)
def test_carmichael_segment_prime_powers_and_large_windows(v, carmichael):
    # 2**12-wide windows around v, with the primes enumerate_carmichael(10**10)
    # sieves; 9999109081 = 13 * 19 * 61 * 73 * 9091, the largest Carmichael
    # number below 10**10, has the largest s = v of the enumeration
    odd_primes = K.sieve_primes(math.isqrt(10**10 - 1))[1:]
    lo, hi = v - 2**11, v + 2**11
    out = K.carmichael_segment(lo, hi, odd_primes)
    assert np.array_equal(out, carmichael_segment_loops(lo, hi, odd_primes))
    assert out[(v - lo) // 2] == carmichael


def test_carmichael_segment_empty_window():
    odd_primes = K.sieve_primes(100)[1:]
    for lo, hi in [(101, 101), (101, 99), (101, 3)]:
        out = K.carmichael_segment(lo, hi, odd_primes)
        assert out.dtype == np.bool_ and out.size == 0


def test_scan_segments_runs_one_segment_inline(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool started for one segment")

    monkeypatch.setattr(K.concurrent.futures, "ThreadPoolExecutor", no_pool)
    assert K.scan_segments(lambda lo, hi: (lo, hi), 3, 100, 1 << 10, threads=4) == [(3, 100)]


def test_dp_reach_backends_agree():
    # the kernel's table is the all-residue oracle's table on the units, each
    # unit at its position mod each prime power of m and class c at bit c of
    # its bytes; m = 1, a prime, prime powers and moduli with 3 and 4
    # prime-power factors, 2**4 among them; every class count 1..20, capped
    # and not, so classes 8, 9, 16 and 17 sit on either side of a byte edge
    rng = random.Random(17)
    shapes = itertools.cycle([(c, capped) for c in range(1, 21) for capped in (False, True)])
    for m in (1, 2, 101, 3**4, 2**5, 60, 210, 720, 1155):
        pq = [(p, p**e) for p, e in arith.factorize(m).pairs]
        units = [u for u in range(m) if math.gcd(u, m) == 1]
        non_units = [r for r in range(m) if math.gcd(r, m) != 1]
        for _ in range(6):
            n = rng.randrange(1, 14)
            res = [rng.choice(units) for _ in range(n)]
            n_classes, capped = next(shapes)
            a = K.dp_reach([pow(r, -1, m) for r in res], pq, n_classes, capped)
            b = dp_reach_loops(res, m, n_classes, capped, 1 % m)
            assert a.shape == (n + 1, *(q - q // p for p, q in pq), -(-n_classes // 8))
            bits = np.unpackbits(a, axis=-1, bitorder="little")
            assert not bits[..., n_classes:].any(), (m, n_classes)
            for u in units:
                cell = tuple(K.unit_position(u, p, q) for p, q in pq)
                assert np.array_equal(bits[(slice(None),) + cell][:, :n_classes], b[:, :, u]), m
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


# Miller-Rabin: strong_probable_primes against arith, candidates with no factor <= 53

def _sieved(values):
    return [n for n in values if n > 53 and all(n % r for r in arith._TRIAL_PRIMES)]


def test_strong_probable_primes_below_1e6_match_is_prime():
    cands = _sieved(range(55, 10**6, 2))
    flags = K.strong_probable_primes(np.array(cands), arith.mr_band(10**6)[1])
    assert flags.tolist() == [arith.is_prime(n) for n in cands]


def test_strong_probable_primes_band_ends():
    # each band's bound is a strong pseudoprime to its own set, caught by the next band's
    bands = arith._MR_TABLE
    for (bound, bases), (_, next_bases) in zip(bands[:2], bands[1:3]):
        assert _sieved([bound]) == [bound] and bound < K.MR_LIMIT
        assert K.strong_probable_primes([bound], bases).tolist() == [True]
        assert K.strong_probable_primes([bound], next_bases).tolist() == [False]
        assert not arith.is_prime(bound)


def test_strong_probable_primes_on_A014233():
    # a(k), the least strong pseudoprime to the first k prime bases, passes those
    # and fails the first j; 2047 = 23 * 89 is left out, as the kernel takes no
    # candidate with a factor <= 53, and a(7) = a(8) fails only at 9 bases
    primes = arith._TRIAL_PRIMES
    for k, j, n in [(2, 3, 1373653), (3, 4, 25326001), (4, 5, 3215031751), (5, 6, 2152302898747),
                    (6, 7, 3474749660383), (8, 9, 341550071728321)]:
        assert _sieved([n]) == [n] and n < K.MR_LIMIT
        assert K.strong_probable_primes([n], primes[:k]).tolist() == [True]
        assert K.strong_probable_primes([n], primes[:j]).tolist() == [False]
        assert K.strong_probable_primes([n], arith.mr_band(n)[1]).tolist() == [arith.is_prime(n)]


@pytest.mark.parametrize("bases", [arith._TRIAL_PRIMES[:9], (2, 3, 1373653 * 7), (2,),
                                   arith._MR_TABLE[0][1]])
def test_strong_probable_primes_mixed_batch_matches_miller_rabin(bases):
    # Fermat numbers (d = 1: the squaring chain is the whole test; 2**32 + 1 =
    # 641 * 6700417 is a strong pseudoprime to base 2), A014233 values that die
    # at different later bases, and primes, in one call; the later bases run
    # stacked over the first base's survivors, and 1373653 * 7 = 0 mod 1373653
    fermat = [257, 65537, 4294967297]
    mixed = fermat + [1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                      1000003, 999999999989, 562949953421231]
    for cands in (fermat, mixed):
        assert _sieved(cands) == cands
        flags = K.strong_probable_primes(np.array(cands), bases)
        assert flags.tolist() == [arith._miller_rabin(n, bases) for n in cands]


def test_strong_probable_primes_mixed_lengths_by_band_match_is_prime():
    # exponents of every length up to 2**50 in one call, one call per band as
    # pipeline._batch_primes makes them
    rng = random.Random(50)
    cands = []
    while len(cands) < 4000:
        cands += _sieved([int(math.exp(rng.uniform(math.log(55), math.log(K.MR_LIMIT)))) | 1])
    by_band = {}
    for n in cands:
        by_band.setdefault(arith.mr_band(n)[1], []).append(n)
    assert len(by_band) == 3
    for bases, band in by_band.items():
        flags = K.strong_probable_primes(np.array(band), bases)
        assert flags.tolist() == [arith.is_prime(n) for n in band]
        assert 0 < flags.sum() < len(band)


@pytest.mark.parametrize("top", [1 << 32, 1 << 50])
def test_mulmod_just_below_limits_matches_python_ints(top):
    rng = random.Random(top)
    n = np.array([top - 1 - 2 * rng.randrange(1 << 20) for _ in range(2000)], dtype=np.uint64)
    x = np.array([rng.randrange(int(m)) for m in n] + [int(m) - 1 for m in n[:50]], dtype=np.uint64)
    y = np.array([rng.randrange(int(m)) for m in n] + [int(m) - 1 for m in n[:50]], dtype=np.uint64)
    n = np.concatenate((n, n[:50]))
    # x*y = -1 and +1 mod n: the fraction of x*y/n lies within 1/n of 1 and
    # of 0, where the float quotient rounds up or down past an integer
    pairs = [(u, k) for u, k in ((rng.randrange(2, k), k) for k in n[:200].tolist()) if math.gcd(u, k) == 1]
    for sign in (-1, 1):
        x = np.concatenate((x, np.array([u for u, _ in pairs], dtype=np.uint64)))
        y = np.concatenate((y, np.array([sign * pow(u, -1, k) % k for u, k in pairs], dtype=np.uint64)))
        n = np.concatenate((n, np.array([k for _, k in pairs], dtype=np.uint64)))
    inv = 1.0 / n.astype(np.float64)
    q = np.multiply(x, y, dtype=np.float64) * inv
    r = [int(a) * int(b) - int(c) * int(m) for a, b, c, m in zip(x, y, q.astype(np.uint64), n)]
    assert all(-m <= c < 2 * m for c, m in zip(r, n.tolist()))
    assert any(c < 0 for c in r)  # rounded up: r + n
    assert any(c >= m for c, m in zip(r, n.tolist()))  # rounded down: r - n
    want = [int(a) * int(b) % int(m) for a, b, m in zip(x, y, n)]
    assert K._mulmod(x, y, n, inv).tolist() == want


@pytest.mark.parametrize("top", [1 << 32, 1 << 50])
def test_strong_probable_primes_just_below_limits_match_is_prime(top):
    rng = random.Random(-top)
    cands = _sieved(top - 1 - 2 * rng.randrange(1 << 24) for _ in range(6000))
    flags = K.strong_probable_primes(np.array(cands), arith.mr_band(top - 1)[1])
    assert flags.tolist() == [arith.is_prime(n) for n in cands]
    assert 0 < flags.sum() < len(cands)


def test_strong_probable_primes_domain():
    bases = arith.mr_band(100)[1]
    assert K.strong_probable_primes(np.empty(0, np.int64), bases).tolist() == []
    for bad in ([53], [59, 60], [K.MR_LIMIT + 1]):
        with pytest.raises(ValueError):
            K.strong_probable_primes(bad, bases)
