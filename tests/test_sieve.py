import math
import random
import tracemalloc

import pytest

from carmkit import arith, sieve
from carmkit.errors import CapacityError, DomainError


def brute_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def brute_lpf(n):
    return max((p for p, _ in arith.factorize(n)), default=1)


def brute_Q(y, theta, M):
    lo = math.ceil(y**theta / math.log(y))
    hi = math.floor(y**theta)
    phi_M = arith.euler_phi(arith.factorize(M))
    c = 4 * phi_M
    out = []
    for q in range(max(lo, 2), hi + 1):
        if not brute_is_prime(q):
            continue
        if M % q == 0 or q % c != c - 1 or brute_lpf(q - 1) > y:
            continue
        if M > 2 and math.gcd((q - 1) // 2, phi_M) != 1:
            continue
        out.append(q)
    return out


def test_build_Q_examples():
    assert sieve.build_Q(5, 1.5, 1) == [7, 11]
    assert sieve.build_Q(2, 1.5, 1) == []
    for q in sieve.build_Q(7, 1.8, 3):
        assert q % 8 == 7  # 4*phi(3) = 8


def test_build_Q_equals_brute_filter():
    cases = [(5, 1.5, 1), (7, 1.8, 3), (20, 1.5, 1), (50, 1.5, 1), (50, 1.2, 4),
             (30, 1.9, 5), (100, 1.5, 6)]
    for y, theta, M in cases:
        assert sieve.build_Q(y, theta, M) == brute_Q(y, theta, M), (y, theta, M)


def test_query_validation():
    with pytest.raises(DomainError, match="y must be >= 2"):
        sieve.build_Q(1, 1.5, 1)
    with pytest.raises(DomainError, match="theta must lie in"):
        sieve.build_Q(5, 2.0, 1)
    with pytest.raises(DomainError, match="theta must lie in"):
        sieve.build_Q(5, 1.0, 1)
    with pytest.raises(DomainError, match="M must be >= 1"):
        sieve.build_Q(5, 1.5, 0)


def test_count_smooth_primes_examples():
    assert sieve.count_smooth_primes(20, 3, 4, 3) == 3  # q in {3, 7, 19}
    assert sieve.count_smooth_primes(2, 2, 1, 0) == 0
    assert sieve.count_smooth_primes(100, 100, 1, 0) == 25  # pi(100), vacuous smoothness


def test_count_smooth_primes_brute():
    def brute(z, v, d, b):
        return sum(
            1
            for q in range(2, z)
            if brute_is_prime(q) and q % d == b % d and brute_lpf(q - 1) <= v
        )

    for z, v, d, b in [(50, 5, 3, 1), (200, 7, 4, 3), (300, 300, 1, 0), (100, 2, 2, 1)]:
        assert sieve.count_smooth_primes(z, v, d, b) == brute(z, v, d, b)


def brute_smooth(start, stop, v, d, b):
    return [q for q in range(max(start, 2), stop)
            if brute_is_prime(q) and q % d == b % d and brute_lpf(q - 1) <= v]


def test_count_smooth_primes_huge_moduli():
    # the class is taken in Python before any array: q < stop <= d has
    # q = b (mod d) iff q = b mod d, and b mod d >= stop leaves nothing
    for d in (2**63, 2**64 + 3, 10**30):
        for b in (3, 97, 7 + 5 * d, 13 - d, -1, 10**40, 2**63 - 1):
            for z, v in ((100, 5), (100, 100), (2, 1), (98, 3)):
                want = len(brute_smooth(2, z, v, d, b))
                assert sieve.count_smooth_primes(z, v, d, b) == want, (z, v, d, b)
    assert sieve.count_smooth_primes(100, 5, 2**63, 3) == 1  # q = 3


def test_smooth_primes_seeded_sweep(monkeypatch):
    # 360 draws over every branch of the smoothness test: v up to isqrt(stop),
    # between it and stop, at or past stop, v in {0, 1} and v = 10**20; starts
    # 0, 1, 2 and inside the range; residues below 0 and at or past d
    monkeypatch.setattr(sieve, "WINDOW_SEGMENT", 37)
    rng = random.Random(24)
    for i in range(360):
        stop = rng.choice((rng.randrange(0, 60), rng.randrange(60, 4000)))
        root = math.isqrt(max(stop - 1, 0))
        v = (rng.randrange(0, root + 1), rng.randrange(root, stop + 1), stop + rng.randrange(3),
             rng.randrange(2), 10**20)[i % 5]
        start = (0, 1, 2, rng.randrange(0, stop + 2))[i // 5 % 4]
        d = rng.choice((1, 2, rng.randrange(1, 40), rng.randrange(1, 2 * stop + 2)))
        b = rng.choice((rng.randrange(d), -rng.randrange(1, 3 * d + 1), rng.randrange(d, 4 * d)))
        want = brute_smooth(start, stop, v, d, b)
        assert sieve._smooth_primes(start, stop, d, b, v).tolist() == want, (start, stop, v, d, b)
        if start <= 2:
            assert sieve.count_smooth_primes(stop, v, d, b) == len(want), (stop, v, d, b)


def test_smooth_windows_across_segment_edges(monkeypatch):
    # odd window length, so window starts alternate parity and some are prime
    # (67 = 2 + 65 starts the second window of a count; 66 ends the first)
    monkeypatch.setattr(sieve, "WINDOW_SEGMENT", 65)
    cases = [(5, 1.5, 1), (7, 1.8, 3), (20, 1.5, 1), (50, 1.5, 1), (50, 1.2, 4),
             (30, 1.9, 5), (100, 1.5, 6)]
    for y, theta, M in cases:
        assert sieve.build_Q(y, theta, M) == brute_Q(y, theta, M), (y, theta, M)
    primes = [q for q in range(2, 3000) if brute_is_prime(q)]
    for z in (67, 68, 132, 3000):
        for v, d, b in [(7, 1, 0), (11, 1, 0), (13, 4, 3), (3000, 6, 1), (2, 2, 1)]:
            want = sum(1 for q in primes if q < z and q % d == b % d and brute_lpf(q - 1) <= v)
            assert sieve.count_smooth_primes(z, v, d, b) == want, (z, v, d, b)


def test_count_smooth_primes_memory_is_one_window(monkeypatch):
    # 16 windows of 2**16: the whole-range table alone would be 8 MiB
    monkeypatch.setattr(sieve, "WINDOW_SEGMENT", 1 << 16)
    tracemalloc.start()
    try:
        assert sieve.count_smooth_primes(1 << 20, 100, 4, 3) == 3719
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20, peak


def test_count_smooth_primes_monotone():
    base = sieve.count_smooth_primes(500, 7, 4, 3)
    for z in (600, 800, 1000):
        nxt = sieve.count_smooth_primes(z, 7, 4, 3)
        assert nxt >= base
        base = nxt
    base = sieve.count_smooth_primes(1000, 2, 4, 3)
    for v in (3, 5, 11, 997):
        nxt = sieve.count_smooth_primes(1000, v, 4, 3)
        assert nxt >= base
        base = nxt


def test_count_smooth_primes_domain_and_capacity():
    with pytest.raises(DomainError):
        sieve.count_smooth_primes(100, 5, 0, 0)
    with pytest.raises(CapacityError):
        sieve.count_smooth_primes(sieve.SIEVE_CAPACITY + 2, 5, 1, 0)


def test_build_Q_capacity():
    with pytest.raises(CapacityError):
        sieve.build_Q(100_000, 1.99, 1)


def test_window_population_at_scale():
    # the analytic density bound is out of reach at desk scale; assert the
    # windows are populated and log the observed density ratio
    for y in (50, 100, 200):
        Q = sieve.build_Q(y, 1.5, 1)
        assert len(Q) > 0
        z = y**1.5
        ratio = len(Q) / (z / math.log(z))
        print(f"y={y}: |Q|={len(Q)} ratio={ratio:.3f}")
