import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from carmkit import arith
from carmkit.arith import Factorization
from carmkit.errors import CrtConflictError, DomainError, UnfactoredError


def sieve_set(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(flags[p * p :: p])
    return {i for i, f in enumerate(flags) if f}


def test_is_prime_examples():
    assert not arith.is_prime(1)
    assert not arith.is_prime(8911)  # 7 * 19 * 67
    assert arith.is_prime(631)


def test_is_prime_exhaustive_small():
    primes = sieve_set(10**6)
    for n in range(10**6):
        assert arith.is_prime(n) == (n in primes), n


def test_is_prime_strong_pseudoprimes():
    # composites that fool small Miller-Rabin base sets
    for n in (3215031751, 3825123056546413051, 341550071728321):
        assert not arith.is_prime(n)


# the upper ends of the base table's bands, the last one where proofs stop
BAND_ENDS = (350269456337, 55245642489451, 7999252175582851, 585226005592931977, 2**64)


def test_is_prime_table_bounds_are_pseudoprimes_to_their_sets():
    assert tuple(bound for bound, _ in arith._MR_TABLE) == BAND_ENDS
    assert BAND_ENDS[-1] == arith.PROBABLE_PRIME_THRESHOLD
    factors = {350269456337: (197279, 1775503), 55245642489451: (3716371, 14865481),
               7999252175582851: (9227, 894923, 968731),
               585226005592931977: (382500329, 1530001313)}
    for bound, bases in arith._MR_TABLE[:-1]:
        assert math.prod(factors[bound]) == bound
        # the set does not decide its own bound, so the next band's set must
        assert arith._miller_rabin(bound, bases)
        assert not arith.is_prime(bound)
    # mr_band is the one lookup: each band holds the integers below its bound
    for band, later in zip(arith._MR_TABLE, arith._MR_TABLE[1:]):
        assert arith.mr_band(band[0] - 1) == band and arith.mr_band(band[0]) == later
    with pytest.raises(DomainError):
        arith.mr_band(arith.PROBABLE_PRIME_THRESHOLD)


def test_product_matches_running_product():
    rng = random.Random(7)
    for n in (0, 1, 2, 3, 17, 1000):
        factors = [rng.randrange(1, 10**6) for _ in range(n)]
        assert arith.product(factors) == math.prod(factors)
        assert arith.product(iter(factors)) == math.prod(factors)


def test_is_prime_rejects_A014233():
    # OEIS A014233: the least odd composite that is a strong pseudoprime to
    # each of the first k prime bases, k = 1..13, all below 2**82
    a014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
               341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
               3825123056546413051, 318665857834031151167461, 3317044064679887385961981)
    primes = sorted(sieve_set(41))
    for k, n in enumerate(a014233, 1):
        assert n < 2**82
        assert arith._miller_rabin(n, primes[:k])
        assert not arith.is_prime(n), n


def _prime_by_trial(n):
    return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))


def test_is_prime_rejects_chernick_in_every_band():
    # (6k+1)(12k+1)(18k+1) with three prime factors is a Carmichael number;
    # factors above 53 leave it to Miller-Rabin, one per band and one above
    for lo, hi in zip((0,) + BAND_ENDS, BAND_ENDS + (2**80,)):
        k = max(9, arith.nth_root_floor(lo // 1296, 3))
        while not (lo <= 1296 * k**3
                   and all(_prime_by_trial(f) for f in (6 * k + 1, 12 * k + 1, 18 * k + 1))):
            k += 1
        n = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
        assert lo <= n < hi and pow(2, n - 1, n) == 1
        assert not arith.is_prime(n), n


def test_is_prime_bands_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    for lo, hi in zip((2,) + BAND_ENDS, BAND_ENDS + (2**70,)):
        picks = [rng.randrange(lo, hi) for _ in range(200)]
        picks += [sympy.nextprime(rng.randrange(lo, hi)) for _ in range(30)]
        # products of two primes near the square root: composites only Miller-Rabin catches
        roots = (math.isqrt(lo) + 1, math.isqrt(hi))
        picks += [sympy.nextprime(rng.randrange(*roots)) * sympy.nextprime(rng.randrange(*roots))
                  for _ in range(30)]
        for n in picks:
            assert arith.is_prime(n) == sympy.isprime(n), n
    for end in BAND_ENDS:
        for n in range(end - 1000, end + 1001):
            assert arith.is_prime(n) == sympy.isprime(n), n


def test_import_arith_loads_no_numpy():
    src = Path(arith.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", "import sys, carmkit.arith; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "False\n", "")


def test_is_prime_large_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(42)
    for bits in (63, 65, 96, 128):
        for _ in range(40):
            n = rng.getrandbits(bits) | 1
            assert arith.is_prime(n) == sympy.isprime(n), n
    # some known large primes and their neighbours
    for p in (2**89 - 1, 2**107 - 1, 10**30 + 57):
        assert arith.is_prime(p)
        assert not arith.is_prime(p + 8)


def test_factorize_examples():
    assert arith.factorize(1).pairs == ()
    assert arith.factorize(561).pairs == ((3, 1), (11, 1), (17, 1))
    assert arith.factorize(41040).pairs == ((2, 4), (3, 3), (5, 1), (19, 1))


def test_factorize_reconstructs_up_to_1e5():
    primes = sieve_set(100_000)
    for n in range(1, 100_001):
        f = arith.factorize(n)
        assert f.value() == n
        assert all(p in primes for p in f.primes())
        assert all(arith.is_prime(p) for p in f.primes())
        assert list(f.primes()) == sorted(f.primes())


def test_factorize_uses_rho_beyond_trial_bound(monkeypatch):
    monkeypatch.setattr(arith, "TRIAL_BOUND", 1000)
    p, q = 1_000_003, 1_000_033
    f = arith.factorize(p * q)
    assert f.pairs == ((p, 1), (q, 1))


def test_factorize_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(arith, "TRIAL_BOUND", 100)
    monkeypatch.setattr(arith, "RHO_BUDGET", 50)
    p = 2**89 - 1
    q = 2**107 - 1
    with pytest.raises(UnfactoredError) as ei:
        arith.factorize(p * q)
    assert ei.value.cofactor > 1
    assert (p * q) % ei.value.cofactor == 0


def test_factorize_many_factors():
    # trial division takes these apart; Brent rho alone would need minutes
    primes = sorted(random.Random(1000).sample(sorted(sieve_set(10**5) - sieve_set(53)), 1000))
    n = math.prod(primes)
    assert n.bit_length() > 14_000
    start = time.perf_counter()
    f = arith.factorize(n)
    assert time.perf_counter() - start < 2.0
    assert f.pairs == tuple((p, 1) for p in primes)
    for p in sorted(sieve_set(1999) - sieve_set(58)):
        for k in range(1, 12):
            for c in (1, 59, 1009):
                want = Counter({p: k})
                if c > 1:
                    want[c] += 1
                assert arith.factorize(p**k * c).pairs == tuple(sorted(want.items())), (p, k, c)


def test_factorize_domain():
    with pytest.raises(DomainError):
        arith.factorize(0)


def test_factorization_type_invariants():
    with pytest.raises(DomainError):
        Factorization.of([(3, 1), (3, 1)])  # not strictly ascending
    with pytest.raises(DomainError):
        Factorization.of([(5, 0)])
    f = Factorization.of([(2, 2), (7, 1)])
    assert f.value() == 28 and f.primes() == (2, 7) and f.big_omega == 3
    assert not f.is_squarefree


def test_crt_examples():
    assert arith.crt([(1, 3), (2, 5)]) == (7, 15)
    assert arith.crt([(0, 1)]) == (0, 1)
    # oracle: scan residues mod 60
    expect = next(x for x in range(60) if x % 15 == 1 and x % 4 == 3)
    assert arith.crt([(1, 15), (3, 4)]) == (expect, 60) == (31, 60)


def test_crt_satisfies_inputs_and_idempotent():
    rng = random.Random(5)
    for _ in range(200):
        moduli = [rng.randrange(1, 300) for _ in range(rng.randrange(1, 5))]
        x0 = rng.randrange(0, 10**6)
        system = [(x0 % m, m) for m in moduli]
        r, m = arith.crt(system)
        assert all(r % mi == ri for ri, mi in system)
        assert m == math.lcm(*moduli)
        assert arith.crt([(r, m)]) == (r, m)


def test_crt_conflict_names_pair():
    with pytest.raises(CrtConflictError) as ei:
        arith.crt([(1, 4), (3, 8)])
    assert ei.value.pair_a == (1, 4) and ei.value.pair_b == (3, 8)
    with pytest.raises(CrtConflictError):
        arith.crt([(0, 6), (1, 10), (5, 15)])  # pairwise failure appears late


def test_crt_domain():
    with pytest.raises(DomainError):
        arith.crt([])
    with pytest.raises(DomainError):
        arith.crt([(1, 0)])


def test_jacobi_examples():
    assert arith.jacobi(1, 9) == 1
    assert arith.jacobi(2, 15) == 1  # (2/3)(2/5) = (-1)(-1)
    assert arith.jacobi(2, 3) == -1


def test_jacobi_matches_euler_criterion():
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
              137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199):
        squares = {a * a % p for a in range(1, p)}
        for a in range(p):
            expect = 0 if a == 0 else (1 if a in squares else -1)
            assert arith.jacobi(a, p) == expect, (a, p)


def test_jacobi_multiplicative():
    rng = random.Random(9)
    for _ in range(300):
        a = rng.randrange(0, 500)
        b = rng.randrange(0, 500)
        n = rng.randrange(1, 500) * 2 + 1
        m = rng.randrange(1, 500) * 2 + 1
        assert arith.jacobi(a * b, n) == arith.jacobi(a, n) * arith.jacobi(b, n)
        assert arith.jacobi(a, n * m) == arith.jacobi(a, n) * arith.jacobi(a, m)


def test_jacobi_domain():
    with pytest.raises(DomainError):
        arith.jacobi(3, 8)
    with pytest.raises(DomainError):
        arith.jacobi(3, 0)


def test_euler_phi_examples_and_brute():
    assert arith.euler_phi(arith.factorize(1)) == 1
    assert arith.euler_phi(arith.factorize(15)) == 8
    assert arith.euler_phi(arith.factorize(120)) == 32
    for m in range(1, 500):
        brute = sum(1 for a in range(1, m + 1) if math.gcd(a, m) == 1)
        assert arith.euler_phi(arith.factorize(m)) == brute


def test_carmichael_lambda_examples():
    assert arith.carmichael_lambda(arith.factorize(8)) == 2
    assert arith.carmichael_lambda(arith.factorize(15)) == 4
    assert arith.carmichael_lambda(arith.factorize(1)) == 1


def test_carmichael_lambda_exponent_and_minimality():
    # lambda(m) annihilates every unit, and no proper divisor does
    for m in range(1, 2001):
        lam = arith.carmichael_lambda(arith.factorize(m))
        units = [a for a in range(1, m) if math.gcd(a, m) == 1] or [0]
        assert all(pow(a, lam, m) == 1 % m for a in units), m
        if lam > 1:
            for p in arith.factorize(lam).primes():
                d = lam // p
                assert any(pow(a, d, m) != 1 % m for a in units), (m, d)


def test_divisors():
    assert arith.divisors(arith.factorize(1)) == [1]
    assert arith.divisors(arith.factorize(120)) == [
        1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60, 120]


def test_nth_root_floor():
    rng = random.Random(13)
    for _ in range(500):
        n = rng.randrange(0, 10**18)
        k = rng.randrange(1, 10)
        r = arith.nth_root_floor(n, k)
        assert r**k <= n < (r + 1) ** k
    assert arith.nth_root_floor(84**5, 5) == 84
    with pytest.raises(DomainError):
        arith.nth_root_floor(-1, 2)
