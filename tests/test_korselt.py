import pytest

from carmkit import arith, korselt
from carmkit.errors import CapacityError, DomainError

# frozen from the brute-force enumerator oracle (full odd scan with trial division)
FIRST_SEVEN = [561, 1105, 1729, 2465, 2821, 6601, 8911]
BELOW_1E5 = FIRST_SEVEN + [10585, 15841, 29341, 41041, 46657, 52633, 62745, 63973, 75361]


def brute_carmichael(limit):
    out = []
    for n in range(3, limit, 2):
        f = arith.factorize(n)
        if f.big_omega >= 2 and f.is_squarefree and all((n - 1) % (p - 1) == 0 for p in f.primes()):
            out.append(n)
    return out


def test_korselt_check_examples():
    assert korselt.korselt_check(561, arith.factorize(561))
    assert not korselt.korselt_check(7, arith.factorize(7))
    assert korselt.korselt_check(41041, arith.factorize(41041))
    # 6, 10, 12, 40 all divide 41040
    for d in (6, 10, 12, 40):
        assert 41040 % d == 0


def test_korselt_check_rejects_wrong_factorization():
    with pytest.raises(DomainError):
        korselt.korselt_check(561, arith.factorize(1105))


def test_korselt_check_names_big_numbers_by_size():
    # 3**10000 + 2 has 4772 digits, past Python's limit for int-to-str conversion
    with pytest.raises(DomainError, match=r"\(\(3, 10000\)\) does not multiply to <15850-bit"):
        korselt.korselt_check(3**10000 + 2, arith.Factorization.of([(3, 10000)]))


def test_korselt_check_non_squarefree_and_prime_power():
    assert not korselt.korselt_check(9, arith.factorize(9))
    assert not korselt.korselt_check(1, arith.factorize(1))


def test_enumerate_examples():
    assert korselt.enumerate_carmichael(500) == []
    assert [n for n, _ in korselt.enumerate_carmichael(600)] == [561]
    found = korselt.enumerate_carmichael(10_000)
    assert [n for n, _ in found] == FIRST_SEVEN
    assert len(found) == 7


def test_enumerate_matches_full_scan_at_1e5():
    mine = [n for n, _ in korselt.enumerate_carmichael(100_000)]
    assert mine == brute_carmichael(100_000) == BELOW_1E5


def test_enumerate_entries_verify_and_ascend():
    found = korselt.enumerate_carmichael(100_000)
    values = [n for n, _ in found]
    assert values == sorted(values) and len(set(values)) == len(values)
    for n, f in found:
        assert f.value() == n
        assert korselt.korselt_check(n, f)


def test_enumerate_segment_and_thread_invariance(monkeypatch):
    base = [n for n, _ in korselt.enumerate_carmichael(50_000)]
    threaded = [n for n, _ in korselt.enumerate_carmichael(50_000, threads=4)]
    wide = [n for n, _ in korselt.enumerate_carmichael(2_000_000)]
    # small segments start inside the sieving primes' strided progressions
    monkeypatch.setattr(korselt, "DEFAULT_SEGMENT", 4096)
    small_seg = [n for n, _ in korselt.enumerate_carmichael(50_000)]
    assert base == small_seg == threaded
    assert wide == [n for n, _ in korselt.enumerate_carmichael(2_000_000)]


def test_enumerate_count_at_1e6():
    # frozen from the trial-division full-scan oracle: 43 below one million
    assert len(korselt.enumerate_carmichael(10**6)) == 43


def test_enumerate_count_at_the_cap():
    assert len(korselt.enumerate_carmichael(korselt.ENUMERATION_CAP)) == 255  # OEIS A055553


def test_enumerate_capacity():
    with pytest.raises(CapacityError):
        korselt.enumerate_carmichael(korselt.ENUMERATION_CAP + 1)


def test_korselt_iff_fermat_for_all_composites():
    # composite n <= 2e4: korselt true <=> a**n = a (mod n) for every base
    carmichaels = set(BELOW_1E5)
    for n in range(4, 20_001):
        f = arith.factorize(n)
        if f.big_omega < 2:
            continue
        if korselt.korselt_check(n, f):
            assert n in carmichaels
            assert all(pow(a, n, n) == a for a in range(2, n)), n
        else:
            assert any(pow(a, n, n) != a for a in range(2, n)), n


def test_carmichael_factors_matches_factorize_below_1e7():
    found = korselt.enumerate_carmichael(10**7)
    assert len(found) == 105  # OEIS A055553
    for n, f in found:
        assert korselt.carmichael_factors(n) == f, n


def test_carmichael_factors_decides_like_factorize(monkeypatch):
    # odd n < 2e4: None only for a non-Carmichael n, and any factorization is exact
    for n in range(1, 20_001, 2):
        f = korselt.carmichael_factors(n)
        carmichael = korselt.korselt_check(n, arith.factorize(n))
        if f is None:
            assert not carmichael, n
        else:
            assert f == arith.factorize(n) and korselt.korselt_check(n, f) == carmichael, n
    assert korselt.carmichael_factors(2) is None and korselt.carmichael_factors(561 * 2) is None
    # with no bases, every composite part is left to factorize
    monkeypatch.setattr(korselt, "SPLIT_BASES", ())
    for n in BELOW_1E5:
        assert korselt.carmichael_factors(n) == arith.factorize(n), n


def test_carmichael_factors_strong_pseudoprime_to_bases_up_to_31():
    n = 3825123056546413051
    assert arith._miller_rabin(n, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    assert korselt.carmichael_factors(n).pairs == ((149491, 1), (747451, 1), (34233211, 1))


def test_carmichael_factors_rejects_fermat_pseudoprime():
    # 2**101 - 1 is a base-2 Fermat pseudoprime; base 3 proves it is not Carmichael
    n = 2**101 - 1
    assert pow(2, n - 1, n) == 1 and not arith.is_prime(n)
    assert korselt.carmichael_factors(n) is None


def test_census_examples():
    c = korselt.census(10_000, 4)
    assert c.counts == {1: 6, 3: 1} and c.other == 0
    c = korselt.census(500, 3)
    assert c.counts == {1: 0, 2: 0}
    c = korselt.census(600, 2)
    assert c.counts == {1: 1}


def test_census_other_bucket():
    # 561 and 62745 are divisible by 3
    c = korselt.census(100_000, 3)
    assert c.counts == {1: 13, 2: 1}
    assert c.other == 2
    assert c.total == 16


def test_census_totals_match_enumerator():
    total = len(korselt.enumerate_carmichael(100_000))
    for M in (2, 3, 4, 5, 12, 35):
        assert korselt.census(100_000, M).total == total


def test_census_domain():
    with pytest.raises(DomainError):
        korselt.census(1000, 0)
    with pytest.raises(CapacityError):
        korselt.census(1000, korselt.CENSUS_MODULUS_CAP + 1)
    # modulus 1 is the single class 0
    c = korselt.census(100_000, 1)
    assert c.counts == {0: 16} and c.other == 0
