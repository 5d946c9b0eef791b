import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from carmkit import arith, pipeline
from carmkit.errors import CapacityError, ConstructionError, DomainError
from carmkit.pipeline import Caps, ConstructionParams, PoolFilters

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"


def oracle_is_prime(n):
    """Primality apart from carmkit.arith: trial division, or sympy past 10**8."""
    if n < 10**8:
        return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))
    return pytest.importorskip("sympy").isprime(n)


def brute_pool(L, k, x, M, a, require_qr=False, require_residue=False):
    Lf = arith.factorize(L)
    out = []
    for d in pytest.importorskip("sympy").divisors(L):
        p = d * k + 1
        if p > x or not oracle_is_prime(p) or (M * L) % p == 0:
            continue
        if require_qr and not pipeline.is_qr_mod_L(p, Lf):
            continue
        if require_residue and p % M != a % M:
            continue
        out.append(p)
    return sorted(out)


def brute_find_k0(L, x, M, a, k_cap, **filters):
    best = (0, 0)
    for k in range(1, k_cap + 1):
        if math.gcd(k, L) != 1:
            continue
        c = len(brute_pool(L, k, x, M, a, **filters))
        if c > best[1]:
            best = (k, c)
    return best


def test_compute_x_examples():
    assert pipeline.compute_x(4, 21, Fraction(2, 5)) == 84**5 == 4182119424
    assert pipeline.compute_x(1, 1, Fraction(2, 5)) == 1
    assert pipeline.compute_x(1, 2, Fraction(1, 4)) == 256
    # float B goes through its decimal reading
    assert pipeline.compute_x(4, 21, 0.4) == 4182119424


def test_compute_x_is_exact_ceiling():
    # x satisfies x**p >= (M*L')**(2q) > (x-1)**p for B = p/q
    for M, Lp, B in [(4, 21, Fraction(2, 5)), (3, 10, Fraction(3, 8)),
                     (1, 7, Fraction(5, 13)), (2, 9, Fraction(1, 3))]:
        x = pipeline.compute_x(M, Lp, B)
        exp = 2 / B
        base = M * Lp
        assert x**exp.denominator >= base**exp.numerator
        assert (x - 1) ** exp.denominator < base**exp.numerator


def test_compute_x_capacity_and_domain(monkeypatch):
    monkeypatch.setattr(pipeline, "X_MAX_BITS", 1000)
    with pytest.raises(CapacityError, match="> 1000 working"):
        pipeline.compute_x(1, 10**300, Fraction(2, 5))
    with pytest.raises(DomainError):
        pipeline.compute_x(1, 2, Fraction(1, 2))


def test_build_L_prime():
    # the paper's L' = prod(Q); build_L computes it and L is taken equal to it
    assert pipeline.build_L([7, 11])[0] == 77
    assert pipeline.build_L([3])[0] == 3
    assert pipeline.build_L([7, 11, 19])[0] == 1463
    with pytest.raises(ConstructionError):
        pipeline.build_L([])


def test_build_L():
    L, f = pipeline.build_L([11, 7, 19])
    assert L == 1463 and f.pairs == ((7, 1), (11, 1), (19, 1))
    L, f = pipeline.build_L([3])
    assert L == 3 and f.pairs == ((3, 1),)


def test_is_qr_mod_L_examples():
    assert pipeline.is_qr_mod_L(4, arith.factorize(105))
    assert pipeline.is_qr_mod_L(31, arith.factorize(15))
    assert not pipeline.is_qr_mod_L(11, arith.factorize(15))
    with pytest.raises(DomainError):
        pipeline.is_qr_mod_L(3, arith.factorize(15))
    with pytest.raises(DomainError):
        pipeline.is_qr_mod_L(5, arith.factorize(12))  # not squarefree odd


def test_is_qr_mod_L_matches_square_scan():
    for L in (15, 21, 105, 33):
        squares = {a * a % L for a in range(L) if math.gcd(a, L) == 1}
        Lf = arith.factorize(L)
        for p in range(1, 200):
            if math.gcd(p, L) != 1:
                continue
            assert pipeline.is_qr_mod_L(p, Lf) == (p % L in squares), (p, L)


def test_find_k0_pinned():
    off = PoolFilters()
    # normative reading: p prime, p <= x, p coprime to M*L; {7, 11, 31} for k = 2
    assert pipeline.find_k0(arith.factorize(15), 40, 1, 1, off, 10) == (2, 3)
    assert pipeline.find_k0(arith.factorize(15), 40, 1, 1, PoolFilters(require_qr=True), 10) == (2, 1)
    assert pipeline.find_k0(arith.factorize(3), 4, 1, 1, off, 1) == (1, 1)


def test_find_k0_matches_brute():
    # 45 and 360 are not squarefree: the walk takes prime powers, and only the
    # QR filter, which needs a squarefree odd L, is left off for them
    for L, x, M, a, cap in [(15, 40, 1, 1, 10), (21, 100, 1, 1, 20), (105, 500, 4, 3, 30),
                            (33, 300, 2, 1, 15), (45, 100, 1, 1, 1), (360, 5000, 7, 3, 40)]:
        Lf = arith.factorize(L)
        got = pipeline.find_k0(Lf, x, M, a, PoolFilters(), cap)
        assert got == brute_find_k0(L, x, M, a, cap)
        qr = Lf.is_squarefree and L % 2 == 1
        got = pipeline.find_k0(Lf, x, M, a, PoolFilters(require_qr=qr, require_residue=True), cap)
        assert got == brute_find_k0(L, x, M, a, cap, require_qr=qr, require_residue=True)


def test_find_k0_errors():
    # with M = 2, p = 2 divides M*L and p = 4 is composite: nothing qualifies
    with pytest.raises(ConstructionError):
        pipeline.find_k0(arith.factorize(3), 2, 2, 1, PoolFilters(), 1)
    with pytest.raises(DomainError):
        pipeline.find_k0(arith.factorize(3), 1, 1, 1, PoolFilters(), 1)
    # the QR filter needs a squarefree L; p = 2 is the first prime it tests
    with pytest.raises(DomainError):
        pipeline.find_k0(arith.factorize(45), 100, 1, 1, PoolFilters(require_qr=True), 1)


def test_find_k0_stops_below_x(monkeypatch):
    # for k >= x every p = d*k + 1 exceeds x, so the grid forms no candidate for such k
    grid, formed = pipeline._candidates, []

    def counted(divs, ks, limit):
        for d_at, k_at in grid(divs, ks, limit):
            formed.extend(divs[i] * k + 1 for i, k in zip(d_at.tolist(), ks[k_at].tolist()))
            yield d_at, k_at

    monkeypatch.setattr(pipeline, "_candidates", counted)
    assert pipeline.find_k0(arith.factorize(77), 40, 1, 0, PoolFilters(), 10_000) == (2, 2)
    # every coprime k < 40 once with each d | 77 that keeps d*k + 1 <= 40, and nothing more
    assert sorted(formed) == sorted(d * k + 1 for k in range(1, 40) if math.gcd(k, 77) == 1
                                    for d in (1, 7, 11, 77) if d * k + 1 <= 40)


def test_pool_rule_in_blocks_matches_one_block(monkeypatch):
    grid, blocks = pipeline._candidates, []

    def counted(divs, ks, limit):
        for d_at, k_at in grid(divs, ks, limit):
            blocks.append(d_at.size)
            yield d_at, k_at

    monkeypatch.setattr(pipeline, "_candidates", counted)
    # 32 divisors and 40 k: blocks of 7 split the ks into runs and each k's divisors
    Lf = arith.factorize(7 * 11 * 19 * 23 * 31)
    cases = [(1, 0, PoolFilters()), (3, 2, PoolFilters(True, True)), (4, 3, PoolFilters(False, True))]

    def scan():
        got = []
        for M, a, filters in cases:
            k0 = pipeline.find_k0(Lf, 10**6, M, a, filters, 40)
            params = ConstructionParams(M=M, a=a, mode="agp", y=5, theta=1.5, B=Fraction(2, 5),
                                        filters=filters)
            got.append((k0, pipeline.build_pool(Lf, 10**6, k0[0], params)))
        return got

    whole, sizes = scan(), blocks[:]
    assert len(sizes) == 6  # one block for each find_k0 and each build_pool
    blocks.clear()
    monkeypatch.setattr(pipeline, "_GRID_BLOCK", 7)
    assert scan() == whole
    assert sum(blocks) == sum(sizes) and max(blocks) == 7 and len(blocks) > sum(sizes) // 7
    # the largest agp benchmark scan, the k0-y40 stratum's, takes one block
    monkeypatch.setattr(pipeline, "_GRID_BLOCK", 2**16)
    blocks.clear()
    params = ConstructionParams(M=1, a=0, mode="agp", y=40, theta=1.5, B=Fraction(2, 5),
                                caps=Caps(x_cap=10**10, k_cap=60, pool_cap=28),
                                filters=PoolFilters())
    assert pipeline.run_agp_construction(params).k0 == 6
    assert blocks[0] == 50402


def test_pool_rule_beyond_2_64():
    # 12 primes above 53 make an L of 77 bits: candidates d*k + 1 straddle 2**64
    L = math.prod((59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107))
    Lf = arith.factorize(L)
    x = 2**66
    for M, a, qr in [(1, 0, False), (3, 2, True), (4, 3, True)]:
        filters = PoolFilters(require_qr=qr, require_residue=M > 1)
        got = pipeline.find_k0(Lf, x, M, a, filters, 4)
        assert got == brute_find_k0(L, x, M, a, 4, require_qr=qr, require_residue=M > 1)
        params = ConstructionParams(M=M, a=a, mode="agp", y=5, theta=1.5, B=Fraction(2, 5),
                                    filters=filters)
        pool = pipeline.build_pool(Lf, x, got[0], params)
        assert pool == brute_pool(L, got[0], x, M, a, qr, M > 1)
        assert len(pool) == got[1]
        if M == 1:
            assert pool[0] < 2**64 < pool[-1]


def _spy_kernel(monkeypatch):
    """The base sets of the batched kernel's calls, recorded as it runs."""
    kernel, calls = pipeline.strong_probable_primes, []

    def spy(n, bases):
        calls.append(bases)
        return kernel(n, bases)

    monkeypatch.setattr(pipeline, "strong_probable_primes", spy)
    return calls


@pytest.mark.parametrize("batch_min", [1, pipeline._BATCH_MIN, 10**9])
def test_pool_rule_batched_and_scalar_match_brute(monkeypatch, batch_min):
    # find_k0's grid has more sieved candidates than the crossover, build_pool's
    # one k fewer: at the default both paths run, at the extremes one of them
    monkeypatch.setattr(pipeline, "_BATCH_MIN", batch_min)
    calls = _spy_kernel(monkeypatch)
    L, x, cap = 7 * 11 * 13 * 17 * 19 * 23, 10**7, 200
    # an M past int64 leaves one candidate in the class: p = a = 1009 = 7 * 144 + 1
    for M, a, qr, res in [(1, 0, False, False), (4, 3, True, True), (5, 2, False, True),
                          (2**64 + 1, 1009, False, True)]:
        filters = PoolFilters(require_qr=qr, require_residue=res)
        got = pipeline.find_k0(arith.factorize(L), x, M, a, filters, cap)
        assert got == brute_find_k0(L, x, M, a, cap, require_qr=qr, require_residue=res)
        params = ConstructionParams(M=M, a=a, mode="agp", y=5, theta=1.5, B=Fraction(2, 5),
                                    filters=filters)
        pool = pipeline.build_pool(arith.factorize(L), x, got[0], params)
        assert pool == brute_pool(L, got[0], x, M, a, qr, res) and len(pool) == got[1]
        scans = len(calls)
        pipeline.build_pool(arith.factorize(L), x, got[0], params)
        assert (len(calls) > scans) == (batch_min == 1)
    assert bool(calls) == (batch_min < 10**9)


@pytest.mark.parametrize("x", [2**50, 2**50 + 1])
def test_pool_rule_at_the_kernel_limit_matches_brute(monkeypatch, x):
    # candidates up to x - 1 < 2**50 go to the kernel, on the base set of each
    # one's band; from x - 1 = 2**50 on, the whole grid runs is_prime
    calls = _spy_kernel(monkeypatch)
    L = math.prod((59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107))
    got = pipeline.find_k0(arith.factorize(L), x, 1, 0, PoolFilters(), 4)
    assert got == brute_find_k0(L, x, 1, 0, 4)
    params = ConstructionParams(M=1, a=0, mode="agp", y=5, theta=1.5, B=Fraction(2, 5),
                                filters=PoolFilters())
    pool = pipeline.build_pool(arith.factorize(L), x, got[0], params)
    # the pool reaches the third band, above 55245642489451
    assert pool == brute_pool(L, got[0], x, 1, 0) and pool[-1] > arith._MR_TABLE[1][0]
    if x - 1 < 2**50:
        assert set(calls) == {bases for _, bases in arith._MR_TABLE[:3]}
    else:
        assert not calls


def test_agp_matches_independent_references():
    # perfbench/refs.json holds k0, L and the capped pool of each agp benchmark
    # request, rebuilt with sympy from the definitions, at B = 2/5
    refs = json.loads(REFS.read_text(encoding="utf-8"))["agp"]
    assert len(refs) == 6
    for key, per_residue in refs.items():
        y, theta, M, x_cap, k_cap, cap, filters = key.split(":")
        for a, ref in per_residue.items():
            params = ConstructionParams(
                M=int(M), a=int(a), mode="agp", y=int(y), theta=float(theta), B=Fraction(2, 5),
                caps=Caps(x_cap=int(x_cap), k_cap=int(k_cap), pool_cap=int(cap)),
                filters=PoolFilters(filters == "1", filters == "1"))
            state = pipeline.run_agp_construction(params)
            assert (state.k0, state.L, list(state.pool)) == (
                ref["k0"], ref["L"], ref["pool"]), (key, a)


def test_pool_rule_keeps_sieving_primes():
    # p = d*k + 1 <= 53 may be a prime the grid sieves by: it stays in the pool,
    # while its multiples, such as 4 = 3*1 + 1 or 21 = 5*4 + 1, are struck
    for L, x, M in [(1, 60, 1), (15, 60, 1), (59 * 61, 200, 2), (105, 54, 1)]:
        Lf = arith.factorize(L)
        for k in range(1, 54):
            params = ConstructionParams(M=M, a=1, mode="agp", y=5, theta=1.5, B=Fraction(2, 5),
                                        filters=PoolFilters())
            assert pipeline.build_pool(Lf, x, k, params) == brute_pool(L, k, x, M, 1), (L, k)
        got = pipeline.find_k0(Lf, x, M, 1, PoolFilters(), 53)
        assert got == brute_find_k0(L, x, M, 1, 53)
    for q in arith._TRIAL_PRIMES:
        assert pipeline.build_pool(arith.factorize(1), q, q - 1, _params()) == [q]


def _params(pool_cap=None, **filters):
    return ConstructionParams(M=1, a=1, mode="agp", y=5, theta=1.5, B=Fraction(2, 5),
                              caps=Caps(pool_cap=pool_cap), filters=PoolFilters(**filters))


def test_build_pool_pinned():
    f15 = arith.factorize(15)
    # p = d*k0+1 over d | 15 at k0 = 2: d = 3, 5, 15
    assert pipeline.build_pool(f15, 40, 2, _params()) == [7, 11, 31]
    assert pipeline.build_pool(f15, 40, 2, _params(require_qr=True)) == [31]
    assert pipeline.build_pool(f15, 40, 2, _params(pool_cap=2)) == [7, 11]
    # p = d*k0+1 over d | 3 gives only p = 2 here; 4 is not prime
    assert pipeline.build_pool(arith.factorize(3), 10, 1, _params()) == [2]


def test_build_pool_invariants():
    params = _params()
    L, x, k0 = 15, 40, 2
    pool = pipeline.build_pool(arith.factorize(L), x, k0, params)
    assert pool == sorted(set(pool))
    for p in pool:
        assert arith.is_prime(p)
        assert (p - 1) % k0 == 0 and L % ((p - 1) // k0) == 0
        assert p <= x and (params.M * L) % p != 0


def test_build_pool_matches_brute():
    for L, x, k, M, a in [(15, 40, 2, 1, 1), (1463, 10**5, 6, 4, 3), (15015, 10**4, 4, 1, 0),
                          (7 * 11 * 19 * 23 * 31, 10**6, 10, 3, 2)]:
        for qr, res in [(False, False), (True, True)]:
            params = ConstructionParams(M=M, a=a, mode="agp", y=5, theta=1.5, B=Fraction(2, 5),
                                        filters=PoolFilters(qr, res))
            got = pipeline.build_pool(arith.factorize(L), x, k, params)
            assert got == brute_pool(L, k, x, M, a, qr, res), (L, x, k, qr)


def test_find_k0_divisor_cap():
    # the 18 odd primes to 67: 2**18 divisors, all below this x
    odd_18 = arith.factorize(math.prod(
        (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67)))
    # the walk's cap comes first, also where the k0 scan cap would fire too
    for k_cap in (1, 10**12):
        with pytest.raises(CapacityError, match=f"divisor cap {pipeline.DIVISOR_CAP}"):
            pipeline.find_k0(odd_18, 1 << 200, 1, 0, PoolFilters(), k_cap)
    # below a small x the same L has few divisors and walks fine
    assert pipeline.find_k0(odd_18, 10**6, 1, 0, PoolFilters(), 4)[1] > 0


def test_find_k0_candidate_cap_before_any_primality_test(monkeypatch):
    class Scanned(Exception):
        pass

    def scanned(*args):
        raise Scanned

    # both primality paths: is_prime one candidate at a time, and the batched kernel
    monkeypatch.setattr(pipeline, "is_prime", scanned)
    monkeypatch.setattr(pipeline, "strong_probable_primes", scanned)
    cap = f"k0 scan cap {pipeline.K0_SCAN_CAP}"
    # L = 1 has the one divisor 1, so the scan has min(k_cap, x-1) candidates
    one = arith.factorize(1)
    with pytest.raises(CapacityError, match=cap):
        pipeline.find_k0(one, pipeline.K0_SCAN_CAP + 2, 1, 0, PoolFilters(), 10**12)
    with pytest.raises(Scanned):
        pipeline.find_k0(one, pipeline.K0_SCAN_CAP + 1, 1, 0, PoolFilters(), 10**12)
    with pytest.raises(Scanned):
        pipeline.find_k0(one, 10**12, 1, 0, PoolFilters(), pipeline.K0_SCAN_CAP)
    # the sum over d | 1463 of min(k_cap, x-1, (x-1)//d)
    L = arith.factorize(1463)  # 7 * 11 * 19
    with pytest.raises(CapacityError, match="2099791 k0 candidates"):
        pipeline.find_k0(L, 1_600_000, 1, 0, PoolFilters(), 10**12)
    with pytest.raises(Scanned):  # 1499792 candidates
        pipeline.find_k0(L, 1_600_000, 1, 0, PoolFilters(), 10**6)


def test_erdos_pool_pinned():
    assert pipeline.erdos_pool(120, 1) == [7, 11, 13, 31, 41, 61]
    # divisor-scan oracle value; includes 19 since 18 | 630
    assert pipeline.erdos_pool(630, 1) == [11, 19, 31, 43, 71, 127, 211, 631]
    # a short pool is the caller's to judge
    assert pipeline.erdos_pool(2, 1) == [3]
    with pytest.raises(DomainError):
        pipeline.erdos_pool(1, 1)


def test_erdos_pool_postconditions():
    for lam, M in [(120, 1), (630, 4), (198, 4), (2520, 11)]:
        pool = pipeline.erdos_pool(lam, M)
        assert pool == sorted(pool)
        for p in pool:
            assert arith.is_prime(p)
            assert lam % (p - 1) == 0
            assert (lam * M) % p != 0
    assert pipeline.erdos_pool(120, 1, pool_cap=4) == [7, 11, 13, 31]


def test_erdos_pool_is_agp_pool_at_k1():
    rng = random.Random(9)
    lambdas = [720720, 2**10 * 3**4, 2520] + [rng.randrange(2, 10**5) for _ in range(5)]
    for lam in lambdas:
        f = arith.factorize(lam)
        for M in (1, 4, rng.randrange(2, 100)):
            oracle = [d + 1 for d in pytest.importorskip("sympy").divisors(lam)
                      if oracle_is_prime(d + 1) and (lam * M) % (d + 1) != 0]
            for cap in (None, 5):
                params = ConstructionParams(M=M, a=1, mode="agp", y=5, theta=1.5,
                                            B=Fraction(2, 5), caps=Caps(pool_cap=cap),
                                            filters=PoolFilters())
                agp = pipeline.build_pool(f, lam + 1, 1, params)
                assert pipeline.erdos_pool(lam, M, cap) == agp == oracle[:cap], (lam, M, cap)


def test_construction_params_validation():
    with pytest.raises(DomainError):
        ConstructionParams(M=4, a=2, mode="erdos", Lambda=120)
    with pytest.raises(DomainError):
        ConstructionParams(M=1, a=1, mode="agp", y=5, theta=1.5, B=Fraction(1, 2))
    with pytest.raises(DomainError):
        ConstructionParams(M=1, a=1, mode="erdos", Lambda=1)
    with pytest.raises(DomainError):
        ConstructionParams(M=1, a=1, mode="other")


def test_run_agp_construction_toy():
    params = ConstructionParams(
        M=1, a=1, mode="agp", y=5, theta=1.5, B=Fraction(2, 5),
        caps=Caps(x_cap=40, k_cap=10), filters=PoolFilters())
    st = pipeline.run_agp_construction(params)
    assert st.Q == (7, 11)
    assert st.L == 77
    assert st.x == 40  # capped
    assert st.x_faithful == pipeline.compute_x(1, 77, Fraction(2, 5))
    # over L = 77, x = 40: k = 2 yields {3, 23}, the best count
    assert st.k0 == 2 and st.k0_count == 2
    assert st.pool == (3, 23)


def test_run_agp_records_faithful_x_size():
    params = ConstructionParams(
        M=1, a=1, mode="agp", y=5, theta=1.5, B=Fraction(2, 5),
        caps=Caps(x_cap=40), filters=PoolFilters())
    st = pipeline.run_agp_construction(params)
    assert st.x_faithful is not None
    assert abs(st.x_faithful_log2 - math.log2(st.x_faithful)) < 1e-6


def test_lambda_and_L_size_bounds_light():
    # single-point check here; the full grid runs in the acceptance suite
    mp = pytest.importorskip("mpmath")
    y, theta = 50, 1.5
    Q = pipeline.build_Q(y, theta, 1)
    L, Lf = pipeline.build_L(Q)
    assert math.log(L) <= 1.02 * y**theta
    lam = arith.carmichael_lambda(Lf)
    mp.mp.dps = 60
    bound = int(mp.ceil(mp.exp(2 * theta * y)))
    assert lam <= bound
