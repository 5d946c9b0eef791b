import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from carmkit import _kernels, arith, pipeline, solver
from carmkit.errors import (
    AssemblyError,
    CapacityError,
    DomainError,
    InfeasibleError,
    OrderingError,
)
from carmkit.solver import AssemblySpec, GroupSpec


def units_of(m):
    return [u for u in range(1, m) if math.gcd(u, m) == 1]


def spec_for(m, phi_M=1):
    return GroupSpec.from_modulus_fact(arith.factorize(m), phi_M)


def test_group_spec_fields():
    s = spec_for(24)
    assert s.order == 8 and s.exponent == 2 and s.modulus == 24
    with pytest.raises(DomainError):
        GroupSpec(modulus=8, modulus_fact=arith.factorize(8), order=4, exponent=3)


def test_compute_invariants_pinned():
    # (Z/24)^x: lambda = 2, |G| = 8 = 2^3
    inv = solver.compute_invariants(spec_for(24), omega_L=2, x=4182119424)
    assert inv.lambda_G == 2 and inv.omega_lambda == 1 and inv.omega_order == 3
    assert inv.s_G == 58  # ceil(20 * ln 18)
    assert abs(inv.n_bound - (2 + math.log(8))) < 1e-12
    assert not inv.degenerate


def test_compute_invariants_degenerate():
    inv = solver.compute_invariants(spec_for(2), omega_L=0, x=3)
    assert inv.lambda_G == 1 and inv.s_G == 0 and inv.n_bound == 1.0
    assert inv.degenerate


def test_compute_invariants_t_formula():
    inv = solver.compute_invariants(spec_for(24, phi_M=2), omega_L=2, x=84**5)
    expect = (6 / 5) ** 2 / (60 * 2 * math.log(84**5))
    assert abs(inv.t - expect) < 1e-15
    with pytest.raises(DomainError):
        solver.compute_invariants(spec_for(24), omega_L=2, x=2)


def test_exact_identity_threshold_known_groups():
    # cyclic C_{phi(p)} for primes; rank-2 and rank-3 two-groups
    known = {3: 2, 5: 4, 7: 6, 9: 6, 13: 12, 8: 3, 15: 5, 16: 5, 24: 4, 32: 9, 36: 7}
    for m, d in known.items():
        assert solver.exact_identity_threshold(m) == d, m
    assert solver.exact_identity_threshold(1) == 1
    assert solver.exact_identity_threshold(2) == 1
    with pytest.raises(CapacityError):
        solver.exact_identity_threshold(101)
    # the group order is known before any unit is listed
    with pytest.raises(CapacityError):
        solver.exact_identity_threshold(10**15)


def test_exact_threshold_below_bound():
    for m in (3, 5, 7, 8, 9, 13, 15, 16, 24):
        s = spec_for(m)
        inv = solver.compute_invariants(s, omega_L=1, x=3)
        assert solver.exact_identity_threshold(m) <= inv.n_bound + 1e-9, m


def test_derive_target():
    t = solver.derive_target(15, 4, 3)
    assert (t.h, t.modulus) == (31, 60)
    assert t.h % 15 == 1 and t.h % 4 == 3 and math.gcd(t.h, t.modulus) == 1
    t = solver.derive_target(77, 5, 1)
    assert t.h == 1
    with pytest.raises(InfeasibleError):
        solver.derive_target(120, 4, 3)  # gcd(120, 4) = 4 does not divide 3 - 1
    with pytest.raises(DomainError):
        solver.derive_target(15, 4, 2)


def test_derive_target_exponent_pinned():
    # ord_7(2) = 3, phi(3) = 2 -> r = 3
    assert solver.derive_target_exponent(2, arith.factorize(7), 3) == 3
    # ord_11(3) = 5, phi(5) = 4 -> r = 5
    assert solver.derive_target_exponent(3, arith.factorize(11), 5) == 5
    # trivial order
    assert solver.derive_target_exponent(1, arith.factorize(7), 1) == 1
    # ord_7(6) = 2 shares a factor with phi(3) = 2
    with pytest.raises(InfeasibleError):
        solver.derive_target_exponent(6, arith.factorize(7), 3)
    with pytest.raises(DomainError):
        solver.derive_target_exponent(7, arith.factorize(7), 3)


def test_derive_target_exponent_properties():
    rng = random.Random(31)
    for _ in range(100):
        L = rng.choice([7, 11, 15, 23, 35, 77])
        p = rng.randrange(2, 200)
        if math.gcd(p, L) != 1:
            continue
        M = rng.choice([1, 2, 3, 4, 5, 7, 9])
        Lf = arith.factorize(L)
        try:
            r = solver.derive_target_exponent(p, Lf, M)
        except InfeasibleError:
            continue
        phi_M = arith.euler_phi(arith.factorize(M))
        assert pow(p, r, L) == 1 % L
        assert r % phi_M == 1 % phi_M
        order = arith.multiplicative_order(p, L, arith.factorize(arith.carmichael_lambda(Lf)))
        assert r % order == 0
        assert r >= 1
        # least such r
        for smaller in range(1, min(r, 200)):
            assert not (smaller % order == 0 and smaller % phi_M == 1 % phi_M)


def brute_subsets(pool, modulus, target, min_size, max_size=None):
    n = len(pool)
    cap = max_size if max_size is not None else n
    hits = []
    for mask in range(1 << n):
        size = bin(mask).count("1")
        if not min_size <= size <= cap:
            continue
        prod = 1
        for i in range(n):
            if mask >> i & 1:
                prod = prod * pool[i] % modulus
        if prod == target % modulus:
            hits.append(tuple(i for i in range(n) if mask >> i & 1))
    return hits


def test_subset_find_pinned():
    assert solver.subset_product_find([7, 11, 13], 120, 41, 3) == (0, 1, 2)
    got = solver.subset_product_find([7, 11, 13, 31, 41, 61], 120, 1, 3)
    prod = 1
    for i in got:
        prod = prod * [7, 11, 13, 31, 41, 61][i] % 120
    assert prod == 1 and len(got) >= 3
    # singleton when an element hits the target and min_size is 1
    assert solver.subset_product_find([7, 11, 13], 120, 11, 1) == (1,)


def test_subset_enumerate_pinned():
    assert solver.subset_product_enumerate([7, 11, 13], 120, 41, 3) == [(0, 1, 2)]
    hits = solver.subset_product_enumerate([7, 11, 13, 31, 41, 61], 120, 1, 3)
    assert (0, 1, 2, 4) in hits  # 7 * 11 * 13 * 41 = 41041 = 1 mod 120
    assert sorted(hits) == sorted(brute_subsets([7, 11, 13, 31, 41, 61], 120, 1, 3))
    assert solver.subset_product_enumerate([], 120, 41, 1) == []


def test_subset_enumerate_against_brute_randomized():
    rng = random.Random(37)
    for _ in range(30):
        m = rng.randrange(2, 3000)
        units = units_of(m) or [1]
        n = rng.randrange(0, 11)
        pool = [rng.choice(units) for _ in range(n)]
        target = rng.choice(units)
        min_s = rng.randrange(1, 4)
        max_s = rng.choice([None, rng.randrange(min_s, min_s + 3)])
        assert sorted(solver.subset_product_enumerate(pool, m, target, min_s, max_s)) == sorted(
            brute_subsets(pool, m, target, min_s, max_s)
        )


def test_subset_enumerate_blocks_keep_mask_order():
    # 20 elements span several blocks of high masks; the whole 2**20 table is the oracle
    rng = random.Random(53)
    m = 9973 * 7
    units = units_of(m)
    pool = [rng.choice(units) for _ in range(20)]
    target = pool[2] * pool[11] * pool[17] % m
    prods, sizes = _kernels.all_subset_products(pool, m)
    masks = np.flatnonzero((prods == target) & (sizes >= 2) & (sizes <= 6)).tolist()
    want = [tuple(i for i in range(20) if mask >> i & 1) for mask in masks]
    assert len(want) > 1
    assert solver.subset_product_enumerate(pool, m, target, 2, 6) == want


def test_subset_enumerate_memory_above_int64_moduli():
    # moduli >= 2**31 hold products as Python ints: all 2**18 at once take ~16 MiB
    # (18, not 20 elements: tracemalloc slows each Python-int product ~40x)
    pool = [p for p in range(3, 80, 2) if arith.is_prime(p)][:18]
    m = (1 << 32) + 15
    target = pool[1] * pool[4] * pool[9] * pool[15] * pool[17] % m
    tracemalloc.start()
    try:
        hits = solver.subset_product_enumerate(pool, m, target, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits == [(1, 4, 9, 15, 17)]
    assert peak < 8 << 20, peak


def test_subset_find_agrees_with_enumerate():
    rng = random.Random(41)
    for _ in range(60):
        m = rng.randrange(2, 5000)
        units = units_of(m) or [1]
        n = rng.randrange(1, 14)
        pool = [rng.choice(units) for _ in range(n)]
        target = rng.choice(units)
        min_s = rng.randrange(1, 4)
        found = solver.subset_product_find(pool, m, target, min_s)
        hits = solver.subset_product_enumerate(pool, m, target, min_s)
        assert (found is None) == (not hits)
        if found is not None:
            prod = 1
            for i in found:
                prod = prod * pool[i] % m
            assert prod == target % m and len(found) >= min_s


def test_subset_find_dp_path():
    # pools beyond the meet-in-the-middle limit go through the residue DP
    rng = random.Random(43)
    m = 2520
    units = units_of(m)
    pool = [rng.choice(units) for _ in range(50)]
    chosen = (2, 9, 23, 31, 44)
    target = 1
    for i in chosen:
        target = target * pool[i] % m
    got = solver.subset_product_find(pool, m, target, 3)
    assert got is not None
    prod = 1
    for i in got:
        prod = prod * pool[i] % m
    assert prod == target and len(got) >= 3
    # bounded size as well
    got = solver.subset_product_find(pool, m, target, 3, 5)
    assert got is not None and 3 <= len(got) <= 5


def test_subset_find_max_size_clamped():
    # no subset is larger than the pool, so max_size >= len(pool) searches as no bound does
    primes = [p for p in range(2, 180) if arith.is_prime(p)]
    for n in (41, 40):  # the DP path and the meet-in-the-middle path
        pool = primes[:n]
        got = solver.subset_product_find(pool, 1009, 5, 3, n)
        assert got is not None and solver.subset_product_find(pool, 1009, 5, 3, 10**6) == got
    # the dp-41 pool: exact size classes 0..41 would exceed DP_CELL_BOUND
    pool = pipeline.erdos_pool(65520, 11)
    target = solver.derive_target(65520, 11, 3).h
    want = solver.subset_product_find(pool, 720720, target, 3)
    assert len(pool) == 41 and want == (5, 7, 10, 13, 15, 16, 17)
    for cap in (41, 1000):
        assert solver.subset_product_find(pool, 720720, target, 3, cap) == want


def test_subset_find_dp_none_agrees_with_mitm():
    rng = random.Random(47)
    m = 16
    # all elements are 1 mod 16, so every product is 1; target 3 is unreachable
    pool = [1 + 16 * rng.randrange(1, 9) for _ in range(48)]
    assert solver.subset_product_find(pool, m, 3, 1) is None
    assert solver.subset_product_find(pool[:20], m, 3, 1) is None  # MITM path agrees


def test_subset_find_dp_non_unit_target(monkeypatch):
    # a product of units is a unit, so a non-unit target is unreachable
    rng = random.Random(53)
    pool = [rng.choice(units_of(15)) for _ in range(45)]
    assert solver.subset_product_find(pool, 15, 3, 1) is None
    assert solver.subset_product_find(pool, 15, 10, 1, 7) is None
    # decided before any table is sized: this modulus is far too large for one
    big = 2 * ((1 << 61) - 1)
    odd = list(range(3, 3 + 2 * 45, 2))
    assert solver.subset_product_find(odd, big, 6, 3) is None
    with pytest.raises(CapacityError):
        solver.subset_product_find(odd, big, 5, 3)
    # mod 1 the one residue, 0, is a unit
    got = solver.subset_product_find(pool, 1, 0, 3)
    assert got is not None and len(got) >= 3
    # decided before meet-in-the-middle forms any subset product too
    monkeypatch.setattr(_kernels, "all_subset_products", lambda *args: pytest.fail("searched"))
    pool = pipeline.erdos_pool(720720, 19, 40)
    assert len(pool) == 40
    for target in (2, 19, 38):
        assert solver.subset_product_find(pool, 720720 * 19, target, 3) is None


def test_subset_find_trivial_modulus():
    # everything is congruent mod 1; any subset of the right size qualifies
    got = solver.subset_product_find([5, 9, 14], 1, 0, 2)
    assert got is not None and len(got) >= 2
    assert solver.subset_product_enumerate([5, 9], 1, 0, 1) == [(0,), (1,), (0, 1)]


def test_subset_find_validation():
    with pytest.raises(DomainError):
        solver.subset_product_find([6], 4, 1, 1)  # 6 not coprime to 4
    with pytest.raises(DomainError):
        solver.subset_product_find([7], 4, 1, 0)
    with pytest.raises(DomainError):
        solver.subset_product_find([7, 11], 4, 1, 2, 1)
    with pytest.raises(CapacityError):
        solver.subset_product_enumerate([3] * 25, 7, 1, 1)
    # beyond the MITM limit with a modulus too large for the DP table
    mersenne = (1 << 61) - 1
    with pytest.raises(CapacityError):
        solver.subset_product_find(list(range(3, 3 + 2 * 60, 2)), mersenne, 1, 3)


# ---------------------------------------------------------------------------
# reference oracle for the meet-in-the-middle search: a dict holding the first
# right mask per (product, size), and the left masks walked one at a time


def mask_products_loops(elems, modulus):
    """(product mod modulus, size) for every subset mask of ``elems``, in mask order."""
    out = [(1 % modulus, 0)]
    for e in elems:
        out += [(p * e % modulus, s + 1) for p, s in out]
    return out


def find_mitm_dict(pool, modulus, target, min_size, max_size=None):
    n = len(pool)
    nb = n // 2
    left, right = pool[: n - nb], pool[n - nb :]
    table = {}
    for mask, (pr, sz) in enumerate(mask_products_loops(right, modulus)):
        table.setdefault(pr, {}).setdefault(sz, mask)
    cap = max_size if max_size is not None else n
    target %= modulus
    inverses = [pow(e, -1, modulus) for e in left]
    for lmask, (inv, sl) in enumerate(mask_products_loops(inverses, modulus)):
        if sl > cap:
            continue
        sizes = table.get(target * inv % modulus, {})
        for sr in sorted(sizes):
            if min_size <= sl + sr <= cap:
                rmask = sizes[sr]
                idx = [i for i in range(len(left)) if lmask >> i & 1]
                idx += [len(left) + i for i in range(len(right)) if rmask >> i & 1]
                return tuple(idx)
    return None


def mitm_case(rng, m, n, kind):
    """A seeded pool of n units mod m, size bounds, and a target of one kind:
    the product of a subset that fits the bounds, a random unit, or a non-unit
    (unreachable unless m = 1)."""
    pool = []
    while len(pool) < n:
        x = rng.randrange(1, max(m, 2))
        if math.gcd(x, m) == 1:
            pool.append(x)
    min_size = rng.randint(1, 4)
    max_size = rng.choice([None, rng.randint(min_size, max(n, min_size))])
    if kind == "subset":
        size = rng.randint(min(min_size, n), min(max_size or n, n))
        target = math.prod(rng.sample(pool, size))
    elif kind == "unit":
        target = rng.choice(units_of(m) or [0]) if m <= 400 else rng.randrange(1, m)
    else:
        target = rng.randrange(m) * next(p for p in (2, 3, 5, 7, m) if m % p == 0)
    return pool, m, target % m, min_size, max_size


@pytest.mark.parametrize("moduli", [
    (1,),
    (12, 91, 120, 225, 391, 2520),  # small composites
    (2**31 - 1, 2**31 - 9, 2**31 - 10**4),  # the largest int64 moduli
    (10**21 + 117,),  # object dtype
], ids=["one", "small", "below-2**31", "1e21+117"])
def test_subset_find_mitm_matches_dict_oracle(moduli):
    # not just a valid witness: the very index tuple the dict search returns
    rng = random.Random(moduli[0])
    kinds = ("subset", "unit", "unreachable")
    for n in range(33):
        for kind in kinds if n >= 30 else kinds[n % 3 : n % 3 + 1]:
            case = mitm_case(rng, rng.choice(moduli), n, kind)
            assert solver.subset_product_find(*case) == find_mitm_dict(*case), case


@pytest.mark.parametrize("m", [3 * 715827881, 3 * (10**21 + 117)])
@pytest.mark.parametrize("n", [30, 32])
def test_subset_find_mitm_first_hit_past_first_chunk(m, n):
    # every element is 1 mod 3 except the last left one, which is 2 mod 3; the
    # target is 2 mod 3, so every hit takes that element and the first hit's
    # left mask is at least 2**(n - n//2 - 1) >= the lookup chunk
    rng = random.Random(n)
    top = n - n // 2 - 1
    pool = []
    while len(pool) < n:
        x = 3 * rng.randrange(1, m // 3) + (2 if len(pool) == top else 1)
        if math.gcd(x, m) == 1:
            pool.append(x)
    others = rng.sample([i for i in range(n) if i != top], 6)
    target = math.prod(pool[i] for i in (top, *others)) % m
    got = solver.subset_product_find(pool, m, target, 3)
    assert got == find_mitm_dict(pool, m, target, 3)
    lmask = sum(1 << i for i in got if i <= top)
    assert lmask >= solver._MASK_BLOCK


def test_zero_sum_threshold_spotcheck():
    # pools of length s(G) always contain a subset with product 1 (searched
    # exactly); moduli picked with small exponent so s(G) stays desk-sized
    rng = random.Random(53)
    for m in (8, 12, 15, 16, 24, 35):
        inv = solver.compute_invariants(spec_for(m), omega_L=1, x=3)
        units = [u for u in units_of(m) if u != 1]
        pool = [rng.choice(units) for _ in range(inv.s_G)]
        got = solver.subset_product_find(pool, m, 1, 1)
        assert got is not None, m
        prod = 1
        for i in got:
            prod = prod * pool[i] % m
        assert prod == 1


def test_size_bounds_on_smooth_groups():
    # s(G) and the identity-threshold bound stay under e^(7 theta y) and
    # e^(3 theta y) for unit groups built from the shifted-smooth primes
    from carmkit import pipeline, sieve

    for y, theta in [(50, 1.2), (50, 1.5), (100, 1.5), (200, 1.8)]:
        Q = sieve.build_Q(sieve.SmoothPrimeQuery(y, theta, 1))
        _, L_fact = pipeline.build_L(Q)
        spec = GroupSpec.from_modulus_fact(L_fact)
        inv = solver.compute_invariants(spec, omega_L=len(Q), x=3)
        assert math.log(inv.s_G) <= 7 * theta * y, (y, theta)
        n_int = spec.exponent + int(math.log(spec.order)) + 1  # >= n_bound
        assert math.log(n_int) <= 3 * theta * y, (y, theta)


def test_count_lower_bound_exact():
    b = solver.count_lower_bound(10, 2, 5)
    assert b.exact == Fraction(56, 45)
    assert abs(float(b.exact) - 1.2444444444444445) < 1e-12


def test_count_lower_bound_orderings():
    with pytest.raises(OrderingError, match="lower"):
        solver.count_lower_bound(10, 5, 5)
    with pytest.raises(OrderingError, match="upper"):
        solver.count_lower_bound(10, 2, 10)


def test_count_lower_bound_exact_dominates_relaxed():
    b = solver.count_lower_bound(100, 3, 30)
    assert b.exact is not None and b.bound is not None
    assert float(b.exact) >= b.bound
    assert abs(math.exp(b.log_bound) - b.bound) < 1e-9 * max(1.0, b.bound)


def test_exact_count_dominates_binomial_bound():
    # exact subset counts dominate the binomial-quotient bound
    rng = random.Random(59)
    m = 24
    units = [u for u in units_of(m) if u != 1]
    pool = [rng.choice(units) for _ in range(12)]
    n_g = solver.exact_identity_threshold(m)
    t = 8
    assert n_g < t < len(pool)
    bound = solver.count_lower_bound(len(pool), n_g, t)
    hits = solver.subset_product_enumerate(pool, m, 1, 1, t)
    long_enough = [h for h in hits if len(h) >= t - n_g]
    assert len(long_enough) >= float(bound.exact)


def test_assemble_pinned():
    cert = solver.assemble([7, 11, 13, 41], AssemblySpec("erdos", 120, 0, 1, 1))
    assert cert.n == 41041
    assert cert.prime_factors == (7, 11, 13, 41)
    assert all(cert.checks.values()) or not cert.checks["probabilistic_primality_used"]
    assert cert.checks == {
        "composite": True,
        "squarefree": True,
        "korselt": True,
        "residue_class": True,
        "multiplier_congruence": True,
        "probabilistic_primality_used": False,
    }


def test_assemble_failures():
    with pytest.raises(AssemblyError) as ei:
        solver.assemble([3, 5, 7], AssemblySpec("erdos", 120, 0, 1, 1))
    assert ei.value.check == "korselt"  # 6 does not divide 104
    with pytest.raises(DomainError):
        solver.assemble([7, 11], AssemblySpec("erdos", 120, 0, 1, 1))
    with pytest.raises(DomainError):
        solver.assemble([7, 7, 11], AssemblySpec("erdos", 120, 0, 1, 1))
    with pytest.raises(DomainError):
        solver.assemble([7, 11, 15], AssemblySpec("erdos", 120, 0, 1, 1))
    with pytest.raises(AssemblyError) as ei:
        solver.assemble([7, 11, 13, 41], AssemblySpec("erdos", 120, 0, 5, 2))
    assert ei.value.check == "residue_class"  # 41041 = 1 mod 5
    with pytest.raises(AssemblyError) as ei:
        solver.assemble([7, 11, 13, 41], AssemblySpec("erdos", 100, 0, 1, 1))
    assert ei.value.check == "multiplier_congruence"  # 41040 = 40 mod 100


def test_assemble_agp_mode_congruence():
    # agp-mode checks n = 1 mod k0*L; 41040 = 0 mod 120 with k0 = 8, L = 15
    cert = solver.assemble([7, 11, 13, 41], AssemblySpec("agp", 8, 15, 1, 1))
    assert cert.mode == "agp" and (cert.n - 1) % (8 * 15) == 0
    # and rejects a shared modulus the product misses
    with pytest.raises(AssemblyError) as ei:
        solver.assemble([7, 11, 13, 41], AssemblySpec("agp", 7, 15, 1, 1))
    assert ei.value.check == "multiplier_congruence"


def test_probabilistic_flag_for_large_primes():
    # 6k+1, 12k+1, 18k+1 all prime gives a Korselt triple; this k pushes the
    # primes past the deterministic-primality threshold (found by scan)
    k = 3074457345618272266
    primes = [6 * k + 1, 12 * k + 1, 18 * k + 1]
    assert all(p >= arith.PROBABLE_PRIME_THRESHOLD for p in primes)
    cert = solver.assemble(primes, AssemblySpec("external", 0, 0, 1, 0))
    assert cert.checks["korselt"] and cert.checks["probabilistic_primality_used"]


def test_certificates_reverify_via_independent_factorization():
    cert = solver.assemble([7, 11, 13, 41], AssemblySpec("erdos", 120, 0, 1, 1))
    f = arith.factorize(cert.n)
    assert f.primes() == cert.prime_factors
    from carmkit.korselt import korselt_check

    assert korselt_check(cert.n, f)
