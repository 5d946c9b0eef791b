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
from carmkit.solver import AssemblySpec

# above 2**31 the searches run mod a block s of the modulus and re-check each
# match exactly: s = 4096 for 2**12 * P (pools of up to 24, thousands of spurious
# matches; beyond that Python ints mod m), s = 3 * 59 * 61 * 67 * 71 for the agp
# shape 3 * (primes 59..163), s = 1 for the prime P (Python ints past 12 elements)
P = 10**21 + 117
AGP_SHAPE = 3 * math.prod(p for p in range(59, 164) if arith.is_prime(p))


# Davenport constants D(G) of the unit groups G mod m: the least N such that every
# N elements of G have a nonempty subset with product 1. D(C_n) = n; D(C_m + C_n)
# = m + n - 1 for m | n; D = 1 + sum(n_i - 1) for a 2-group C_n1 + ... + C_nr
# (Olson, J. Number Theory 1, 1969)
DAVENPORT = {3: 2, 5: 4, 7: 6, 9: 6, 13: 12, 8: 3, 15: 5, 16: 5, 24: 4, 32: 9, 36: 7}


def units_of(m):
    return [u for u in range(1, m) if math.gcd(u, m) == 1]


def test_compute_invariants_pinned():
    # (Z/24)^x: lambda = 2, |G| = 8 = 2^3
    inv = solver.compute_invariants(arith.factorize(24), omega_L=2, x=4182119424)
    assert inv.lambda_G == 2 and inv.omega_lambda == 1 and inv.omega_order == 3
    assert inv.s_G == 58  # ceil(20 * ln 18)
    assert abs(inv.n_bound - (2 + math.log(8))) < 1e-12
    assert not inv.degenerate


def test_compute_invariants_degenerate():
    inv = solver.compute_invariants(arith.factorize(2), omega_L=0, x=3)
    assert inv.lambda_G == 1 and inv.s_G == 0 and inv.n_bound == 1.0
    assert inv.degenerate


def test_compute_invariants_t_formula():
    inv = solver.compute_invariants(arith.factorize(24), omega_L=2, x=84**5, phi_M=2)
    expect = (6 / 5) ** 2 / (60 * 2 * math.log(84**5))
    assert abs(inv.t - expect) < 1e-15
    with pytest.raises(DomainError):
        solver.compute_invariants(arith.factorize(24), omega_L=2, x=2)


def test_exact_threshold_below_bound():
    # the identity-threshold bound is at least the Davenport constant D(G)
    for m, d in DAVENPORT.items():
        inv = solver.compute_invariants(arith.factorize(m), omega_L=1, x=3)
        assert d <= inv.n_bound + 1e-9, m


def test_derive_target():
    h, modulus = solver.derive_target(15, 4, 3)
    assert (h, modulus) == (31, 60)
    assert h % 15 == 1 and h % 4 == 3 and math.gcd(h, modulus) == 1
    assert solver.derive_target(77, 5, 1) == (1, 385)
    with pytest.raises(InfeasibleError):
        solver.derive_target(120, 4, 3)  # gcd(120, 4) = 4 does not divide 3 - 1
    with pytest.raises(DomainError):
        solver.derive_target(15, 4, 2)
    assert solver.derive_target(6, 4, 3) == (7, 12)  # compatible, gcd(6, 4) = 2 divides 2
    assert solver.derive_target(15, 1, 0) == (1, 15)
    assert solver.derive_target(1, 7, 3) == (3, 7)
    assert solver.derive_target(1, 1, 5) == (0, 1)
    for L, M, a in ((0, 4, 3), (15, 0, 1), (-3, 5, 2)):
        with pytest.raises(DomainError, match="^modulus must be >= 1"):
            solver.derive_target(L, M, a)
    # small L, M: the one h below lcm(L, M), or none, by brute search
    rng = random.Random(22)
    for _ in range(1500):
        L, M = rng.randrange(1, 60), rng.randrange(1, 60)
        a = rng.randrange(-5, 3 * M + 5)
        if math.gcd(a, M) != 1:
            with pytest.raises(DomainError):
                solver.derive_target(L, M, a)
            continue
        modulus = math.lcm(L, M)
        hits = [h for h in range(modulus) if h % L == 1 % L and h % M == a % M]
        if not hits:
            with pytest.raises(InfeasibleError):
                solver.derive_target(L, M, a)
            continue
        assert solver.derive_target(L, M, a) == (hits[0], modulus), (L, M, a)
        assert len(hits) == 1 and math.gcd(hits[0], modulus) == 1


def test_messages_name_big_numbers_by_size():
    # past Python's 4300-digit limit for int-to-str, a message gives the size
    with pytest.raises(InfeasibleError) as ei:
        solver.derive_target(120, 4, 3)
    assert str(ei.value) == "no element is 1 mod 120 and 3 mod 4: gcd(120, 4) does not divide 2"
    with pytest.raises(InfeasibleError) as ei:
        solver.derive_target(2**20000, 4, 3)
    assert str(ei.value) == ("no element is 1 mod <20001-bit number> and 3 mod 4: "
                             "gcd(<20001-bit number>, 4) does not divide 2")
    pool = [p for p in range(5, 200) if arith.is_prime(p)][: solver.MITM_LIMIT + 1]
    with pytest.raises(CapacityError, match=r"^modulus <20174-bit number> is too large"):
        solver.subset_product_find(pool, 3**12728, 1, 3)
    with pytest.raises(DomainError, match=r"^pool element 3 is not coprime to modulus <20174-bit"):
        solver.subset_product_find([3, 5, 7], 3**12728, 1, 1)


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
    # a prime modulus >= 2**31 has no block to search mod, so 18 elements hold
    # products as Python ints: all 2**18 at once take ~16 MiB
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


@pytest.mark.parametrize("m", [2**12 * P, AGP_SHAPE], ids=["2**12*(1e21+117)", "agp-shape"])
def test_subset_enumerate_block_matches_full_table(m):
    # matches mod the block s that fail mod m are dropped, and the rest keep
    # mask order: the exact table of all 2**n products is the oracle
    rng = random.Random(61)
    for n in (12, 17, 20):
        pool = []
        while len(pool) < n:
            e = rng.randrange(1, m)
            if math.gcd(e, m) == 1:
                pool.append(e)
        pool[5] = pool[2]  # two subsets of each size through pool[2] or pool[5] agree
        prods, sizes = _kernels.all_subset_products(pool, m)
        for target in (pool[2] * pool[7] * pool[9] % m, pool[0] * rng.choice(pool) % m):
            for min_size, max_size in ((1, None), (3, 3)):
                hit = (prods == target) & (sizes >= min_size) & (sizes <= (max_size or n))
                want = [tuple(i for i in range(len(pool)) if mask >> i & 1)
                        for mask in np.flatnonzero(hit).tolist()]
                got = solver.subset_product_enumerate(pool, m, target, min_size, max_size)
                assert got == want, (n, target, min_size)
        assert len(solver.subset_product_enumerate(pool, m, pool[2] * pool[7] % m, 2, 2)) == 2


def test_block_search_crowded_residues_go_mod_m(monkeypatch):
    # every element is 1 mod the block s = 4096, so every pair of halves matches
    # mod s: past the re-check budget both searches run mod m, with the same answers
    m = 2**12 * P
    rng = random.Random(67)
    pool = [1 + 4096 * rng.randrange(1, P) for _ in range(20)]
    moduli, products = [], _kernels.all_subset_products

    def spy(res, mod):
        moduli.append(mod)
        return products(res, mod)

    monkeypatch.setattr(_kernels, "all_subset_products", spy)
    for target in (pool[3] * pool[8] * pool[15] % m, 1 + 4096 * rng.randrange(1, P)):
        moduli.clear()
        got = solver.subset_product_find(pool, m, target, 2)
        assert moduli == [4096, 4096, m, m]
        assert got == find_mitm_dict(pool, m, target, 2)
        moduli.clear()
        got = solver.subset_product_enumerate(pool, m, target, 2)
        assert moduli == [4096, m]
        prods, sizes = products(pool, m)
        want = np.flatnonzero((prods == target) & (sizes >= 2)).tolist()
        assert got == [tuple(i for i in range(20) if mask >> i & 1) for mask in want]
    assert got == []  # the second target is out of reach


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
    target, _ = solver.derive_target(65520, 11, 3)
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
    with pytest.raises(DomainError, match="^max_size 1 < min_size 2$"):
        solver.subset_product_enumerate([7, 11], 4, 1, 2, 1)
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


def test_search_modulus_rule():
    search = solver._search_modulus
    assert search(2**31 - 1, 40) == 2**31 - 1  # below 2**31 the modulus itself
    # prime powers in ascending order while the block stays below 2**31
    assert [search(2**12 * P, n) for n in (1, 24, 25)] == [4096, 4096, 2**12 * P]
    assert search(AGP_SHAPE, 37) == 3 * 59 * 61 * 67 * 71 and search(AGP_SHAPE, 38) == AGP_SHAPE
    assert search(2**30 * 3 * P, 1) == 2**30  # 3 * 2**30 would pass 2**31
    assert search(2**29 * 3 * P, 1) == 2**29 * 3
    assert search(5**14 * 2 * P, 1) == 2  # 5**14 alone passes 2**31
    assert [search(P, n) for n in (12, 13)] == [1, P]  # no factor below TRIAL_BOUND


@pytest.mark.parametrize("moduli", [
    (1,),
    (12, 91, 120, 225, 391, 2520),  # small composites
    (2**31 - 1, 2**31 - 9, 2**31 - 10**4),  # the largest int64 moduli
    (P,),
    (2**12 * P,),
    (AGP_SHAPE,),
], ids=["one", "small", "below-2**31", "1e21+117", "2**12*(1e21+117)", "agp-shape"])
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


EDGE_Q = 16381  # a prime: 2**17 * EDGE_Q lies just below 2**31


def tagged_pool(rng, m, nl, nb):
    """nl left units mod m that are 5**(2**i) mod 2**(nl + 2), then nb right
    ones that are 1 mod it, each random mod the odd rest of m. 5 has order
    2**nl mod 2**(nl + 2), so a subset's product there is 5**(its left mask):
    a target fixes the left mask of every hit."""
    e = nl + 2
    pool = []
    for i in range(nl + nb):
        tag, x = pow(5, 1 << i, 1 << e) if i < nl else 1, 0
        while math.gcd(x, m) != 1:
            x = tag + (rng.randrange(m >> e) << e)
        pool.append(x)
    return pool


@pytest.mark.parametrize("m", [2**17 * EDGE_Q, 2**17 * EDGE_Q * P], ids=["below-2**31", "above"])
def test_subset_find_mitm_first_hit_at_block_edges(m):
    # 15 left elements, so masks 2**14 - 1 and 2**14 lie on either side of a
    # multiple of _MASK_BLOCK; the first hit's left mask is put on each edge of
    # each block the scan takes, and the dict search is the oracle
    nl, nb = 15, 14
    blocks = list(solver._left_blocks(1 << nl))
    assert [b - a for a, b in blocks] == [256, 256, 512, 1024, 2048, 4096, 8192, 16384]
    assert all(a // solver._MASK_BLOCK == (b - 1) // solver._MASK_BLOCK for a, b in blocks)
    rng = random.Random(73)
    pool = tagged_pool(rng, m, nl, nb)
    for lmask in sorted({edge for a, b in blocks for edge in (a, b - 1)}):
        chosen = [i for i in range(nl) if lmask >> i & 1] + rng.sample(range(nl, nl + nb), 3)
        target = math.prod(pool[i] for i in chosen) % m
        size = len(chosen)  # the exact size: a left mask's size counts its high bits
        got = solver.subset_product_find(pool, m, target, size, size)
        assert got == find_mitm_dict(pool, m, target, size, size), lmask
        assert sum(1 << i for i in got if i < nl) == lmask


def test_subset_find_mitm_miss_scans_every_block(monkeypatch):
    # every element is 1 mod 4 and the target 3 mod 4: no left mask has a
    # partner, and the scan takes every block, in order, before it answers None
    m, nl = 2**17 * EDGE_Q, 15
    pool = tagged_pool(random.Random(79), m, nl, 14)
    seen, blocks = [], solver._left_blocks
    monkeypatch.setattr(solver, "_left_blocks", lambda total: (
        seen.append(block) or block for block in blocks(total)))
    target = 3 + 4 * 1234567
    assert solver.subset_product_find(pool, m, target, 3) is None
    assert find_mitm_dict(pool, m, target, 3) is None
    assert seen == list(blocks(1 << nl))


def test_subset_find_dp_size_classes_across_byte_edges():
    # the DP keeps class c at bit c % 8 of byte c // 8: bounds of 8, 9 and 16
    # (and 7, 8 and 16 as the capped top class) put the top class on either
    # side of a byte edge; the exhaustive scan decides whether a subset exists
    rng = random.Random(83)
    for m, n in ((1001, 16), (9973, 18), (9973, 24), (2**5 * 3**2 * 7, 20)):
        units = units_of(m)
        pool = [rng.choice(units) ** 2 % m for _ in range(n)]  # squares: a random unit mostly misses
        bounds = [(rng.randint(1, c), c) for c in (8, 9, 16)] + [(c, None) for c in (7, 8, 16)]
        for min_size, max_size in bounds:
            size = rng.randint(min_size, min(max_size or n, n))
            for target in (math.prod(rng.sample(pool, size)) % m, rng.choice(units)):
                got = solver._find_dp(pool, m, target, min_size, max_size)
                hits = solver.subset_product_enumerate(pool, m, target, min_size, max_size)
                assert (got is None) == (not hits), (m, n, min_size, max_size)
                if got is not None:
                    assert math.prod(pool[i] for i in got) % m == target
                    assert min_size <= len(got) <= (max_size or n)


@pytest.mark.parametrize(("lam", "M", "cap", "a", "bound"), [
    (65520, 11, None, 3, 8 << 20),  # 42 layers of phi(720720) = 138240 one-byte cells
    (720720, 19, 40, 5, 24 << 20),  # 2**20 right keys built in place, left products per block
], ids=["dp-41", "mitm-40"])
def test_construct_search_memory(lam, M, cap, a, bound):
    pool = pipeline.erdos_pool(lam, M, cap)
    target, m = solver.derive_target(lam, M, a)
    tracemalloc.start()
    try:
        got = solver.subset_product_find(pool, m, target, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(pool) == (cap or 41) and math.prod(pool[i] for i in got) % m == target
    assert peak < bound, peak


def test_zero_sum_threshold_spotcheck():
    # pools of length s(G) always contain a subset with product 1 (searched
    # exactly); moduli picked with small exponent so s(G) stays desk-sized
    rng = random.Random(53)
    for m in (8, 12, 15, 16, 24, 35):
        inv = solver.compute_invariants(arith.factorize(m), omega_L=1, x=3)
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
        Q = sieve.build_Q(y, theta, 1)
        _, L_fact = pipeline.build_L(Q)
        inv = solver.compute_invariants(L_fact, omega_L=len(Q), x=3)
        assert math.log(inv.s_G) <= 7 * theta * y, (y, theta)
        n_int = inv.lambda_G + int(math.log(arith.euler_phi(L_fact))) + 1  # >= n_bound
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
    n_g = DAVENPORT[m]
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
