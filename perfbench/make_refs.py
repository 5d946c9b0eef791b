"""Build refs.json, the reference answers the benchmark checks carmkit against.

Nothing here imports carmkit: primes, divisors and Jacobi symbols come from
sympy, the sieves and the subset search are written out below. The workload
families come from workloads.py, so refs.json must be rebuilt whenever a
family there changes. Takes a few minutes and about 1 GB of memory:

    python3 perfbench/make_refs.py
"""

from __future__ import annotations

import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from sympy import divisors, isprime, jacobi_symbol, primefactors, primerange, totient

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads as W  # noqa: E402


def carmichael_below(limit: int) -> list[int]:
    """Carmichael numbers below limit: smallest-prime-factor sieve plus Korselt."""
    spf = np.zeros(limit, dtype=np.int32)
    for p in range(2, math.isqrt(limit - 1) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    n = np.arange(limit, dtype=np.int64)
    # odd composites whose least prime p already has p-1 | n-1
    cand = np.flatnonzero((n % 2 == 1) & (spf > 0) & ((n - 1) % np.maximum(spf - 1, 1) == 0))
    out = []
    for v in (int(c) for c in cand):
        primes, m = [], v
        while m > 1:
            p = int(spf[m]) or m
            primes.append(p)
            m //= p
        if len(set(primes)) == len(primes) >= 3 and all((v - 1) % (p - 1) == 0 for p in primes):
            out.append(v)
    return out


def smooth_counts(z: int) -> dict[str, int]:
    """count_smooth_primes references: primes q < z with P(q-1) <= v, q = b mod d."""
    lpf = np.zeros(z, dtype=np.int64)  # largest prime factor; lpf[1] = 0 stands for P(1) = 1
    for p in primerange(2, z):
        lpf[p::p] = p
    q = np.flatnonzero(lpf == np.arange(z))
    q = q[q >= 2]
    shifted = lpf[q - 1]
    out = {}
    for v in W.SMOOTH_V:
        for d, b in W.SMOOTH_CLASSES:
            out[f"{z}:{v}:{d}:{b}"] = int(np.count_nonzero((shifted <= v) & (q % d == b % d)))
    return out


def subset_exists(pool, m: int, targets, lo: int = 3, hi: int | None = None) -> dict[int, bool]:
    """For each target t: is some subset of pool, lo <= size <= hi, with product t mod m?

    Meet in the middle over dicts mapping a residue to the bitmask of subset
    sizes that reach it.
    """
    hi = len(pool) if hi is None else hi
    window = ((1 << (hi + 1)) - 1) ^ ((1 << lo) - 1)

    def table(elems):
        t = {1 % m: 1}
        for e in elems:
            e %= m
            nxt = dict(t)
            for r, sizes in t.items():
                r2 = r * e % m
                nxt[r2] = nxt.get(r2, 0) | (sizes << 1)
            t = nxt
        return t

    half = len(pool) // 2
    left, right = table(pool[:half]), table(pool[half:])
    left_inv = [(pow(r, -1, m), sizes) for r, sizes in left.items()]
    out = {}
    for t in targets:
        found = False
        for inv, sl in left_inv:
            sr = right.get(t * inv % m)
            if sr is None:
                continue
            i = 0
            while sl >> i:
                if sl >> i & 1 and (sr << i) & window:
                    found = True
                    break
                i += 1
            if found:
                break
        out[t] = found
    return out


def erdos_refs() -> dict:
    out = {}
    for _, _, Lam, Ms, cap, max_factors in W.CONSTRUCT_STRATA:
        for M in Ms if isinstance(Ms, tuple) else (Ms,):
            pool = sorted(d + 1 for d in divisors(Lam) if isprime(d + 1) and (Lam * M) % (d + 1))
            pool = pool[:cap] if cap is not None else pool
            units = W._units(M)
            targets = {a: W.crt_target(Lam, M, a) for a in units}
            m = targets[units[0]][1]
            hits = subset_exists(pool, m, [h for h, _ in targets.values()], 3, max_factors)
            exists = {str(a): hits[targets[a][0]] for a in units}
            out[W.erdos_key(Lam, M, cap, max_factors)] = {"pool": pool, "exists": exists}
            print(f"erdos Lambda={Lam} M={M} pool={len(pool)} found={sum(exists.values())}/{len(units)}")
    return out


def agp_pool(y, theta, M, a, x_cap, k_cap, cap, filters):
    """Q, L, k0 and the pool of the agp pipeline, rebuilt from its definition."""
    lo, hi = math.ceil(y**theta / math.log(y)), math.floor(y**theta)
    c = 4 * int(totient(M))
    Q = [q for q in primerange(max(lo, 2), hi + 1)
         if q % c == c - 1 and max(primefactors(q - 1), default=1) <= y and M % q]
    L = math.prod(Q)
    # x = min(faithful x, x_cap); the faithful (M*L)**(2/B) dwarfs every cap used
    assert math.log2(M * L) * float(2 / Fraction(W.AGP_B)) > math.log2(x_cap) + 1
    divs = divisors(L)

    def qualifies(p):
        if p > x_cap or not isprime(p) or (M * L) % p == 0:
            return False
        if filters:
            return all(jacobi_symbol(p, q) == 1 for q in Q) and p % M == a % M
        return True

    k0, best = 0, 0
    for k in range(1, k_cap + 1):
        if math.gcd(k, L) == 1:
            count = sum(1 for d in divs if qualifies(d * k + 1))
            if count > best:
                k0, best = k, count
    assert best > 0, "no multiplier yields a pool prime; the CLI would exit 3"
    pool = sorted(d * k0 + 1 for d in divs if qualifies(d * k0 + 1))[:cap]
    return L, k0, pool


def agp_refs() -> dict:
    out = {}
    for _, _, y, theta, M, x_cap, k_cap, cap, filters in W.AGP_STRATA:
        per_a = {}
        for a in W._units(M):
            L, k0, pool = agp_pool(y, theta, M, a, x_cap, k_cap, cap, filters)
            h, _ = W.crt_target(L, M, a)
            exists = len(pool) >= 3 and subset_exists(pool, M * L, [h])[h]
            per_a[str(a)] = {"L": L, "k0": k0, "pool": pool, "exists": exists}
            print(f"agp y={y} theta={theta} M={M} a={a} L={L} k0={k0} pool={len(pool)} found={exists}")
        out[W.agp_key(y, theta, M, x_cap, k_cap, cap, filters)] = per_a
    return out


def chernick_ks() -> list[int]:
    out = []
    for lo, count in W.VERIFY_DECADES:
        rng = random.Random(f"chernick:{lo}")
        ks = set()
        while len(ks) < count:
            k = rng.randrange(lo, 10 * lo)
            if isprime(6 * k + 1) and isprime(12 * k + 1) and isprime(18 * k + 1):
                ks.add(k)
        out += sorted(ks)
    return out


def main() -> None:
    carm = carmichael_below(10**7)
    for limit, count in W.A055553.items():
        if limit <= 10**7:
            assert sum(1 for n in carm if n < limit) == count, limit
    refs = {
        "carmichael_below_1e7": carm,
        "smooth": smooth_counts(W.SMOOTH_Z),
        "erdos": erdos_refs(),
        "agp": agp_refs(),
        "chernick_k": chernick_ks(),
    }
    with open(W.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
