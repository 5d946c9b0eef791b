"""Workload families, request generation and output checks for the carmkit benchmark.

Each workload is a fixed list of strata. A stratum fixes every parameter that
sets a request's cost (limits, Lambda, pool caps, agp window); the seed draws
only what leaves the cost alone, or nearly (residues, census moduli,
smooth-count classes, decoy numbers), and the order of the requests. Every
pass holds the same strata and draws its inputs afresh from the seed's
stream, so a run averages over many draws: a search that stops at its first
hit costs more or less by the residue drawn, and a run that repeated one
draw would carry that luck into all its figures. The counts per stratum put
the median request inside a block of requests of like cost, and give the
dearest stratum more than ten requests a run, so req_p50_s and req_tail_s
each fall inside one stratum, not on the edge between two. census and verify
share the workload census-verify, so that each workload's runs can be long.

Reference answers come from ``refs.json``, which ``make_refs.py`` builds with
sympy and its own searches, never with carmkit; the checks here use only the
standard library.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

REFS_PATH = Path(__file__).with_name("refs.json")

# Global flags go before the subcommand: argparse rejects them after it.
CLI_PREFIX = ("--threads", "1", "--format", "json-lines")

# OEIS A055553: number of Carmichael numbers below 10**k.
A055553 = {10**3: 1, 10**4: 7, 10**5: 16, 10**6: 43, 10**7: 105, 10**8: 255}

FERMAT_BASES = (2, 3, 5, 7, 11, 13)

# --- census: sieve kernels (carmichael_segment, lpf_range, sieve_primes) ---
CENSUS_STRATA = (
    # (stratum, requests per pass, limit or smooth-count bound)
    ("census-1e7", 3, 10**7),
    ("smooth-2e6", 1, 2_000_000),
    ("census-1e6", 6, 10**6),
    ("census-1e5", 4, 10**5),
)
CENSUS_MODULI = tuple(range(2, 61))
SMOOTH_Z = 2_000_000
SMOOTH_V = (20, 50, 100, 200, 500, 1000)
SMOOTH_CLASSES = ((1, 0), (3, 1), (3, 2), (4, 1), (4, 3), (5, 4), (7, 6), (8, 7), (12, 11), (24, 23))

# --- construct: erdos mode, solver over moduli < 2**31 ---
# (stratum, requests per pass, Lambda, M, pool cap, max factors)
CONSTRUCT_STRATA = (
    ("mitm-40", 2, 720720, 19, 40, None),
    ("dp-41", 1, 65520, 11, None, None),
    ("mitm-36", 4, 720720, (29, 31, 37, 41, 43, 47), 36, None),
    ("small-3", 2, 2520, (101, 103, 107, 109, 113), None, 3),
)

# --- agp: find_k0 primality scan, solver over moduli far above 2**31 ---
AGP_B = "2/5"
# (stratum, requests per pass, y, theta, M, x_cap, k_cap, pool cap, filters on)
AGP_STRATA = (
    ("k0-y40", 2, 40, 1.5, 1, 10**10, 60, 28, False),
    ("pool-m3", 1, 40, 1.5, 3, 10**12, 100, 30, False),
    ("pool-m4", 1, 40, 1.5, 4, 10**12, 100, 30, False),
    ("pool-y30", 3, 30, 1.3, 1, 10**12, 200, 30, False),
    ("pool-y40", 2, 40, 1.3, 1, 10**12, 100, 30, False),
    ("filtered", 2, 40, 1.5, 3, 10**12, 100, 32, True),
)

# --- verify: arith.factorize (Brent rho) ---
# Chernick numbers (6k+1)(12k+1)(18k+1) per decade of k. The set is fixed:
# Brent-rho cost varies about 2x at random between numbers of one size, so
# drawing it per seed would spread run time across seeds beyond the bounds.
VERIFY_DECADES = ((10**5, 5), (10**6, 8), (10**7, 8), (10**8, 4), (10**9, 3))
VERIFY_DECOY_PRIMES = 8
VERIFY_DECOY_COMPOSITES = 8


@dataclass(frozen=True)
class Request:
    """One closed-loop request: a CLI argv, or a library smooth-prime count."""

    stratum: str
    argv: tuple[str, ...] | None = None
    smooth: tuple[int, int, int, int] | None = None
    expect: object = None


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    stderr: str


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# independent arithmetic (standard library only)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


def crt_target(L: int, M: int, a: int) -> tuple[int, int]:
    """(h, lcm(L, M)) with h = 1 mod L and h = a mod M; the pair must be compatible."""
    g = math.gcd(L, M)
    if (a - 1) % g:
        raise ValueError(f"1 mod {L} and {a} mod {M} are incompatible")
    m = L // g * M
    t = (a - 1) // g * pow(L // g, -1, M // g) % (M // g) if M // g > 1 else 0
    return (1 + L * t) % m, m


def korselt(n: int, primes) -> bool:
    return len(primes) >= 2 and all((n - 1) % (p - 1) == 0 for p in primes)


def fermat(n: int) -> bool:
    return all(pow(b, n - 1, n) == 1 for b in FERMAT_BASES if math.gcd(b, n) == 1)


# ---------------------------------------------------------------------------
# request generation


def _cli(*args) -> tuple[str, ...]:
    return CLI_PREFIX + tuple(str(a) for a in args)


def _units(M: int) -> list[int]:
    return [a for a in range(1, M) if math.gcd(a, M) == 1] if M > 1 else [0]


def _census_requests(rng: random.Random, refs: dict) -> list[Request]:
    out = []
    for stratum, count, bound in CENSUS_STRATA:
        for _ in range(count):
            if stratum.startswith("smooth"):
                v = rng.choice(SMOOTH_V)
                d, b = rng.choice(SMOOTH_CLASSES)
                key = f"{bound}:{v}:{d}:{b}"
                out.append(Request(stratum, smooth=(bound, v, d, b), expect=refs["smooth"][key]))
            else:
                M = rng.choice(CENSUS_MODULI)
                argv = _cli("census", "--limit", bound, "--modulus", M)
                out.append(Request(stratum, argv=argv, expect=(bound, M)))
    return out


def erdos_key(Lam: int, M: int, cap, max_factors) -> str:
    return f"{Lam}:{M}:{cap}:{max_factors}"


def _construct_requests(rng: random.Random, refs: dict) -> list[Request]:
    out = []
    for stratum, count, Lam, Ms, cap, max_factors in CONSTRUCT_STRATA:
        Ms = Ms if isinstance(Ms, tuple) else (Ms,)
        offset = rng.randrange(len(Ms))
        for i in range(count):
            # the moduli in turn: a pass holds each one of a stratum as often as the others
            M = Ms[(offset + i) % len(Ms)]
            a = rng.choice(_units(M))
            ref = refs["erdos"][erdos_key(Lam, M, cap, max_factors)]
            args = ["construct", "--modulus", M, "--residue", a, "--lambda", Lam]
            if cap is not None:
                args += ["--pool-cap", cap]
            if max_factors is not None:
                args += ["--max-factors", max_factors]
            expect = {
                "mode": "erdos", "M": M, "a": a, "Lambda": Lam, "max_factors": max_factors,
                "pool": ref["pool"], "exists": ref["exists"][str(a)],
            }
            out.append(Request(stratum, argv=_cli(*args), expect=expect))
    return out


def agp_key(y, theta, M, x_cap, k_cap, cap, filters) -> str:
    return f"{y}:{theta}:{M}:{x_cap}:{k_cap}:{cap}:{int(filters)}"


def _agp_requests(rng: random.Random, refs: dict) -> list[Request]:
    out = []
    for stratum, count, y, theta, M, x_cap, k_cap, cap, filters in AGP_STRATA:
        for _ in range(count):
            a = rng.choice(_units(M))
            ref = refs["agp"][agp_key(y, theta, M, x_cap, k_cap, cap, filters)][str(a)]
            args = ["construct", "--mode", "agp", "--modulus", M, "--residue", a,
                    "--y", y, "--theta", theta, "--B", AGP_B, "--x-cap", x_cap,
                    "--k-cap", k_cap, "--pool-cap", cap]
            if not filters:
                args += ["--no-qr-filter", "--no-residue-filter"]
            expect = {"mode": "agp", "M": M, "a": a, **ref}
            out.append(Request(stratum, argv=_cli(*args), expect=expect))
    return out


def _verify_requests(rng: random.Random, refs: dict) -> list[Request]:
    out = []
    for k in refs["chernick_k"]:
        primes = [6 * k + 1, 12 * k + 1, 18 * k + 1]
        n = primes[0] * primes[1] * primes[2]
        out.append(Request(f"chernick-1e{len(str(k)) - 1}", argv=_cli("verify", n),
                           expect={"factors": primes, "carmichael": True}))
    for _ in range(VERIFY_DECOY_PRIMES):
        p = random_prime(rng, 10**12, 10**19)
        out.append(Request("decoy-prime", argv=_cli("verify", p),
                           expect={"factors": [p], "carmichael": False}))
    for i in range(VERIFY_DECOY_COMPOSITES):
        small = random_prime(rng, 10**3, 10**4)
        if i % 2:
            q = random_prime(rng, 10**11, 10**12)
            factors, n = [small, small, q], small * small * q
        else:
            q = r = random_prime(rng, 10**6, 10**7)
            while r == q:
                r = random_prime(rng, 10**6, 10**7)
            factors, n = [small, q, r], small * q * r
        carm = len(set(factors)) == 3 and korselt(n, factors)
        out.append(Request("decoy-composite", argv=_cli("verify", n),
                           expect={"factors": sorted(factors), "carmichael": carm}))
    return out


GENERATORS = {
    "census-verify": lambda rng, refs: _census_requests(rng, refs) + _verify_requests(rng, refs),
    "construct": _construct_requests,
    "agp": _agp_requests,
}

# A few small requests per workload, run once per process before timing.
WARMUP = {
    "census-verify": (Request("warmup", argv=_cli("census", "--limit", 100_000, "--modulus", 4)),
                      Request("warmup", smooth=(100_000, 50, 4, 3)),
                      Request("warmup", argv=_cli("verify", 1729))),
    "construct": (Request("warmup", argv=_cli("construct", "--modulus", 11, "--residue", 3,
                                             "--lambda", 5040, "--pool-cap", 20)),),
    "agp": (Request("warmup", argv=_cli("construct", "--mode", "agp", "--modulus", 1,
                                       "--residue", 0, "--y", 20, "--theta", 1.3, "--B", AGP_B,
                                       "--x-cap", 10**10, "--k-cap", 50,
                                       "--no-qr-filter", "--no-residue-filter")),),
}


def passes(workload: str, seed: int, refs: dict) -> Iterator[list[Request]]:
    """The seed's request lists, one per pass, each in the seed's order."""
    rng = random.Random(f"{workload}:{seed}")
    while True:
        requests = GENERATORS[workload](rng, refs)
        rng.shuffle(requests)
        yield requests


# ---------------------------------------------------------------------------
# checks: each returns None when the outcome is right, else the reason


def _lines(out: Outcome) -> tuple[dict, list[str]]:
    lines = out.stdout.splitlines()
    if not lines:
        raise ValueError("empty stdout")
    return json.loads(lines[0])["meta"], lines[1:]


def _check_census(req: Request, out: Outcome, refs: dict) -> str | None:
    limit, M = req.expect
    if out.code != 0:
        return f"exit {out.code}"
    meta, rows = _lines(out)
    if meta.get("limit") != limit or meta.get("modulus") != M:
        return f"meta {meta}"
    got = [(r["residue"], r["count"]) for r in map(json.loads, rows)]
    counts = {a: 0 for a in range(M) if math.gcd(a, M) == 1}
    other = 0
    for n in refs["carmichael_below_1e7"]:
        if n < limit:
            if n % M in counts:
                counts[n % M] += 1
            else:
                other += 1
    want = sorted(counts.items()) + ([("other", other)] if other else [])
    if sum(c for _, c in got) != A055553[limit]:
        return f"total {sum(c for _, c in got)} != A055553 {A055553[limit]}"
    if got != want:
        return f"per-class counts {got} != {want}"
    return None


def _check_certificate(line: str, exp: dict) -> str | None:
    cert = json.loads(line)
    primes = [int(p) for p in cert["primes"]]
    n = int(cert["n"])
    if len(primes) < 3 or len(set(primes)) != len(primes):
        return f"need >= 3 distinct primes, got {primes}"
    prod = 1
    for p in primes:
        prod *= p
    if prod != n:
        return "primes do not multiply to n"
    if not all(is_prime(p) for p in primes):
        return "a listed factor is not prime"
    if not korselt(n, primes):
        return "Korselt check failed"
    if not fermat(n):
        return "Fermat check failed"
    if cert["mode"] != exp["mode"]:
        return f"mode {cert['mode']}"
    if exp["mode"] == "external":
        return None
    if n % exp["M"] != exp["a"] % exp["M"] or cert["M"] != exp["M"] or cert["a"] != exp["a"]:
        return "wrong residue class"
    if not set(primes) <= set(exp["pool"]):
        return "factor outside the reference pool"
    if exp.get("max_factors") and len(primes) > exp["max_factors"]:
        return "too many factors"
    if exp["mode"] == "erdos":
        shared = exp["Lambda"]
        fields = (cert["multiplier"], cert["L"]) == (str(shared), "0")
    else:
        shared = exp["k0"] * exp["L"]
        fields = (cert["multiplier"], cert["L"]) == (str(exp["k0"]), str(exp["L"]))
    if not fields or (n - 1) % shared:
        return "shared multiplier mismatch"
    return None


def _check_construct(req: Request, out: Outcome, enumerate_subsets) -> str | None:
    exp = req.expect
    _, rows = _lines(out)
    pool = exp["pool"]
    if exp["exists"]:
        if out.code != 0 or len(rows) != 1:
            return f"exit {out.code}, expected a certificate"
        return _check_certificate(rows[0], exp)
    if out.code != 1 or rows:
        return f"exit {out.code}, expected completed empty"
    if len(pool) < 3:
        return None if f"pool of {len(pool)} primes is too small" in out.stderr else "wrong empty reason"
    if f"no qualifying subset in pool of {len(pool)} primes" not in out.stderr:
        return f"stderr {out.stderr.strip()!r}"
    if len(pool) <= 24:
        # agp searches mod M*L, which is lcm(L, M): the primes of L do not divide M
        L = exp["Lambda"] if exp["mode"] == "erdos" else exp["L"]
        h, m = crt_target(L, exp["M"], exp["a"])
        if enumerate_subsets(pool, m, h, 3, exp.get("max_factors")):
            return "exhaustive scan finds a subset the search missed"
    return None


def _check_verify(req: Request, out: Outcome) -> str | None:
    exp = req.expect
    _, rows = _lines(out)
    if not exp["carmichael"]:
        if out.code != 1 or rows or "is not a Carmichael number" not in out.stderr:
            return f"exit {out.code}, expected 'not a Carmichael number'"
        return None
    if out.code != 0 or len(rows) != 1:
        return f"exit {out.code}, expected a certificate"
    cert = json.loads(rows[0])
    if [int(p) for p in cert["primes"]] != exp["factors"]:
        return f"factors {cert['primes']} != {exp['factors']}"
    return _check_certificate(rows[0], {"mode": "external"})


def check(req: Request, out, refs: dict, enumerate_subsets) -> str | None:
    """Compare one outcome with the reference answer; None means correct."""
    if isinstance(out, Outcome) and out.code == -1:
        return f"exception: {out.stderr.strip().splitlines()[-1]}"
    if req.smooth is not None:
        return None if out == req.expect else f"count {out} != reference {req.expect}"
    if out.code == 3:
        return "exit 3 (capacity or infeasible)"
    sub = req.argv[len(CLI_PREFIX)]
    if sub == "census":
        return _check_census(req, out, refs)
    if sub == "verify":
        return _check_verify(req, out)
    return _check_construct(req, out, enumerate_subsets)
