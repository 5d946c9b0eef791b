"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the PASS lines
inline; pytest -v itself reports one line per criterion either way).
"""

import json
import math
import random
import time

import pytest

from carmkit import arith, cli, korselt, pipeline, sieve, solver
from carmkit.errors import ConstructionError, InfeasibleError
from carmkit.pipeline import PoolFilters
from carmkit.sieve import SmoothPrimeQuery

mp = pytest.importorskip("mpmath")


def report(ok: bool, label: str, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag}  {label}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{label}: {detail}"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_1_census_fidelity(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "census", "--limit", "10000", "--modulus", "1")
    elapsed = time.perf_counter() - t0
    rows = [json.loads(line) for line in out.splitlines()[1:]]
    total = sum(r["count"] for r in rows)
    report(
        code == 0 and total == 7 and elapsed < 5.0,
        "criterion 1: census --limit 10000 --modulus 1 reports exactly 7",
        f"total={total} elapsed={elapsed:.2f}s",
    )


def test_criterion_2_enumerator_oracle_agreement():
    t0 = time.perf_counter()
    found = korselt.enumerate_carmichael(100_000)
    failures = 0
    rng = random.Random(20_000)
    for n, f in found:
        if not korselt.korselt_check(n, arith.factorize(n)):
            failures += 1
        if n <= 20_000:
            if not all(korselt.fermat_witness(n, a) for a in range(2, n)):
                failures += 1
        else:
            bases = [rng.randrange(2, n - 1) for _ in range(64)]
            if not all(korselt.fermat_witness(n, a) for a in bases):
                failures += 1
    elapsed = time.perf_counter() - t0
    report(
        len(found) == 16 and failures == 0 and elapsed < 120.0,
        "criterion 2: every enumerated n < 1e5 passes Korselt + Fermat cross-checks",
        f"entries={len(found)} failures={failures} elapsed={elapsed:.1f}s",
    )


def test_criterion_3_erdos_construction(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "construct", "--modulus", "1", "--residue", "1",
                           "--mode", "erdos", "--lambda", "120")
    elapsed = time.perf_counter() - t0
    cert = cli.parse_certificate(out.splitlines()[1])
    checks_ok = code == 0 and all(
        cert.checks[k] for k in ("composite", "squarefree", "korselt", "residue_class")
    )
    # the pinned witness must be among the solutions of the solver instance
    pool = pipeline.erdos_pool(120, 1)
    hits = solver.subset_product_enumerate(pool, 120, 1, 3)
    witness_sets = [{pool[i] for i in h} for h in hits]
    has_41041 = {7, 11, 13, 41} in witness_sets
    report(
        checks_ok and has_41041 and elapsed < 1.0,
        "criterion 3: construct --lambda 120 certifies; {7,11,13,41} among oracle solutions",
        f"n={cert.n} solutions={len(hits)} elapsed={elapsed:.2f}s",
    )


def _erdos_certificate_exists(lam: int, M: int, a: int) -> bool:
    try:
        pool = pipeline.erdos_pool(lam, M)
        target = solver.derive_target(lam, M, a)
    except (ConstructionError, InfeasibleError):
        return False
    hits = solver.subset_product_enumerate(pool, target.modulus, target.h, 3)
    return bool(hits)


def test_criterion_4_residue_class_construction(capsys):
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "construct", "--modulus", "4", "--residue", "3",
                             "--mode", "erdos", "--lambda", "630")
    got_cert = code == 0
    if got_cert:
        cert = cli.parse_certificate(out.splitlines()[1])
        in_class = cert.n % 4 == 3
    else:
        in_class = "exhaustive scan" in err  # a proof of absence also satisfies
    # pinned regression: 198 is the smallest Lambda <= 1e4 admitting a certificate
    smallest_ok = _erdos_certificate_exists(198, 4, 3)
    none_below = all(not _erdos_certificate_exists(lam, 4, 3) for lam in range(2, 198))
    code198, out198, _ = run_cli(capsys, "construct", "--modulus", "4", "--residue", "3",
                                 "--lambda", "198")
    cert198 = cli.parse_certificate(out198.splitlines()[1]) if code198 == 0 else None
    elapsed = time.perf_counter() - t0
    report(
        got_cert and in_class and smallest_ok and none_below
        and cert198 is not None and cert198.n % 4 == 3 and elapsed < 30.0,
        "criterion 4: residue-class construction mod 4; smallest Lambda = 198 pinned",
        f"n630={cert.n if got_cert else None} n198={cert198.n if cert198 else None} "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_5_solver_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    disagreements = 0
    bad_subsets = 0
    for _ in range(200):
        modulus = rng.randrange(2, 5001)
        units = [u for u in range(1, modulus) if math.gcd(u, modulus) == 1] or [1]
        size = rng.randrange(1, 17)
        pool = [rng.choice(units) for _ in range(size)]
        target = rng.choice(units)
        min_size = rng.randrange(1, 4)
        max_size = rng.choice([None, rng.randrange(min_size, 18)])
        found = solver.subset_product_find(pool, modulus, target, min_size, max_size)
        hits = solver.subset_product_enumerate(pool, modulus, target, min_size, max_size)
        if (found is None) != (len(hits) == 0):
            disagreements += 1
        if found is not None:
            prod = 1
            for i in found:
                prod = prod * pool[i] % modulus
            size_ok = min_size <= len(found) <= (max_size if max_size is not None else size)
            if prod != target % modulus or not size_ok:
                bad_subsets += 1
    elapsed = time.perf_counter() - t0
    report(
        disagreements == 0 and bad_subsets == 0 and elapsed < 60.0,
        "criterion 5: find/enumerate agree on 200 random instances; subsets re-verify",
        f"disagreements={disagreements} bad={bad_subsets} elapsed={elapsed:.1f}s",
    )


def test_criterion_6_formula_fidelity():
    mp.mp.dps = 50
    # s_G for lambda=2, Omega(lambda)=1, Omega(|G|)=3, realized by (Z/24)^x
    spec24 = solver.GroupSpec.from_modulus_fact(arith.factorize(24), phi_M=2)
    inv = solver.compute_invariants(spec24, omega_L=2, x=84**5)
    s_ok = inv.s_G == int(mp.ceil(5 * 4 * 1 * mp.log(3 * 2 * 3))) == 58
    x_val = pipeline.compute_x(4, 21, "2/5")
    x_ok = x_val == 4182119424
    n_ref = float(2 * (1 + mp.log(8) / 2))
    n_ok = abs(inv.n_bound - n_ref) <= 1e-12 * n_ref
    t_ref = float(mp.mpf(6) / 5 * (mp.mpf(6) / 5) / (60 * 2 * mp.log(84**5)))
    t_ok = abs(inv.t - t_ref) <= 1e-12 * t_ref
    report(
        s_ok and x_ok and n_ok and t_ok,
        "criterion 6: s_G, n_bound, t, x match high-precision evaluation",
        f"s_G={inv.s_G} x={x_val} n_err={abs(inv.n_bound - n_ref):.2e} "
        f"t_err={abs(inv.t - t_ref):.2e}",
    )


def test_criterion_7_agp_toy_pipeline():
    Q = sieve.build_Q(SmoothPrimeQuery(5, 1.5, 1))
    q_ok = Q == [7, 11]
    k0, count = pipeline.find_k0(arith.factorize(15), 40, 1, 1, PoolFilters(), 10)
    pool = [
        p
        for d in arith.divisors(arith.factorize(15))
        if (p := d * k0 + 1) <= 40 and arith.is_prime(p) and 15 % p != 0
    ]
    report(
        q_ok and k0 == 2 and count == 3 and set(pool) == {7, 11, 31},
        "criterion 7: toy pipeline reproduces Q=[7,11], k0=2, pool {7,11,31}",
        f"Q={Q} k0={k0} count={count} pool={sorted(pool)}",
    )


def test_criterion_8_size_bound_suite():
    mp.mp.dps = 600
    all_ok = True
    details = []
    for y in (50, 100, 200):
        for theta in (1.2, 1.5, 1.8):
            Q = sieve.build_Q(SmoothPrimeQuery(y, theta, 1))
            L, L_fact = pipeline.build_L(Q)
            lam = arith.carmichael_lambda(L_fact)
            lam_cap = int(mp.ceil(mp.exp(2 * theta * y)))
            lam_ok = lam <= lam_cap
            logl_ok = math.log(L) <= 1.02 * y**theta
            all_ok &= lam_ok and logl_ok and len(Q) > 0
            details.append(f"y={y},th={theta}:|Q|={len(Q)}")
    report(
        all_ok,
        "criterion 8: lambda(G) <= ceil(e^(2 theta y)) and log L <= 1.02 y^theta on grid",
        " ".join(details),
    )
