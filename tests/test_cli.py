import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from carmkit import _kernels, arith, cli, korselt, pipeline, sieve, solver
from carmkit.errors import DomainError, UnfactoredError
from carmkit.korselt import Census, census
from carmkit.solver import AssemblySpec

CERT_41041 = solver.assemble([7, 11, 13, 41], AssemblySpec("erdos", 120, 0, 1, 1))
CERT_LINE = (
    '{"n":"41041","primes":["7","11","13","41"],"mode":"erdos","L":"0",'
    '"multiplier":"120","M":1,"a":1,"checks":{"composite":true,"squarefree":true,'
    '"korselt":true,"residue_class":true,"multiplier_congruence":true,'
    '"probabilistic_primality_used":false}}'
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_args_examples():
    cfg = cli.parse_args(["verify", "561"])
    assert cfg.subcommand == "verify" and cfg.n == 561
    cfg = cli.parse_args(["census", "--limit", "10000", "--modulus", "4"])
    assert cfg.subcommand == "census" and cfg.limit == 10_000 and cfg.modulus == 4
    assert cfg.format == "json-lines"
    with pytest.raises(SystemExit) as ei:
        cli.parse_args(["construct", "--modulus", "4", "--residue", "2"])
    assert ei.value.code == 2  # gcd(2, 4) != 1


def test_parse_args_construct_caps(capsys):
    # the caps ride on the one ConstructionParams, and each rejected cap is a usage error
    erdos = ["construct", "--modulus", "1", "--residue", "1", "--lambda", "120"]
    params = cli.parse_args(erdos + ["--x-cap", "50", "--pool-cap", "7"]).params
    assert (params.x_cap, params.k_cap, params.pool_cap) == (50, 10_000, 7)
    for flag, value, message in [("--x-cap", "1", "x_cap must be >= 2"),
                                 ("--k-cap", "0", "k_cap must be >= 1"),
                                 ("--pool-cap", "0", "pool_cap must be >= 1")]:
        with pytest.raises(SystemExit) as ei:
            cli.parse_args(erdos + [flag, value])
        assert ei.value.code == 2
        assert capsys.readouterr().err.endswith(f" error: {message}\n"), flag


def test_parse_args_rejects_unknown_flags():
    with pytest.raises(SystemExit) as ei:
        cli.parse_args(["verify", "561", "--frobnicate"])
    assert ei.value.code == 2
    with pytest.raises(SystemExit):
        cli.parse_args(["construct", "--modulus", "1", "--residue", "1", "--mode", "erdos"])
    with pytest.raises(SystemExit):
        cli.parse_args(["construct", "--modulus", "1", "--residue", "1", "--mode", "agp"])
    with pytest.raises(SystemExit):
        cli.parse_args(["construct", "--modulus", "1", "--residue", "1",
                        "--lambda", "120", "--max-factors", "2"])
    # construct values the library's parameter objects reject are usage errors too
    erdos = ["construct", "--modulus", "1", "--residue", "1", "--lambda", "120"]
    agp = ["construct", "--mode", "agp", "--modulus", "1", "--residue", "1", "--y", "5"]
    for argv in (
        agp + ["--theta", "2.5", "--B", "0.4"],
        agp + ["--theta", "1.5", "--B", "0.5"],
        agp + ["--theta", "1.5", "--B", "x"],
        erdos + ["--k-cap", "0"],
        erdos + ["--pool-cap", "0"],
        erdos + ["--x-cap", "0"],
        erdos + ["--x-cap", "1"],  # find_k0 needs x >= 2
        ["construct", "--mode", "agp", "--modulus", "1", "--residue", "1", "--y", "1",
         "--theta", "1.5", "--B", "0.4"],
        ["construct", "--modulus", "1", "--residue", "1", "--lambda", "1"],
        ["construct", "--modulus", "0", "--residue", "1", "--lambda", "120"],
        ["verify", "0"],
        ["census", "--limit", "0", "--modulus", "4"],
        ["census", "--limit", "10000", "--modulus", "0"],
        ["solve", "--pool", "pool.txt", "--modulus", "0", "--target", "1"],
        ["solve", "--pool", "pool.txt", "--modulus", "120", "--target", "1", "--min-size", "0"],
    ):
        with pytest.raises(SystemExit) as ei:
            cli.parse_args(argv)
        assert ei.value.code == 2, argv


def test_parse_args_threads_env():
    assert cli.parse_args(["verify", "561"]).threads == min(os.cpu_count() or 1, cli.THREADS_CAP)
    assert cli.parse_args(["--threads", "2", "verify", "561"]).threads == 2


def test_cli_threads_cap(capsys, monkeypatch):
    # the census hands --threads to its segment pool, so a value past the cap
    # exits 2 at parse time, before any pool exists; one at the cap runs
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    cap = cli.THREADS_CAP
    with pytest.raises(SystemExit) as ei:
        cli.main(["--threads", str(cap + 1), "census", "--limit", "10000000000", "--modulus", "1"])
    assert ei.value.code == 2
    assert f"--threads must be in 1..{cap} (the threads cap)" in capsys.readouterr().err
    # 10**4 is one segment, which runs inline whatever the thread count
    census = ("--format", "csv", "census", "--limit", "10000", "--modulus", "4")
    at_cap = run_cli(capsys, "--threads", str(cap), *census)
    assert at_cap[0] == 0 and at_cap == run_cli(capsys, "--threads", "1", *census)


def test_emit_certificate_json_exact():
    assert cli.emit_certificate(CERT_41041, "json-lines") == CERT_LINE


def test_certificate_round_trip():
    line = cli.emit_certificate(CERT_41041, "json-lines")
    assert cli.parse_certificate(line) == CERT_41041


def test_emit_certificate_human():
    assert cli.emit_certificate(CERT_41041, "human") == (
        "41041 = 7 · 11 · 13 · 41 (≡ 1 mod 120)"
    )
    cert43 = solver.assemble([43, 127, 211], AssemblySpec("erdos", 630, 0, 4, 3))
    assert cli.emit_certificate(cert43, "human") == (
        "1152271 = 43 · 127 · 211 (≡ 1 mod 630, ≡ 3 mod 4)"
    )


def test_emit_certificate_refuses_failed_checks():
    import dataclasses

    broken = dataclasses.replace(CERT_41041, checks={**CERT_41041.checks, "korselt": False})
    with pytest.raises(DomainError):
        cli.emit_certificate(broken, "json-lines")


def test_emit_census_csv_exact():
    assert cli.emit_census(census(10_000, 4), "csv") == "residue,count\n1,6\n3,1\n"
    assert cli.emit_census(census(500, 3), "csv") == "residue,count\n1,0\n2,0\n"
    got = cli.emit_census(census(100_000, 3), "csv")
    assert got == "residue,count\n1,13\n2,1\nother,2\n"


def test_emit_census_json_lines():
    text = cli.emit_census(Census(limit=100, modulus=4, counts={1: 2, 3: 0}), "json-lines")
    rows = [json.loads(line) for line in text.splitlines()]
    assert rows == [{"residue": 1, "count": 2}, {"residue": 3, "count": 0}]


def test_cli_verify(capsys):
    code, out, err = run_cli(capsys, "verify", "561")
    assert code == 0
    meta, cert_line = out.splitlines()
    assert json.loads(meta)["meta"]["command"] == "verify"
    cert = cli.parse_certificate(cert_line)
    assert cert.n == 561 and cert.prime_factors == (3, 11, 17) and cert.mode == "external"
    # external certificates have no shared multiplier to check
    assert list(cert.checks) == [
        "composite", "squarefree", "korselt", "residue_class", "probabilistic_primality_used"]
    code, out, err = run_cli(capsys, "verify", "562")
    assert code == 1 and "not a Carmichael" in err


def test_cli_verify_rejects_before_factoring(capsys, monkeypatch):
    # a Carmichael number is odd and passes the Fermat test to every base coprime
    # to it; an 82-digit semiprime that fails it would otherwise exhaust the
    # factoring budget, and 2**101 - 1 fails it only at base 3
    p, q = (next(n for n in range(s, 2 * s) if arith.is_prime(n)) for s in (10**40, 3 * 10**41))
    monkeypatch.setattr(korselt, "factorize", lambda n: pytest.fail(f"factorize({n}) called"))
    for n in (p * q, 562, 15, 2**101 - 1):
        code, out, err = run_cli(capsys, "verify", str(n))
        assert code == 1 and err == f"{n} is not a Carmichael number\n"


def test_cli_verify_splits_large_chernick_numbers(capsys, monkeypatch):
    # Chernick numbers (6k+1)(12k+1)(18k+1) split at square roots of 1, with no rho
    monkeypatch.setattr(korselt, "factorize", lambda n: pytest.fail(f"factorize({n}) called"))
    ks = [10**19 + 11525] + [10**16 + i for i in (
        16175, 17075, 19526, 24071, 31265, 31555, 33696, 38470, 45180, 46430,
        49780, 50251, 51435, 53100, 54361, 62366, 67150, 67280, 67671, 67990)]
    assert len(str(math.prod(c * ks[0] + 1 for c in (6, 12, 18)))) == 61
    for k in ks:
        primes = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        n = math.prod(primes)
        assert n > 10**50 and all(map(arith.is_prime, primes))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", str(n))
        assert time.perf_counter() - start < 1.0, k
        assert (code, err) == (0, "")
        assert cli.parse_certificate(out.splitlines()[1]).prime_factors == primes


def test_cli_verify_names_the_rho_budget(capsys, monkeypatch):
    # the Chernick number (6k+1)(12k+1)(18k+1) at k = 16830: trial division finds no factor
    primes = [c * 16830 + 1 for c in (6, 12, 18)]
    n = math.prod(primes)
    assert min(primes) > arith.TRIAL_BOUND and all(map(arith.is_prime, primes))
    monkeypatch.setattr(arith, "RHO_BUDGET", 10)
    text = f"Brent-rho budget of 10 iterations exhausted; unfactored cofactor {n}"
    with pytest.raises(UnfactoredError) as ei:
        arith.factorize(n)
    assert str(ei.value) == text and ei.value.cofactor == n
    # verify splits it without rho; a strong pseudoprime to every base it is
    # given reaches factorize, and so the budget
    code, out, _ = run_cli(capsys, "verify", str(n))
    assert code == 0 and cli.parse_certificate(out.splitlines()[1]).prime_factors == tuple(primes)
    spsp = 3825123056546413051
    monkeypatch.setattr(korselt, "SPLIT_BASES", (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31))
    text = f"Brent-rho budget of 10 iterations exhausted; unfactored cofactor {spsp}"
    code, out, err = run_cli(capsys, "verify", str(spsp))
    assert (code, out, err) == (3, "", f"error: {text}\n")
    monkeypatch.undo()  # base 37 splits it
    code, out, _ = run_cli(capsys, "verify", str(spsp))
    assert code == 0
    assert cli.parse_certificate(out.splitlines()[1]).prime_factors == (149491, 747451, 34233211)


def test_cli_census_modulus_1(capsys):
    code, out, _ = run_cli(capsys, "census", "--limit", "10000", "--modulus", "1")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows[0] == {"meta": {"command": "census", "format": "json-lines",
                               "limit": 10000, "modulus": 1}}
    assert rows[1] == {"residue": 0, "count": 7}


def test_cli_census_csv_header_comment(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "census",
                           "--limit", "10000", "--modulus", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# command=census")
    assert lines[1:] == ["residue,count", "1,6", "3,1"]


def test_cli_construct_erdos(capsys):
    code, out, _ = run_cli(capsys, "construct", "--modulus", "1", "--residue", "1",
                           "--mode", "erdos", "--lambda", "120")
    assert code == 0
    cert = cli.parse_certificate(out.splitlines()[1])
    assert cert.n % 120 == 1
    assert all(120 % (p - 1) == 0 for p in cert.prime_factors)
    assert all(cert.checks[k] for k in ("composite", "squarefree", "korselt", "residue_class"))


def test_cli_construct_residue_class(capsys):
    code, out, _ = run_cli(capsys, "construct", "--modulus", "4", "--residue", "3",
                           "--lambda", "630")
    assert code == 0
    cert = cli.parse_certificate(out.splitlines()[1])
    assert cert.n == 1152271 and cert.n % 4 == 3
    assert cert.checks["multiplier_congruence"] is True


def test_cli_construct_zero_results(capsys):
    # Lambda = 6 gives pool {7} only after exclusions: too small, completed empty
    code, out, err = run_cli(capsys, "construct", "--modulus", "1", "--residue", "1",
                             "--lambda", "6")
    assert code == 1 and err == "pool of 1 primes is too small\n"
    # a pool cut below 3 primes is too small in erdos mode as in agp mode
    code, out, err = run_cli(capsys, "construct", "--modulus", "1", "--residue", "0",
                             "--lambda", "720720", "--pool-cap", "2")
    assert code == 1 and err == "pool of 2 primes is too small\n"
    # pool {3, 5, 7, 13} mod 4: target 3 mod 4 unreachable when... use a feasible
    # pool with no subset: lambda = 12 -> pool {5, 7, 13}, target 1 mod 12
    code, out, err = run_cli(capsys, "construct", "--modulus", "1", "--residue", "1",
                             "--lambda", "12")
    assert code == 1 and "exhaustive scan" in err
    # agp mode: a 3-prime pool with no qualifying subset, proved by the same scan
    code, out, err = run_cli(capsys, "construct", "--mode", "agp", "--modulus", "3",
                             "--residue", "2", "--y", "12", "--theta", "1.5", "--B", "2/5",
                             "--x-cap", "10000", "--k-cap", "50",
                             "--no-qr-filter", "--no-residue-filter")
    assert code == 1 and "exhaustive scan of 8 subsets confirms none exists" in err


def test_cli_construct_agp():
    # a fresh interpreter, where no test harness configures logging
    src = Path(cli.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-m", "carmkit", "construct", "--modulus", "1", "--residue", "1",
         "--mode", "agp", "--y", "5", "--theta", "1.5", "--B", "0.4",
         "--x-cap", "40", "--k-cap", "10", "--no-qr-filter", "--no-residue-filter"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=60,
    )
    # toy pool is {3, 23}: too small, completes with zero results
    assert out.returncode == 1
    assert out.stderr == "pool of 2 primes is too small\n"


# One agp construct per benchmark stratum, and the 21-prime y = 60 request, as
# (arguments after "--mode agp", exit code, stdout, stderr), captured from the
# implementation that tested all 2**|Q| divisors of L: a divisor walk that
# drops, adds or reorders a pool prime changes them.
AGP_PINNED = {
    "k0-y40": (
        '--modulus 1 --residue 0 --y 40 --theta 1.5 --B 2/5 --x-cap 10000000000'
        ' --k-cap 60 --pool-cap 28 --no-qr-filter --no-residue-filter',
        1,
        '{"meta":{"command":"construct","format":"json-lines","modulus":1,"residue":0'
        ',"mode":"agp","y":40,"theta":1.5,"B":"2/5","x_cap":10000000000,"k_cap":60'
        ',"qr_filter":false,"residue_filter":false,"pool_cap":28}}\n',
        'no qualifying subset in pool of 28 primes\n',
    ),
    "pool-m3": (
        '--modulus 3 --residue 2 --y 40 --theta 1.5 --B 2/5 --x-cap 1000000000000'
        ' --k-cap 100 --pool-cap 30 --no-qr-filter --no-residue-filter',
        1,
        '{"meta":{"command":"construct","format":"json-lines","modulus":3,"residue":2'
        ',"mode":"agp","y":40,"theta":1.5,"B":"2/5","x_cap":1000000000000,"k_cap":100'
        ',"qr_filter":false,"residue_filter":false,"pool_cap":30}}\n',
        'no qualifying subset in pool of 30 primes\n',
    ),
    "pool-m4": (
        '--modulus 4 --residue 3 --y 40 --theta 1.5 --B 2/5 --x-cap 1000000000000'
        ' --k-cap 100 --pool-cap 30 --no-qr-filter --no-residue-filter',
        1,
        '{"meta":{"command":"construct","format":"json-lines","modulus":4,"residue":3'
        ',"mode":"agp","y":40,"theta":1.5,"B":"2/5","x_cap":1000000000000,"k_cap":100'
        ',"qr_filter":false,"residue_filter":false,"pool_cap":30}}\n',
        'no qualifying subset in pool of 30 primes\n',
    ),
    "pool-y30": (
        '--modulus 1 --residue 0 --y 30 --theta 1.3 --B 2/5 --x-cap 1000000000000'
        ' --k-cap 200 --pool-cap 30 --no-qr-filter --no-residue-filter',
        1,
        '{"meta":{"command":"construct","format":"json-lines","modulus":1,"residue":0'
        ',"mode":"agp","y":30,"theta":1.3,"B":"2/5","x_cap":1000000000000,"k_cap":200'
        ',"qr_filter":false,"residue_filter":false,"pool_cap":30}}\n',
        'no qualifying subset in pool of 30 primes\n',
    ),
    "pool-y40": (
        '--modulus 1 --residue 0 --y 40 --theta 1.3 --B 2/5 --x-cap 1000000000000'
        ' --k-cap 100 --pool-cap 30 --no-qr-filter --no-residue-filter',
        1,
        '{"meta":{"command":"construct","format":"json-lines","modulus":1,"residue":0'
        ',"mode":"agp","y":40,"theta":1.3,"B":"2/5","x_cap":1000000000000,"k_cap":100'
        ',"qr_filter":false,"residue_filter":false,"pool_cap":30}}\n',
        'no qualifying subset in pool of 30 primes\n',
    ),
    "filtered": (
        '--modulus 3 --residue 1 --y 40 --theta 1.5 --B 2/5 --x-cap 1000000000000'
        ' --k-cap 100 --pool-cap 32',
        1,
        '{"meta":{"command":"construct","format":"json-lines","modulus":3,"residue":1'
        ',"mode":"agp","y":40,"theta":1.5,"B":"2/5","x_cap":1000000000000,"k_cap":100'
        ',"qr_filter":true,"residue_filter":true,"pool_cap":32}}\n',
        'no qualifying subset in pool of 4 primes; exhaustive scan of'
        ' 16 subsets confirms none exists\n',
    ),
    "y60": (
        '--modulus 1 --residue 0 --y 60 --theta 1.5 --B 2/5 --x-cap 10000000000'
        ' --k-cap 20 --no-qr-filter --no-residue-filter',
        3,
        '',
        'error: modulus 207776993597299087225227240574204362673117987'
        '496803 is too large for the residue DP; reduce the pool to <= 40\n',
    ),
}


@pytest.mark.parametrize("name", list(AGP_PINNED))
def test_cli_construct_agp_pinned(name, capsys):
    args, code, out, err = AGP_PINNED[name]
    assert run_cli(capsys, "construct", "--mode", "agp", *args.split()) == (code, out, err)


def test_agp_pool_walk_memory_bounded():
    # 6920 of the 2**21 divisors of L lie below x: only those are listed
    cfg = cli.parse_args(["construct", "--mode", "agp", *AGP_PINNED["y60"][0].split()])
    tracemalloc.start()
    try:
        state = pipeline.run_agp_construction(cfg.params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(state.Q), state.k0, state.k0_count, len(state.pool)) == (21, 2, 368, 368)
    assert peak < 4 << 20, peak


def test_cli_solve(tmp_path, capsys):
    pool_file = tmp_path / "pool.txt"
    pool_file.write_text("7\n11\n13\n31\n41\n61\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "solve", "--pool", str(pool_file),
                           "--modulus", "120", "--target", "1", "--min-size", "3")
    assert code == 0
    row = json.loads(out.splitlines()[1])
    prod = 1
    for e in row["elements"]:
        prod = prod * int(e) % 120
    assert prod == 1 and len(row["indices"]) >= 3
    assert "max_size" not in json.loads(out.splitlines()[0])["meta"]
    code, out, _ = run_cli(capsys, "solve", "--pool", str(pool_file), "--modulus", "120",
                           "--target", "1", "--min-size", "3", "--max-size", "4")
    meta, row = (json.loads(line) for line in out.splitlines())
    assert code == 0 and meta["meta"]["max_size"] == 4 and len(row["indices"]) <= 4
    # products of >= 5 of these elements mod 120 form {7, 11, 13, 31, 41, 61, 91}
    code, _, err = run_cli(capsys, "solve", "--pool", str(pool_file),
                           "--modulus", "120", "--target", "17", "--min-size", "5")
    assert code == 1
    code, _, err = run_cli(capsys, "solve", "--pool", str(tmp_path / "missing.txt"),
                           "--modulus", "120", "--target", "1", "--min-size", "1")
    assert code == 2
    pool_file.write_text("7\n\nabc\n13\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", "--pool", str(pool_file),
                             "--modulus", "120", "--target", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {pool_file}:3: not an integer: abc\n"
    pool_file.write_bytes(b"7\r\n11\r\xff\xfe\n")
    code, out, err = run_cli(capsys, "solve", "--pool", str(pool_file),
                             "--modulus", "120", "--target", "1")
    assert (code, out) == (2, "")
    assert err == f"error: {pool_file}:3: not an integer: \ufffd\ufffd\n"
    # an integer that is not a unit mod the modulus is a domain error, not a usage error
    pool_file.write_text("7\n10\n13\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", "--pool", str(pool_file),
                             "--modulus", "120", "--target", "1")
    assert (code, out) == (3, "")
    assert "not coprime" in err


@pytest.mark.parametrize("argv,expected", [
    (["--format", "csv", "construct", "--modulus", "4", "--residue", "3", "--lambda", "630"],
     ["# command=construct format=csv modulus=4 residue=3 mode=erdos lambda=630",
      "1152271,43|127|211,erdos,0,630,4,3"]),
    (["--format", "csv", "construct", "--modulus", "4", "--residue", "3", "--lambda", "630",
      "--pool-cap", "12", "--max-factors", "3"],
     ["# command=construct format=csv modulus=4 residue=3 mode=erdos lambda=630 pool_cap=12"
      " max_factors=3",
      "1152271,43|127|211,erdos,0,630,4,3"]),
    (["--format", "human", "census", "--limit", "100000", "--modulus", "3"],
     ["# command=census format=human limit=100000 modulus=3",
      "residue 1 mod 3: 13", "residue 2 mod 3: 1", "shared factor with 3: 2"]),
    (["census", "--limit", "100000", "--modulus", "3"],
     ['{"meta":{"command":"census","format":"json-lines","limit":100000,"modulus":3}}',
      '{"residue":1,"count":13}', '{"residue":2,"count":1}', '{"residue":"other","count":2}']),
    (["--format", "csv", "solve", "--pool", "pool.txt", "--modulus", "120", "--target", "1"],
     ["# command=solve format=csv pool=pool.txt modulus=120 target=1 min_size=3",
      "indices,elements", "1|3|4|5,11|31|41|61"]),
    (["--format", "human", "solve", "--pool", "pool.txt", "--modulus", "120", "--target", "1"],
     ["# command=solve format=human pool=pool.txt modulus=120 target=1 min_size=3",
      "11 · 31 · 41 · 61 ≡ 1 (mod 120)"]),
], ids=["construct-csv", "construct-csv-caps", "census-human", "census-json-other", "solve-csv", "solve-human"])
def test_cli_formats_exact(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pool.txt").write_text("7\n11\n13\n31\n41\n61\n", encoding="utf-8")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out.splitlines(), err) == (0, expected, "")


def test_cli_capacity_exit_code(capsys):
    # refused before any sieving
    code, out, err = run_cli(capsys, "census", "--limit", str(korselt.ENUMERATION_CAP + 1),
                             "--modulus", "4")
    assert (code, out) == (3, "")
    assert f"enumeration cap {korselt.ENUMERATION_CAP}" in err
    # checked before the per-class table is built
    code, out, err = run_cli(capsys, "census", "--limit", "1000", "--modulus", "2000000")
    assert (code, out) == (3, "")
    assert f"census modulus cap {korselt.CENSUS_MODULUS_CAP}" in err
    cap = f"divisor cap {pipeline.DIVISOR_CAP}"
    # the product of the first 18 primes has 2**18 divisors
    first_18 = math.prod((2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61))
    code, out, err = run_cli(capsys, "construct", "--modulus", "1", "--residue", "1",
                             "--lambda", str(first_18))
    assert (code, out) == (3, "") and cap in err
    # without --x-cap, x = (M*L)**5 lies above every one of the 2**21 divisors of L
    code, out, err = run_cli(capsys, "construct", "--mode", "agp", "--modulus", "1",
                             "--residue", "0", "--y", "60", "--theta", "1.5", "--B", "2/5")
    assert (code, out) == (3, "") and cap in err
    # at B = 1/100000 the faithful x, (M*L)**200000, passes X_MAX_BITS: it needs --x-cap
    agp = ["construct", "--mode", "agp", "--modulus", "1", "--residue", "0", "--y", "5",
           "--theta", "1.5", "--B", "1/100000"]
    code, out, err = run_cli(capsys, *agp)
    assert (code, out) == (3, "")
    assert err == ("error: x would need ~1400000 bits (> 1000000 working);"
                   " set x_cap (--x-cap) instead\n")
    code, _, err = run_cli(capsys, *agp, "--x-cap", "1000")
    assert (code, err) == (1, "pool of 2 primes is too small\n")


def test_cli_big_numbers_are_named_by_size(capsys):
    # L is the product of 49448 primes, 309944 digits: past Python's digit
    # limit for int-to-str, so the divisor-cap message names L by its size
    code, out, err = run_cli(capsys, "construct", "--mode", "agp", "--modulus", "1",
                             "--residue", "0", "--y", "3000", "--theta", "1.9", "--B", "2/5",
                             "--x-cap", "1000000000000", "--k-cap", "100",
                             "--no-qr-filter", "--no-residue-filter")
    assert (code, out) == (3, "")
    assert err == (f"error: L of 49448 primes (1029611 bits) has more divisors to list"
                   f" than the divisor cap {pipeline.DIVISOR_CAP}\n")
    # the digit limit still holds for arguments, and after the run
    with pytest.raises(SystemExit) as ei:
        cli.main(["verify", "1" * 4301])
    assert ei.value.code == 2 and "invalid int value" in capsys.readouterr().err
    with pytest.raises(ValueError):
        str(10**4300)


def test_cli_construct_agp_float_overflow_is_no_traceback(capsys):
    agp = ("construct", "--mode", "agp", "--modulus", "1", "--residue", "0",
           "--x-cap", "1000000", "--k-cap", "10", "--no-qr-filter", "--no-residue-filter")
    # a window end y**theta beyond a float is beyond the sieve capacity
    for y, theta in ((10**400, "1.5"), (10**200, "1.9"), (10**8, "1.9")):
        code, out, err = run_cli(capsys, *agp, "--y", str(y), "--theta", theta, "--B", "2/5")
        assert (code, out) == (3, "")
        assert f"exceeds sieve capacity {sieve.SIEVE_CAPACITY}" in err
    # a B too small for log2 x to be a float is recorded as inf; the capped scan runs as usual
    runs = [run_cli(capsys, *agp, "--y", "30", "--theta", "1.3", "--B", B)
            for B in ("1e-400", f"1/{10**300}")]
    none = ("no qualifying subset in pool of 9 primes; "
            "exhaustive scan of 512 subsets confirms none exists\n")
    assert [(code, err) for code, _, err in runs] == [(1, none), (1, none)]


def test_cli_construct_agp_k0_scan_cap(capsys):
    cap = f"k0 scan cap {pipeline.K0_SCAN_CAP}"
    agp = ("construct", "--mode", "agp", "--modulus", "1", "--residue", "0", "--B", "2/5",
           "--x-cap", "1000000000000", "--no-qr-filter", "--no-residue-filter")
    for extra in (("--y", "40", "--theta", "1.5"),
                  ("--y", "30", "--theta", "1.3", "--pool-cap", "30",
                   "--k-cap", "1000000000000")):
        code, out, err = run_cli(capsys, *agp, *extra)
        assert (code, out) == (3, "") and cap in err


def spy_moduli(monkeypatch):
    """The moduli every table of subset products is formed mod, in call order."""
    moduli, products = [], _kernels.all_subset_products

    def spy(res, m):
        moduli.append(m)
        return products(res, m)

    monkeypatch.setattr(_kernels, "all_subset_products", spy)
    return moduli


def test_cli_construct_agp_miss_searches_int64_blocks(capsys, monkeypatch):
    # agp moduli M*L are far above 2**31, yet the search and the exhaustive scan
    # of a 24-prime miss form their products mod the int64 columns of M*L
    moduli = spy_moduli(monkeypatch)
    code, out, err = run_cli(capsys, "construct", "--mode", "agp", "--modulus", "1",
                             "--residue", "0", "--y", "40", "--theta", "1.3", "--B", "2/5",
                             "--x-cap", "1000000000000", "--k-cap", "100", "--pool-cap", "24",
                             "--no-qr-filter", "--no-residue-filter")
    assert code == 1
    assert err == ("no qualifying subset in pool of 24 primes; "
                   "exhaustive scan of 16777216 subsets confirms none exists\n")
    # two columns, each for both halves of the search and the scan's low-bits table
    assert len(moduli) == 6
    assert all(m < _kernels.INT64_MOD_LIMIT for m in moduli), moduli


@pytest.mark.parametrize(("argv", "code", "out_end", "err"), [
    ("--format csv construct --modulus 37 --residue 5 --lambda 5354228880 --pool-cap 40", 0,
     "121129872795075933788265096470641,41|47|67|127|137|191|211|277|337|397|409|419|457"
     "|461,erdos,0,5354228880,37,5\n", ""),
    ("construct --mode agp --modulus 1 --residue 0 --y 30 --theta 1.5 --B 2/5 --x-cap"
     " 1000000000000 --k-cap 500 --no-qr-filter --no-residue-filter --pool-cap 40", 1,
     '"pool_cap":40}}\n', "no qualifying subset in pool of 40 primes\n"),
], ids=["erdos-m37-hit", "agp-pool-40-miss"])
def test_cli_construct_40_primes_above_2_31(argv, code, out_end, err, capsys, monkeypatch):
    # Lambda = 720720 * 17 * 19 * 23 with M = 37, and M*L = 59 * 67 * ... * 163: both
    # moduli pass 2**31, and both searches form every table mod a column below it
    moduli = spy_moduli(monkeypatch)
    got = run_cli(capsys, *argv.split())
    assert (got[0], got[2]) == (code, err) and got[1].endswith(out_end), got
    assert moduli and all(m < _kernels.INT64_MOD_LIMIT for m in moduli), moduli


def test_cli_output_file(tmp_path, capsys):
    out_path = tmp_path / "out.jsonl"
    code, out, _ = run_cli(capsys, "--output", str(out_path), "verify", "561")
    assert code == 0 and out == ""
    content = out_path.read_text(encoding="utf-8")
    assert content.endswith("\n")
    assert cli.parse_certificate(content.splitlines()[1]).n == 561
    # a directory is not a writable output file
    code, out, err = run_cli(capsys, "--output", str(tmp_path), "verify", "561")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_cli_deterministic_across_threads(capsys):
    runs = []
    for threads in ("1", "2", "4"):
        code, out, _ = run_cli(capsys, "--threads", threads, "--format", "csv",
                               "census", "--limit", "20000", "--modulus", "4")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1] == runs[2]


def test_cli_repeat_run_byte_identical(capsys):
    a = run_cli(capsys, "construct", "--modulus", "4", "--residue", "3", "--lambda", "630")
    b = run_cli(capsys, "construct", "--modulus", "4", "--residue", "3", "--lambda", "630")
    assert a == b


def test_cli_global_flags_after_subcommand(tmp_path, capsys):
    before = run_cli(capsys, "--format", "csv", "--threads", "2",
                     "census", "--limit", "10000", "--modulus", "4")
    after = run_cli(capsys, "census", "--limit", "10000", "--modulus", "4",
                    "--format", "csv", "--threads", "2")
    assert before == after and before[0] == 0
    assert cli.parse_args(["verify", "561", "--threads", "3"]).threads == 3
    # a flag after the subcommand overrides the same flag before it
    assert cli.parse_args(["--format", "csv", "verify", "561", "--format", "human"]).format == "human"
    out_path = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "verify", "561", "--output", str(out_path))
    assert code == 0 and out == ""
    assert cli.parse_certificate(out_path.read_text(encoding="utf-8").splitlines()[1]).n == 561
    with pytest.raises(SystemExit) as ei:
        cli.parse_args(["verify", "561", "--threads", "0"])
    assert ei.value.code == 2


def test_cli_calls_share_a_parser_and_nothing_else(tmp_path, capsys):
    # one parser serves every call in the process; each call's header and
    # destination follow its own global flags, before or after the subcommand
    assert cli.build_parser() is cli.build_parser()
    out_path = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, "--format", "csv", "--output", str(out_path), "verify", "561")
    assert (code, out) == (0, "")
    assert out_path.read_text(encoding="utf-8").splitlines()[0] == "# command=verify format=csv n=561"
    code, out, _ = run_cli(capsys, "verify", "561", "--format", "human")
    assert code == 0 and out.splitlines()[0] == "# command=verify format=human n=561"
    code, out, _ = run_cli(capsys, "verify", "561")
    assert code == 0
    assert out.splitlines()[0] == '{"meta":{"command":"verify","format":"json-lines","n":"561"}}'


def test_cli_construct_erdos_never_claims_absence_wrongly(monkeypatch, capsys):
    # a search that misses an existing subset must not be reported as proved empty
    monkeypatch.setattr(cli, "subset_product_find", lambda *args, **kwargs: None)
    code, out, err = run_cli(capsys, "construct", "--modulus", "4", "--residue", "3",
                             "--lambda", "630")
    assert "confirms none exists" not in err
    # an internal disagreement has its own exit code, never "completed empty"
    assert code == 4 and out == ""
    assert err == "internal error: subset search missed a subset the exhaustive scan finds\n"


def test_cli_construct_certificate_failure_is_internal_error(monkeypatch, capsys):
    # a returned subset that fails certification is a disagreement, not a capacity error
    monkeypatch.setattr(cli, "subset_product_find", lambda *args, **kwargs: (0, 1, 2))
    code, out, err = run_cli(capsys, "construct", "--modulus", "4", "--residue", "3",
                             "--lambda", "630")
    assert (code, out) == (4, "")
    assert err == "internal error: certificate check failed: korselt (n = 6479)\n"


def test_cli_solve_max_size_below_min_size_is_usage_error():
    for sizes in (("--min-size", "3", "--max-size", "2"), ("--min-size", "1", "--max-size", "0")):
        with pytest.raises(SystemExit) as ei:
            cli.parse_args(["solve", "--pool", "pool.txt", "--modulus", "120",
                            "--target", "1", *sizes])
        assert ei.value.code == 2
    cfg = cli.parse_args(["solve", "--pool", "pool.txt", "--modulus", "120", "--target", "1",
                          "--min-size", "3", "--max-size", "3"])
    assert (cfg.min_size, cfg.max_size) == (3, 3)


# Witnesses of the benchmark-scale erdos construct (Lambda = 720720, M = 19, a
# 40-prime pool), as (n, prime factors) per residue. A change to the order in
# which the subset search meets its first hit changes these lines.
ERDOS_19_WITNESSES = {
    1: ("14380935262293601", (211, 331, 463, 521, 911, 937)),
    2: ("6432714687932443168096477438801",
        (23, 211, 313, 331, 337, 397, 463, 617, 631, 661, 881, 911)),
    3: ("388109087867303857947372481",
        (17, 23, 211, 281, 313, 421, 463, 521, 617, 911, 937)),
}


def erdos_lines(M, a, Lambda, n, primes, pool_cap=None):
    """The exact stdout of an erdos construct that certifies ``n``."""
    quoted = ",".join(f'"{p}"' for p in primes)
    cap = "" if pool_cap is None else f',"pool_cap":{pool_cap}'
    return (
        '{"meta":{"command":"construct","format":"json-lines","modulus":%d,' % M
        + f'"residue":{a},"mode":"erdos","lambda":{Lambda}{cap}}}}}\n'
        f'{{"n":"{n}","primes":[{quoted}],"mode":"erdos",'
        f'"L":"0","multiplier":"{Lambda}","M":{M},"a":{a},"checks":{{"composite":true,'
        '"squarefree":true,"korselt":true,"residue_class":true,'
        '"multiplier_congruence":true,"probabilistic_primality_used":false}}\n'
    )


@pytest.mark.parametrize("a", sorted(ERDOS_19_WITNESSES))
def test_cli_construct_pool_cap_40_witnesses_pinned(a, capsys):
    n, primes = ERDOS_19_WITNESSES[a]
    code, out, _ = run_cli(capsys, "construct", "--modulus", "19", "--residue", str(a),
                           "--lambda", "720720", "--pool-cap", "40")
    assert code == 0
    assert out == erdos_lines(19, a, 720720, n, primes, pool_cap=40)


# Witnesses of the DP-sized erdos construct (Lambda = 65520, M = 11: a 41-prime
# pool searched by the unit-group DP mod 720720), as (n, prime factors) per
# residue. They match the all-residue DP the unit-group table replaced.
ERDOS_11_WITNESSES = {
    1: ("12026646712081", (17, 19, 29, 31, 61, 71, 73, 131)),
    2: ("75151441", (17, 19, 29, 71, 113)),
    3: ("120794452571521", (41, 53, 73, 127, 157, 181, 211)),
    4: ("443401918174444321", (17, 19, 29, 31, 37, 73, 113, 131, 181, 211)),
    5: ("121194695447281", (17, 31, 41, 61, 71, 73, 113, 157)),
    6: ("335642734654849441", (17, 19, 31, 41, 61, 73, 79, 113, 131, 157)),
    7: ("8083655798401", (29, 31, 53, 73, 113, 131, 157)),
    8: ("6828471333159250321", (17, 37, 41, 61, 71, 79, 113, 157, 181, 241)),
    9: ("166813424738971921", (17, 29, 31, 37, 41, 61, 73, 79, 113, 181)),
    10: ("1347465927815281", (17, 19, 31, 41, 53, 61, 71, 79, 181)),
}


@pytest.mark.parametrize("a", sorted(ERDOS_11_WITNESSES))
def test_cli_construct_dp_witnesses_pinned(a, capsys):
    n, primes = ERDOS_11_WITNESSES[a]
    code, out, err = run_cli(capsys, "construct", "--modulus", "11", "--residue", str(a),
                             "--lambda", "65520")
    assert (code, err) == (0, "")
    assert out == erdos_lines(11, a, 65520, n, primes)


def test_cli_construct_full_720720_pool_certifies(capsys):
    # all 75 primes with p - 1 | 720720: 4 * 76 * phi(720720) = 42e6 table cells
    code, out, err = run_cli(capsys, "construct", "--modulus", "1", "--residue", "0",
                             "--lambda", "720720")
    assert (code, err) == (0, "")
    assert out == erdos_lines(1, 0, 720720, "12026646712081",
                              (17, 19, 29, 31, 61, 71, 73, 131))


def test_cli_dp_capacity_guard_allocates_nothing(tmp_path, capsys):
    # 2**31 - 1 is prime: a 41-element pool would need 42 * 4 * (2**31 - 2) cells
    pool_file = tmp_path / "pool.txt"
    pool_file.write_text("".join(f"{e}\n" for e in range(2, 43)), encoding="utf-8")
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "solve", "--pool", str(pool_file),
                                 "--modulus", str((1 << 31) - 1), "--target", "5")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert f"(> {solver.DP_CELL_BOUND})" in err
    assert peak < 4 << 20, peak
    # the full 74-prime pool mod lcm(720720, 19): 4 * 75 * 2488320 cells on the units
    code, out, err = run_cli(capsys, "construct", "--modulus", "19", "--residue", "1",
                             "--lambda", "720720")
    assert (code, out) == (3, "")
    assert err == (
        f"error: DP table would need 746496000 cells (> {solver.DP_CELL_BOUND}); "
        "reduce the pool\n"
    )


def test_cli_solve_dp_non_unit_target(tmp_path, capsys):
    # a product of units is a unit: target 3 mod 15 is out of reach of any pool
    rng = random.Random(59)
    pool_file = tmp_path / "pool.txt"
    units = [u for u in range(15) if math.gcd(u, 15) == 1]
    pool_file.write_text("".join(f"{rng.choice(units) + 15 * i}\n" for i in range(45)),
                         encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", "--pool", str(pool_file),
                             "--modulus", "15", "--target", "3")
    assert (code, err) == (1, "no qualifying subset\n")
    assert len(out.splitlines()) == 1  # the meta header alone
    # mod 1 the only residue, 0, is a unit and every subset of 3 or more qualifies
    code, out, _ = run_cli(capsys, "solve", "--pool", str(pool_file),
                           "--modulus", "1", "--target", "0")
    assert code == 0
    assert len(json.loads(out.splitlines()[1])["indices"]) >= 3
