"""Command-line surface: verify / census / construct / solve.

Output is deterministic and machine-first: json-lines by default (big
integers as decimal strings, never floats), csv and human formats on
request. Exit codes: 0 = at least one result, 1 = completed empty,
2 = usage error (including out-of-range construct parameters, a malformed
or unreadable pool file and an unwritable --output), 3 = capacity or
infeasibility, 4 = internal error (two independent computations disagreed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .arith import factorize
from .errors import AssemblyError, CarmkitError, DomainError
from .korselt import Census, census, korselt_check
from .pipeline import (
    Caps,
    ConstructionParams,
    PoolFilters,
    erdos_pool,
    run_agp_construction,
)
from .solver import (
    ENUMERATE_LIMIT,
    AssemblySpec,
    CarmichaelCertificate,
    assemble,
    derive_target,
    subset_product_enumerate,
    subset_product_find,
)

FORMATS = ("json-lines", "csv", "human")


class UsageError(Exception):
    """An input the command line names is unusable at run time (exit 2)."""


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"must be a rational, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    # global flags, accepted before or after the subcommand; unset ones stay
    # out of the namespace, so a subcommand never overwrites an earlier value
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=FORMATS, help="default json-lines")
    common.add_argument("--output", metavar="PATH")
    common.add_argument("--threads", type=int, metavar="N", help="default: the CPU count")
    parser = argparse.ArgumentParser(
        prog="carmkit",
        description="Construct, search for, and certify Carmichael numbers in residue classes.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="check a single number against Korselt's criterion")
    p.add_argument("n", type=int)

    p = sub.add_parser("census", parents=[common],
                       help="count Carmichael numbers per residue class")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--modulus", type=int, required=True)

    p = sub.add_parser("construct", parents=[common],
                       help="build a Carmichael number in a residue class")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--residue", type=int, required=True)
    p.add_argument("--mode", choices=("agp", "erdos"), default="erdos")
    p.add_argument("--lambda", dest="Lambda", type=int, default=None,
                   help="smooth modulus for erdos mode")
    p.add_argument("--y", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--B", type=_rational, default=None, help="rational in (0, 5/12), e.g. 0.4 or 2/5")
    p.add_argument("--x-cap", dest="x_cap", type=int, default=None)
    p.add_argument("--k-cap", dest="k_cap", type=int, default=10_000)
    p.add_argument("--pool-cap", dest="pool_cap", type=int, default=None)
    p.add_argument("--max-factors", dest="max_factors", type=int, default=None)
    p.add_argument("--qr-filter", dest="qr_filter", action=argparse.BooleanOptionalAction,
                   default=True, help="require pool primes to be squares mod L (agp mode)")
    p.add_argument("--residue-filter", dest="residue_filter", action=argparse.BooleanOptionalAction,
                   default=True, help="require pool primes to be a mod M (agp mode)")

    p = sub.add_parser("solve", parents=[common],
                       help="subset-product search over an explicit pool")
    p.add_argument("--pool", dest="pool_file", required=True, metavar="FILE",
                   help="one decimal integer per line")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--min-size", dest="min_size", type=int, default=3)
    p.add_argument("--max-size", dest="max_size", type=int, default=None)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """The run's configuration; construct mode also gets ``params``, the
    ConstructionParams whose validation is the only check of its values."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    ns.format = getattr(ns, "format", "json-lines")
    ns.output = getattr(ns, "output", None)
    ns.threads = getattr(ns, "threads", os.cpu_count() or 1)
    if ns.threads < 1:
        parser.error("--threads must be >= 1")
    if ns.subcommand == "verify":
        if ns.n < 1:
            parser.error("n must be >= 1")
    elif ns.subcommand == "census":
        if ns.limit < 1:
            parser.error("--limit must be >= 1")
        if ns.modulus < 1:
            parser.error("--modulus must be >= 1")
    elif ns.subcommand == "construct":
        if ns.max_factors is not None and ns.max_factors < 3:
            parser.error("--max-factors must be >= 3 (Carmichael numbers have >= 3 factors)")
        try:
            ns.params = ConstructionParams(
                M=ns.modulus, a=ns.residue, mode=ns.mode,
                y=ns.y, theta=ns.theta, B=ns.B, Lambda=ns.Lambda,
                caps=Caps(x_cap=ns.x_cap, k_cap=ns.k_cap, pool_cap=ns.pool_cap),
                filters=PoolFilters(require_qr=ns.qr_filter, require_residue=ns.residue_filter),
            )
        except DomainError as e:
            parser.error(str(e))
    elif ns.subcommand == "solve":
        if ns.modulus < 1:
            parser.error("--modulus must be >= 1")
        if ns.min_size < 1:
            parser.error("--min-size must be >= 1")
        if ns.max_size is not None and ns.max_size < ns.min_size:
            parser.error(f"--max-size {ns.max_size} is below --min-size {ns.min_size}")
    return ns


# ---------------------------------------------------------------------------
# serialization


def _cert_dict(cert: CarmichaelCertificate) -> dict:
    return {
        "n": str(cert.n),
        "primes": [str(p) for p in cert.prime_factors],
        "mode": cert.mode,
        "L": str(cert.L),
        "multiplier": str(cert.shared_multiplier),
        "M": cert.M,
        "a": cert.a,
        "checks": dict(cert.checks),
    }


def emit_certificate(cert: CarmichaelCertificate, fmt: str) -> str:
    """One output line for a fully verified certificate."""
    failed = [k for k, v in cert.checks.items() if not v and k != "probabilistic_primality_used"]
    if failed:
        raise DomainError(f"refusing to emit certificate with failed checks: {failed}")
    if fmt == "json-lines":
        return json.dumps(_cert_dict(cert), separators=(",", ":"))
    if fmt == "csv":
        return "{},{},{},{},{},{},{}".format(
            cert.n, "|".join(str(p) for p in cert.prime_factors), cert.mode,
            cert.L, cert.shared_multiplier, cert.M, cert.a,
        )
    factors = " · ".join(str(p) for p in cert.prime_factors)
    shared_mod = cert.shared_multiplier * cert.L if cert.mode == "agp" else cert.shared_multiplier
    line = f"{cert.n} = {factors}"
    congruences = []
    if shared_mod:
        congruences.append(f"≡ 1 mod {shared_mod}")
    if cert.M > 1:
        congruences.append(f"≡ {cert.a} mod {cert.M}")
    if congruences:
        line += " (" + ", ".join(congruences) + ")"
    return line


def parse_certificate(line: str) -> CarmichaelCertificate:
    """Inverse of json-lines emit_certificate."""
    obj = json.loads(line)
    return CarmichaelCertificate(
        n=int(obj["n"]),
        prime_factors=tuple(int(p) for p in obj["primes"]),
        mode=obj["mode"],
        shared_multiplier=int(obj["multiplier"]),
        L=int(obj["L"]),
        M=obj["M"],
        a=obj["a"],
        checks=dict(obj["checks"]),
    )


def emit_census(result: Census, fmt: str) -> str:
    """Census table: csv rows ascending by residue; 'other' appended if nonzero."""
    rows = sorted(result.counts.items())
    if fmt == "csv":
        lines = ["residue,count"] + [f"{a},{c}" for a, c in rows]
        if result.other:
            lines.append(f"other,{result.other}")
        return "\n".join(lines) + "\n"
    if fmt == "json-lines":
        lines = [json.dumps({"residue": a, "count": c}, separators=(",", ":")) for a, c in rows]
        if result.other:
            lines.append(json.dumps({"residue": "other", "count": result.other},
                                    separators=(",", ":")))
        return "\n".join(lines) + "\n"
    lines = [f"residue {a} mod {result.modulus}: {c}" for a, c in rows]
    if result.other:
        lines.append(f"shared factor with {result.modulus}: {result.other}")
    return "\n".join(lines) + "\n"


def _meta(cfg: argparse.Namespace) -> dict:
    pairs = {
        "command": cfg.subcommand,
        "format": cfg.format,
    }
    if cfg.subcommand == "verify":
        pairs["n"] = str(cfg.n)
    elif cfg.subcommand == "census":
        pairs.update(limit=cfg.limit, modulus=cfg.modulus)
    elif cfg.subcommand == "construct":
        pairs.update(modulus=cfg.modulus, residue=cfg.residue, mode=cfg.mode)
        if cfg.mode == "erdos":
            pairs["lambda"] = cfg.Lambda
        else:
            pairs.update(y=cfg.y, theta=cfg.theta, B=str(cfg.B),
                         x_cap=cfg.x_cap, k_cap=cfg.k_cap,
                         qr_filter=cfg.qr_filter, residue_filter=cfg.residue_filter)
        if cfg.pool_cap is not None:
            pairs["pool_cap"] = cfg.pool_cap
        if cfg.max_factors is not None:
            pairs["max_factors"] = cfg.max_factors
    elif cfg.subcommand == "solve":
        pairs.update(pool=cfg.pool_file, modulus=cfg.modulus,
                     target=str(cfg.target), min_size=cfg.min_size)
        if cfg.max_size is not None:
            pairs["max_size"] = cfg.max_size
    return pairs


def _header_lines(cfg: argparse.Namespace) -> list[str]:
    # thread_count deliberately omitted: output must not vary with it
    if cfg.format == "json-lines":
        return [json.dumps({"meta": _meta(cfg)}, separators=(",", ":"))]
    kv = " ".join(f"{k}={v}" for k, v in _meta(cfg).items())
    return [f"# {kv}"]


# ---------------------------------------------------------------------------
# subcommand drivers; each returns (exit_code, output_lines)


def _run_verify(cfg: argparse.Namespace) -> tuple[int, list[str]]:
    n = cfg.n
    # a Carmichael number is odd and a Fermat pseudoprime to base 2: reject before factoring
    if n % 2 == 0 or pow(2, n - 1, n) != 1 or not korselt_check(n, f := factorize(n)):
        print(f"{n} is not a Carmichael number", file=sys.stderr)
        return 1, []
    cert = assemble(f.primes(), AssemblySpec(mode="external", multiplier=0, L=0, M=1, a=0))
    return 0, [emit_certificate(cert, cfg.format)]


def _run_census(cfg: argparse.Namespace) -> tuple[int, list[str]]:
    result = census(cfg.limit, cfg.modulus, threads=cfg.threads)
    text = emit_census(result, cfg.format)
    return (0 if result.total > 0 else 1), text.splitlines()


def _run_construct(cfg: argparse.Namespace) -> tuple[int, list[str]]:
    params = cfg.params
    M, a = params.M, params.a
    # each mode yields its pool and the modulus L that n must be 1 modulo
    if params.mode == "erdos":
        pool = erdos_pool(params.Lambda, M, params.caps.pool_cap)
        L, spec = params.Lambda, AssemblySpec("erdos", params.Lambda, 0, M, a)
    else:
        state = run_agp_construction(params)
        pool = [p for p, _ in state.pool]
        L, spec = state.L, AssemblySpec("agp", state.k0, state.L, M, a)
    if len(pool) < 3:
        print(f"pool of {len(pool)} primes is too small", file=sys.stderr)
        return 1, []
    target = derive_target(L, M, a)
    subset = subset_product_find(pool, target.modulus, target.h, 3, cfg.max_factors)
    if subset is None:
        note = ""
        if len(pool) <= ENUMERATE_LIMIT:
            if subset_product_enumerate(pool, target.modulus, target.h, 3, cfg.max_factors):
                # search and exhaustive oracle must agree
                raise AssertionError("subset search missed a subset the exhaustive scan finds")
            note = f"; exhaustive scan of {2 ** len(pool)} subsets confirms none exists"
        print(f"no qualifying subset in pool of {len(pool)} primes{note}", file=sys.stderr)
        return 1, []
    cert = assemble([pool[i] for i in subset], spec)
    return 0, [emit_certificate(cert, cfg.format)]


def _read_pool(path: str) -> list[int]:
    # bytes, so that text that is not UTF-8 is one more line that is not an integer
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    pool = []
    for lineno, line in enumerate(lines, 1):
        if line.strip():
            try:
                pool.append(int(line))
            except ValueError:
                text = line.strip().decode(errors="replace")
                raise UsageError(f"{path}:{lineno}: not an integer: {text}") from None
    return pool


def _run_solve(cfg: argparse.Namespace) -> tuple[int, list[str]]:
    pool = _read_pool(cfg.pool_file)
    subset = subset_product_find(pool, cfg.modulus, cfg.target, cfg.min_size, cfg.max_size)
    if subset is None:
        print("no qualifying subset", file=sys.stderr)
        return 1, []
    elements = [pool[i] for i in subset]
    product = 1
    for e in elements:
        product *= e
    if cfg.format == "json-lines":
        line = json.dumps(
            {
                "indices": list(subset),
                "elements": [str(e) for e in elements],
                "product": str(product % cfg.modulus),
                "target": str(cfg.target % cfg.modulus),
                "modulus": str(cfg.modulus),
            },
            separators=(",", ":"),
        )
    elif cfg.format == "csv":
        line = "indices,elements\n{},{}".format(
            "|".join(str(i) for i in subset), "|".join(str(e) for e in elements)
        )
    else:
        joined = " · ".join(str(e) for e in elements)
        line = f"{joined} ≡ {cfg.target % cfg.modulus} (mod {cfg.modulus})"
    return 0, [line]


def run(cfg: argparse.Namespace) -> int:
    driver = {
        "verify": _run_verify,
        "census": _run_census,
        "construct": _run_construct,
        "solve": _run_solve,
    }[cfg.subcommand]
    try:
        code, lines = driver(cfg)
        out = "\n".join(_header_lines(cfg) + lines) + "\n"
        if cfg.output:
            with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(out)
    except (OSError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not cfg.output:
        sys.stdout.write(out)
    return code


def main(argv=None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return run(cfg)
    except (AssertionError, AssemblyError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except CarmkitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
