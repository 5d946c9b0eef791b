"""Run one benchmark workload in a fresh process and print its figures as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --setup-only

The worker imports carmkit from the checkout's ``src`` and runs the
workload's warm-up; with --setup-only it stops there. Otherwise it runs whole
passes, closed loop with one client (a request is sent only when the previous
one has returned), for --seconds: it starts no pass that would end later,
judging by the pass before. Each pass draws fresh inputs from the seed's
stream. Every outcome is checked against the references, outside the timed
region. The first pass warms caches and is checked but not timed. With
--trace 1 the timed passes alternate untraced and traced, so the tracing cost can be
read off. The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import workloads as W  # noqa: E402


def execute(req: W.Request, cli, sieve):
    """Run one request; returns (outcome, wall seconds, cpu seconds).

    An exception escaping carmkit becomes a failed outcome (exit -1 with the
    traceback), so one bad request does not end the run.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            if req.smooth is not None:
                outcome = sieve.count_smooth_primes(*req.smooth)
            else:
                outcome = W.Outcome(cli.main(list(req.argv)), out.getvalue(), err.getvalue())
        except SystemExit as e:  # argparse usage errors
            outcome = W.Outcome(e.code if isinstance(e.code, int) else 2, "", err.getvalue())
        except Exception:
            outcome = W.Outcome(-1, "", traceback.format_exc())
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return outcome, wall, cpu


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten requests beyond it: (value, percentile)."""
    ordered = sorted(latencies, reverse=True)
    k = min(10, len(ordered) - 1)
    return ordered[k], 100.0 * (len(ordered) - k) / len(ordered)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(W.GENERATORS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import carmkit
    from carmkit import cli, sieve, solver

    if not Path(carmkit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"carmkit imported from {carmkit.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    for req in W.WARMUP[args.workload]:
        outcome, _, _ = execute(req, cli, sieve)
        if isinstance(outcome, W.Outcome) and outcome.code not in (0, 1):
            print(f"warm-up failed with exit {outcome.code}: {outcome.stderr}", file=sys.stderr)
            return 1
    if args.setup_only:
        return 0

    import numpy

    refs = W.load_refs()
    stream = W.passes(args.workload, args.seed, refs)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()

    seen: dict[tuple, tuple[object, str | None]] = {}  # request -> (outcome, failure)
    failures: list[str] = []
    passes: list[dict] = []
    attempted = failed = 0
    min_passes = 3 if tracer else 2  # the warm-up pass and one timed pass of each kind
    start = None  # the clock starts after the warm-up pass
    while start is None or len(passes) < min_passes or (
        # no pass starts that would end after --seconds, judged by the last pass
        time.perf_counter() - start + sum(passes[-1]["wall"]) < args.seconds
    ):
        requests = next(stream)
        traced = tracer is not None and len(passes) % 2 == 0 and len(passes) > 0
        if traced:
            tracer.reset()
            tracer.install()
        try:
            results = [execute(req, cli, sieve) for req in requests]
        finally:
            if traced:
                tracer.restore()
        wall = [w for _, w, _ in results]
        record = {"traced": traced, "wall": wall, "cpu": sum(c for _, _, c in results)}
        if traced:
            record["layers"] = tracer.snapshot()
            record["unattributed"] = sum(wall) - tracer.top_level_s
        passes.append(record)
        if start is None:
            start = time.perf_counter()
        for req, (outcome, _, _) in zip(requests, results):
            attempted += 1
            key = req.argv or req.smooth
            if key not in seen:
                try:
                    reason = W.check(req, outcome, refs, solver.subset_product_enumerate)
                except (ValueError, KeyError, TypeError, AttributeError) as e:
                    reason = f"malformed output: {e!r}"
                seen[key] = (outcome, reason)
            elif outcome != seen[key][0]:
                reason = "output differs from an earlier run of the same request"
            else:
                reason = seen[key][1]
            if reason is not None:
                failed += 1
                if len(failures) < 20:
                    failures.append(f"{req.stratum} {' '.join(req.argv or map(str, req.smooth))}: {reason}")

    plain = [p for p in passes[1:] if not p["traced"]]
    latencies = [w for p in plain for w in p["wall"]]
    tail_s, tail_pct = tail(latencies)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes) - 1,
        "requests_per_pass": len(requests),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "req_tail_percentile": tail_pct,
        "numpy": numpy.__version__,
        "numba_imported": "numba" in sys.modules,
        "pass_s": [sum(p["wall"]) for p in plain],
        "run_s": statistics.median(sum(p["wall"]) for p in plain),
        "cpu_s": statistics.median(p["cpu"] for p in plain),
        "req_p50_s": statistics.median(latencies),
        "req_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        traced_passes = [p for p in passes if p["traced"]]
        layers = {name: statistics.median(p["layers"][name] for p in traced_passes)
                  for name in traced_passes[0]["layers"]}
        layers["bench.unattributed_s"] = statistics.median(p["unattributed"] for p in traced_passes)
        layers["bench.trace_overhead_s"] = (
            statistics.median(sum(p["wall"]) for p in traced_passes) - result["run_s"])
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
