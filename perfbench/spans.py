"""Layer spans recorded from outside carmkit, by wrapping its functions.

Modules look functions up in their own namespace: cli binds
subset_product_find and erdos_pool by name, korselt binds factorize, pipeline
binds is_prime. So a traced function is wrapped in every carmkit module that
holds a binding to it, and ``restore`` puts every original binding back.

Spans are aggregated in memory as they close: per span name, the call count
and the self time, which is the span's duration minus the part covered by its
child spans. Counters are taken at the same boundaries, after the span closes.
Traced runs are single-threaded, so one span stack serves.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("_kernels", "arith", "korselt", "sieve", "pipeline", "solver", "cli")


def _segment(tr, ns, args, kwargs, flags):
    tr.counts["kernels.carmichael_segment.ints"] += len(flags)
    tr.counts["kernels.carmichael_segment.hits"] += int(np.count_nonzero(flags))


def _lpf(tr, ns, args, kwargs, table):
    tr.counts["kernels.lpf_range.ints"] += len(table)


def _dp(tr, ns, args, kwargs, reach):
    tr.counts["solver.dp.cells"] += reach.size


def _subset_find(tr, ns, args, kwargs, subset):
    n = len(args[0])
    tr.counts["solver.searched"] += 1
    tr.counts["solver.found"] += subset is not None
    if n <= tr.mitm_limit:
        tr.counts["solver.mitm.products"] += (1 << (n + 1) // 2) + (1 << n // 2)


def _k0(tr, ns, args, kwargs, result):
    L_fact, k_cap = args[0], args[5]
    L, n_divisors = L_fact.value(), math.prod(e + 1 for _, e in L_fact)
    coprime = sum(1 for k in range(1, k_cap + 1) if math.gcd(k, L) == 1)
    tr.counts["pipeline.find_k0.tests"] += n_divisors * coprime


def _pool(tr, ns, args, kwargs, pool):
    tr.counts["pipeline.pool_primes"] += len(pool)


def _prime(tr, ns, args, kwargs, result):
    if ns == "pipeline":
        tr.counts["pipeline.primality_tests"] += 1


def _find_span(tr, args):
    return "solver.subset_product_find." + ("mitm" if len(args[0]) <= tr.mitm_limit else "dp")


# (home module, function, span name or chooser, counter hook)
TRACED = (
    ("_kernels", "sieve_primes", "kernels.sieve_primes", None),
    ("_kernels", "lpf_range", "kernels.lpf_range", _lpf),
    ("_kernels", "carmichael_segment", "kernels.carmichael_segment", _segment),
    ("_kernels", "dp_reach", "kernels.dp_reach", _dp),
    ("_kernels", "all_subset_products", "kernels.all_subset_products", None),
    ("arith", "factorize", "arith.factorize", None),
    ("arith", "is_prime", "arith.is_prime", _prime),
    ("korselt", "korselt_check", "korselt.korselt_check", None),
    ("korselt", "enumerate_carmichael", "korselt.enumerate_carmichael", None),
    ("korselt", "census", "korselt.census", None),
    ("sieve", "build_Q", "sieve.build_Q", None),
    ("sieve", "count_smooth_primes", "sieve.count_smooth_primes", None),
    ("pipeline", "find_k0", "pipeline.find_k0", _k0),
    ("pipeline", "build_pool", "pipeline.build_pool", _pool),
    ("pipeline", "erdos_pool", "pipeline.erdos_pool", _pool),
    ("pipeline", "run_agp_construction", "pipeline.run_agp_construction", None),
    ("solver", "derive_target", "solver.derive_target", None),
    ("solver", "subset_product_find", _find_span, _subset_find),
    ("solver", "subset_product_enumerate", "solver.subset_product_enumerate", None),
    ("solver", "assemble", "solver.assemble", None),
    ("cli", "parse_args", "cli.parse", None),
    ("cli", "emit_certificate", "cli.emit", None),
    ("cli", "emit_census", "cli.emit", None),
    ("cli", "_header_lines", "cli.emit", None),
)


class Tracer:
    """Span aggregates for one traced pass; install() wraps, restore() unwraps."""

    def __init__(self):
        self.mitm_limit = importlib.import_module("carmkit.solver").MITM_LIMIT
        self._bindings: list[tuple[object, str, object]] = []
        self.stack: list[float] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.top_level_s = 0.0

    def reset(self) -> None:
        """Clear the aggregates in place: the wrappers hold these objects."""
        self.stack.clear()
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.top_level_s = 0.0

    def _wrap(self, fn, ns: str, span, hook):
        stack, self_s, calls, clock = self.stack, self.self_s, self.calls, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            name = span if isinstance(span, str) else span(tracer, args)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[name] += dt - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += dt
                else:
                    tracer.top_level_s += dt
            if hook is not None:
                hook(tracer, ns, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"carmkit.{m}") for m in MODULES}
        targets = {id(getattr(modules[home], fn)): (span, hook) for home, fn, span, hook in TRACED}
        for ns, module in modules.items():
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    span, hook = targets[id(value)]
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, ns, span, hook))

    def restore(self) -> None:
        for module, attr, value in reversed(self._bindings):
            setattr(module, attr, value)
        self._bindings.clear()

    def snapshot(self) -> dict:
        """Per-layer values of the pass traced since the last reset."""
        s, c, n = self.self_s, self.calls, self.counts
        return {
            "kernels.carmichael_segment.s": s["kernels.carmichael_segment"],
            "kernels.carmichael_segment.calls": c["kernels.carmichael_segment"],
            "kernels.carmichael_segment.ints": n["kernels.carmichael_segment.ints"],
            "kernels.carmichael_segment.hits": n["kernels.carmichael_segment.hits"],
            "kernels.lpf_range.s": s["kernels.lpf_range"],
            "kernels.lpf_range.ints": n["kernels.lpf_range.ints"],
            "kernels.sieve_primes.s": s["kernels.sieve_primes"],
            "kernels.dp_reach.s": s["kernels.dp_reach"],
            "sieve.count_smooth_primes.s": s["sieve.count_smooth_primes"],
            "korselt.enumerate_carmichael.s": s["korselt.enumerate_carmichael"],
            # every segment is one kernel call
            "korselt.enumerate_carmichael.segments": c["kernels.carmichael_segment"],
            "korselt.korselt_check.calls": c["korselt.korselt_check"],
            "solver.subset_product_find.mitm.s": s["solver.subset_product_find.mitm"],
            "solver.mitm.products": n["solver.mitm.products"],
            "solver.subset_product_find.dp.s": s["solver.subset_product_find.dp"],
            "solver.dp.cells": n["solver.dp.cells"],
            "solver.found_ratio": _ratio(n["solver.found"], n["solver.searched"]),
            "solver.assemble.s": s["solver.assemble"],
            "solver.derive_target.s": s["solver.derive_target"],
            "pipeline.find_k0.s": s["pipeline.find_k0"],
            "pipeline.find_k0.tests": n["pipeline.find_k0.tests"],
            "pipeline.pool_yield": _ratio(n["pipeline.pool_primes"], n["pipeline.primality_tests"]),
            "pipeline.build_pool.s": s["pipeline.build_pool"],
            "pipeline.erdos_pool.s": s["pipeline.erdos_pool"],
            "arith.factorize.s": s["arith.factorize"],
            "arith.factorize.calls": c["arith.factorize"],
            "arith.is_prime.s": s["arith.is_prime"],
            "arith.is_prime.calls": c["arith.is_prime"],
            "cli.parse.s": s["cli.parse"],
            "cli.emit.s": s["cli.emit"],
        }


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
