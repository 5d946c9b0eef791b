"""carmkit benchmark: one seeded workload, checked, with every metric named.

    python3 perfbench/run.py --workload census-verify|construct|agp \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; carmkit is imported from its ``src``.
Every process runs a single thread of carmkit work (``--threads 1``,
``CARMKIT_THREADS=1``). With --trace 0 the run reports the end-to-end
metrics:

- setup_s: median wall time of fresh processes that start Python, import
  carmkit and run the workload's warm-up request;
- run_s, cpu_s: median wall and CPU time of one pass over the seed's
  request list (one fresh worker process runs passes for S seconds);
- req_p50_s, req_tail_s: median request latency, and the latency at the
  highest percentile with ten requests beyond it (named in the config line);
- peak_rss_mb: the worker's high-water resident memory;
- ok_ratio: 1 - failed / attempted.

With --trace 1 it reports the per-layer metrics from spans recorded around
the calls into each carmkit module (see spans.py). Stdout ends with a
``{"config": ...}`` line and then the result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("census-verify", "construct", "agp")
SETUP_SAMPLES = 5
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "cpu_s": "s",
    "req_p50_s": "s",
    "req_tail_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

COUNT_SUFFIXES = (".calls", ".ints", ".hits", ".segments", ".products", ".cells", ".tests")


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    return "ratio"


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(CARMKIT_THREADS="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


def git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(WORKER), *args], capture_output=True, text=True,
                          cwd=ROOT, env=worker_env(), timeout=timeout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "carmkit" / "__init__.py").is_file():
        print(f"no carmkit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 60:
        print("--seconds must lie in [1, 60]", file=sys.stderr)
        return 2

    start = time.perf_counter()

    def remaining() -> float:
        return max(1.0, DEADLINE_S - (time.perf_counter() - start))

    setup_samples = []
    try:
        if not args.trace:
            # the first process fills the bytecode cache, as an installed package has it
            for i in range(SETUP_SAMPLES + 1):
                t0 = time.perf_counter()
                done = run_worker(["--workload", args.workload, "--setup-only"], remaining())
                if done.returncode != 0:
                    print(f"set-up failed:\n{done.stderr}", file=sys.stderr)
                    return 1
                if i:
                    setup_samples.append(time.perf_counter() - t0)
        done = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)], remaining())
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {DEADLINE_S} s", file=sys.stderr)
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"worker failed with exit {done.returncode}:\n{done.stderr}", file=sys.stderr)
        return 1
    res = json.loads(lines[-1])
    for reason in res["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)

    config = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": 1,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "numba_imported": res["numba_imported"],
        "nproc": os.cpu_count(),
        "passes": res["passes"],
        "requests_per_pass": res["requests_per_pass"],
        "req_tail_percentile": res["req_tail_percentile"],
        "setup_samples_s": setup_samples,
        "pass_s": res["pass_s"],
    }
    if args.trace:
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in res["layers"].items()}
    else:
        values = dict(res, setup_s=statistics.median(setup_samples),
                      ok_ratio=1 - res["failed"] / res["attempted"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"config": config}))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
