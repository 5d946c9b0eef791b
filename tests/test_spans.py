"""The traced benchmark still hooks into carmkit: every function perfbench/spans.py
wraps exists under its name, and a traced erdos and agp construct records time
in the pipeline and solver spans the benchmark reports."""

import importlib
import importlib.util
from pathlib import Path

from carmkit import cli, pipeline

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = load_spans()
    missing = [f"carmkit.{home}.{fn}" for home, fn, _, _ in spans.TRACED
               if not callable(getattr(importlib.import_module(f"carmkit.{home}"), fn, None))]
    assert not missing


def test_tracer_records_construct_spans(capsys):
    spans = load_spans()
    originals = (pipeline.find_k0, pipeline.build_pool, cli.erdos_pool, cli.subset_product_find)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["construct", "--modulus", "4", "--residue", "3", "--lambda", "630"]) == 0
        # a pool of 4 primes and no qualifying subset: exit 1 after a full search
        assert cli.main(["construct", "--mode", "agp", "--modulus", "3", "--residue", "1",
                         "--y", "40", "--theta", "1.5", "--B", "2/5",
                         "--x-cap", "1000000000000", "--k-cap", "100", "--pool-cap", "32"]) == 1
    finally:
        tracer.restore()
    capsys.readouterr()
    layers = tracer.snapshot()
    for name in ("pipeline.find_k0.s", "pipeline.find_k0.tests", "pipeline.build_pool.s",
                 "pipeline.erdos_pool.s", "solver.subset_product_find.mitm.s"):
        assert layers[name] > 0, name
    # restore() puts every original binding back
    assert originals == (pipeline.find_k0, pipeline.build_pool, cli.erdos_pool,
                         cli.subset_product_find)
