"""The benchmark's tracer (perfbench/tracing.py) times gctl's layers by
swapping module attributes it names in `HOOKS`.  A renamed or deleted
attribute breaks `perfbench/run.py --trace 1`, so every name must resolve."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / \
    "tracing.py"


def test_tracer_hooks_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr, *_ in tracing.HOOKS
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.HOOKS and missing == []
