"""Checks on files outside the package that depend on it.

The benchmark's tracer (perfbench/tracing.py) times gctl's layers by
swapping module attributes it names in `HOOKS`.  A renamed or deleted
attribute breaks `perfbench/run.py --trace 1`, so every name must resolve.
The model files and the README's model examples must read and validate, so
the documented grammar cannot drift from the parser."""

import importlib
import importlib.util
import pathlib
import re

import pytest

from gctl.hsm import validate_shsm
from gctl.modelfile import parse_model

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
# Model texts by name: the model files, and each fenced README block that
# starts with a 'machine' line.
DOCUMENTED_MODELS = {
    **{f"models/{p.name}": p.read_text()
       for p in sorted((ROOT / "models").glob("*.gctl"))},
    **{f"README.md block {i}": text for i, text in enumerate(re.findall(
        r"^```\n(machine .*?)^```", (ROOT / "README.md").read_text(),
        re.MULTILINE | re.DOTALL))},
}


def test_tracer_hooks_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr, *_ in tracing.HOOKS
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.HOOKS and missing == []


@pytest.mark.parametrize("name", DOCUMENTED_MODELS)
def test_documented_models_parse_and_validate(name):
    assert validate_shsm(parse_model(DOCUMENTED_MODELS[name])) == []


def test_readme_has_model_examples():
    assert any(name.startswith("README") for name in DOCUMENTED_MODELS)
