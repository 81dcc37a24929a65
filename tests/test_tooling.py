"""Checks on files outside the package that depend on it.

The benchmark's tracer (perfbench/tracing.py) times gctl's layers by
swapping module attributes it names in `HOOKS`.  A renamed or deleted
attribute breaks `perfbench/run.py --trace 1`, so every name must resolve,
and a pass called other than through its module attribute would read 0, so
the pass hooks and the flat path's hooks must record spans, with a graded
pass's stages nested under it.  The stored seed-1 `hier_check` and
`witness_traces` references must pass the benchmark's own output check, so
a change that breaks a benchmark request fails here before a benchmark run.
The model files and the README's model examples must read and validate, so
the documented grammar cannot drift from the parser, the README's command
lines must run with the exit codes and trace it shows, and every name the
package exports or the README cites as `gctl.<module>.<name>` must exist, so
a deletion cannot leave the docs naming something gone."""

import importlib
import importlib.util
import pathlib
import re
import shlex
import shutil
import sys

import pytest

from gctl.cli import main
from gctl.gen import random_shsm
from gctl.hsm import validate_shsm
from gctl.modelfile import parse_model, render_model

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"
README = (ROOT / "README.md").read_text()
# Model texts by name: the model files, and each fenced README block that
# starts with a 'machine' line.
DOCUMENTED_MODELS = {
    **{f"models/{p.name}": p.read_text()
       for p in sorted((ROOT / "models").glob("*.gctl"))},
    **{f"README.md block {i}": text for i, text in enumerate(re.findall(
        r"^```\n(machine .*?)^```", README, re.MULTILINE | re.DOTALL))},
}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _perfbench_run(monkeypatch):
    """perfbench/run.py as a module; it imports perfbench/workloads.py.
    Nothing is written under perfbench/, bytecode caches included."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_witness_trace_references_replay(tmp_path, monkeypatch):
    # Every stored seed-1 witness_traces request, checked as the benchmark
    # checks it: exit code, result, trace count, and each trace replayed on
    # the model's flattening.
    run = _perfbench_run(monkeypatch)
    refs = run.refs_file("witness_traces", 1)
    work, requests, argvs = run.setup("witness_traces", 1, refs,
                                      tmp_path / "work")
    outcomes = []
    run.run_pass(main, argvs, outcomes, [])
    failures, delivered = run.verify(work, requests, outcomes)
    assert failures == []
    assert sum(delivered) == sum(r.expect.get("traces", 0)
                                 for r in requests) > 0


def test_hier_check_references_replay(tmp_path, monkeypatch):
    # Every stored seed-1 hier_check request, checked as the benchmark
    # checks it: exit code and result.
    run = _perfbench_run(monkeypatch)
    refs = run.refs_file("hier_check", 1)
    work, requests, argvs = run.setup("hier_check", 1, refs,
                                      tmp_path / "work")
    outcomes = []
    run.run_pass(main, argvs, outcomes, [])
    failures, _ = run.verify(work, requests, outcomes)
    assert failures == []
    assert len(outcomes) == len(requests) == 192


def test_tracer_hooks_resolve():
    tracing = _tracing()
    missing = [(module, attr) for module, attr, *_ in tracing.HOOKS
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.HOOKS and missing == []


def test_tracer_pass_hooks_record_spans(tmp_path):
    # E X, grade-0 E G and graded E U / E G on a scope-labelled model.
    model = tmp_path / "scoped.gctl"
    model.write_text(render_model(random_shsm(4, 2, 2, 2, 3, 1)))
    tracer = _tracing().Tracer()
    with tracer.installed():
        code = main(["check", "--model", str(model), "--formula",
                     "E>1 X (E G p0 | E>1 [p1 U E>1 G p2])", "--engine",
                     "hier", "--output", str(tmp_path / "report.txt")])
    assert code in (0, 1)
    names = {span["name"] for span in tracer.to_json()}
    assert {"hier_checker.check_hier", "hier_checker.grade0_pass",
            "hier_checker.graded_gu_pass", "hier_checker.graded_next_pass",
            "hier_checker.compute_nsc"} <= names


def test_tracer_pass_spans_nest(tmp_path):
    # A graded pass must call its stages through their hooked module
    # attributes: a stage called through a private alias records no span,
    # and its time reads as the caller's own without breaking the
    # accounting.  The graded E U and E G passes are the only callers here.
    model = tmp_path / "scoped.gctl"
    model.write_text(render_model(random_shsm(4, 2, 2, 2, 3, 1)))
    tracer = _tracing().Tracer()
    with tracer.installed():
        code = main(["check", "--model", str(model), "--formula",
                     "E>1 [p1 U E>1 G p2]", "--engine", "hier",
                     "--output", str(tmp_path / "report.txt")])
    assert code in (0, 1)
    spans = tracer.to_json()
    parents = {}
    for span in spans:
        if span["parent"] is not None:
            parents.setdefault(span["name"], set()).add(
                spans[span["parent"]]["name"])
    graded = {"hier_checker.graded_gu_pass"}
    assert parents.get("hier_checker.grade0_pass") == graded
    assert parents.get("hier_checker.compute_nsc") == graded
    assert parents.get("flat_checker.tarjan_scc") == \
        {"hier_checker.compute_nsc"}


def test_tracer_flat_hooks_record_spans(tmp_path):
    # The flat engine's layers: flattening and the structure it builds.
    tracer = _tracing().Tracer()
    with tracer.installed():
        code = main(["check", "--model", str(ROOT / "models" / "fig2.gctl"),
                     "--formula", "E>1 F p3", "--engine", "flat",
                     "--output", str(tmp_path / "report.txt")])
    assert code in (0, 1)
    names = {span["name"] for span in tracer.to_json()}
    assert {"hsm.flatten", "kripke.KripkeStructure",
            "flat_checker.check_flat"} <= names


def test_documented_names_resolve():
    package = importlib.import_module("gctl")
    cited = re.findall(r"\bgctl\.(\w+)\.(\w+)", README)
    missing = [name for name in package.__all__
               if not hasattr(package, name)]
    missing += [f"gctl.{module}.{name}" for module, name in cited
                if not hasattr(importlib.import_module(f"gctl.{module}"),
                               name)]
    assert package.__all__ and cited and missing == []


@pytest.mark.parametrize("name", DOCUMENTED_MODELS)
def test_documented_models_parse_and_validate(name):
    assert validate_shsm(parse_model(DOCUMENTED_MODELS[name])) == []


def test_readme_has_model_examples():
    assert any(name.startswith("README") for name in DOCUMENTED_MODELS)


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    """Each `gctl ...` line of the README's command-line block runs in a
    directory holding the shipped models; only the failing `A G` check exits
    1, and it prints the counterexample the README quotes."""
    block = re.search(r"^## Command line\n+```sh\n(.*?)^```", README,
                      re.MULTILINE | re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("gctl ")]
    quoted = re.search(r"shipped retry model:\n+ *```\n *(\S+)\n", README)
    shutil.copytree(ROOT / "models", tmp_path / "models")
    monkeypatch.chdir(tmp_path)
    codes, outputs = [], []
    for line in lines:
        codes.append(main(shlex.split(line)[1:]))
        outputs.append(capsys.readouterr().out)
    failing = [i for i, line in enumerate(lines)
               if "retry.gctl" in line and "A G ((t1 & fail)" in line]
    assert len(lines) == 6 and len(failing) == 1
    assert codes == [1 if i in failing else 0 for i in range(len(lines))]
    traces = outputs[failing[0]].split("traces:\n", 1)[1]
    assert traces.split() == [quoted.group(1)]
