"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import json
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gctl.cli import main as gctl_main  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload to a few tiny models."""
    monkeypatch.setattr(workloads, "HIER_SHAPES",
                        ((4, 1, 1, 2, False), (3, 3, 2, 2, True)))
    monkeypatch.setattr(workloads, "HIER_FORMULAS", 3)
    monkeypatch.setattr(workloads, "FLAT_STATES", (40, 60))
    monkeypatch.setattr(workloads, "FLAT_CONJUNCTS", (3, 4))
    monkeypatch.setattr(workloads, "WITNESS_SHAPES",
                        ((5, 1, 1, 2, False), (3, 3, 2, 2, True)))


def _run_once(workload, seed, tmp_path, tamper=None, trace=False):
    refs = tmp_path / "refs.json"
    run.write_references(workload, seed, refs)
    if tamper is not None:
        doc = json.loads(refs.read_text())
        tamper(doc["requests"])
        refs.write_text(json.dumps(doc))
    work, requests, argvs = run.setup(workload, seed, refs, tmp_path / "work")
    outcomes, walls = [], []
    tracer = tracing.Tracer()
    if trace:
        with tracer.installed():
            run.run_pass(gctl_main, argvs, outcomes, walls, tracer)
    else:
        run.run_pass(gctl_main, argvs, outcomes, walls)
    failures, delivered = run.verify(work, requests, outcomes)
    return requests, failures, delivered, tracer, walls


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests_and_references(small, workload):
    a = workloads.generate(workload, 5)
    b = workloads.generate(workload, 5)
    assert [m.text for m in a.models] == [m.text for m in b.models]
    assert a.candidates == b.candidates
    ra = workloads.compute_references(a)
    rb = workloads.compute_references(b)
    assert [(r.rid, r.formula, r.expect) for r in ra] == \
        [(r.rid, r.formula, r.expect) for r in rb]
    other = workloads.generate(workload, 6)
    assert other.candidates != a.candidates


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stored_references_are_current(workload):
    stored = json.loads(run.refs_file(workload, run.DEFAULT_SEED).read_text())
    fresh = workloads.compute_references(
        workloads.generate(workload, run.DEFAULT_SEED))
    assert [(r["id"], r["formula"], r["expect"]) for r in stored["requests"]] \
        == [(r.rid, r.formula, r.expect) for r in fresh]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_correct_outputs_pass(small, workload, tmp_path):
    requests, failures, delivered, _t, _w = _run_once(workload, 3, tmp_path)
    assert failures == []
    if workload == "witness_traces":
        assert sum(delivered) == sum(r.expect["traces"] for r in requests) > 0


def test_wrong_reference_verdict_is_a_failure(small, tmp_path):
    def flip(requests):
        first = requests[0]["expect"]
        first["result"] = not first["result"]
        first["exit"] = 1 - first["exit"]
    requests, failures, _d, _t, _w = _run_once("hier_check", 3, tmp_path,
                                               tamper=flip)
    assert [f[0] for f in failures] == [requests[0].rid]


def test_wrong_trace_count_is_a_failure(small, tmp_path):
    def more(requests):
        for r in requests:
            r["expect"]["traces"] += 1
    requests, failures, _d, _t, _w = _run_once("witness_traces", 3, tmp_path,
                                               tamper=more)
    assert sorted(f[0] for f in failures) == sorted(r.rid for r in requests)


def test_trace_that_does_not_replay_is_a_failure(small, tmp_path):
    work = workloads.generate("witness_traces", 3)
    requests = workloads.compute_references(work)
    r = next(r for r in requests if r.expect["traces"])
    index = requests.index(r)
    doc = {"result": r.expect["result"], "stats": {},
           "traces": [{"states": ["nowhere"], "loop_start": None}]
           * r.expect["traces"]}
    failures, _ = run.verify(work, requests,
                             [(index, r.expect["exit"], json.dumps(doc), "")])
    assert failures and "does not replay" in failures[0][2]


def test_exception_and_capacity_exit_are_failures(small, tmp_path):
    work = workloads.generate("hier_check", 3)
    requests = workloads.compute_references(work)
    failures, _ = run.verify(work, requests, [(0, None, "", "KeyError: x"),
                                              (1, 4, "", "capacity: big")])
    assert [f[0] for f in failures] == [requests[0].rid, requests[1].rid]


def test_wrappers_restore_every_attribute():
    import importlib
    originals = [(importlib.import_module(mod), attr,
                  getattr(importlib.import_module(mod), attr))
                 for mod, attr, _name, _counts in tracing.HOOKS]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for module, attr, original in originals:
                assert getattr(module, attr) is not original
                assert getattr(module, attr).__wrapped__ is original
            raise RuntimeError("leave the block early")
    for module, attr, original in originals:
        assert getattr(module, attr) is original


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_spans_account_for_wall_time(small, workload, tmp_path):
    _r, failures, delivered, tracer, walls = _run_once(workload, 3, tmp_path,
                                                       trace=True)
    assert failures == []
    metrics, worst = tracing.layer_metrics(tracer.spans, walls, delivered)
    assert worst < 1e-6
    names = {s[0] for s in tracer.spans}
    assert all(isinstance(s[4], int) for s in tracer.spans)
    if workload == "flat_check":
        assert not any(n.startswith("hier_checker.") for n in names)
    else:
        assert "hier_checker.check_hier" in names
    if workload == "witness_traces":
        assert metrics["hsm.flatten.calls_per_request"] == 1


def test_metric_names_and_units():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        tracing.LAYER_UNITS
    for units in (run.END_TO_END_UNITS, run.REPORTED_UNITS,
                  tracing.LAYER_UNITS):
        for name, unit in units.items():
            assert pattern.fullmatch(name) and unit
    gated = [w["name"] for w in doc["workloads"]]
    assert gated == [w for w in workloads.WORKLOADS if w in gated]
