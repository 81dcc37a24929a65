"""gctl benchmark: `gctl check` requests in a closed loop, outputs checked.

Run from the root of a gctl source checkout (standard library only; the
script puts ``src`` on the import path itself):

    python3 perfbench/run.py --workload hier_check --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py for shapes and why each was chosen):

* ``hier_check``     --engine hier on plain deep and scoped wide models;
* ``flat_check``     --engine flat on one-machine models of 3-4k states;
* ``witness_traces`` --engine hier --witnesses 3 on 2k-3*10^4-state models.

BENCHMARK.json gates ``hier_check`` and ``witness_traces`` only: on a
2-vCPU shared host the runs must be long to be steady, and the time for
all gated runs allows two workloads at that length.  ``flat_check`` runs
by hand, as the control on which no hierarchical layer runs.

Each request is one `gctl check` command run in-process through
``gctl.cli.main``: one client, one process, no threads, the next request
sent when the previous one returns.  Requests go round the workload's
request list in whole passes until ``--seconds`` have elapsed and at least
100 requests (so the 90th percentile has 10 samples beyond it) are done.

Every output is checked after the timed loop against references that do
not come from the engine under test.  A request fails on an exit code
other than the reference's 0/1, an uncaught exception, a JSON ``result``
that differs from the reference, a trace that does not replay under
``validate_trace`` on the model's flattening, traces that are not pairwise
distinct, or a trace count other than the reference's.  Failing requests
are listed by id.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, in which every layer boundary is wrapped
(tracing.py), and reports the per-layer metrics of the traced passes and
their wall time over that of the untraced ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
print every metric by name with its unit, ``traces_per_s`` and
``failed_ratio`` included.

References for the default seed are stored in ``refs/``; for any other
seed they are computed before timing in a child process, and that time is
reported as ``references_s``, apart from ``setup_s``.  To regenerate the
stored ones:

    python3 perfbench/run.py --workload hier_check --seed 1 \\
        --references-out perfbench/refs/hier_check-seed1.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 1
SETUP_REPEATS = 9
WARMUP_REQUESTS = 3
MIN_REQUESTS = 100
MAX_FAILURE_LINES = 40

END_TO_END_UNITS = {
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed with the others but left out of the result object: both are 0
# on some or all workloads, and `failed`/`attempted` carry the second.
REPORTED_UNITS = {"traces_per_s": "1/s", "failed_ratio": "ratio"}


def _import_gctl():
    if not (SRC / "gctl" / "__init__.py").is_file():
        print(f"perfbench: no gctl sources under {SRC}; run from the root "
              "of a gctl checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def refs_file(workload, seed):
    return REFS / f"{workload}-seed{seed}.json"


def write_references(workload, seed, path):
    from workloads import compute_references, generate
    requests = compute_references(generate(workload, seed))
    doc = {"workload": workload, "seed": seed,
           "requests": [{"id": r.rid, "model": r.model, "formula": r.formula,
                         "argv": r.argv, "expect": r.expect}
                        for r in requests]}
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _digest():
    """Hash of the benchmark and program sources that references depend on."""
    h = hashlib.sha256()
    for path in sorted(HERE.glob("*.py")) + sorted((SRC / "gctl").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _references(workload, seed):
    """Stored references for the default seed; for other seeds, computed
    in a child process and cached under .perfbench/ for these sources.
    Returns (path, seconds spent computing)."""
    stored = refs_file(workload, seed)
    if stored.is_file():
        return stored, 0.0
    path = OUT / "refs" / f"{workload}-seed{seed}-{_digest()}.json"
    if path.is_file():
        return path, 0.0
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    started = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                    workload, "--seed", str(seed), "--references-out",
                    str(partial)], check=True, timeout=170)
    os.replace(partial, path)
    return path, time.perf_counter() - started


def setup(workload, seed, refs_path, workdir):
    """Generate the model files and request list, load the references."""
    from workloads import Request, generate
    work = generate(workload, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    paths = {}
    for m in work.models:
        paths[m.name] = workdir / f"{m.name}.gctl"
        paths[m.name].write_text(m.text, encoding="utf-8")
    doc = json.loads(pathlib.Path(refs_path).read_text())
    requests = [Request(r["id"], r["model"], r["formula"], r["argv"],
                        r["expect"]) for r in doc["requests"]]
    drawn = {(c[0], c[1]) for c in work.candidates}
    stale = [r.rid for r in requests if (r.model, r.formula) not in drawn]
    if doc["workload"] != workload or doc["seed"] != seed or stale \
            or not requests:
        raise ValueError(f"references in {refs_path} do not match the "
                         f"generated {workload} inputs for seed {seed}: "
                         f"{stale[:5]}")
    argvs = [["check", "--model", str(paths[r.model]), "--formula", r.formula]
             + r.argv for r in requests]
    return work, requests, argvs


def call(main, argv):
    """One request; (exit code or None on an exception, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # a crash is a failed request, not the end
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def run_pass(main, argvs, outcomes, walls, tracer=None):
    """One closed-loop pass over the request list: each request is sent
    when the previous one has returned.  Appends (request index, code,
    stdout, stderr) to `outcomes` and wall seconds to `walls`."""
    for index, argv in enumerate(argvs):
        if tracer is not None:
            tracer.request = len(walls)
        started = time.perf_counter()
        code, out, err = call(main, argv)
        walls.append(time.perf_counter() - started)
        outcomes.append((index, code, out, err))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _evidence_length(ks, table, form, states):
    """Length of the trace prefix that is the evidence proper: the CLI
    extends until counterexamples past their last state to show why that
    state violates, and the JSON report does not say where the evidence
    ends."""
    from gctl.formula import ExistsU, ExistsX
    if isinstance(form, ExistsX):
        return 2
    if not isinstance(form, ExistsU):
        return len(states)
    left, right = table.row(form.left), table.row(form.right)
    for i, name in enumerate(states):
        try:
            s = ks.index_of(name)
        except KeyError:        # validate_trace reports the unknown state
            break
        if right[s]:
            return i + 1
        if not left[s]:
            break
    return len(states)


def _check_traces(ks, table, forms, traces):
    """Problems with the emitted traces, or [] when each replays as an
    evidence of one of `forms` and all are pairwise distinct."""
    from gctl.evidence import (FINITE, LASSO, EvidenceTrace,
                               all_pairwise_distinct, validate_trace)
    problems = []
    objects = []
    for n, t in enumerate(traces):
        kind = FINITE if t["loop_start"] is None else LASSO
        states = list(t["states"])
        trace = None
        reports = []
        for form in forms:
            candidate = EvidenceTrace(
                kind, states, t["loop_start"], form,
                _evidence_length(ks, table, form, states))
            report = validate_trace(ks, candidate, table)
            if not report:
                trace = candidate
                break
            reports.append("; ".join(report))
        if trace is None:
            problems.append(f"trace {n} does not replay: {' | '.join(reports)}")
        else:
            objects.append(trace)
    if not problems and not all_pairwise_distinct(objects):
        problems.append("traces are not pairwise distinct")
    return problems


def _outcome_key(index, code, out, err):
    """Outcomes that differ only in the reported time are checked once."""
    if code is None:
        return (index, None, err)
    try:
        doc = json.loads(out)
        doc["stats"].pop("millis", None)
        return (index, code, json.dumps(doc, sort_keys=True))
    except (ValueError, KeyError, TypeError, AttributeError):
        return (index, code, out)


def verify(work, requests, outcomes):
    """Check every outcome.  Returns the failures as (request id,
    occurrence, reason) and, per outcome, the number of traces it
    delivered that replay and are pairwise distinct."""
    from gctl.flat_checker import check_flat
    from gctl.formula import And
    from gctl.hsm import flatten
    from workloads import trace_forms

    verdicts = {}     # (request index, code, canonical output) -> reason
    pending = {}      # model name -> keys whose traces need replaying
    parsed = {}
    for index, code, out, err in outcomes:
        key = _outcome_key(index, code, out, err)
        if key in verdicts or key in parsed:
            continue
        r = requests[index]
        if code is None:
            verdicts[key] = f"uncaught {err}"
            continue
        if code != r.expect["exit"]:
            verdicts[key] = (f"exit {code}, expected {r.expect['exit']}: "
                             f"{err.strip()[:200]}")
            continue
        try:
            doc = json.loads(out)
            result, traces = doc["result"], doc["traces"]
        except (ValueError, KeyError, TypeError) as exc:
            verdicts[key] = f"unreadable JSON report ({exc})"
            continue
        if result is not r.expect["result"]:
            verdicts[key] = f"result {result}, expected {r.expect['result']}"
            continue
        if len(traces) != r.expect.get("traces", 0):
            verdicts[key] = (f"{len(traces)} traces, expected "
                             f"{r.expect.get('traces', 0)}")
            continue
        if traces:
            parsed[key] = (trace_forms(r.formula, result), traces)
            pending.setdefault(r.model, []).append(key)
        else:
            verdicts[key] = None

    good_traces = {}
    by_name = {m.name: m for m in work.models}
    for model_name, keys in pending.items():
        ks = flatten(by_name[model_name].model)
        forms = [g for key in keys for g in parsed[key][0]]
        conj = forms[0]
        for g in forms[1:]:
            conj = And(conj, g)
        table = check_flat(ks, conj)
        for key in keys:
            forms, traces = parsed.pop(key)
            problems = _check_traces(ks, table, forms, traces)
            verdicts[key] = "; ".join(problems)[:300] if problems else None
            good_traces[key] = 0 if problems else len(traces)
        del ks, table

    failures = []
    delivered = []
    seen = {}
    for index, code, out, err in outcomes:
        occurrence = seen.get(index, 0)
        seen[index] = occurrence + 1
        key = _outcome_key(index, code, out, err)
        reason = verdicts[key]
        if reason:
            failures.append((requests[index].rid, occurrence, reason))
        delivered.append(0 if reason else good_traces.get(key, 0))
    return failures, delivered


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _print_metrics(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.4f} {units[name]}")


def _report_failures(failures):
    for rid, occurrence, reason in failures[:MAX_FAILURE_LINES]:
        print(f"FAILED {rid} (occurrence {occurrence}): {reason}")
    if len(failures) > MAX_FAILURE_LINES:
        print(f"FAILED ... {len(failures) - MAX_FAILURE_LINES} more")


def run(workload, seed, seconds, trace):
    from gctl.cli import main
    from tracing import LAYER_UNITS, Tracer, layer_metrics

    refs_path, references_s = _references(workload, seed)
    workdir = OUT / f"work-{workload}-seed{seed}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            work, requests, argvs = setup(workload, seed, refs_path, workdir)
            setup_times.append(time.perf_counter() - started)
        print(f"{workload}: seed {seed}, {len(work.models)} models, "
              f"{len(requests)} requests per pass, references_s "
              f"{references_s:.2f} s")
        run_pass(main, argvs[:WARMUP_REQUESTS], [], [])

        outcomes, walls = [], []
        if not trace:
            # Whole passes, so every request weighs the same in a run.
            started = time.perf_counter()
            while True:
                run_pass(main, argvs, outcomes, walls)
                wall = time.perf_counter() - started
                if wall >= seconds and len(walls) >= MIN_REQUESTS:
                    break
            peak = _peak_rss_mb()
        else:
            # Untraced and traced passes alternate, so drift over the run
            # does not show up as tracing overhead.
            tracer = Tracer()
            traced, traced_walls = [], []
            wall = traced_wall = 0.0
            while wall + traced_wall < seconds or not traced:
                t0 = time.perf_counter()
                run_pass(main, argvs, outcomes, walls)
                t1 = time.perf_counter()
                with tracer.installed():
                    t2 = time.perf_counter()
                    run_pass(main, argvs, traced, traced_walls, tracer)
                    t3 = time.perf_counter()
                wall += t1 - t0
                traced_wall += t3 - t2
        failures, delivered = verify(work, requests, outcomes)
        if trace:
            traced_failures, counts = verify(work, requests, traced)
            failures += traced_failures
            metrics, accounting = layer_metrics(tracer.spans, traced_walls,
                                                counts)
            metrics["trace.overhead_ratio"] = traced_wall / wall
            OUT.mkdir(exist_ok=True)
            (OUT / f"spans-{workload}-seed{seed}.json").write_text(
                json.dumps(tracer.to_json()))
            attempted = len(outcomes) + len(traced)
            units = LAYER_UNITS
            title = (f"per-layer means per request ({len(traced)} traced "
                     f"requests, {len(tracer.spans)} spans)")
        else:
            attempted = len(outcomes)
            ordered = sorted(walls)
            metrics = {
                "request_ms_p50": statistics.median(ordered) * 1000.0,
                "request_ms_p90":
                    statistics.quantiles(ordered, n=10)[8] * 1000.0,
                "requests_per_s": len(walls) / wall,
                "peak_rss_mb": peak,
                "setup_s": statistics.median(setup_times),
            }
            units = END_TO_END_UNITS
            title = (f"end-to-end ({len(walls)} requests in {wall:.2f} s, "
                     "closed loop, one client)")
        _report_failures(failures)
        _print_metrics(title, metrics, units)
        if not trace:
            _print_metrics("also reported", {
                "traces_per_s": sum(delivered) / wall,
                "failed_ratio": len(failures) / attempted,
            }, REPORTED_UNITS)
        correct = not failures
        if trace and accounting > 1e-6:
            print(f"span accounting off by {accounting * 1000:.4f} ms")
            correct = False
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--references-out",
                        help="compute the references for --seed, write them "
                             "here and exit")
    args = parser.parse_args(argv)
    _import_gctl()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.references_out:
        write_references(args.workload, args.seed, args.references_out)
        return 0
    run(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
