"""Per-layer spans for gctl, recorded from outside the program.

For a traced run the module attributes through which gctl's layers call
each other are swapped for timing wrappers and restored afterwards.  Each
call becomes a span: name, start, end, parent span and request id, plus the
counts read off its arguments and result at the same boundary.  Spans stay
in memory until the run ends.

A span's self time is its duration minus the durations of its child spans
(calls are sequential, so children never overlap).  ``cli.self_ms`` is a
request's wall time minus its top-level spans: argparse, model file
reading, formula parsing, the report and JSON emit.  Every ``*.ms`` metric
below is a self time.
"""

import contextlib
import importlib
import time


def _hier_counts(args, kwargs, result):
    model = args[0]
    _verdict, w = result
    d = model.max_exits()
    return {
        "copies": len(w.machines),
        "context_factor_max": max(st.context_factor for st in w.stats),
        # Paper bound on copies per machine and operator: (k+2)^d.
        "copy_bound_ratio": max(st.context_factor / (st.grade + 2) ** d
                                for st in w.stats),
    }


def _flatten_counts(args, kwargs, result):
    return {"states": result.n_states}


def _reduce_counts(args, kwargs, result):
    return {"machines_out": len(result.model.machines)}


# (module, attribute, span name, counts read at the boundary)
HOOKS = (
    ("gctl.cli", "parse_model", "modelfile.parse_model", None),
    ("gctl.cli", "validate_shsm", "hsm.validate_shsm", None),
    ("gctl.cli", "check_hier", "hier_checker.check_hier", _hier_counts),
    ("gctl.cli", "flatten", "hsm.flatten", _flatten_counts),
    ("gctl.cli", "check_flat", "flat_checker.check_flat", None),
    ("gctl.cli", "extract_evidences", "evidence.extract_evidences", None),
    ("gctl.cli", "counterexamples_for", "evidence.counterexamples_for", None),
    ("gctl.hier_checker", "reduce_to_hsm", "hsm.reduce_to_hsm",
     _reduce_counts),
    ("gctl.hier_checker", "grade0_pass", "hier_checker.grade0_pass", None),
    ("gctl.hier_checker", "graded_gu_pass", "hier_checker.graded_gu_pass",
     None),
    ("gctl.hier_checker", "graded_next_pass", "hier_checker.graded_next_pass",
     None),
    ("gctl.hier_checker", "compute_nsc", "hier_checker.compute_nsc", None),
    ("gctl.hsm", "KripkeStructure", "kripke.KripkeStructure", None),
    ("gctl.evidence", "check_flat", "flat_checker.check_flat", None),
    ("gctl.evidence", "extract_evidences", "evidence.extract_evidences", None),
    ("gctl.flat_checker", "tarjan_scc", "flat_checker.tarjan_scc", None),
)

# Spans whose self time is reported, with the metric name it goes under.
SELF_TIME_METRICS = {
    "modelfile.parse_model": "modelfile.parse_model.ms",
    "hsm.validate_shsm": "hsm.validate_shsm.ms",
    "hsm.reduce_to_hsm": "hsm.reduce_to_hsm.ms",
    "hier_checker.check_hier": "hier_checker.check_hier.self_ms",
    "hier_checker.grade0_pass": "hier_checker.grade0_pass.ms",
    "hier_checker.graded_gu_pass": "hier_checker.graded_gu_pass.ms",
    "hier_checker.graded_next_pass": "hier_checker.graded_next_pass.ms",
    "hier_checker.compute_nsc": "hier_checker.compute_nsc.ms",
    "hsm.flatten": "hsm.flatten.ms",
    "kripke.KripkeStructure": "kripke.KripkeStructure.ms",
    "flat_checker.check_flat": "flat_checker.check_flat.ms",
    "flat_checker.tarjan_scc": "flat_checker.tarjan_scc.ms",
    "evidence.extract_evidences": "evidence.extract_evidences.ms",
    "evidence.counterexamples_for": "evidence.counterexamples_for.ms",
}

# Every per-layer metric with its unit.
LAYER_UNITS = {
    "cli.self_ms": "ms",
    **{metric: "ms" for metric in SELF_TIME_METRICS.values()},
    "hsm.reduce_to_hsm.machines_out": "count",
    "hier_checker.copies": "count",
    "hier_checker.context_factor_max": "count",
    "hier_checker.copy_bound_ratio": "ratio",
    "hsm.flatten.states": "count",
    "hsm.flatten.calls_per_request": "count",
    "flat_checker.check_flat.calls_per_request": "count",
    "evidence.traces": "count",
    "evidence.flatten_useful_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

_NAME, _START, _END, _PARENT, _REQUEST, _COUNTS = range(6)


class Tracer:
    """Span store for one traced run."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, request, counts]
        self._open = []      # indexes of the spans currently running
        self.request = None

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None,
                      self._open[-1] if self._open else None, self.request,
                      None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    record[_COUNTS] = counts(args, kwargs, result)
                return result
            finally:
                self._open.pop()
                record[_END] = time.perf_counter()
        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every hook for a wrapper; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, counts in HOOKS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_json(self):
        return [{"name": s[_NAME], "start": s[_START], "end": s[_END],
                 "parent": s[_PARENT], "request": s[_REQUEST],
                 "counts": s[_COUNTS]} for s in self.spans]


def layer_metrics(spans, walls, traces):
    """Per-layer means per request from one traced run.

    `spans` are Tracer.spans, `walls` the wall seconds of each request in
    order (request ids are their positions), `traces` the number of traces
    each request emitted.  Returns (metrics without trace.overhead_ratio,
    worst accounting error in seconds): for every request the self times
    of its spans plus cli.self_ms must add up to its wall time, with no
    span shorter than its children.
    """
    n = len(walls)
    child_time = [0.0] * len(spans)
    top_time = [0.0] * n
    for s in spans:
        duration = s[_END] - s[_START]
        if s[_PARENT] is None:
            top_time[s[_REQUEST]] += duration
        else:
            child_time[s[_PARENT]] += duration
    self_total = {name: 0.0 for name in SELF_TIME_METRICS}
    self_per_request = [0.0] * n
    worst = 0.0
    calls = {"hsm.flatten": 0, "flat_checker.check_flat": 0}
    sums = {"states": 0, "machines_out": 0, "copies": 0,
            "context_factor_max": 0, "copy_bound_ratio": 0.0}
    flattened = set()
    for i, s in enumerate(spans):
        own = s[_END] - s[_START] - child_time[i]
        worst = max(worst, -own)
        self_total[s[_NAME]] += own
        self_per_request[s[_REQUEST]] += own
        if s[_NAME] in calls:
            calls[s[_NAME]] += 1
        if s[_NAME] == "hsm.flatten":
            flattened.add(s[_REQUEST])
        for key, value in (s[_COUNTS] or {}).items():
            sums[key] += value
    cli_self = [walls[r] - top_time[r] for r in range(n)]
    for r in range(n):
        worst = max(worst, -cli_self[r],
                    abs(self_per_request[r] + cli_self[r] - walls[r]))
    useful = sum(1 for r in flattened if traces[r] > 0)
    metrics = {
        "cli.self_ms": sum(cli_self) * 1000.0 / n,
        **{SELF_TIME_METRICS[name]: total * 1000.0 / n
           for name, total in self_total.items()},
        "hsm.reduce_to_hsm.machines_out": sums["machines_out"] / n,
        "hier_checker.copies": sums["copies"] / n,
        "hier_checker.context_factor_max": sums["context_factor_max"] / n,
        "hier_checker.copy_bound_ratio": sums["copy_bound_ratio"] / n,
        "hsm.flatten.states": sums["states"] / n,
        "hsm.flatten.calls_per_request": calls["hsm.flatten"] / n,
        "flat_checker.check_flat.calls_per_request":
            calls["flat_checker.check_flat"] / n,
        "evidence.traces": sum(traces) / n,
        # Requests that emitted a trace per request that flattened; 0 when
        # none flattened.
        "evidence.flatten_useful_ratio":
            useful / len(flattened) if flattened else 0.0,
    }
    return metrics, worst
