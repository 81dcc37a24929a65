"""Command line front-end: check, flatten, validate, gen, bench.

Exit codes: 0 formula holds, 1 formula fails, 2 parse/usage error,
3 validation error, 4 capacity exceeded, 5 internal error (engine
divergence or any unexpected exception).
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from functools import cache, reduce

from .errors import (CapacityError, FormulaSyntaxError, ModelSyntaxError,
                     ValidationError)
# The CLI calls neither counterexamples_for nor extract_evidences; they stay
# attributes of this module only so that the benchmark tracer's hooks on
# them (perfbench/tracing.py) resolve.
from .evidence import (counterexamples_for, extract_evidences,
                       serialize_trace, trace_forms, traces_for)
from .flat_checker import check_flat
from .formula import And, parse_formula, render
from .gen import random_shsm
from .hier_checker import HierView, check_hier
from .hsm import (DEFAULT_FLAT_BUDGET, flat_size, flatten, is_hsm,
                  repair_top_exit_loops, validate_shsm)
from .modelfile import kripke_to_model, parse_model, render_model

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_CAPACITY = 4
EXIT_INTERNAL = 5

# The j-th of n pumped traces loops j times, so output grows as n^2.
MAX_WITNESSES = 1000


class UsageError(Exception):
    """A bad argument or environment setting; exits 2."""


@dataclass
class CheckReport:
    formula: str
    engine: str
    result: bool
    flat_states: int = None
    copies: int = None
    millis: float = 0.0
    per_subformula: list = field(default_factory=list)  # (text, millis)
    traces: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def to_json(self):
        return {
            "formula": self.formula,
            "engine": self.engine,
            "result": self.result,
            "traces": [
                {"states": t.states, "loop_start": t.loop_start}
                for t in self.traces
            ],
            "stats": {
                "flat_states": self.flat_states,
                "copies": self.copies,
                "millis": round(self.millis, 3),
            },
        }

    def to_text(self):
        lines = [
            f"formula : {self.formula}",
            f"engine  : {self.engine}",
            f"result  : {'holds' if self.result else 'fails'}",
        ]
        if self.flat_states is not None:
            lines.append(f"states  : {self.flat_states} (flat)")
        if self.copies is not None:
            lines.append(f"copies  : {self.copies} machine copies")
        lines.append(f"time    : {self.millis:.1f} ms")
        if self.per_subformula:
            lines.append("subformulas:")
            for text, ms in self.per_subformula:
                lines.append(f"  {ms:8.2f} ms  {text}")
        for note in self.notes:
            lines.append(f"note    : {note}")
        if self.traces:
            lines.append("traces:")
            for t in self.traces:
                lines.append("  " + serialize_trace(t))
        return "\n".join(lines)


def _load_model(path, repair):
    with open(path, "r", encoding="utf-8") as fh:
        model = parse_model(fh.read())
    if repair:
        model = repair_top_exit_loops(model)
    problems = validate_shsm(model)
    if problems:
        raise ValidationError(problems)
    return model


def _budget(args):
    """--budget, else env GCTL_BUDGET, else the default."""
    value = args.budget
    if value is None:
        value = os.environ.get("GCTL_BUDGET") or DEFAULT_FLAT_BUDGET
    if not str(value).strip().isdecimal():
        raise UsageError(f"the flat state budget must be a nonnegative "
                         f"integer, got {value!r}")
    return int(value)


def _formula_from(args):
    if args.formula_file:
        with open(args.formula_file, "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    else:
        text = args.formula
    if not text or not text.strip():
        raise FormulaSyntaxError("empty formula", 0)
    return text.strip(), parse_formula(text)


def _extract_traces(model, f, verdict, witnesses, report, ks, table, w):
    """Traces for the verdict, named by the input model's flattening.  They
    are read off the flat engine's flattening and table when it ran, else
    off the hierarchy: the machine copies of a check_hier run that labels
    the path forms to extract (the verdict's own run `w` when it does)
    carry the counts the walk needs, and nothing is flattened."""
    if witnesses == 0:
        return []
    forms = trace_forms(f, verdict, witnesses)
    if not forms:
        report.notes.append(
            "traces are emitted for satisfied E-path formulas and failed "
            "A-path formulas only")
        return []
    if ks is None:
        if not all(g in w.index for g in forms):
            _verdict, w = check_hier(model, reduce(And, forms))
        ks = HierView(model, w)
    return traces_for(ks, ks.initial, f, verdict, witnesses, table)


def cmd_check(args):
    started = time.perf_counter()
    if not 0 <= args.witnesses <= MAX_WITNESSES:
        raise UsageError(f"--witnesses must be between 0 and {MAX_WITNESSES}")
    model = _load_model(args.model, args.repair_self_loops)
    text, f = _formula_from(args)
    budget = _budget(args)
    engine = args.engine
    if engine == "auto":
        engine = "hier" if len(model.machines) > 1 else "flat"

    report = CheckReport(formula=text, engine=engine, result=False)
    ks = table = w = None
    if engine in ("flat", "both"):
        ks = flatten(model, budget=budget)
        table = check_flat(ks, f)
        report.result = table.root_row()[ks.initial]
        report.flat_states = ks.n_states
    if engine in ("hier", "both"):
        verdict_h, w = check_hier(model, f)
        if engine == "both" and verdict_h != report.result:
            print(f"engine divergence: flat={report.result} "
                  f"hier={verdict_h}", file=sys.stderr)
            return EXIT_INTERNAL
        report.result = verdict_h
        report.copies = len(w.machines)
    labelled = table or w     # the flat run's times when both engines ran
    report.per_subformula = [(render(g), labelled.millis[i])
                             for g, i in labelled.index.items()]
    report.traces = _extract_traces(model, f, report.result, args.witnesses,
                                    report, ks, table, w)
    report.millis = (time.perf_counter() - started) * 1000.0
    _emit(args, report)
    return EXIT_HOLDS if report.result else EXIT_FAILS


def _write(path, text):
    """Write text to the file at path, or to stdout when path is empty."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _emit(args, report):
    if args.format == "json":
        out = json.dumps(report.to_json(), indent=2, sort_keys=True)
    else:
        out = report.to_text()
    _write(getattr(args, "output", None), out + "\n")


def cmd_flatten(args):
    model = _load_model(args.model, args.repair_self_loops)
    ks = flatten(model, budget=_budget(args))
    _write(args.output, render_model(kripke_to_model(ks)))
    print(f"// {ks.n_states} states, {ks.n_transitions} transitions",
          file=sys.stderr)
    return EXIT_HOLDS


def cmd_validate(args):
    with open(args.model, "r", encoding="utf-8") as fh:
        model = parse_model(fh.read())
    if args.repair_self_loops:
        model = repair_top_exit_loops(model)
    problems = validate_shsm(model, restricted=args.restricted)
    if problems:
        for p in problems:
            print(f"invalid: {p}")
        return EXIT_INVALID
    kind = "HSM" if is_hsm(model) else "SHSM"
    print(f"valid {kind}: {len(model.machines)} machines, "
          f"{flat_size(model)} flat states")
    return EXIT_HOLDS


def cmd_gen(args):
    if args.machines < 1 or min(args.nodes, args.exits, args.boxes,
                                args.props) < 0:
        raise UsageError("gen needs --machines >= 1 and nonnegative "
                         "--nodes, --exits, --boxes and --props")
    if args.exits < 1 and args.machines > 1 and args.boxes > 0:
        raise UsageError("--exits must be at least 1 when boxes expand to "
                         "lower machines (--machines > 1 and --boxes > 0)")
    model = random_shsm(args.machines, args.nodes, args.exits, args.boxes,
                        args.props, args.seed,
                        scope_labels=not args.plain_boxes)
    problems = validate_shsm(model)
    if problems:
        print("generator produced an invalid model", file=sys.stderr)
        return EXIT_INTERNAL
    _write(args.output, render_model(model))
    return EXIT_HOLDS


def cmd_bench(args):
    if args.repeat <= 0:
        raise UsageError("--repeat must be positive")
    model = _load_model(args.model, args.repair_self_loops)
    text, f = _formula_from(args)
    budget = _budget(args)
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    rows = []
    verdicts = set()
    for engine in engines:
        timings = []
        verdict = None
        for _ in range(args.repeat):
            started = time.perf_counter()
            if engine == "flat":
                ks = flatten(model, budget=budget)
                verdict = check_flat(ks, f).root_row()[ks.initial]
            elif engine == "hier":
                verdict, _w = check_hier(model, f)
            else:
                print(f"unknown engine {engine!r}", file=sys.stderr)
                return EXIT_USAGE
            timings.append((time.perf_counter() - started) * 1000.0)
        verdicts.add(verdict)
        rows.append((engine, verdict, min(timings),
                     sum(timings) / len(timings), max(timings)))
    if len(verdicts) > 1:
        print("engine divergence during bench", file=sys.stderr)
        return EXIT_INTERNAL
    if args.format == "csv":
        print("engine,verdict,best_ms,mean_ms,worst_ms")
        for engine, verdict, best, mean, worst in rows:
            print(f"{engine},{int(verdict)},{best:.3f},{mean:.3f},{worst:.3f}")
    else:
        print(f"{'engine':8} {'verdict':8} {'best':>10} {'mean':>10} {'worst':>10}")
        for engine, verdict, best, mean, worst in rows:
            print(f"{engine:8} {str(verdict):8} {best:9.2f}ms {mean:9.2f}ms "
                  f"{worst:9.2f}ms")
    return EXIT_HOLDS


@cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="gctl",
        description="Graded-CTL model checker for hierarchical state machines")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formula=False):
        p.add_argument("--model", required=True, help="model file")
        p.add_argument("--budget", type=int, default=None,
                       help="flat state budget (or env GCTL_BUDGET)")
        p.add_argument("--repair-self-loops", action="store_true",
                       help="add self-loops on sink exits of the top machine")
        if formula:
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--formula", help="formula text")
            group.add_argument("--formula-file", help="file with the formula")
        else:
            p.set_defaults(formula=None, formula_file=None)

    p = sub.add_parser("check", help="decide a formula on a model")
    common(p, formula=True)
    p.add_argument("--engine", choices=["flat", "hier", "both", "auto"],
                   default="auto")
    p.add_argument("--witnesses", type=int, default=0,
                   help="number of evidence/counterexample traces to emit")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("flatten", help="write the flat structure as a model file")
    common(p)
    p.add_argument("--output", help="output path (default stdout)")
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("validate", help="check model invariants")
    p.add_argument("--model", required=True)
    p.add_argument("--restricted", action="store_true",
                   help="also require ancestor/descendant label disjointness")
    p.add_argument("--repair-self-loops", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gen", help="generate a seeded random model")
    p.add_argument("--machines", type=int, default=3)
    p.add_argument("--nodes", type=int, default=3)
    p.add_argument("--exits", type=int, default=1)
    p.add_argument("--boxes", type=int, default=2)
    p.add_argument("--props", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plain-boxes", action="store_true",
                   help="leave boxes unlabeled (generate an HSM)")
    p.add_argument("--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="time engines on one query")
    common(p, formula=True)
    p.add_argument("--engines", default="hier,flat",
                   help="comma-separated: hier,flat")
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(e, file=sys.stderr)
        return EXIT_USAGE
    except (FormulaSyntaxError, ModelSyntaxError) as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as e:
        print(f"cannot open {e.filename}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as e:
        for p in e.problems:
            print(f"invalid: {p}", file=sys.stderr)
        return EXIT_INVALID
    except CapacityError as e:
        print(f"capacity: {e}", file=sys.stderr)
        return EXIT_CAPACITY
    except Exception as e:  # a crash must not read as "formula fails"
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
