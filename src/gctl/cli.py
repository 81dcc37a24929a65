"""Command line front-end: check, flatten, validate, gen.

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
from functools import cache

from .errors import (CapacityError, FormulaSyntaxError, ModelSyntaxError,
                     ValidationError)
# The CLI calls neither counterexamples_for nor extract_evidences; they stay
# attributes of this module only so that the benchmark tracer's hooks on
# them (perfbench/tracing.py) resolve.
from .evidence import (counterexamples_for, extract_evidences,
                       serialize_trace, trace_forms, traces_for)
from .flat_checker import check_flat
from .formula import parse_formula, render
from .gen import random_shsm
from .hier_checker import check_hier
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
    per_subformula: list = field(default_factory=list)  # (form, millis)
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
            for g, ms in self.per_subformula:
                lines.append(f"  {ms:8.2f} ms  {render(g)}")
        for note in self.notes:
            lines.append(f"note    : {note}")
        if self.traces:
            lines.append("traces:")
            for t in self.traces:
                lines.append("  " + serialize_trace(t))
        return "\n".join(lines)


def _read(path):
    """The text of the file at path; a file that cannot be read as UTF-8
    text is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(f"cannot open {path}: {e.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"cannot read {path}: not UTF-8 text") from None


def _read_model(path, repair):
    model = parse_model(_read(path))
    return repair_top_exit_loops(model) if repair else model


def _load_model(path, repair):
    model = _read_model(path, repair)
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
        text = _read(args.formula_file).strip()
    else:
        text = args.formula
    if not text or not text.strip():
        raise FormulaSyntaxError("empty formula", 0)
    return text.strip(), parse_formula(text)


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

    # One run per engine labels f and the forms its traces are read off,
    # and is a state view of the input model's flattening.
    forms = trace_forms(f, args.witnesses) if args.witnesses else []
    report = CheckReport(formula=text, engine=engine, result=False)
    runs = []
    if engine in ("flat", "both"):
        ks = flatten(model, budget=budget)
        runs.append(check_flat(ks, f, *forms))
        report.flat_states = ks.n_states
    if engine in ("hier", "both"):
        _verdict, w = check_hier(model, f, *forms)
        runs.append(w)
        report.copies = len(w.machines)
    verdicts = [run.holds(f, run.initial) for run in runs]
    if len(set(verdicts)) > 1:
        flat, hier = verdicts
        print(f"engine divergence: flat={flat} hier={hier}", file=sys.stderr)
        return EXIT_INTERNAL
    # The flat run's times and traces when both engines ran; the
    # hierarchical run's traces are read off its machine copies, and
    # nothing is flattened.
    run = runs[0]
    report.result = verdicts[0]
    report.per_subformula = [(g, run.millis[i]) for g, i in run.index.items()]
    if args.witnesses:
        report.traces = traces_for(run, run.initial, f, args.witnesses)
        if not report.traces:
            report.notes.append(
                "traces are emitted for satisfied E-path formulas and "
                "failed A-path formulas only")
    report.millis = (time.perf_counter() - started) * 1000.0
    _emit(args, report)
    return EXIT_HOLDS if report.result else EXIT_FAILS


def _write(path, text):
    """Write text to the file at path, or to stdout when path is empty; a
    file that cannot be written is a usage error."""
    if not path:
        print(text, end="")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror}") from None


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
    model = _read_model(args.model, args.repair_self_loops)
    problems = validate_shsm(model, restricted=args.restricted)
    if problems:
        raise ValidationError(problems)
    kind = "HSM" if is_hsm(model) else "SHSM"
    print(f"valid {kind}: {len(model.machines)} machines, "
          f"{flat_size(model)} flat states")
    return EXIT_HOLDS


def cmd_gen(args):
    try:
        model = random_shsm(args.machines, args.nodes, args.exits,
                            args.boxes, args.props, args.seed,
                            scope_labels=not args.plain_boxes)
    except ValueError as e:
        raise UsageError(str(e)) from None
    problems = validate_shsm(model)
    if problems:
        print("generator produced an invalid model", file=sys.stderr)
        return EXIT_INTERNAL
    _write(args.output, render_model(model))
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
