"""The exit-code contract as one seeded sweep: every engine and command
agrees on which models are valid and on the verdict.

Models are seeded `random_shsm` models with up to two edges dropped, so
some have flat dead ends, reachable or not.  Per model:

  * `check` exits with the same code under every engine and witness count;
  * `validate` exits 0 exactly when `flatten` does;
  * `validate` exits 3 exactly when `check --engine hier` does.

A file that cannot be opened, read as UTF-8 or written is a usage error
under every command that names it.
"""

import contextlib
import dataclasses
import io
import random

from gctl.cli import main
from gctl.formula import render
from gctl.gen import random_formula, random_shsm
from gctl.hsm import Shsm
from gctl.modelfile import render_model

CASES = 300
SEED = 5
ENGINES = ("hier", "flat", "both", "auto")


def _run(argv):
    """Exit code and stderr of one in-process `gctl` call, its stdout
    discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        return main(argv), err.getvalue()


def _exit(argv):
    """Exit code of one in-process `gctl` call, its output discarded."""
    return _run(argv)[0]


def _cases(rng):
    """(model, formula text) pairs: 1-4 machines, scope labels on and off,
    0-2 edges dropped, one random formula of depth 2."""
    for _ in range(CASES):
        props = rng.randint(1, 3)
        model = random_shsm(rng.randint(1, 4), rng.randint(0, 2),
                            rng.randint(1, 2), rng.randint(0, 2), props,
                            rng.randrange(10**6),
                            scope_labels=rng.random() < 0.5)
        machines = list(model.machines)
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(machines))
            edges = list(machines[i].edges)
            if edges:
                del edges[rng.randrange(len(edges))]
            machines[i] = dataclasses.replace(machines[i], edges=edges)
        atoms = [f"p{i}" for i in range(props)]
        yield Shsm(machines), render(random_formula(rng, atoms, 2))


def test_engines_and_commands_agree(tmp_path):
    invalid = 0
    for case, (model, text) in enumerate(_cases(random.Random(SEED))):
        path = tmp_path / f"m{case}.gctl"
        path.write_text(render_model(model))
        model_args = ["--model", str(path)]
        codes = {(engine, witnesses): _exit(
                     ["check", *model_args, "--formula", text,
                      "--engine", engine, "--witnesses", witnesses])
                 for engine in ENGINES for witnesses in ("0", "2")}
        where = f"case {case}: {text}\n{render_model(model)}"
        assert len(set(codes.values())) == 1, f"{codes} on {where}"
        valid = _exit(["validate", *model_args])
        flattened = _exit(["flatten", *model_args,
                           "--output", str(tmp_path / "flat.gctl")])
        assert (valid == 0) == (flattened == 0), \
            f"validate {valid}, flatten {flattened} on {where}"
        assert (valid == 3) == (codes["hier", "0"] == 3), \
            f"validate {valid}, check {codes} on {where}"
        invalid += valid == 3
    # The sweep covers both sides of the validity rule.
    assert 0 < invalid < CASES


def _io_failures(tmp_path):
    """(argv, verb, path) per file a command cannot use: a model path that
    is missing, a directory or not UTF-8; a formula file that is a
    directory or not UTF-8; an output path that is a directory or sits in
    a missing directory."""
    model = tmp_path / "model.gctl"
    model.write_text(render_model(random_shsm(2, 1, 1, 1, 1, 0)))
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"machine M\xe9\n")
    rows = []
    for command in ("check", "flatten", "validate"):
        formula = ["--formula", "true"] if command == "check" else []
        for path, verb in ((tmp_path / "missing.gctl", "open"),
                           (tmp_path, "open"), (latin1, "read")):
            rows.append(([command, "--model", str(path), *formula],
                         verb, path))
    for path, verb in ((tmp_path, "open"), (latin1, "read")):
        rows.append((["check", "--model", str(model),
                      "--formula-file", str(path)], verb, path))
    for path in (tmp_path, tmp_path / "missing" / "out.txt"):
        for argv in (["check", "--model", str(model), "--formula", "true"],
                     ["flatten", "--model", str(model)], ["gen"]):
            rows.append(([*argv, "--output", str(path)], "write", path))
    return rows


def test_io_failures_are_usage_errors(tmp_path):
    rows = _io_failures(tmp_path)
    assert len(rows) == 17
    for argv, verb, path in rows:
        code, err = _run(argv)
        assert (code, err.startswith(f"cannot {verb} {path}: ")) == \
            (2, True), (argv, code, err)
