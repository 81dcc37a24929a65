"""Text format for hierarchical models.

UTF-8, ``//`` comments, whitespace-insensitive.  ``machine <id> ... end``
blocks are listed bottom-up; the last block is the top-level machine.
Inside a block:

    init <vertex>;
    out <vertex>(, <vertex>)*;
    node <vertex> [<prop>(, <prop>)*];
    box <vertex> expands <machine-id> [<prop>...];
    edge <src> -> <dst>;
    edge <src>.<exit> -> <dst>;

A box edge names the exit of the expanded machine it leaves through.
README.md ("Model files") states the accepted grammar exactly.
"""

import re

from .errors import ModelSyntaxError
from .formula import IDENT as _ID
from .hsm import Machine, Shsm

_IDENT_RE = re.compile(_ID)
_COMMENT_RE = re.compile(r"//[^\n]*")
_MACHINE_WORD_RE = re.compile(r"machine[^\S\n]+([^\s;]+)")
# A line that starts with 'end' or 'machine <id>' cannot continue a statement.
_BLOCK_LINE_RE = re.compile(r"\n[^\S\n]*(?:end(?![^\s;])|machine[^\S\n]+[^\s;])")
_LIST = rf"{_ID}(?:\s*,\s*{_ID})*"

# One statement after whitespace and stray ';'.  Its kind is the name of
# the outermost group that matched.
_STATEMENT_RE = re.compile(rf"""[\s;]*(?:
    (?P<edge>edge\s+(?P<src>{_ID})(?:\.(?P<exit>{_ID}))?\s*->\s*(?P<dst>{_ID})\s*;)
  | (?P<vertex>(?:node|(?P<box>box))\s+(?P<name>{_ID})
        (?(box)\s+expands\s+(?P<target>{_ID}))
        \s*(?:\[\s*(?:(?P<props>{_LIST})\s*)?\]\s*)?;)
  | (?P<init>init\s+(?P<initial>{_ID})\s*;)
  | (?P<out>out(?:\s+(?P<outputs>{_LIST}))?\s*;)
  | (?P<machine>machine(?:[^\S\n]+(?P<id>{_ID})(?![^\s;])
        |\s+(?P<id_on_next_line>{_ID})\s*;))
  | (?P<end>end)(?![^\s;])
  | (?P<eof>\Z)
  | (?P<bad>)
)""", re.VERBOSE)

# What follows 'node' or 'box', matched on a rejected statement with its
# whitespace collapsed, to tell which part of it is wrong.
_VERTEX_SHAPES = {
    "node": (re.compile(rf"{_ID}\s*(?P<props>\[.*\])?"),
             "expected '<vertex> [props]'"),
    "box": (re.compile(
        rf"(?P<v>{_ID})\s+expands\s+(?P<target>{_ID})\s*(?P<props>\[.*\])?"),
            "expected 'box <vertex> expands <machine-id> [props]'"),
}


def _line(text, pos):
    return text.count("\n", 0, pos) + 1


def _items(group):
    return map(str.strip, group.split(",")) if group else ()


def parse_model(text: str) -> Shsm:
    text = _COMMENT_RE.sub("", text.replace("\r\n", "\n").replace("\r", "\n"))
    machines = []
    by_name = {}            # machine id -> 1-based index
    current = None          # the open block
    opened = 0              # where the open block's 'machine' stands
    unchecked = []          # (edge, position) of edges naming later vertices
    # Each match starts where the last one ended: 'bad' matches if nothing else.
    for m in _STATEMENT_RE.finditer(text):
        kind = m.lastgroup
        if kind == "edge":
            if current is None:
                _reject(text, m.start(kind), current, by_name)
            edge = m.group("src", "exit", "dst")
            if edge[0] not in labels or edge[2] not in labels:
                unchecked.append((edge, m.start(kind)))
            edges.append(edge)
        elif kind == "vertex":
            v, target, props = m.group("name", "target", "props")
            expands = 0 if target is None else by_name.get(target)
            if current is None or expands is None:
                _reject(text, m.start(kind), current, by_name)
            if v in labels:
                raise ModelSyntaxError(
                    f"vertex {v!r} declared twice", _line(text, m.start(kind)))
            vertices.append(v)
            labels[v] = frozenset(_items(props))
            expand[v] = expands
        elif kind == "machine":
            if current is not None:
                _close(text, current, opened, m.start(), unchecked, by_name, machines)
            name = m["id"] or m["id_on_next_line"]
            opened = m.start(kind)
            if name in by_name:
                raise ModelSyntaxError(
                    f"duplicate machine id {name!r}", _line(text, opened))
            current = Machine(name, [], None, [], {}, {}, [])
            vertices, labels, expand, edges = (
                current.vertices, current.labels, current.expand, current.edges)
        elif kind == "end":
            if current is None:
                raise ModelSyntaxError(
                    "'end' outside a machine block", _line(text, m.start(kind)))
            _close(text, current, opened, m.start(), unchecked, by_name, machines)
            current = None
        elif kind == "eof":
            break
        elif current is None or kind == "bad" or (
                kind == "init" and current.initial is not None):
            _reject(text, m.start(kind), current, by_name)
        elif kind == "init":
            current.initial = m["initial"]
        else:
            current.outputs += _items(m["outputs"])
    if current is not None:
        _check_lines(text, current, opened, len(text), by_name)
        raise ModelSyntaxError(
            f"machine {current.name} is missing 'end'", _line(text, opened))
    if not machines:
        raise ModelSyntaxError("no machines in model", 1)
    return Shsm(machines)


def _check_lines(text, machine, opened, closed, by_name):
    """Reject the statement of the block between `opened` and `closed` that
    runs into a line starting with 'end' or 'machine <id>', if there is one.
    No such line can start a statement inside a block, as it would close it."""
    cut = _BLOCK_LINE_RE.search(text, opened, closed)
    if cut:
        for m in _STATEMENT_RE.finditer(text, opened):
            if m.end() > cut.start():
                _reject(text, m.start(m.lastgroup), machine, by_name)


def _close(text, machine, opened, closed, unchecked, by_name, machines):
    """Check the block of `machine`, which spans `opened` to `closed`, and
    append it to `machines`."""
    _check_lines(text, machine, opened, closed, by_name)
    if machine.initial is None:
        raise ModelSyntaxError(
            f"machine {machine.name} has no 'init'", _line(text, opened))
    for (u, _, v), at in unchecked:
        for end in (u, v):
            if end not in machine.labels:
                raise ModelSyntaxError(
                    f"edge references undeclared vertex {end!r}", _line(text, at))
    unchecked.clear()
    machines.append(machine)
    by_name[machine.name] = len(machines)


def _reject(text, start, current, by_name):
    """Raise the error of the statement at `start`, which the scan did not
    match or whose names clash with the model read so far."""
    line = _line(text, start)
    word = _MACHINE_WORD_RE.match(text, start)
    if word:
        raise ModelSyntaxError(f"invalid machine id {word[1]!r}", line)
    stop = text.find(";", start)
    cut = _BLOCK_LINE_RE.search(text, start, len(text) if stop < 0 else stop)
    if cut or stop < 0:
        stmt = " ".join(text[start:cut.start() if cut else None].split())
        raise ModelSyntaxError(f"statement {stmt!r} is missing ';'", line)
    stmt = " ".join(text[start:stop].split())
    keyword, _, rest = stmt.partition(" ")
    if keyword == "machine" and rest:
        raise ModelSyntaxError(f"invalid machine id {rest!r}", line)
    if current is None:
        raise ModelSyntaxError(f"statement {stmt!r} outside a machine block", line)
    if keyword == "init":
        if current.initial is not None:
            raise ModelSyntaxError(
                f"machine {current.name} has two 'init' lines", line)
        raise ModelSyntaxError(f"invalid vertex {rest!r}", line)
    if keyword == "edge":
        raise ModelSyntaxError("expected 'edge <src>[.exit] -> <dst>'", line)
    if keyword in _VERTEX_SHAPES:
        shape, expected = _VERTEX_SHAPES[keyword]
        fit = shape.fullmatch(rest)
        if not fit:
            raise ModelSyntaxError(expected, line)
        if keyword == "box" and fit["target"] not in by_name:
            raise ModelSyntaxError(
                f"box {fit['v']!r} expands unknown machine {fit['target']!r} "
                f"(machines must be declared bottom-up)", line)
        rest = (fit["props"] or "[]")[1:-1]
    if keyword in ("out", "node", "box"):
        for item in _items(rest.strip()):
            if not _IDENT_RE.fullmatch(item):
                what = "proposition" if item else "list item"
                raise ModelSyntaxError(f"invalid {what} {item!r}", line)
    raise ModelSyntaxError(f"unknown statement {keyword!r}", line)


# ---------------------------------------------------------------------------


def render_model(model: Shsm) -> str:
    lines = []
    for m in model.machines:
        lines.append(f"machine {m.name}")
        lines.append(f"  init {m.initial};")
        if m.outputs:
            lines.append(f"  out {', '.join(m.outputs)};")
        for v in m.vertices:
            props = f" [{', '.join(sorted(m.label(v)))}]" if m.label(v) else ""
            e = m.expand.get(v, 0)
            if e:
                lines.append(f"  box {v} expands {model.machine(e).name}{props};")
            else:
                lines.append(f"  node {v}{props};")
        for u, z, v in m.edges:
            src = f"{u}.{z}" if z is not None else u
            lines.append(f"  edge {src} -> {v};")
        lines.append("end")
        lines.append("")
    return "\n".join(lines)


def kripke_to_model(ks) -> Shsm:
    """Wrap a flat structure as a single-machine model.  Names are made
    identifier-safe by replacing dots with underscores; a name that then
    clashes with an earlier one gets the first `^k` suffix that no other
    name has, so distinct states keep distinct names."""
    safe = [n.replace(".", "_") for n in ks.names]
    taken, used, names = set(safe), set(), []
    for name in safe:
        if name in used:
            k = 1
            while f"{name}^{k}" in taken:
                k += 1
            name = f"{name}^{k}"
            taken.add(name)
        used.add(name)
        names.append(name)
    labels = {names[s]: ks.labels[s] for s in range(ks.n_states)}
    expand = {n: 0 for n in names}
    edges = [(names[s], None, names[t])
             for s in range(ks.n_states) for t in ks.succ[s]]
    machine = Machine("flat", names, names[ks.initial], [], labels, expand, edges)
    return Shsm([machine])
