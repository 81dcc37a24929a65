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
"""

import re

from .errors import ModelSyntaxError
from .hsm import Machine, Shsm

_IDENT = r"[A-Za-z_][A-Za-z0-9_^@+]*"
_IDENT_RE = re.compile(_IDENT)
_SEMICOLON_RE = re.compile(r"(;)")
_BOX_RE = re.compile(rf"({_IDENT})\s+expands\s+({_IDENT})\s*(\[.*\])?")
_EDGE_RE = re.compile(rf"({_IDENT})(\.({_IDENT}))?\s*->\s*({_IDENT})")
_NODE_RE = re.compile(rf"({_IDENT})\s*(\[.*\])?")


class _Lines:
    """Statement stream: comments stripped, statements split on ';'/block
    keywords, each tagged with its source line for error messages."""

    def __init__(self, text):
        self.statements = []
        buffer = []
        buffer_line = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("//", 1)[0]
            for piece in _SEMICOLON_RE.split(line):
                if piece == ";":
                    # A bare ';' separates nothing.
                    if buffer:
                        self.statements.append(
                            (" ".join(buffer).strip(), buffer_line or lineno))
                    buffer = []
                    buffer_line = None
                    continue
                piece = piece.strip()
                if not piece:
                    continue
                # 'machine X' and 'end' stand alone without semicolons.
                for word in _split_block_words(piece):
                    if word in ("end",) or word.startswith("machine "):
                        if buffer:
                            raise ModelSyntaxError(
                                f"statement {' '.join(buffer)!r} is missing ';'",
                                buffer_line or lineno)
                        self.statements.append((word, lineno))
                    else:
                        if not buffer:
                            buffer_line = lineno
                        buffer.append(word)
        if buffer:
            raise ModelSyntaxError(
                f"statement {' '.join(buffer)!r} is missing ';'", buffer_line)


def _split_block_words(piece):
    """Separate 'machine <id>' and 'end' tokens from statement text."""
    out = []
    tokens = piece.split()
    i = 0
    while i < len(tokens):
        if tokens[i] == "machine" and i + 1 < len(tokens):
            out.append(f"machine {tokens[i + 1]}")
            i += 2
        elif tokens[i] == "end":
            out.append("end")
            i += 1
        else:
            # Re-join the rest as one fragment; statement text keeps spaces.
            out.append(" ".join(tokens[i:]))
            break
    return out


def _check_ident(name, line, what="name"):
    if not _IDENT_RE.fullmatch(name):
        raise ModelSyntaxError(f"invalid {what} {name!r}", line)
    return name


def parse_model(text: str) -> Shsm:
    statements = _Lines(text).statements
    machines = []
    by_name = {}
    current = None

    def finish():
        nonlocal current
        if current is None:
            return
        name, line, init, outs, vertices, labels, expand, raw_edges = current
        if init is None:
            raise ModelSyntaxError(f"machine {name} has no 'init'", line)
        edges = []
        for u, z, v, eline in raw_edges:
            for end in (u, v):
                if end not in labels:
                    raise ModelSyntaxError(
                        f"edge references undeclared vertex {end!r}", eline)
            edges.append((u, z, v))
        machines.append(Machine(name, vertices, init, outs, labels, expand, edges))
        by_name[name] = len(machines)
        current = None

    for stmt, line in statements:
        if stmt.startswith("machine "):
            finish()
            name = _check_ident(stmt.split(None, 1)[1], line, "machine id")
            if name in by_name:
                raise ModelSyntaxError(f"duplicate machine id {name!r}", line)
            current = (name, line, None, [], [], {}, {}, [])
            current = list(current)
            continue
        if stmt == "end":
            if current is None:
                raise ModelSyntaxError("'end' outside a machine block", line)
            finish()
            continue
        if current is None:
            raise ModelSyntaxError(f"statement {stmt!r} outside a machine block", line)
        _parse_statement(stmt, line, current, by_name)
    if current is not None:
        raise ModelSyntaxError(f"machine {current[0]} is missing 'end'", current[1])
    if not machines:
        raise ModelSyntaxError("no machines in model", 1)
    return Shsm(machines)


def _parse_statement(stmt, line, current, by_name):
    name, _line, init, outs, vertices, labels, expand, raw_edges = current
    words = stmt.split(None, 1)
    keyword = words[0]
    rest = words[1].strip() if len(words) > 1 else ""
    if keyword == "init":
        if current[2] is not None:
            raise ModelSyntaxError(f"machine {name} has two 'init' lines", line)
        current[2] = _check_ident(rest, line, "vertex")
    elif keyword == "out":
        for v in _split_list(rest, line):
            outs.append(_check_ident(v, line, "vertex"))
    elif keyword == "node":
        v, props = _name_and_props(rest, line)
        _declare(current, v, frozenset(props), 0, line)
    elif keyword == "box":
        m = _BOX_RE.fullmatch(rest)
        if not m:
            raise ModelSyntaxError(
                "expected 'box <vertex> expands <machine-id> [props]'", line)
        v, target, bracket = m.group(1), m.group(2), m.group(3)
        if target not in by_name:
            raise ModelSyntaxError(
                f"box {v!r} expands unknown machine {target!r} "
                f"(machines must be declared bottom-up)", line)
        props = _split_list(bracket[1:-1], line) if bracket else []
        _declare(current, v, frozenset(props), by_name[target], line)
    elif keyword == "edge":
        m = _EDGE_RE.fullmatch(rest)
        if not m:
            raise ModelSyntaxError("expected 'edge <src>[.exit] -> <dst>'", line)
        raw_edges.append((m.group(1), m.group(3), m.group(4), line))
    else:
        raise ModelSyntaxError(f"unknown statement {keyword!r}", line)


def _declare(current, v, props, expand_to, line):
    _, _, _, _, vertices, labels, expand, _ = current
    if v in labels:
        raise ModelSyntaxError(f"vertex {v!r} declared twice", line)
    _check_ident(v, line, "vertex")
    vertices.append(v)
    labels[v] = props
    expand[v] = expand_to


def _name_and_props(rest, line):
    m = _NODE_RE.fullmatch(rest)
    if not m:
        raise ModelSyntaxError("expected '<vertex> [props]'", line)
    props = _split_list(m.group(2)[1:-1], line) if m.group(2) else []
    return m.group(1), props


def _split_list(text, line):
    text = text.strip()
    if not text:
        return []
    items = [item.strip() for item in text.split(",")]
    for item in items:
        _check_ident(item, line, "proposition" if item else "list item")
    return items


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
    """Wrap a flat structure as a single-machine model (names made
    identifier-safe by replacing dots with underscores)."""
    names = [n.replace(".", "_") for n in ks.names]
    labels = {names[s]: ks.labels[s] for s in range(ks.n_states)}
    expand = {n: 0 for n in names}
    edges = [(names[s], None, names[t])
             for s in range(ks.n_states) for t in ks.succ[s]]
    machine = Machine("flat", names, names[ks.initial], [], labels, expand, edges)
    return Shsm([machine])
