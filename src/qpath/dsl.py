"""Line-oriented text format for gates, states, circuits, and networks.

Grammar, one declaration per line, ``#`` starts a comment:

    dim <d>
    gate <name> = [[c, c, ...], ...]
    state <name> = [c, ...]
    circuit <name> = <gate> <gate> ...
    node <id> : <gate-or-state-name>
    edge <id>.<leg> -> <id>.<leg>
    free <id>.<leg>

Complex literals are ``a``, ``bi``, ``a+bi``, ``a-bi``; reals are decimals
(scientific notation allowed), read by ``float``, or ``1/sqrt2``, the one
literal ``float`` does not read; it parses to the double closest to
0.7071067811865476. A literal beyond the double range (``1e999``) is an
error, not an infinity. Gate nodes expose legs ``in`` and ``out``; state
nodes expose ``out``. Circuit tokens are listed in time order: the first
gate acts first. Every referenced name must be declared on an earlier line,
names are unique per kind, and a document has at most one ``dim``, which
must precede anything that needs it.

Each declaration kind has one rule in ``_RULES``, chosen by a line's first
word: a pattern for the rest of the line, a handler that checks the match
against the declarations before it and records the result, and the printed
form of the kind's declarations, which ``pretty_print`` writes. Gates and
states share one handler, bound to its kind in the table.

One reader, ``parse_literal``, handles both depths: a state's ``[c, ...]``
and a gate's ``[[c, ...], ...]``, whose rows it reads as depth-1 literals.
Each level is split at depth 0 by one ``_RE_STRUCTURE`` scan for its ``[``,
``]`` and ``,`` characters, then each entry is one ``_RE_COMPLEX`` match; no
other character is visited in Python. A blank entry (``[1, ]``) or gate row
(``[[1], ]``) is reported as missing, at the ``,`` or ``]`` that ends it.

Parsing is total: it never raises on text input. On failure the result
carries every diagnostic found, each with a 1-based line and column, and no
document is produced.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field

import numpy as np

from . import tensornet
from .linalg import _SQRT1_2

__all__ = [
    "Diagnostic",
    "Declaration",
    "Document",
    "ParseResult",
    "parse",
    "parse_bytes",
    "pretty_print",
    "format_complex",
]

_UNSIGNED = r"(?:1/sqrt2|\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
# A real part only counts when a sign or the end follows it, so "2i" is imaginary.
_RE_COMPLEX = re.compile(
    rf"(?P<re>[+-]?{_UNSIGNED}(?=[+-]|$))?(?:(?P<sign>[+-]?)(?P<im>{_UNSIGNED})?(?P<i>i))?"
)

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_RE_HEAD = re.compile(r"\s*(\S+)")
# The body runs greedily to the line's last non-space; a lazy ``\S.*?`` matches the
# same span but tries to end the match after every character of a long gate line.
_RE_NAMED = re.compile(rf"\s+(?P<name>{_NAME})\s*=\s*(?P<body>\S(?:.*\S)?)\s*")
# The only characters that split a bracketed literal or change its depth.
_RE_STRUCTURE = re.compile(r"[\[\],]")

_LEGS = {"gate": ("in", "out"), "state": ("out",)}


# The signed spellings of the one real literal ``float`` does not read.
_SQRT_TOKENS = {"1/sqrt2": _SQRT1_2, "+1/sqrt2": _SQRT1_2, "-1/sqrt2": -_SQRT1_2}


def _real_value(token: str) -> float:
    value = _SQRT_TOKENS.get(token)
    return float(token) if value is None else value


def parse_complex_literal(token: str) -> complex | None:
    """Parse one complex literal, or None if malformed."""
    m = _RE_COMPLEX.fullmatch(token.strip())
    if m is None or not m[0]:
        return None
    re_token, sign, im_token, i = m.groups()
    re_part = _real_value(re_token) if re_token else 0.0
    im_part = _real_value(sign + (im_token or "1")) if i else 0.0
    return complex(re_part, im_part)


def _fmt_real(x: float) -> str:
    return repr(float(x) + 0.0)


def format_complex(z: complex) -> str:
    """Canonical literal for a complex value; reparses to the same double pair."""
    z = complex(z)
    if z.imag == 0.0:
        return _fmt_real(z.real)
    if z.real == 0.0:
        return _fmt_real(z.imag) + "i"
    sign = "+" if z.imag > 0 else "-"
    return f"{_fmt_real(z.real)}{sign}{_fmt_real(abs(z.imag))}i"


@dataclass(frozen=True)
class Diagnostic:
    """One positioned parse problem; line and column are 1-based."""

    severity: str
    message: str
    line: int
    column: int
    excerpt: str


@dataclass(frozen=True)
class Declaration:
    """One parsed line: its kind, optional name, resolved payload, and span."""

    kind: str
    name: str | None
    payload: object
    line: int
    column: int


@dataclass
class Document:
    """A fully resolved, internally consistent set of declarations."""

    declarations: list[Declaration] = field(default_factory=list)
    dim: int | None = None
    gates: dict[str, np.ndarray] = field(default_factory=dict)
    states: dict[str, np.ndarray] = field(default_factory=dict)
    circuits: dict[str, tuple[str, ...]] = field(default_factory=dict)
    node_refs: dict[str, tuple[str, str]] = field(default_factory=dict)  # id -> (kind, name)
    edges: list[tuple[tuple[str, str], tuple[str, str]]] = field(default_factory=list)
    free: list[tuple[str, str]] = field(default_factory=list)

    def circuit_layers(self, name: str) -> list[np.ndarray]:
        """Resolve a circuit's gate tokens to matrices, in time order."""
        if name not in self.circuits:
            raise ValueError(f"unknown circuit '{name}'")
        return [self.gates[token] for token in self.circuits[name]]

    def network(self) -> tensornet.Network:
        """Build the declared node/edge/free wiring as a Network."""
        nodes, legs = {}, {}  # legs: one tuple per array shape, so per node kind in a parsed document
        for node_id, (kind, ref) in self.node_refs.items():
            # One copy of the parser-checked array; a gate's legs are (out, in).
            arr = np.array((self.gates if kind == "gate" else self.states)[ref], complex, order="C")
            if arr.shape not in legs:
                legs[arr.shape] = tuple(zip(("out", "in"), arr.shape))
            nodes[node_id] = tensornet.Tensor._of_checked(legs[arr.shape], arr)
        return tensornet.Network(nodes, self.edges, self.free)


@dataclass(frozen=True)
class ParseResult:
    """Either a document or a non-empty list of diagnostics, never both."""

    document: Document | None
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.document is not None


class _Parser:
    """Parses one source; ``lineno`` and ``excerpt`` locate the line being read."""

    def __init__(self, source: str):
        self.source = source
        self.diags: list[Diagnostic] = []
        self.doc = Document()
        self.used_legs: set[tuple[str, str]] = set()
        self.lineno = 0
        self.excerpt = ""

    def error(self, message: str, column: int) -> None:
        self.diags.append(Diagnostic("error", message, self.lineno, max(column, 1), self.excerpt))

    def run(self) -> ParseResult:
        # A line's excerpt drops the "\r" of a "\r\n" ending and nothing else.
        self.excerpts = [raw[:-1] if raw.endswith("\r") else raw for raw in self.source.split("\n")]
        for self.lineno, self.excerpt in enumerate(self.excerpts, 1):
            line = self.excerpt.split("#", 1)[0]
            if line.strip():
                self.parse_line(line)
        self.check_dangling()
        if self.diags:
            return ParseResult(None, self.diags)
        return ParseResult(self.doc, [])

    def parse_line(self, line: str) -> None:
        head = _RE_HEAD.match(line)
        kind, col = head[1], head.start(1) + 1
        if kind not in _RULES:
            self.error(f"unknown declaration kind '{kind}'", col)
            return
        pattern, handler, _ = _RULES[kind]
        m = pattern.fullmatch(line, head.end())
        if m is None:
            self.error(f"malformed `{kind}` declaration", col)
            return
        declared = handler(self, m, col)
        if declared is not None:
            name, payload = declared
            self.doc.declarations.append(Declaration(kind, name, payload, self.lineno, col))

    def require_dim(self, column: int) -> bool:
        if self.doc.dim is None:
            self.error("no `dim` declared before this declaration", column)
            return False
        return True

    def is_duplicate(self, kind: str, m: re.Match, table) -> bool:
        if m["name"] in table:
            self.error(f"duplicate declaration of {kind} '{m['name']}'", m.start("name") + 1)
            return True
        return False

    # -- the handlers: return (name, payload) to record, or None ----------

    def parse_dim(self, m: re.Match, col: int):
        token = m["val"]
        if not token.isdecimal() or int(token) < 1:
            self.error(f"invalid dimension '{token}'", m.start("val") + 1)
            return None
        if self.doc.dim is not None:
            self.error("duplicate `dim` declaration", col)
            return None
        self.doc.dim = int(token)
        return None, self.doc.dim

    def parse_array(self, m: re.Match, col: int, kind: str):
        table, depth = (self.doc.gates, 2) if kind == "gate" else (self.doc.states, 1)
        if self.is_duplicate(kind, m, table):
            return None
        body_col = m.start("body") + 1
        value = self.parse_literal(m["body"], body_col, depth)
        if not self.require_dim(col) or value is None:
            return None
        name, d = m["name"], self.doc.dim
        if len(value) != d or (depth == 2 and len(value[0]) != d):
            if depth == 2:
                want, got = f"be {d}x{d}", f"{len(value)}x{len(value[0]) if value else 0}"
            else:
                want, got = f"have {d} entries", len(value)
            self.error(f"dimension mismatch: {kind} '{name}' must {want}, got {got}", body_col)
            return None
        table[name] = np.array(value, dtype=complex)
        return name, table[name]

    def parse_circuit(self, m: re.Match, col: int):
        if self.is_duplicate("circuit", m, self.doc.circuits) or not self.require_dim(col):
            return None
        tokens = list(re.finditer(r"\S+", m["body"]))
        unknown = [token for token in tokens if token[0] not in self.doc.gates]
        for token in unknown:
            self.error(f"unknown gate '{token[0]}'", m.start("body") + token.start() + 1)
        if unknown:
            return None
        self.doc.circuits[m["name"]] = tuple(token[0] for token in tokens)
        return m["name"], self.doc.circuits[m["name"]]

    def parse_node(self, m: re.Match, col: int):
        if self.is_duplicate("node", m, self.doc.node_refs):
            return None
        ref = m["ref"]
        if ref in self.doc.gates:  # gates shadow states for node references
            kind = "gate"
        elif ref in self.doc.states:
            kind = "state"
        else:
            self.error(f"unknown gate or state '{ref}'", m.start("ref") + 1)
            return None
        self.doc.node_refs[m["name"]] = (kind, ref)
        return m["name"], (kind, ref)

    def resolve_endpoint(self, node: str, leg: str, column: int) -> tuple[str, str] | None:
        if node not in self.doc.node_refs:
            self.error(f"unknown node '{node}'", column)
            return None
        kind, _ = self.doc.node_refs[node]
        if leg not in _LEGS[kind]:
            self.error(f"unknown leg '{leg}' for {kind} node '{node}'", column)
            return None
        if (node, leg) in self.used_legs:
            self.error(f"leg '{node}.{leg}' wired more than once", column)
            return None
        return node, leg

    def parse_edge(self, m: re.Match, col: int):
        first = self.resolve_endpoint(m["a"], m["x"], m.start("a") + 1)
        if first is None:
            return None
        self.used_legs.add(first)  # reserve before checking the far end
        second = self.resolve_endpoint(m["b"], m["y"], m.start("b") + 1)
        if second is None:
            self.used_legs.remove(first)
            return None
        self.used_legs.add(second)
        self.doc.edges.append((first, second))
        return None, (first, second)

    def parse_free(self, m: re.Match, col: int):
        endpoint = self.resolve_endpoint(m["a"], m["x"], m.start("a") + 1)
        if endpoint is None:
            return None
        self.used_legs.add(endpoint)
        self.doc.free.append(endpoint)
        return None, endpoint

    def check_dangling(self) -> None:
        for decl in self.doc.declarations:
            if decl.kind != "node":
                continue
            self.lineno, self.excerpt = decl.line, self.excerpts[decl.line - 1]
            kind, _ = decl.payload
            for leg in _LEGS[kind]:
                if (decl.name, leg) not in self.used_legs:
                    self.error(f"dangling leg '{decl.name}.{leg}'", decl.column)

    # -- literals --------------------------------------------------------

    def split_bracketed(self, text: str, base_col: int) -> list[tuple[str, int]] | None:
        """Split ``[a, b, ...]`` into (item text, column) pairs at depth 0."""
        text = text.rstrip()
        if not text.startswith("[") or not text.endswith("]"):
            self.error("malformed bracketed literal", base_col)
            return None
        inner = text[1:-1]
        items: list[tuple[str, int]] = []
        depth = 0
        start = 0
        for m in _RE_STRUCTURE.finditer(inner):
            ch = m[0]
            if ch == ",":
                if depth == 0:
                    i = m.start()
                    items.append((inner[start:i], base_col + 1 + start))
                    start = i + 1
            elif ch == "[":
                depth += 1
            else:
                depth -= 1
                if depth < 0:
                    self.error("malformed bracketed literal", base_col + 1 + m.start())
                    return None
        if depth != 0:
            self.error("malformed bracketed literal", base_col)
            return None
        items.append((inner[start:], base_col + 1 + start))
        if len(items) == 1 and not items[0][0].strip():
            return []
        return items

    def parse_literal(self, text: str, base_col: int, depth: int) -> list | None:
        """Read ``[c, ...]`` (depth 1) or ``[[c, ...], ...]`` (depth 2); None after an error."""
        items = self.split_bracketed(text, base_col)
        if items is None:
            return None
        out, ok = [], True
        for item, item_col in items:
            value = parse_complex_literal(item) if depth == 1 else None
            if value is None or not cmath.isfinite(value):
                # A row, or a bad entry, starts at its first non-blank column; a blank one is
                # placed at the "," or "]" that ends it.
                entry, col = item.strip(), item_col + len(item) - len(item.lstrip())
                if not entry:
                    self.error("missing matrix row" if depth == 2 else "missing complex literal", col)
                elif depth == 2:
                    value = self.parse_literal(entry, col, 1)
                else:
                    problem = "malformed" if value is None else "non-finite"
                    self.error(f"{problem} complex literal '{entry}'", col)
                    value = None
            if value is None:
                ok = False
            else:
                out.append(value)
        if ok and depth == 2 and any(len(row) != len(out[0]) for row in out):
            self.error("ragged matrix row", base_col)
            return None
        return out if ok else None


def _vector(values) -> str:
    return "[" + ", ".join(format_complex(v) for v in values) + "]"


# Per kind: the pattern for the rest of a comment-free line, the handler, the printer.
_RULES = {
    "dim": (re.compile(r"\s+(?P<val>\S+)\s*"), _Parser.parse_dim,
            lambda decl: f"dim {decl.payload}"),
    "gate": (_RE_NAMED, lambda parser, m, col: parser.parse_array(m, col, "gate"),
             lambda decl: f"gate {decl.name} = [{', '.join(map(_vector, decl.payload))}]"),
    "state": (_RE_NAMED, lambda parser, m, col: parser.parse_array(m, col, "state"),
              lambda decl: f"state {decl.name} = {_vector(decl.payload)}"),
    "circuit": (_RE_NAMED, _Parser.parse_circuit,
                lambda decl: f"circuit {decl.name} = " + " ".join(decl.payload)),
    "node": (re.compile(rf"\s+(?P<name>{_NAME})\s*:\s*(?P<ref>{_NAME})\s*"), _Parser.parse_node,
             lambda decl: f"node {decl.name} : {decl.payload[1]}"),
    "edge": (
        re.compile(rf"\s+(?P<a>{_NAME})\.(?P<x>{_NAME})\s*->\s*(?P<b>{_NAME})\.(?P<y>{_NAME})\s*"),
        _Parser.parse_edge,
        lambda decl: "edge {}.{} -> {}.{}".format(*decl.payload[0], *decl.payload[1]),
    ),
    "free": (re.compile(rf"\s+(?P<a>{_NAME})\.(?P<x>{_NAME})\s*"), _Parser.parse_free,
             lambda decl: "free {}.{}".format(*decl.payload)),
}


def parse(source: str) -> ParseResult:
    """Parse DSL text. Total: returns diagnostics instead of raising."""
    return _Parser(source).run()


def parse_bytes(data: bytes) -> ParseResult:
    """Parse raw bytes as UTF-8 DSL text; bad bytes become a positioned diagnostic."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        prefix = data[: exc.start].decode("utf-8", errors="replace")
        line = prefix.count("\n") + 1
        column = len(prefix) - (prefix.rfind("\n") + 1) + 1
        diag = Diagnostic(
            "error", f"invalid UTF-8 byte at offset {exc.start}", line, max(column, 1), ""
        )
        return ParseResult(None, [diag])
    return parse(text)


def pretty_print(doc: Document) -> str:
    """Canonical text for a document; reparses to a structurally identical one."""
    lines = []
    for decl in doc.declarations:
        if decl.kind not in _RULES:
            raise ValueError(f"unknown declaration kind {decl.kind!r}")
        lines.append(_RULES[decl.kind][2](decl) + "\n")
    return "".join(lines)
