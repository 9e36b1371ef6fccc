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
(scientific notation allowed) or the shorthand ``1/sqrt2``, which parses to
the double closest to 0.7071067811865476. A literal beyond the double range
(``1e999``) is an error, not an infinity. Gate nodes expose legs ``in`` and
``out``; state nodes expose ``out``. Circuit tokens are listed in time
order: the first gate acts first. Every referenced name must be declared on
an earlier line, names are unique per kind, and a document has at most one
``dim``, which must precede anything that needs it.

Each line goes through one rule, chosen by its first word from ``_RULES``:
a pattern for the rest of the line and a handler that checks the match
against the declarations before it and records the result.

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
_RE_NAMED = re.compile(rf"\s+(?P<name>{_NAME})\s*=\s*(?P<body>\S.*?)\s*")

_LEGS = {"gate": ("in", "out"), "state": ("out",)}


def _real_value(token: str) -> float:
    sign = 1.0
    if token and token[0] in "+-":
        if token[0] == "-":
            sign = -1.0
        token = token[1:]
    if token == "1/sqrt2":
        return sign * _SQRT1_2
    return sign * float(token)


def parse_complex_literal(token: str) -> complex | None:
    """Parse one complex literal, or None if malformed."""
    m = _RE_COMPLEX.fullmatch(token.strip())
    if m is None or not m[0]:
        return None
    re_part = _real_value(m["re"]) if m["re"] else 0.0
    im_part = _real_value(m["sign"] + (m["im"] or "1")) if m["i"] else 0.0
    return complex(re_part, im_part)


def _fmt_real(x: float) -> str:
    if x == 0.0:
        x = 0.0
    return repr(float(x))


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

    def has_network(self) -> bool:
        return bool(self.node_refs)

    def network(self) -> tensornet.Network:
        """Build the declared node/edge/free wiring as a Network."""
        nodes = {}
        for node_id, (kind, ref) in self.node_refs.items():
            if kind == "gate":
                nodes[node_id] = tensornet.Tensor.from_matrix(self.gates[ref])
            else:
                nodes[node_id] = tensornet.Tensor.from_state(self.states[ref])
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
        self.lines = self.source.split("\n")
        for lineno, raw in enumerate(self.lines, 1):
            self.lineno = lineno
            self.excerpt = raw[:-1] if raw.endswith("\r") else raw
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
        pattern, handler = _RULES[kind]
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

    # -- one handler per kind: return (name, payload) to record, or None ---

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

    def parse_gate(self, m: re.Match, col: int):
        if self.is_duplicate("gate", m, self.doc.gates):
            return None
        body_col = m.start("body") + 1
        rows = self.parse_matrix_literal(m["body"], body_col)
        if not self.require_dim(col) or rows is None:
            return None
        name, d = m["name"], self.doc.dim
        if len(rows) != d or any(len(r) != d for r in rows):
            shape = f"{len(rows)}x{len(rows[0]) if rows else 0}"
            self.error(f"dimension mismatch: gate '{name}' must be {d}x{d}, got {shape}", body_col)
            return None
        self.doc.gates[name] = np.array(rows, dtype=complex)
        return name, self.doc.gates[name]

    def parse_state(self, m: re.Match, col: int):
        if self.is_duplicate("state", m, self.doc.states):
            return None
        body_col = m.start("body") + 1
        entries = self.parse_vector_literal(m["body"], body_col)
        if not self.require_dim(col) or entries is None:
            return None
        name, d = m["name"], self.doc.dim
        if len(entries) != d:
            self.error(
                f"dimension mismatch: state '{name}' must have {d} entries, got {len(entries)}",
                body_col,
            )
            return None
        self.doc.states[name] = np.array(entries, dtype=complex)
        return name, self.doc.states[name]

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
            self.lineno, self.excerpt = decl.line, self.lines[decl.line - 1].rstrip("\r")
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
        for i, ch in enumerate(inner):
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
                if depth < 0:
                    self.error("malformed bracketed literal", base_col + 1 + i)
                    return None
            elif ch == "," and depth == 0:
                items.append((inner[start:i], base_col + 1 + start))
                start = i + 1
        if depth != 0:
            self.error("malformed bracketed literal", base_col)
            return None
        items.append((inner[start:], base_col + 1 + start))
        if len(items) == 1 and not items[0][0].strip():
            return []
        return items

    def parse_vector_literal(self, text: str, base_col: int) -> list[complex] | None:
        items = self.split_bracketed(text, base_col)
        if items is None:
            return None
        out = []
        ok = True
        for item_text, item_col in items:
            value = parse_complex_literal(item_text)
            if value is None or not cmath.isfinite(value):
                problem = "malformed" if value is None else "non-finite"
                self.error(f"{problem} complex literal '{item_text.strip()}'", item_col)
                ok = False
            else:
                out.append(value)
        return out if ok else None

    def parse_matrix_literal(self, text: str, base_col: int) -> list[list[complex]] | None:
        rows_raw = self.split_bracketed(text, base_col)
        if rows_raw is None:
            return None
        rows: list[list[complex]] = []
        ok = True
        for row_text, row_col in rows_raw:
            offset = row_col + (len(row_text) - len(row_text.lstrip()))
            row = self.parse_vector_literal(row_text.strip(), offset)
            if row is None:
                ok = False
            else:
                rows.append(row)
        if not ok:
            return None
        if rows and any(len(r) != len(rows[0]) for r in rows):
            self.error("ragged matrix row", base_col)
            return None
        return rows


# Each pattern matches what follows the kind word on a comment-free line.
_RULES = {
    "dim": (re.compile(r"\s+(?P<val>\S+)\s*"), _Parser.parse_dim),
    "gate": (_RE_NAMED, _Parser.parse_gate),
    "state": (_RE_NAMED, _Parser.parse_state),
    "circuit": (_RE_NAMED, _Parser.parse_circuit),
    "node": (re.compile(rf"\s+(?P<name>{_NAME})\s*:\s*(?P<ref>{_NAME})\s*"), _Parser.parse_node),
    "edge": (
        re.compile(rf"\s+(?P<a>{_NAME})\.(?P<x>{_NAME})\s*->\s*(?P<b>{_NAME})\.(?P<y>{_NAME})\s*"),
        _Parser.parse_edge,
    ),
    "free": (re.compile(rf"\s+(?P<a>{_NAME})\.(?P<x>{_NAME})\s*"), _Parser.parse_free),
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


def _render_declaration(decl: Declaration) -> str:
    if decl.kind == "dim":
        return f"dim {decl.payload}"
    if decl.kind == "gate":
        matrix = decl.payload
        rows = ", ".join(
            "[" + ", ".join(format_complex(v) for v in row) + "]" for row in matrix
        )
        return f"gate {decl.name} = [{rows}]"
    if decl.kind == "state":
        vec = ", ".join(format_complex(v) for v in decl.payload)
        return f"state {decl.name} = [{vec}]"
    if decl.kind == "circuit":
        return f"circuit {decl.name} = " + " ".join(decl.payload)
    if decl.kind == "node":
        _, ref = decl.payload
        return f"node {decl.name} : {ref}"
    if decl.kind == "edge":
        (a, x), (b, y) = decl.payload
        return f"edge {a}.{x} -> {b}.{y}"
    if decl.kind == "free":
        a, x = decl.payload
        return f"free {a}.{x}"
    raise ValueError(f"unknown declaration kind {decl.kind!r}")


def pretty_print(doc: Document) -> str:
    """Canonical text for a document; reparses to a structurally identical one."""
    return "\n".join(_render_declaration(d) for d in doc.declarations) + (
        "\n" if doc.declarations else ""
    )
