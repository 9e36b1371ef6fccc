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
_RE_BOTH = re.compile(rf"(?P<re>[+-]?{_UNSIGNED})(?P<sign>[+-])(?P<im>{_UNSIGNED})?i")
_RE_IMAG = re.compile(rf"(?P<sign>[+-]?)(?P<im>{_UNSIGNED})?i")
_RE_REAL = re.compile(rf"[+-]?{_UNSIGNED}")

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_RE_DIM = re.compile(r"\s*dim\s+(?P<val>\S+)\s*")
_RE_GATE = re.compile(rf"\s*gate\s+(?P<name>{_NAME})\s*=\s*(?P<body>\S.*?)\s*")
_RE_STATE = re.compile(rf"\s*state\s+(?P<name>{_NAME})\s*=\s*(?P<body>\S.*?)\s*")
_RE_CIRCUIT = re.compile(rf"\s*circuit\s+(?P<name>{_NAME})\s*=\s*(?P<body>\S.*?)\s*")
_RE_NODE = re.compile(rf"\s*node\s+(?P<name>{_NAME})\s*:\s*(?P<ref>{_NAME})\s*")
_RE_EDGE = re.compile(
    rf"\s*edge\s+(?P<a>{_NAME})\.(?P<x>{_NAME})\s*->\s*(?P<b>{_NAME})\.(?P<y>{_NAME})\s*"
)
_RE_FREE = re.compile(rf"\s*free\s+(?P<a>{_NAME})\.(?P<x>{_NAME})\s*")

_GATE_LEGS = ("in", "out")
_STATE_LEGS = ("out",)


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
    token = token.strip()
    if not token:
        return None
    m = _RE_BOTH.fullmatch(token)
    if m:
        im = _real_value(m.group("im")) if m.group("im") is not None else 1.0
        if m.group("sign") == "-":
            im = -im
        return complex(_real_value(m.group("re")), im)
    m = _RE_IMAG.fullmatch(token)
    if m:
        im = _real_value(m.group("im")) if m.group("im") is not None else 1.0
        if m.group("sign") == "-":
            im = -im
        return complex(0.0, im)
    if _RE_REAL.fullmatch(token):
        return complex(_real_value(token), 0.0)
    return None


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
            raise KeyError(f"unknown circuit '{name}'")
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
    def __init__(self, source: str):
        self.source = source
        self.diags: list[Diagnostic] = []
        self.doc = Document()
        self.used_legs: dict[tuple[str, str], int] = {}  # endpoint -> line declared

    def error(self, message: str, line: int, column: int, excerpt: str) -> None:
        self.diags.append(Diagnostic("error", message, line, max(column, 1), excerpt))

    def run(self) -> ParseResult:
        self.lines = self.source.split("\n")
        for lineno, raw in enumerate(self.lines, 1):
            if raw.endswith("\r"):
                raw = raw[:-1]
            line = raw.split("#", 1)[0]
            if not line.strip():
                continue
            self.parse_line(line, lineno, raw)
        self.check_dangling()
        if self.diags:
            return ParseResult(None, self.diags)
        return ParseResult(self.doc, [])

    # -- per-line dispatch ---------------------------------------------

    def parse_line(self, line: str, lineno: int, raw: str) -> None:
        head = re.match(r"\s*(\S+)", line)
        kind = head.group(1)
        kind_col = head.start(1) + 1
        handler = {
            "dim": self.parse_dim,
            "gate": self.parse_gate,
            "state": self.parse_state,
            "circuit": self.parse_circuit,
            "node": self.parse_node,
            "edge": self.parse_edge,
            "free": self.parse_free,
        }.get(kind)
        if handler is None:
            self.error(f"unknown declaration kind '{kind}'", lineno, kind_col, raw)
            return
        handler(line, lineno, kind_col, raw)

    def require_dim(self, lineno: int, column: int, raw: str) -> bool:
        if self.doc.dim is None:
            self.error("no `dim` declared before this declaration", lineno, column, raw)
            return False
        return True

    def declare(self, kind: str, name: str | None, payload, lineno: int, column: int) -> None:
        self.doc.declarations.append(Declaration(kind, name, payload, lineno, column))

    def check_duplicate(self, kind: str, name: str, table, lineno: int, column: int, raw: str) -> bool:
        if name in table:
            self.error(f"duplicate declaration of {kind} '{name}'", lineno, column, raw)
            return True
        return False

    def parse_dim(self, line: str, lineno: int, col: int, raw: str) -> None:
        m = _RE_DIM.fullmatch(line)
        if not m:
            self.error("malformed `dim` declaration", lineno, col, raw)
            return
        token = m.group("val")
        if not token.isdigit() or int(token) < 1:
            self.error(f"invalid dimension '{token}'", lineno, m.start("val") + 1, raw)
            return
        if self.doc.dim is not None:
            self.error("duplicate `dim` declaration", lineno, col, raw)
            return
        self.doc.dim = int(token)
        self.declare("dim", None, self.doc.dim, lineno, col)

    def parse_gate(self, line: str, lineno: int, col: int, raw: str) -> None:
        m = _RE_GATE.fullmatch(line)
        if not m:
            self.error("malformed `gate` declaration", lineno, col, raw)
            return
        name = m.group("name")
        if self.check_duplicate("gate", name, self.doc.gates, lineno, m.start("name") + 1, raw):
            return
        rows = self.parse_matrix_literal(m.group("body"), lineno, m.start("body") + 1, raw)
        if not self.require_dim(lineno, col, raw) or rows is None:
            return
        d = self.doc.dim
        if len(rows) != d or any(len(r) != d for r in rows):
            shape = f"{len(rows)}x{len(rows[0]) if rows else 0}"
            self.error(
                f"dimension mismatch: gate '{name}' must be {d}x{d}, got {shape}",
                lineno,
                m.start("body") + 1,
                raw,
            )
            return
        matrix = np.array(rows, dtype=complex)
        self.doc.gates[name] = matrix
        self.declare("gate", name, matrix, lineno, col)

    def parse_state(self, line: str, lineno: int, col: int, raw: str) -> None:
        m = _RE_STATE.fullmatch(line)
        if not m:
            self.error("malformed `state` declaration", lineno, col, raw)
            return
        name = m.group("name")
        if self.check_duplicate("state", name, self.doc.states, lineno, m.start("name") + 1, raw):
            return
        entries = self.parse_vector_literal(m.group("body"), lineno, m.start("body") + 1, raw)
        if not self.require_dim(lineno, col, raw) or entries is None:
            return
        d = self.doc.dim
        if len(entries) != d:
            self.error(
                f"dimension mismatch: state '{name}' must have {d} entries, got {len(entries)}",
                lineno,
                m.start("body") + 1,
                raw,
            )
            return
        vector = np.array(entries, dtype=complex)
        self.doc.states[name] = vector
        self.declare("state", name, vector, lineno, col)

    def parse_circuit(self, line: str, lineno: int, col: int, raw: str) -> None:
        m = _RE_CIRCUIT.fullmatch(line)
        if not m:
            self.error("malformed `circuit` declaration", lineno, col, raw)
            return
        name = m.group("name")
        if self.check_duplicate("circuit", name, self.doc.circuits, lineno, m.start("name") + 1, raw):
            return
        if not self.require_dim(lineno, col, raw):
            return
        body = m.group("body")
        body_col = m.start("body")
        tokens = []
        bad = False
        for tok_match in re.finditer(r"\S+", body):
            token = tok_match.group(0)
            if token not in self.doc.gates:
                self.error(
                    f"unknown gate '{token}'", lineno, body_col + tok_match.start() + 1, raw
                )
                bad = True
            tokens.append(token)
        if bad:
            return
        self.doc.circuits[name] = tuple(tokens)
        self.declare("circuit", name, tuple(tokens), lineno, col)

    def parse_node(self, line: str, lineno: int, col: int, raw: str) -> None:
        m = _RE_NODE.fullmatch(line)
        if not m:
            self.error("malformed `node` declaration", lineno, col, raw)
            return
        name = m.group("name")
        ref = m.group("ref")
        if self.check_duplicate("node", name, self.doc.node_refs, lineno, m.start("name") + 1, raw):
            return
        if ref in self.doc.gates:  # gates shadow states for node references
            kind = "gate"
        elif ref in self.doc.states:
            kind = "state"
        else:
            self.error(f"unknown gate or state '{ref}'", lineno, m.start("ref") + 1, raw)
            return
        self.doc.node_refs[name] = (kind, ref)
        self.declare("node", name, (kind, ref), lineno, col)

    def resolve_endpoint(
        self, node: str, leg: str, lineno: int, column: int, raw: str
    ) -> tuple[str, str] | None:
        if node not in self.doc.node_refs:
            self.error(f"unknown node '{node}'", lineno, column, raw)
            return None
        kind, _ = self.doc.node_refs[node]
        legs = _GATE_LEGS if kind == "gate" else _STATE_LEGS
        if leg not in legs:
            self.error(f"unknown leg '{leg}' for {kind} node '{node}'", lineno, column, raw)
            return None
        endpoint = (node, leg)
        if endpoint in self.used_legs:
            self.error(f"leg '{node}.{leg}' wired more than once", lineno, column, raw)
            return None
        return endpoint

    def parse_edge(self, line: str, lineno: int, col: int, raw: str) -> None:
        m = _RE_EDGE.fullmatch(line)
        if not m:
            self.error("malformed `edge` declaration", lineno, col, raw)
            return
        first = self.resolve_endpoint(m.group("a"), m.group("x"), lineno, m.start("a") + 1, raw)
        if first is None:
            return
        self.used_legs[first] = lineno  # reserve before checking the far end
        second = self.resolve_endpoint(m.group("b"), m.group("y"), lineno, m.start("b") + 1, raw)
        if second is None:
            del self.used_legs[first]
            return
        self.used_legs[second] = lineno
        self.doc.edges.append((first, second))
        self.declare("edge", None, (first, second), lineno, col)

    def parse_free(self, line: str, lineno: int, col: int, raw: str) -> None:
        m = _RE_FREE.fullmatch(line)
        if not m:
            self.error("malformed `free` declaration", lineno, col, raw)
            return
        endpoint = self.resolve_endpoint(m.group("a"), m.group("x"), lineno, m.start("a") + 1, raw)
        if endpoint is None:
            return
        self.used_legs[endpoint] = lineno
        self.doc.free.append(endpoint)
        self.declare("free", None, endpoint, lineno, col)

    def check_dangling(self) -> None:
        for decl in self.doc.declarations:
            if decl.kind != "node":
                continue
            node_id = decl.name
            kind, _ = self.doc.node_refs[node_id]
            legs = _GATE_LEGS if kind == "gate" else _STATE_LEGS
            for leg in legs:
                if (node_id, leg) not in self.used_legs:
                    self.error(
                        f"dangling leg '{node_id}.{leg}'",
                        decl.line,
                        decl.column,
                        self._line_text(decl.line),
                    )

    def _line_text(self, lineno: int) -> str:
        return self.lines[lineno - 1].rstrip("\r")

    # -- literals --------------------------------------------------------

    def split_bracketed(
        self, text: str, lineno: int, base_col: int, raw: str
    ) -> list[tuple[str, int]] | None:
        """Split ``[a, b, ...]`` into (item text, column) pairs at depth 0."""
        text = text.rstrip()
        if not text.startswith("[") or not text.endswith("]"):
            self.error("malformed bracketed literal", lineno, base_col, raw)
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
                    self.error("malformed bracketed literal", lineno, base_col + 1 + i, raw)
                    return None
            elif ch == "," and depth == 0:
                items.append((inner[start:i], base_col + 1 + start))
                start = i + 1
        if depth != 0:
            self.error("malformed bracketed literal", lineno, base_col, raw)
            return None
        items.append((inner[start:], base_col + 1 + start))
        if len(items) == 1 and not items[0][0].strip():
            return []
        return items

    def parse_vector_literal(
        self, text: str, lineno: int, base_col: int, raw: str
    ) -> list[complex] | None:
        items = self.split_bracketed(text, lineno, base_col, raw)
        if items is None:
            return None
        out = []
        ok = True
        for item_text, item_col in items:
            value = parse_complex_literal(item_text)
            if value is None or not cmath.isfinite(value):
                problem = "malformed" if value is None else "non-finite"
                self.error(
                    f"{problem} complex literal '{item_text.strip()}'", lineno, item_col, raw
                )
                ok = False
            else:
                out.append(value)
        return out if ok else None

    def parse_matrix_literal(
        self, text: str, lineno: int, base_col: int, raw: str
    ) -> list[list[complex]] | None:
        rows_raw = self.split_bracketed(text, lineno, base_col, raw)
        if rows_raw is None:
            return None
        rows: list[list[complex]] = []
        ok = True
        for row_text, row_col in rows_raw:
            stripped = row_text.strip()
            offset = row_col + (len(row_text) - len(row_text.lstrip()))
            row = self.parse_vector_literal(stripped, lineno, offset, raw)
            if row is None:
                ok = False
            else:
                rows.append(row)
        if not ok:
            return None
        if rows and any(len(r) != len(rows[0]) for r in rows):
            self.error("ragged matrix row", lineno, base_col, raw)
            return None
        return rows


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
