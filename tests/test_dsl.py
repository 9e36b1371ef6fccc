"""Document parsing: grammar, diagnostics, literals, round-tripping, fuzz."""

import cmath
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpath import dsl

MZ_SOURCE = """\
# Mach-Zehnder interferometer
dim 2
gate H = [[1/sqrt2, 1/sqrt2], [1/sqrt2, -1/sqrt2]]
gate X = [[0, 1], [1, 0]]
circuit mz = H X H
"""


# near-grammar words for the structured fuzz tests
FUZZ_WORDS = ["dim", "gate", "state", "circuit", "node", "edge", "free",
              "=", "->", ":", "[", "]", ",", "1", "i", "1/sqrt2", "H", ".", "#x"]


def messages(result):
    return [d.message for d in result.diagnostics]


def documents_match(a: dsl.Document, b: dsl.Document) -> bool:
    if len(a.declarations) != len(b.declarations):
        return False
    for da, db in zip(a.declarations, b.declarations):
        if (da.kind, da.name) != (db.kind, db.name):
            return False
        if isinstance(da.payload, np.ndarray):
            if not np.array_equal(da.payload, db.payload):
                return False
        elif da.payload != db.payload:
            return False
    return True


class TestGrammar:
    def test_mach_zehnder_document(self):
        result = dsl.parse(MZ_SOURCE)
        assert result.ok
        doc = result.document
        assert len(doc.declarations) == 4
        assert doc.dim == 2
        assert set(doc.gates) == {"H", "X"}
        assert doc.circuits["mz"] == ("H", "X", "H")
        assert doc.gates["H"][0, 0] == 0.7071067811865476

    def test_unknown_circuit_is_a_value_error(self):
        doc = dsl.parse(MZ_SOURCE).document
        with pytest.raises(ValueError, match=r"^unknown circuit 'x'$"):
            doc.circuit_layers("x")

    def test_empty_input(self):
        result = dsl.parse("")
        assert result.ok
        assert result.document.declarations == []
        assert result.diagnostics == []

    def test_comments_and_blank_lines_ignored(self):
        result = dsl.parse("\n# only a comment\n   \ndim 3  # trailing comment\n")
        assert result.ok
        assert result.document.dim == 3

    def test_crlf_accepted(self):
        result = dsl.parse(MZ_SOURCE.replace("\n", "\r\n"))
        assert result.ok
        assert len(result.document.declarations) == 4

    def test_network_declarations(self):
        src = MZ_SOURCE + "state zero = [1, 0]\nnode a : H\nnode s : zero\nedge s.out -> a.in\nfree a.out\n"
        result = dsl.parse(src)
        assert result.ok
        net = result.document.network()
        out = net.contract()
        assert np.allclose(np.asarray(out.data), result.document.gates["H"][:, 0])

    def test_network_builds_from_the_parsed_arrays_without_checking_them_again(self, monkeypatch):
        src = MZ_SOURCE + "state zero = [1, 0]\nnode a : H\nnode s : zero\nedge s.out -> a.in\nfree a.out\n"
        doc = dsl.parse(src).document
        isfinite = np.isfinite
        calls = []
        monkeypatch.setattr(np, "isfinite", lambda a: calls.append(a.shape) or isfinite(a))
        net = doc.network()
        monkeypatch.undo()
        assert calls == []
        assert [t.legs for t in net.nodes.values()] == [(("out", 2), ("in", 2)), (("out", 2),)]
        gate, state = net.nodes["a"].data.copy(), net.nodes["s"].data.copy()
        doc.gates["H"][0, 0] = 5
        doc.states["zero"][0] = 7
        assert np.array_equal(net.nodes["a"].data, gate) and np.array_equal(net.nodes["s"].data, state)
        assert not net.nodes["a"].data.flags.writeable and doc.gates["H"].flags.writeable

    def test_gates_shadow_states_in_node_refs(self):
        src = "dim 2\ngate G = [[1, 0], [0, 1]]\nstate G = [1, 0]\nnode n : G\nedge n.out -> n.in\n"
        result = dsl.parse(src)
        assert result.ok
        assert result.document.node_refs["n"] == ("gate", "G")


class TestDiagnostics:
    def test_ragged_matrix_row(self):
        result = dsl.parse("dim 2\ngate G = [[1,2],[3]]\n")
        assert not result.ok
        assert "ragged matrix row" in messages(result)
        diag = result.diagnostics[0]
        assert diag.line == 2 and diag.column >= 10

    def test_malformed_complex_literal(self):
        result = dsl.parse("dim 2\ngate G = [[1, oops], [0, 1]]\n")
        assert any("malformed complex literal 'oops'" in m for m in messages(result))

    def test_bad_entry_is_positioned_at_its_first_character(self):
        result = dsl.parse("dim 2\ngate G = [[1, oops], [0, 1]]\nstate s = [ \t1,   x ]\n")
        assert [(d.message, d.line, d.column) for d in result.diagnostics] == [
            ("malformed complex literal 'oops'", 2, 15),
            ("malformed complex literal 'x'", 3, 19),
        ]

    def test_non_finite_literal_is_positioned(self):
        result = dsl.parse("dim 2\ngate G = [[1e999, 0], [0, 1]]\nstate s = [1, -2e400i]\n")
        assert not result.ok
        gate, state = result.diagnostics
        assert gate.message == "non-finite complex literal '1e999'"
        assert (gate.line, gate.column) == (2, 12)
        assert state.message == "non-finite complex literal '-2e400i'"
        assert (state.line, state.column) == (3, 15)

    def test_dimension_must_be_decimal_digits(self):
        # "²" is a digit to str.isdigit but not to int()
        result = dsl.parse("dim ²\n")
        assert [(d.message, d.line, d.column) for d in result.diagnostics] == [
            ("invalid dimension '²'", 1, 5)
        ]
        assert dsl.parse("dim ٣\n").document.dim == 3

    def test_unknown_gate_in_circuit(self):
        result = dsl.parse("dim 2\ncircuit c = nope\n")
        assert any("unknown gate 'nope'" in m for m in messages(result))

    def test_unknown_node_reference(self):
        result = dsl.parse("dim 2\nnode n : ghost\n")
        assert any("unknown gate or state 'ghost'" in m for m in messages(result))

    def test_duplicate_declarations(self):
        result = dsl.parse("dim 2\ngate G = [[1,0],[0,1]]\ngate G = [[1,0],[0,1]]\n")
        assert any("duplicate declaration of gate 'G'" in m for m in messages(result))
        result = dsl.parse("dim 2\ndim 3\n")
        assert "duplicate `dim` declaration" in messages(result)

    def test_dim_required_first(self):
        result = dsl.parse("gate G = [[1,0],[0,1]]\n")
        assert "no `dim` declared before this declaration" in messages(result)

    def test_dimension_mismatch_messages(self):
        result = dsl.parse("dim 2\ngate G = [[1,0,0],[0,1,0],[0,0,1]]\n")
        assert any("must be 2x2, got 3x3" in m for m in messages(result))
        result = dsl.parse("dim 2\nstate s = [1, 0, 0]\n")
        assert any("must have 2 entries, got 3" in m for m in messages(result))

    def test_wiring_diagnostics(self):
        base = "dim 2\ngate G = [[1,0],[0,1]]\nnode n : G\n"
        result = dsl.parse(base + "edge n.out -> n.in\nfree n.out\n")
        assert any("wired more than once" in m for m in messages(result))
        result = dsl.parse(base + "free n.out\n")
        assert any("dangling leg 'n.in'" in m for m in messages(result))
        result = dsl.parse(base + "edge n.top -> n.in\n")
        assert any("unknown leg 'top' for gate node 'n'" in m for m in messages(result))

    def test_duplicate_state_and_node_are_positioned_at_the_name(self):
        result = dsl.parse("dim 2\nstate s = [1, 0]\nstate s = [0, 1]\n")
        assert [(d.message, d.line, d.column) for d in result.diagnostics] == [
            ("duplicate declaration of state 's'", 3, 7)
        ]
        src = "dim 2\ngate G = [[1,0],[0,1]]\nnode a : G\nnode a : G\nedge a.out -> a.in\n"
        assert [(d.message, d.line, d.column) for d in dsl.parse(src).diagnostics] == [
            ("duplicate declaration of node 'a'", 4, 6)
        ]

    def test_unknown_far_node_releases_the_near_leg(self):
        src = "dim 2\ngate G = [[1,0],[0,1]]\nnode a : G\nedge a.out -> b.in\nedge a.out -> a.in\n"
        assert [(d.message, d.line, d.column) for d in dsl.parse(src).diagnostics] == [
            ("unknown node 'b'", 4, 15)
        ]

    @pytest.mark.parametrize(
        "body,column", [("[[1,0],[0,1]]]", 22), ("[[1,0],[0,1]", 10)]
    )
    def test_unbalanced_brackets(self, body, column):
        result = dsl.parse(f"dim 2\ngate G = {body}\n")
        assert [(d.message, d.line, d.column) for d in result.diagnostics] == [
            ("malformed bracketed literal", 2, column)
        ]

    @pytest.mark.parametrize("body,shape", [("[]", "0x0"), ("[ ]", "0x0"), ("[[]]", "1x0")])
    def test_empty_gate_is_a_dimension_mismatch(self, body, shape):
        assert messages(dsl.parse(f"dim 2\ngate G = {body}\n")) == [
            f"dimension mismatch: gate 'G' must be 2x2, got {shape}"
        ]

    @pytest.mark.parametrize("line,columns", [
        ("state s = [1,  ]", [16]),
        ("gate G = [[1,,0],[0,1]]", [14]),
        ("state s = [,]", [12, 13]),
    ])
    def test_blank_entry_is_a_missing_literal_at_its_end(self, line, columns):
        # the column is the "," or "]" that ends the blank entry
        result = dsl.parse(f"dim 2\n{line}\n")
        assert [(d.message, d.line, d.column) for d in result.diagnostics] == [
            ("missing complex literal", 2, column) for column in columns
        ]

    @pytest.mark.parametrize("line,columns", [
        ("gate G = [[1,0],,[0,1]]", [17]),
        ("gate G = [[1,0],[0,1],]", [23]),
        ("gate G = [[1,0], \t,[0,1]]", [19]),
        ("gate G = [,[0,1]]", [11]),
        ("gate G = [,]", [11, 12]),
    ])
    def test_blank_gate_row_is_a_missing_row_at_its_end(self, line, columns):
        # the column is the "," or "]" that ends the blank row
        result = dsl.parse(f"dim 2\n{line}\n")
        assert [(d.message, d.line, d.column) for d in result.diagnostics] == [
            ("missing matrix row", 2, column) for column in columns
        ]

    def test_every_diagnostic_on_a_line_quotes_the_same_excerpt(self):
        # only the "\r" of the "\r\n" ending is dropped, for dangling legs as for the rest
        src = "dim 2\ngate G = [[1, 0], [0, 1]]\nnode a : G\r\r\nnode a : G\r\r\n"
        assert [(d.message, d.line, d.excerpt) for d in dsl.parse(src).diagnostics] == [
            ("duplicate declaration of node 'a'", 4, "node a : G\r"),
            ("dangling leg 'a.in'", 3, "node a : G\r"),
            ("dangling leg 'a.out'", 3, "node a : G\r"),
        ]

    def test_failure_returns_no_partial_document(self):
        result = dsl.parse("dim 2\ngate G = [[1,0],[0,1]]\ngate B = [[bad]]\n")
        assert result.document is None
        assert result.diagnostics

    def test_all_diagnostics_reported(self):
        result = dsl.parse("dim x\nfoo\ngate G = [[1]]\n")
        assert len(result.diagnostics) == 3

    def test_positions_inside_source(self):
        src = "dim 2\n  gate G = [[1, ???], [0, 1]]\n"
        result = dsl.parse(src)
        lines = src.split("\n")
        for diag in result.diagnostics:
            assert 1 <= diag.line <= len(lines)
            assert 1 <= diag.column <= max(len(lines[diag.line - 1]), 1) + 1
            assert diag.excerpt == lines[diag.line - 1]


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "token,value",
        [
            ("1", 1 + 0j),
            ("-0.5", -0.5 + 0j),
            ("2i", 2j),
            ("-i", -1j),
            ("i", 1j),
            ("1+2i", 1 + 2j),
            ("1-2i", 1 - 2j),
            ("1.5e-3", 0.0015 + 0j),
            (".5", 0.5 + 0j),
            ("1/sqrt2", 0.7071067811865476 + 0j),
            ("-1/sqrt2", -0.7071067811865476 + 0j),
            ("0.5+1/sqrt2i", 0.5 + 0.7071067811865476j),
            ("1e2+1e-2i", 100 + 0.01j),
            ("+1/sqrt2", 0.7071067811865476 + 0j),
            ("-1/sqrt2i", -0.7071067811865476j),
            ("1/sqrt2-1/sqrt2i", 0.7071067811865476 - 0.7071067811865476j),
        ],
    )
    def test_valid(self, token, value):
        assert dsl.parse_complex_literal(token) == value

    def test_negative_zero_keeps_its_sign(self):
        assert math.copysign(1.0, dsl.parse_complex_literal("-0").real) == -1.0
        assert math.copysign(1.0, dsl.parse_complex_literal("0").real) == 1.0

    @pytest.mark.parametrize("token", ["", "x", "1..2", "+", "1+", "i2", "1/sqrt3", "--1", "1 2"])
    def test_malformed(self, token):
        assert dsl.parse_complex_literal(token) is None


class TestRoundTrip:
    def test_mach_zehnder(self):
        first = dsl.parse(MZ_SOURCE).document
        second = dsl.parse(dsl.pretty_print(first)).document
        assert documents_match(first, second)

    def test_full_feature_document(self):
        src = (
            "dim 2\n"
            "gate H = [[1/sqrt2, 1/sqrt2], [1/sqrt2, -1/sqrt2]]\n"
            "gate P = [[1, 0], [0, -i]]\n"
            "state plus = [1/sqrt2, 1/sqrt2]\n"
            "circuit c = H P\n"
            "node a : H\n"
            "node s : plus\n"
            "edge s.out -> a.in\n"
            "free a.out\n"
        )
        first = dsl.parse(src).document
        printed = dsl.pretty_print(first)
        second = dsl.parse(printed).document
        assert documents_match(first, second)
        assert dsl.pretty_print(second) == printed

    def test_unknown_declaration_kind_is_a_value_error(self):
        doc = dsl.Document(declarations=[dsl.Declaration("bogus", None, None, 1, 1)])
        with pytest.raises(ValueError, match=r"^unknown declaration kind 'bogus'$"):
            dsl.pretty_print(doc)

    def test_complex_formatting_reparses(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = complex(rng.standard_normal(), rng.standard_normal())
            assert dsl.parse_complex_literal(dsl.format_complex(z)) == z
        for z in (0j, 1j, -1j, 2.5 + 0j, -0.0 + 0j, 1e-20 + 1e20j):
            assert dsl.parse_complex_literal(dsl.format_complex(z)) == z


class TestBytesAndFuzz:
    def test_invalid_utf8_is_positioned(self):
        result = dsl.parse_bytes(b"dim 2\n\xff\xfe")
        assert not result.ok
        diag = result.diagnostics[0]
        assert "invalid UTF-8" in diag.message
        assert diag.line == 2 and diag.column == 1

    def test_valid_bytes_roundtrip(self):
        assert dsl.parse_bytes(MZ_SOURCE.encode()).ok

    def test_fuzz_smoke(self):
        rng = np.random.default_rng(1234)
        for _ in range(2000):
            n = int(rng.integers(0, 120))
            data = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
            result = dsl.parse_bytes(data)
            if not result.ok:
                for diag in result.diagnostics:
                    assert diag.line >= 1 and diag.column >= 1

    def test_fuzz_structured_smoke(self):
        # mutated near-grammar strings exercise more of the line parsers
        rng = np.random.default_rng(99)
        for _ in range(2000):
            n = int(rng.integers(0, 12))
            text = " ".join(FUZZ_WORDS[int(k)] for k in rng.integers(0, len(FUZZ_WORDS), size=n))
            result = dsl.parse(text)
            assert result.ok or all(d.line >= 1 and d.column >= 1 for d in result.diagnostics)


# -- properties ---------------------------------------------------------------

@given(st.binary())
def test_parse_bytes_is_total(data):
    result = dsl.parse_bytes(data)
    assert result.ok != bool(result.diagnostics)
    assert all(d.line >= 1 and d.column >= 1 for d in result.diagnostics)


_WORD = st.sampled_from(FUZZ_WORDS + ["²", "٣", "\r", "\n"])
_SHAPES = ["dim {}", "gate {} = {}", "state {} = {}", "circuit {} = {} {}", "node {} : {}",
           "edge {}.{} -> {}.{}", "free {}.{}"]
# declaration-shaped lines with fuzz words in every slot, mixed with free runs of words
_SHAPED_LINE = st.sampled_from(_SHAPES).flatmap(
    lambda shape: st.tuples(*[_WORD] * shape.count("{}")).map(lambda words: shape.format(*words))
)
NEAR_GRAMMAR = st.lists(
    st.one_of(_SHAPED_LINE, st.lists(_WORD).map(" ".join)), max_size=6
).map("\n".join)


@settings(max_examples=300)
@given(NEAR_GRAMMAR)
def test_parse_bytes_is_total_on_near_grammar_text(text):
    result = dsl.parse_bytes(text.encode())
    assert result.ok != bool(result.diagnostics)
    assert all(d.line >= 1 and d.column >= 1 for d in result.diagnostics)


_FINITE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(allow_nan=False, allow_infinity=False)
)
_ENTRY = st.builds(complex, _FINITE, _FINITE)


def spell(z: complex) -> str:
    """``a+bi`` with both parts written out, so signed zeros reach the parser."""
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


@st.composite
def valid_documents(draw):
    d = draw(st.integers(1, 4))
    lines = [f"dim {d}"]
    gates = [f"G{k}" for k in range(draw(st.integers(0, 3)))]
    for name in gates:
        rows = [draw(st.lists(_ENTRY, min_size=d, max_size=d)) for _ in range(d)]
        body = ", ".join("[" + ", ".join(spell(z) for z in row) + "]" for row in rows)
        lines.append(f"gate {name} = [{body}]")
    states = [f"s{k}" for k in range(draw(st.integers(0, 2)))]
    for name in states:
        entries = draw(st.lists(_ENTRY, min_size=d, max_size=d))
        lines.append(f"state {name} = [" + ", ".join(spell(z) for z in entries) + "]")
    if not gates:
        return "\n".join(lines) + "\n"
    for k in range(draw(st.integers(0, 2))):
        tokens = draw(st.lists(st.sampled_from(gates), min_size=1, max_size=5))
        lines.append(f"circuit c{k} = " + " ".join(tokens))
    # a chain of gate nodes, fed by a state node or left free at its input
    chain = draw(st.lists(st.sampled_from(gates), max_size=4))
    lines += [f"node n{t} : {gate}" for t, gate in enumerate(chain)]
    lines += [f"edge n{t}.out -> n{t + 1}.in" for t in range(len(chain) - 1)]
    if chain:
        if states and draw(st.booleans()):
            lines += [f"node p : {states[0]}", "edge p.out -> n0.in"]
        else:
            lines.append("free n0.in")
        lines.append(f"free n{len(chain) - 1}.out")
    return "\n".join(lines) + "\n"


@given(valid_documents())
def test_print_parse_round_trip(source):
    first = dsl.parse(source)
    assert first.ok, first.diagnostics
    printed = dsl.pretty_print(first.document)
    second = dsl.parse(printed)
    assert second.ok, second.diagnostics
    assert documents_match(first.document, second.document)
    assert dsl.pretty_print(second.document) == printed


@given(st.complex_numbers(allow_nan=False, allow_infinity=False))
def test_format_complex_reparses_property(z):
    assert dsl.parse_complex_literal(dsl.format_complex(z)) == z


# -- literal scanning ---------------------------------------------------------

def reference_split_bracketed(parser, text: str, base_col: int):
    """The per-character splitter ``split_bracketed`` replaced, kept as its oracle."""
    text = text.rstrip()
    if not text.startswith("[") or not text.endswith("]"):
        parser.error("malformed bracketed literal", base_col)
        return None
    inner = text[1:-1]
    items = []
    depth = 0
    start = 0
    for i, ch in enumerate(inner):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                parser.error("malformed bracketed literal", base_col + 1 + i)
                return None
        elif ch == "," and depth == 0:
            items.append((inner[start:i], base_col + 1 + start))
            start = i + 1
    if depth != 0:
        parser.error("malformed bracketed literal", base_col)
        return None
    items.append((inner[start:], base_col + 1 + start))
    if len(items) == 1 and not items[0][0].strip():
        return []
    return items


def split_with(splitter, text: str, base_col: int):
    parser = dsl._Parser("")
    return splitter(parser, text, base_col), parser.diags


_PIECES = st.sampled_from(["[", "]", ",", " ", "\t", "\r", "1", "-2.5", "i", "1/sqrt2", "x"])
_FLAT = st.lists(_PIECES, max_size=30).map("".join)
# balanced literals nested to any depth, with empty lists and blank or odd items
_NESTED = st.recursive(
    st.sampled_from(["", " ", "1", "-i", " 2+3i ", "x", "[]"]),
    lambda inner: st.lists(inner, max_size=4).map(lambda items: "[" + ",".join(items) + "]"),
    max_leaves=12,
)
BRACKETED = st.one_of(_FLAT, _NESTED, st.tuples(_NESTED, _FLAT, _NESTED).map("".join))


@settings(max_examples=500)
@given(BRACKETED, st.integers(1, 40))
def test_split_bracketed_matches_character_loop(text, base_col):
    assert (split_with(dsl._Parser.split_bracketed, text, base_col)
            == split_with(reference_split_bracketed, text, base_col))


# -- the twin readers and handlers ``parse_literal`` and ``parse_array`` replaced,
# kept as their oracle

def reference_vector_literal(parser, text: str, base_col: int):
    items = parser.split_bracketed(text, base_col)
    if items is None:
        return None
    out = []
    ok = True
    for item_text, item_col in items:
        value = dsl.parse_complex_literal(item_text)
        if value is None or not cmath.isfinite(value):
            problem = "malformed" if value is None else "non-finite"
            entry = item_text.lstrip()
            column = item_col + len(item_text) - len(entry)
            parser.error(f"{problem} complex literal '{entry.rstrip()}'", column)
            ok = False
        else:
            out.append(value)
    return out if ok else None


def reference_matrix_literal(parser, text: str, base_col: int):
    rows_raw = parser.split_bracketed(text, base_col)
    if rows_raw is None:
        return None
    rows = []
    ok = True
    for row_text, row_col in rows_raw:
        offset = row_col + (len(row_text) - len(row_text.lstrip()))
        row = reference_vector_literal(parser, row_text.strip(), offset)
        if row is None:
            ok = False
        else:
            rows.append(row)
    if not ok:
        return None
    if rows and any(len(r) != len(rows[0]) for r in rows):
        parser.error("ragged matrix row", base_col)
        return None
    return rows


def reference_gate(parser, m, col):
    if parser.is_duplicate("gate", m, parser.doc.gates):
        return None
    body_col = m.start("body") + 1
    rows = reference_matrix_literal(parser, m["body"], body_col)
    if not parser.require_dim(col) or rows is None:
        return None
    name, d = m["name"], parser.doc.dim
    if len(rows) != d or any(len(r) != d for r in rows):
        shape = f"{len(rows)}x{len(rows[0]) if rows else 0}"
        parser.error(f"dimension mismatch: gate '{name}' must be {d}x{d}, got {shape}", body_col)
        return None
    parser.doc.gates[name] = np.array(rows, dtype=complex)
    return name, parser.doc.gates[name]


def reference_state(parser, m, col):
    if parser.is_duplicate("state", m, parser.doc.states):
        return None
    body_col = m.start("body") + 1
    entries = reference_vector_literal(parser, m["body"], body_col)
    if not parser.require_dim(col) or entries is None:
        return None
    name, d = m["name"], parser.doc.dim
    if len(entries) != d:
        parser.error(
            f"dimension mismatch: state '{name}' must have {d} entries, got {len(entries)}",
            body_col,
        )
        return None
    parser.doc.states[name] = np.array(entries, dtype=complex)
    return name, parser.doc.states[name]


REFERENCE_RULES = {
    kind: (dsl._RULES[kind][0], handler, dsl._RULES[kind][2])
    for kind, handler in (("gate", reference_gate), ("state", reference_state))
}


def parse_summary(source: str, rules=None):
    """Everything a parse shows, with the arrays stored before any failure too."""
    parser = dsl._Parser(source)
    with mock.patch.dict(dsl._RULES, rules or {}):
        result = parser.run()
    doc = parser.doc
    return (
        [(d.severity, d.message, d.line, d.column, d.excerpt) for d in result.diagnostics],
        [(d.kind, d.name, d.line, d.column) for d in doc.declarations],
        [(name, a.dtype.str, a.shape, a.tobytes())
         for table in (doc.gates, doc.states) for name, a in table.items()],
        dsl.pretty_print(doc) if result.ok else None,
    )


_GOOD_ENTRY = st.sampled_from(["1", "-i", " 2+3i ", "1/sqrt2", "\t0.5-0.25i", "-0", "1e-300"])
# blank, malformed, non-finite, nested and unbalanced entries
_ANY_ENTRY = st.one_of(_GOOD_ENTRY, st.sampled_from(
    ["", " ", "x", "1.5x", "1e999", "-2e400i", "inf", "nan", "[1]", "[]", "[", "]"]
))


@st.composite
def array_documents(draw):
    """``gate`` and ``state`` lines of right and wrong sizes, after a ``dim`` or none."""
    d = draw(st.integers(1, 3))
    size = st.one_of(st.just(d), st.integers(0, 4))
    pad = st.sampled_from(["", " ", "\t"])
    lines = [] if draw(st.integers(0, 5)) == 0 else [f"dim {d}"]
    for _ in range(draw(st.integers(1, 4))):
        entries = draw(st.sampled_from([_GOOD_ENTRY, _ANY_ENTRY]))

        def row():
            n = draw(size)
            return draw(pad) + "[" + ",".join(draw(st.lists(entries, min_size=n, max_size=n))) + "]"

        kind = draw(st.sampled_from(["gate", "state"]))
        # a gate's rows are drawn one by one, so some are ragged
        body = "[" + ",".join(row() for _ in range(draw(size))) + "]" if kind == "gate" else row()
        # at times one bracket or comma inserted, or one character dropped
        at, edit = draw(st.integers(0, len(body))), draw(st.sampled_from(["", "", "", "[", "]", ",", "-"]))
        body = body[:at] + body[at + 1:] if edit == "-" else body[:at] + edit + body[at:]
        name, end = draw(st.sampled_from(["G", "s"])), draw(st.sampled_from(["", " # note", "\r"]))
        lines.append(f"{kind} {name} = {body}{end}")
    return "\n".join(lines) + "\n"


def blank_row_ends(excerpt: str) -> set[int]:
    """Columns of the "," or "]" ending each blank row of a gate line's literal, by the reference splitter."""
    m = re.fullmatch(r"\s*gate\s+\w+\s*=\s*(\S(?:.*\S)?)\s*", excerpt.split("#", 1)[0])
    rows = m and reference_split_bracketed(dsl._Parser(""), m[1], m.start(1) + 1)
    return {col + len(row) for row, col in rows or () if not row.strip()}


@settings(max_examples=500)
@given(array_documents())
def test_array_lines_match_the_twin_readers(source):
    diags, *rest = parse_summary(source)
    old_diags, *old_rest = parse_summary(source, REFERENCE_RULES)
    # the intended changes: a blank entry or gate row is named as missing
    old_diags = [
        (sev, "missing complex literal" if msg == "malformed complex literal ''"
         else "missing matrix row" if msg == "malformed bracketed literal" and col in blank_row_ends(excerpt)
         else msg, line, col, excerpt)
        for sev, msg, line, col, excerpt in old_diags
    ]
    assert diags == old_diags
    assert rest == old_rest


# the lazy body ``_RE_NAMED`` had before its greedy one, kept as its oracle
LAZY_NAMED = re.compile(r"\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*=\s*(?P<body>\S.*?)\s*")
_LINE_PIECES = st.sampled_from([" ", "\t", "\r", "\x0b", "\x85", "=", "G", "x1", "[", "]", ",",
                                "1", "i", "#", " # note"])
NAMED_RESTS = st.tuples(st.sampled_from(["", " ", " G = ", " G=", "\tx1 =\t"]),
                        st.lists(_LINE_PIECES, max_size=20).map("".join)).map("".join)


@settings(max_examples=500)
@given(NAMED_RESTS)
def test_named_pattern_matches_the_lazy_one(rest):
    # the raw text, and the comment-free line the parser matches
    for line in (rest, rest.split("#", 1)[0]):
        lazy, greedy = LAZY_NAMED.fullmatch(line), dsl._RE_NAMED.fullmatch(line)
        assert (lazy is None) == (greedy is None)
        if lazy is not None:
            assert (lazy.span("name"), lazy.span("body")) == (greedy.span("name"), greedy.span("body"))


class TestLongLines:
    D = 32

    def entries(self):
        rng = np.random.default_rng(32)
        m = rng.standard_normal((self.D, self.D)) + 1j * rng.standard_normal((self.D, self.D))
        return m, [[spell(complex(z)) for z in row] for row in m]

    @staticmethod
    def gate_line(entries) -> str:
        return "gate U = [" + ", ".join("[" + ", ".join(row) + "]" for row in entries) + "]"

    def test_d32_gate_round_trips(self):
        m, entries = self.entries()
        first = dsl.parse(f"dim {self.D}\n{self.gate_line(entries)}\ncircuit c = U U\n")
        assert first.ok, first.diagnostics
        assert np.array_equal(first.document.gates["U"], m)
        printed = dsl.pretty_print(first.document)
        second = dsl.parse(printed)
        assert documents_match(first.document, second.document)
        assert dsl.pretty_print(second.document) == printed

    def test_malformed_entry_deep_in_the_line_is_positioned(self):
        _, entries = self.entries()
        entries[29][17] = "1.5x"
        line = self.gate_line(entries) + "  \t# d=32"
        result = dsl.parse(f"dim {self.D}\n{line}\r\n")
        # an entry's column is its first character, after the comma and blank
        assert [(d.message, d.line, d.column, d.excerpt) for d in result.diagnostics] == [
            ("malformed complex literal '1.5x'", 2, line.index("1.5x") + 1, line)
        ]
