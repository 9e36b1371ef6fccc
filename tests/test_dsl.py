"""Document parsing: grammar, diagnostics, literals, round-tripping, fuzz."""

import math

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

    def test_non_finite_literal_is_positioned(self):
        result = dsl.parse("dim 2\ngate G = [[1e999, 0], [0, 1]]\nstate s = [1, -2e400i]\n")
        assert not result.ok
        gate, state = result.diagnostics
        assert gate.message == "non-finite complex literal '1e999'"
        assert (gate.line, gate.column) == (2, 12)
        assert state.message == "non-finite complex literal '-2e400i'"
        assert (state.line, state.column) == (3, 14)

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
        ],
    )
    def test_valid(self, token, value):
        assert dsl.parse_complex_literal(token) == value

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
