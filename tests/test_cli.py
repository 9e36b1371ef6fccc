"""Command line behavior: outputs, golden files, exit codes, determinism."""

import cmath
import os
import subprocess
import sys
import warnings
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpath import cli, dsl, linalg, pathsum
from qpath.formatting import pair12

GOLDEN = Path(__file__).parent / "golden"
MZ = GOLDEN / "mz.qpd"
HTEST = GOLDEN / "htest.qpd"

GOLDEN_CASES = [
    ("mz_eval.txt", [ "eval", str(MZ), "--circuit", "mz", "--input", "0"]),
    ("mz_paths.txt", ["paths", str(MZ), "--circuit", "mz", "--input", "0", "--output", "1"]),
    ("mz_sample.txt", ["sample", str(MZ), "--circuit", "mz", "--input", "0", "--shots", "100000", "--seed", "42"]),
    ("mz_verify.txt", ["verify", str(MZ), "--circuit", "mz"]),
    ("mz_contract.txt", ["contract", str(MZ)]),
    ("mz_dot.txt", ["dot", str(MZ), "--circuit", "mz", "--input", "0"]),
    ("ht_re.txt", ["hadamard-test", str(HTEST), "--gate", "X", "--state", "zero", "--part", "re", "--shots", "100000", "--seed", "7"]),
    ("ht_im.txt", ["hadamard-test", str(HTEST), "--gate", "X", "--state", "zero", "--part", "im", "--shots", "100000", "--seed", "7"]),
]


def run_cli(argv):
    return subprocess.run(
        [sys.executable, "-m", "qpath", *argv], capture_output=True, text=True
    )


def parse_file(path):
    result = dsl.parse_bytes(Path(path).read_bytes())
    assert result.ok
    return result.document


class TestGoldenFiles:
    @pytest.mark.parametrize("golden,argv", GOLDEN_CASES, ids=[g for g, _ in GOLDEN_CASES])
    def test_output_matches_golden_bytes(self, golden, argv):
        proc = run_cli(argv)
        assert proc.returncode == 0, proc.stderr
        expected = (GOLDEN / golden).read_bytes()
        assert proc.stdout.encode() == expected

    def test_byte_identical_across_runs(self):
        for _, argv in GOLDEN_CASES[:3]:
            first = run_cli(argv)
            second = run_cli(argv)
            assert first.stdout == second.stdout


class TestRunCommand:
    def test_eval_output(self):
        doc = parse_file(MZ)
        text, code = cli.run_command(doc, "eval", {"circuit": "mz", "input": 0})
        assert code == 0
        assert text.splitlines()[0] == "0 1.00000000000e+00 0.00000000000e+00"

    def test_paths_free_output_has_eight_lines(self):
        doc = parse_file(MZ)
        text, _ = cli.run_command(doc, "paths", {"circuit": "mz", "input": 0, "output": None})
        assert len(text.splitlines()) == 8

    def test_paths_output_out_of_range(self):
        doc = parse_file(MZ)
        options = {"circuit": "mz", "input": 0, "output": 2}
        with pytest.raises(cli.CommandError, match=r"^output index 2 out of range for dimension 2$") as exc:
            cli.run_command(doc, "paths", options)
        assert exc.value.exit_code == cli.EXIT_SEMANTIC

    def test_verify_pass(self):
        doc = parse_file(MZ)
        text, code = cli.run_command(doc, "verify", {"circuit": "mz"})
        assert code == 0 and text.startswith("PASS max_deviation ")

    def test_verify_multiplies_layers_once(self):
        doc = dsl.parse("dim 3\ngate P = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]\ncircuit c = P P\n").document
        with mock.patch.object(pathsum, "composition_matrix", wraps=pathsum.composition_matrix) as spy:
            text, code = cli.run_command(doc, "verify", {"circuit": "c"})
        assert code == 0 and text.startswith("PASS max_deviation ")
        assert spy.call_count == 1

    def test_verify_validates_layers_once(self):
        rng = np.random.default_rng(8)
        doc = circuit_doc([rng.standard_normal((8, 8)) / 8 for _ in range(5)])
        with mock.patch.object(linalg, "as_matrix", wraps=linalg.as_matrix) as spy:
            text, code = cli.run_command(doc, "verify", {"circuit": "c"})
        assert code == 0 and text.startswith("PASS max_deviation ")
        assert spy.call_count == 1

    def test_verify_sums_every_amplitude_in_one_pass(self):
        rng = np.random.default_rng(8)
        doc = circuit_doc([rng.standard_normal((8, 8)) / 8 for _ in range(3)])
        with mock.patch.object(pathsum, "_weight_blocks", wraps=pathsum._weight_blocks) as spy:
            text, code = cli.run_command(doc, "verify", {"circuit": "c"})
        assert code == 0 and text.startswith("PASS max_deviation ")
        assert spy.call_count == 1
        pd = spy.call_args.args[0]
        assert pd.input is pathsum.FREE and pd.output is pathsum.FREE

    def test_verify_caps_the_paths_into_one_output(self):
        # 20 layers: 2**19 paths per amplitude, 2**21 in the one pass over every input and output
        hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        text, code = cli.run_command(circuit_doc([hadamard] * 20), "verify", {"circuit": "c"})
        assert code == 0 and text.startswith("PASS max_deviation ")
        with pytest.raises(cli.CommandError) as exc:
            cli.run_command(circuit_doc([hadamard] * 21), "verify", {"circuit": "c"})
        assert exc.value.exit_code == cli.EXIT_CAP
        assert str(exc.value) == "diagram has 1048576 paths, exceeding the cap of 1000000"

    def test_unknown_command(self):
        with pytest.raises(cli.CommandError) as exc:
            cli.run_command(parse_file(MZ), "nope", {})
        assert exc.value.exit_code == cli.EXIT_SEMANTIC


OVERFLOW = "dim 2\ngate G = [[1e300, 1e300], [1e300, 1e300]]\ncircuit c = G G\n"
# A third layer multiplies an already overflowed product.
OVERFLOW3 = OVERFLOW.replace("G G", "G G G")

CONTRACT_OVERFLOW = (
    "dim 2\ngate G = [[1e300, 1e300], [1e300, 1e300]]\nnode a : G\nnode b : G\n"
    "edge a.out -> b.in\nfree a.in\nfree b.out\n"
)

BAD_INPUTS = [
    # (name, document, command, options, exit code, message)
    ("unknown circuit", MZ.read_text(), "eval", {"circuit": "ghost", "input": 0},
     cli.EXIT_SEMANTIC, "unknown circuit 'ghost'"),
    ("unknown gate", HTEST.read_text(), "hadamard-test",
     {"gate": "ghost", "state": "zero", "part": "re", "shots": 10, "seed": 0},
     cli.EXIT_SEMANTIC, "unknown gate 'ghost'"),
    ("unknown state", HTEST.read_text(), "hadamard-test",
     {"gate": "X", "state": "ghost", "part": "re", "shots": 10, "seed": 0},
     cli.EXIT_SEMANTIC, "unknown state 'ghost'"),
    ("input out of range", MZ.read_text(), "dot", {"circuit": "mz", "input": 2},
     cli.EXIT_SEMANTIC, "input index 2 out of range for dimension 2"),
    ("output out of range", MZ.read_text(), "paths", {"circuit": "mz", "input": 0, "output": -1},
     cli.EXIT_SEMANTIC, "output index -1 out of range for dimension 2"),
    ("non-unitary sample", "dim 2\ngate S = [[1, 1], [0, 1]]\ncircuit c = S\n", "sample",
     {"circuit": "c", "input": 0, "shots": 5, "seed": 0},
     cli.EXIT_SEMANTIC, "matrix is not unitary: max |U†U - I| entry is 1.000e+00"),
    ("unnormalized state", "dim 2\ngate X = [[0, 1], [1, 0]]\nstate v = [1, 1]\n", "hadamard-test",
     {"gate": "X", "state": "v", "part": "im", "shots": 10, "seed": 0},
     cli.EXIT_SEMANTIC, "state is not normalized: squared norm is 2.0"),
    ("path cap", "dim 2\ngate X = [[0, 1], [1, 0]]\ncircuit c = " + " X" * 21 + "\n", "paths",
     {"circuit": "c", "input": 0, "output": None},
     cli.EXIT_CAP, "diagram has 2097152 paths, exceeding the cap of 1000000"),
    ("eval overflow", OVERFLOW, "eval", {"circuit": "c", "input": 1},
     cli.EXIT_SEMANTIC, "amplitude (output 0, input 1) overflows double precision: matrix product inf nan"),
    ("paths overflow", OVERFLOW, "paths", {"circuit": "c", "input": 1, "output": 1},
     cli.EXIT_SEMANTIC,
     "path 0,1 overflows double precision: weight inf 0.00000000000e+00, running sum inf 0.00000000000e+00"),
    ("sample overflow", OVERFLOW, "sample", {"circuit": "c", "input": 1, "shots": 3, "seed": 1},
     cli.EXIT_SEMANTIC, "amplitude (output 0, input 1) overflows double precision: matrix product inf nan"),
    ("sample overflow outside the sampled column", "dim 2\ngate G = [[1e300, 0], [0, 1]]\ncircuit c = G G\n",
     "sample", {"circuit": "c", "input": 1, "shots": 3, "seed": 1},
     cli.EXIT_SEMANTIC, "amplitude (output 0, input 0) overflows double precision: matrix product inf nan"),
    ("verify overflow", OVERFLOW, "verify", {"circuit": "c"},
     cli.EXIT_SEMANTIC,
     "amplitude (output 0, input 0) overflows double precision: "
     "path sum inf 0.00000000000e+00, matrix product inf nan"),
    ("verify overflow, three layers", OVERFLOW3, "verify", {"circuit": "c"},
     cli.EXIT_SEMANTIC,
     "amplitude (output 0, input 0) overflows double precision: "
     "path sum inf nan, matrix product nan nan"),
    # The pass that skips the paths through M's zeros gives inf nan; the rerun over every path gives nan nan.
    ("verify overflow, summed again over every path",
     "dim 2\ngate G = [[1e300, 1e300], [1e300, 1e300]]\ngate M = [[1+1i, 0], [0, 1+1i]]\n"
     "gate B = [[1-1i, 1-1i], [1-1i, 1-1i]]\ncircuit c = G G M B\n", "verify", {"circuit": "c"},
     cli.EXIT_SEMANTIC,
     "amplitude (output 0, input 0) overflows double precision: path sum nan nan, matrix product nan nan"),
    ("sample overflow, three layers", OVERFLOW3, "sample",
     {"circuit": "c", "input": 0, "shots": 3, "seed": 1},
     cli.EXIT_SEMANTIC, "amplitude (output 0, input 0) overflows double precision: matrix product nan nan"),
    ("contract overflow", CONTRACT_OVERFLOW, "contract", {},
     cli.EXIT_SEMANTIC, "entry 0,0 overflows double precision: contraction nan nan"),
    ("contract overflow to a scalar", CONTRACT_OVERFLOW.replace("free a.in\nfree b.out", "edge b.out -> a.in"),
     "contract", {}, cli.EXIT_SEMANTIC, "entry - overflows double precision: contraction inf nan"),
    # 25 free dim-2 states contract to 2**25 amplitudes; the plan is refused before any arithmetic.
    ("contract over the entry cap",
     "dim 2\nstate z = [1, 0]\n" + "".join(f"node n{k} : z\nfree n{k}.out\n" for k in range(25)),
     "contract", {}, cli.EXIT_CAP,
     "the contraction's output makes an array of shape (" + ", ".join(["2"] * 25) + "), 33554432 entries, "
     "exceeding the cap of 16777216"),
    ("negative seed", MZ.read_text(), "sample", {"circuit": "mz", "input": 0, "shots": 3, "seed": -1},
     cli.EXIT_SEMANTIC, "seed must be non-negative, got -1"),
]


@pytest.mark.parametrize(
    "source,command,options,exit_code,message",
    [case[1:] for case in BAD_INPUTS],
    ids=[case[0] for case in BAD_INPUTS],
)
def test_bad_input_becomes_one_command_error(source, command, options, exit_code, message):
    doc = dsl.parse(source).document
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would escape as an exception
        with pytest.raises(cli.CommandError) as exc:
            cli.run_command(doc, command, options)
    assert exc.value.exit_code == exit_code
    assert str(exc.value) == message


def oracle_listing(pd):
    """`paths` as it was written over `Path` objects: `pair12` and `running += w`."""
    lines = []
    running = 0j
    with np.errstate(over="ignore", invalid="ignore"):
        paths = pathsum.enumerate_paths(pd)
    for path in paths:
        running += path.weight
        indices = ",".join(str(k) for k in path.indices)
        if not cmath.isfinite(running):
            return (
                f"path {indices} overflows double precision: "
                f"weight {pair12(path.weight)}, running sum {pair12(running)}"
            )
        lines.append(f"{indices} {pair12(path.weight)} {pair12(running)}")
    return "\n".join(lines) + "\n"


def circuit_doc(layers):
    """A document whose circuit ``c`` applies ``layers`` in order."""
    gates = {f"G{t}": np.asarray(m, dtype=complex) for t, m in enumerate(layers)}
    return dsl.Document(dim=len(layers[0]), gates=gates, circuits={"c": tuple(gates)})


def listing(doc, i, output):
    """The `paths` text, or the message of the command error it raises."""
    try:
        text, code = cli.run_command(doc, "paths", {"circuit": "c", "input": i, "output": output})
    except cli.CommandError as exc:
        assert exc.exit_code == cli.EXIT_SEMANTIC
        return str(exc)
    assert code == cli.EXIT_OK
    return text


def assert_listing_matches_oracle(doc, i, output):
    pd = pathsum.PathDiagram(doc.dim, tuple(doc.circuit_layers("c")), i, output)
    assert listing(doc, i, output) == oracle_listing(pd)


_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.7071067811865476]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def _layer(draw, d):
    """Dense entries or a signed permutation (exact and signed zeros), sometimes scaled to overflow."""
    if draw(st.booleans()):
        parts = draw(st.lists(_ENTRY, min_size=2 * d * d, max_size=2 * d * d))
        layer = np.empty((d, d), dtype=complex)
        layer.real, layer.imag = np.array(parts).reshape(2, d, d)  # keeps signed zeros
    else:
        perm = draw(st.permutations(range(d)))
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d * d, max_size=d * d))
        layer = np.eye(d)[list(perm)] * np.reshape(signs, (d, d)) + 0j
    return layer * draw(st.sampled_from([1.0, 1.0, 1.0, 1e160, 1e160j]))


_PHASE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 1j, -1j, 0.6 + 0.8j, -0.7071067811865476])


@st.composite
def _zero_rich_layer(draw, d):
    """A layer that makes many paths weigh zero or repeat a weight, or any `_layer`."""
    kind = draw(st.sampled_from(["diagonal", "zero column", "zero", "all equal", "any"]))
    if kind == "diagonal":
        return np.diag(draw(st.lists(_PHASE, min_size=d, max_size=d))) + 0j
    if kind == "zero":
        return np.zeros((d, d), dtype=complex)
    if kind == "all equal":
        return np.full((d, d), draw(_PHASE), dtype=complex)
    layer = draw(_layer(d))
    if kind == "zero column":
        layer[:, draw(st.integers(0, d - 1))] = 0
    return layer


class TestPathsListing:
    """`paths` formats weight blocks; its text equals the `Path`-based listing byte for byte."""

    @settings(max_examples=80)
    @given(data=st.data())
    def test_matches_path_listing_property(self, data):
        d = data.draw(st.integers(1, 4), label="d")
        L = data.draw(st.integers(1, 6), label="L")
        layers = [data.draw(_layer(d), label=f"layer {t}") for t in range(L)]
        i = data.draw(st.integers(0, d - 1), label="input")
        output = data.draw(st.one_of(st.none(), st.integers(0, d - 1)), label="output")
        block = data.draw(st.sampled_from([1, 4, 2**14]), label="block")
        with mock.patch.object(pathsum, "_BLOCK", block):
            assert_listing_matches_oracle(circuit_doc(layers), i, output)

    @settings(max_examples=80)
    @given(data=st.data())
    def test_repeated_lines_match_path_listing_property(self, data):
        """Most lines repeat the line before; runs of them cross block boundaries."""
        d = data.draw(st.integers(1, 4), label="d")
        L = data.draw(st.integers(1, 6), label="L")
        layers = [data.draw(_zero_rich_layer(d), label=f"layer {t}") for t in range(L)]
        i = data.draw(st.integers(0, d - 1), label="input")
        output = data.draw(st.one_of(st.none(), st.integers(0, d - 1)), label="output")
        block = data.draw(st.sampled_from([1, 2, 7, 2**14]), label="block")
        with mock.patch.object(pathsum, "_BLOCK", block):
            assert_listing_matches_oracle(circuit_doc(layers), i, output)

    def test_equal_weights_with_changing_sums(self):
        # Every weight is 1 and every running sum differs, so no line repeats the one before.
        doc = circuit_doc([np.ones((2, 2))] * 3)
        lines = listing(doc, 0, None).splitlines()
        assert len({line.split(" ", 1)[1] for line in lines}) == 8
        assert lines[-1] == "1,1,1 1.00000000000e+00 0.00000000000e+00 8.00000000000e+00 0.00000000000e+00"
        assert_listing_matches_oracle(doc, 0, None)

    @pytest.mark.parametrize("output", [None, 2])
    def test_zero_layer_before_a_dense_one(self, monkeypatch, output):
        # Every line repeats the first, across blocks of 3 paths.
        monkeypatch.setattr(pathsum, "_BLOCK", 3)
        rng = np.random.default_rng(3)
        dense = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
        doc = circuit_doc([np.zeros((3, 3)), *dense])
        lines = listing(doc, 1, output).splitlines()
        assert len(lines) == (27 if output is None else 9)
        assert {line.split(" ", 1)[1] for line in lines} == {" ".join(["0.00000000000e+00"] * 4)}
        assert_listing_matches_oracle(doc, 1, output)

    def test_negative_zero_weights_print_as_zero(self):
        # A -1 permutation gives -0.0 weight parts, which equal 0.0 and print as it.
        doc = circuit_doc([[[0, -1], [-1, 0]]] * 3)
        pd = pathsum.PathDiagram(2, tuple(doc.circuit_layers("c")), 0, pathsum.FREE)
        weights = np.array([p.weight for p in pathsum.enumerate_paths(pd)])
        assert np.signbit(weights.real).any() and np.signbit(weights.imag).any()
        text = listing(doc, 0, None)
        assert "-0.0" not in text
        assert text.splitlines()[-3:] == [
            "1,0,1 -1.00000000000e+00 0.00000000000e+00 -1.00000000000e+00 0.00000000000e+00",
            "1,1,0 0.00000000000e+00 0.00000000000e+00 -1.00000000000e+00 0.00000000000e+00",
            "1,1,1 0.00000000000e+00 0.00000000000e+00 -1.00000000000e+00 0.00000000000e+00",
        ]
        assert_listing_matches_oracle(doc, 0, None)

    @pytest.mark.parametrize("d", [11, 12])
    @pytest.mark.parametrize("output", [None, 10])
    def test_two_digit_indices(self, d, output):
        rng = np.random.default_rng(d)
        layers = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(3)]
        doc = circuit_doc(layers)
        assert_listing_matches_oracle(doc, 7, output)
        last = d - 1 if output is None else output
        assert listing(doc, 7, output).splitlines()[-1].startswith(f"{d - 1},{d - 1},{last} ")

    @pytest.mark.parametrize("block", [1, 7, 2**14])
    @pytest.mark.parametrize("output", [None, 0])
    @pytest.mark.parametrize("d,L", [(1, 1), (3, 1), (1, 2), (3, 2), (12, 2), (2, 5), (11, 3)])
    def test_keys_from_heads_and_tails(self, monkeypatch, block, output, d, L):
        # A key is its first L//2 indices (none when L = 1), then the rest, across blocks of any size.
        monkeypatch.setattr(pathsum, "_BLOCK", block)
        rng = np.random.default_rng(d * L)
        doc = circuit_doc([rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(L)])
        assert_listing_matches_oracle(doc, d // 2, output)

    def test_over_the_cap_exits_before_any_key_is_built(self):
        # 2**64 paths: even the table of the last 32 indices would hold 2**32 keys.
        doc = circuit_doc([np.eye(2)] * 64)
        with mock.patch.object(cli, "product", side_effect=AssertionError("key text built")):
            with pytest.raises(cli.CommandError) as exc:
                cli.run_command(doc, "paths", {"circuit": "c", "input": 0})
        assert exc.value.exit_code == cli.EXIT_CAP
        assert str(exc.value) == "diagram has 18446744073709551616 paths, exceeding the cap of 1000000"

    @pytest.mark.parametrize("layers,message", [
        # Three factors of 1e120 overflow a weight, first on path 41 of 64: block 10, offset 1.
        ([np.ones((2, 2)), [[1, 1e120], [1, 1e120]], [[1, 1], [1e120, 1e120]],
          np.ones((2, 2)), np.ones((2, 2)), [[1, 1], [1e120, 1e120]]],
         "path 1,0,1,0,0,1 overflows double precision: "
         "weight inf 0.00000000000e+00, running sum inf 0.00000000000e+00"),
        # Every weight is finite; the second 1e308 overflows the running sum: block 2, offset 1.
        ([np.ones((2, 2)), [[1, 1e154], [1, 1e154]], [[1e154, 1], [1e154, 1]], np.ones((2, 2))],
         "path 1,0,0,1 overflows double precision: "
         "weight 1.00000000000e+308 0.00000000000e+00, running sum inf 0.00000000000e+00"),
        # The first case with imaginary factors: only the imaginary part overflows.
        ([np.ones((2, 2)), [[1, 1e120j], [1, 1e120j]], [[1, 1], [1e120j, 1e120j]],
          np.ones((2, 2)), np.ones((2, 2)), [[1, 1], [1e120j, 1e120j]]],
         "path 1,0,1,0,0,1 overflows double precision: "
         "weight 0.00000000000e+00 -inf, running sum -1.30000000000e+241 -inf"),
        # A permutation first: paths 0,... weigh zero; the first overflow is path 12 of 16, last in block 3.
        ([[[0, 1], [1, 0]], np.ones((2, 2)), [[1, 1], [1e200, 1e200]], [[1, 1], [1e200, 1e200]]],
         "path 1,0,1,1 overflows double precision: "
         "weight inf 0.00000000000e+00, running sum inf 0.00000000000e+00"),
        # d = 3: only paths 2,...,2 overflow, the first path 164 of 243: block 41, key head 2,0,.
        ([[[1, 1, 1], [1, 1, 1], [1e200, 1e200, 1e200]], *[np.ones((3, 3))] * 3,
          [[1, 1, 1], [1, 1, 1], [1e200, 1e200, 1e200]]],
         "path 2,0,0,0,2 overflows double precision: "
         "weight inf 0.00000000000e+00, running sum inf 0.00000000000e+00"),
    ], ids=["weight", "running sum", "imaginary part", "after a permutation", "later head"])
    def test_overflow_in_a_later_block_is_named(self, monkeypatch, layers, message):
        monkeypatch.setattr(pathsum, "_BLOCK", 4)
        doc = circuit_doc(layers)
        assert listing(doc, 0, None) == message
        assert_listing_matches_oracle(doc, 0, None)

    def test_builds_no_path_objects(self):
        with mock.patch.object(pathsum, "Path", side_effect=AssertionError("Path built")):
            text, code = cli.run_command(parse_file(MZ), "paths", {"circuit": "mz", "input": 0, "output": 1})
        assert code == cli.EXIT_OK
        assert text == (GOLDEN / "mz_paths.txt").read_text()


class TestArgParser:
    """The parser built from the command table, driven through ``cli.main``."""

    def test_paths_without_output_lists_every_path(self, capsys):
        assert cli.main(["paths", str(MZ), "--circuit", "mz", "--input", "0"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 8
        assert [line.split()[0] for line in lines] == [",".join(k) for k in product("01", repeat=3)]

    @pytest.mark.parametrize("argv,error", [
        (["verify", str(MZ)], "the following arguments are required: --circuit"),
        (["hadamard-test", str(HTEST), "--gate", "X", "--state", "zero", "--part", "xx",
          "--shots", "10", "--seed", "0"], "argument --part: invalid choice: 'xx'"),
    ], ids=["missing flag", "bad choice"])
    def test_bad_flags_end_in_usage(self, capsys, argv, error):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: qpath {argv[0]} [-h] ")
        assert f"qpath {argv[0]}: error: {error}" in err


class TestExitCodes:
    def test_success(self):
        assert run_cli(["eval", str(MZ), "--circuit", "mz", "--input", "0"]).returncode == 0

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.qpd"
        bad.write_text("dim x\n")
        proc = run_cli(["eval", str(bad), "--circuit", "mz", "--input", "0"])
        assert proc.returncode == 1
        assert "invalid dimension" in proc.stderr
        assert ":1:5:" in proc.stderr  # positioned diagnostic

    def test_semantic_errors(self):
        proc = run_cli(["eval", str(MZ), "--circuit", "ghost", "--input", "0"])
        assert proc.returncode == 2
        assert "unknown circuit 'ghost'" in proc.stderr
        proc = run_cli(["eval", str(MZ), "--circuit", "mz", "--input", "5"])
        assert proc.returncode == 2
        assert "out of range" in proc.stderr
        proc = run_cli([
            "hadamard-test", str(HTEST), "--gate", "ghost", "--state", "zero",
            "--part", "re", "--shots", "10", "--seed", "0",
        ])
        assert proc.returncode == 2

    def test_verification_failure(self, tmp_path):
        # entries around 1e8 push the absolute float error of the two routes
        # past the fixed 1e-10 verification tolerance
        doc = tmp_path / "huge.qpd"
        doc.write_text(
            "dim 2\n"
            "gate B = [[98765432.1, 12345678.9], [45678901.2, -87654321.0]]\n"
            "circuit c = B B B\n"
        )
        proc = run_cli(["verify", str(doc), "--circuit", "c"])
        assert proc.returncode == 3
        assert proc.stdout.startswith("FAIL max_deviation ")

    def test_verify_overflow_is_named_not_passed(self, tmp_path):
        # G G overflows to inf in both routes; inf - inf is nan, which no
        # deviation bound may accept
        doc = tmp_path / "overflow.qpd"
        doc.write_text("dim 2\ngate G = [[1e300, 1e300], [1e300, 1e300]]\ncircuit c = G G\n")
        proc = run_cli(["verify", str(doc), "--circuit", "c"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("qpath: amplitude (output 0, input 0) overflows")
        assert proc.stderr.count("\n") == 1

    def test_eval_overflow_is_named_not_printed(self, tmp_path):
        doc = tmp_path / "overflow.qpd"
        doc.write_text(OVERFLOW)
        proc = run_cli(["eval", str(doc), "--circuit", "c", "--input", "0"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "qpath: amplitude (output 0, input 0) overflows double precision: "
            "matrix product inf nan\n"
        )

    def test_paths_overflow_is_named_not_printed(self, tmp_path):
        doc = tmp_path / "overflow.qpd"
        doc.write_text(OVERFLOW)
        proc = run_cli(["paths", str(doc), "--circuit", "c", "--input", "0"])
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "qpath: path 0,0 overflows double precision: "
            "weight inf 0.00000000000e+00, running sum inf 0.00000000000e+00\n"
        )

    def test_non_finite_literal_is_a_parse_error(self, tmp_path):
        doc = tmp_path / "inf.qpd"
        doc.write_text("dim 2\ngate G = [[1e999, 0], [0, 1]]\ncircuit c = G\n")
        proc = run_cli(["eval", str(doc), "--circuit", "c", "--input", "0"])
        assert proc.returncode == 1
        assert ":2:12: error: non-finite complex literal '1e999'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_path_cap_exceeded(self, tmp_path):
        doc = tmp_path / "deep.qpd"
        gates = " ".join(["X"] * 21)
        doc.write_text(f"dim 2\ngate X = [[0, 1], [1, 0]]\ncircuit deep = {gates}\n")
        proc = run_cli(["paths", str(doc), "--circuit", "deep", "--input", "0"])
        assert proc.returncode == 4
        assert "exceeding the cap" in proc.stderr

    @pytest.mark.parametrize("document,argv,message", [
        (MZ.read_text(), ["sample", "--circuit", "mz", "--input", "0", "--shots", "10000000000", "--seed", "1"],
         "qpath: Unable to allocate "),
        # Ten free dim-16 states contract to 16**10 amplitudes, over the plan's entry cap.
        ("dim 16\nstate z = [" + ", ".join(["1"] + ["0"] * 15) + "]\n"
         + "".join(f"node n{k} : z\nfree n{k}.out\n" for k in range(10)), ["contract"],
         "qpath: the contraction's output makes an array of shape (16, 16, 16, 16, 16, 16, 16, 16, 16, 16), "
         "1099511627776 entries, exceeding the cap of 16777216"),
    ], ids=["sample", "contract"])
    def test_result_too_large_for_memory_is_a_cap_exit(self, tmp_path, document, argv, message):
        doc = tmp_path / "big.qpd"
        doc.write_text(document)
        # The child caps its own address space at 1 GiB, so no run allocates gigabytes.
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from qpath.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}  # few BLAS buffers below the cap
        proc = subprocess.run(
            [sys.executable, "-c", child, argv[0], str(doc), *argv[1:]],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == cli.EXIT_CAP, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith(message)
        assert proc.stderr.count("\n") == 1

    def test_missing_file(self):
        proc = run_cli(["eval", "/nonexistent/x.qpd", "--circuit", "mz", "--input", "0"])
        assert proc.returncode == 2

    def test_sample_rejects_non_unitary_circuit(self, tmp_path):
        doc = tmp_path / "shear.qpd"
        doc.write_text("dim 2\ngate S = [[1, 1], [0, 1]]\ncircuit c = S\n")
        proc = run_cli(["sample", str(doc), "--circuit", "c", "--input", "0", "--shots", "5", "--seed", "0"])
        assert proc.returncode == 2
        assert "not unitary" in proc.stderr

    def test_contract_without_network(self, tmp_path):
        doc = tmp_path / "no_net.qpd"
        doc.write_text("dim 2\ngate X = [[0, 1], [1, 0]]\ncircuit c = X\n")
        proc = run_cli(["contract", str(doc)])
        assert proc.returncode == 2
        assert "no network" in proc.stderr


class TestDotOutput:
    def test_dag_shape_counts(self):
        doc = parse_file(MZ)
        text, _ = cli.run_command(doc, "dot", {"circuit": "mz", "input": 0})
        d, L = 2, 3
        node_lines = [l for l in text.splitlines() if "[shape=" in l]
        edge_lines = [l for l in text.splitlines() if "->" in l]
        assert len(node_lines) == d * L + d + 1
        assert len(edge_lines) == d * d * L + d

    def test_console_script_installed(self):
        proc = subprocess.run(
            ["qpath", "verify", str(MZ), "--circuit", "mz"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("PASS")
