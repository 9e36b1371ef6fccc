"""Command line behavior: outputs, golden files, exit codes, determinism."""

import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest

from qpath import cli, dsl, pathsum

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

    def test_unknown_command(self):
        with pytest.raises(cli.CommandError) as exc:
            cli.run_command(parse_file(MZ), "nope", {})
        assert exc.value.exit_code == cli.EXIT_SEMANTIC


OVERFLOW = "dim 2\ngate G = [[1e300, 1e300], [1e300, 1e300]]\ncircuit c = G G\n"

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
    ("verify overflow", OVERFLOW, "verify", {"circuit": "c"},
     cli.EXIT_SEMANTIC,
     "amplitude (output 0, input 0) overflows double precision: "
     "path sum inf 0.00000000000e+00, matrix product inf nan"),
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
