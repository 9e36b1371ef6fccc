"""Command line interface: evaluate, enumerate, sample, verify, contract, render.

Exit codes: 0 success, 1 parse error, 2 semantic error (unknown names,
out-of-range indices, invalid inputs, a value that overflows double
precision), 3 verification failure, 4 resource cap exceeded (paths, contraction
entries, memory).
All numeric output uses 12-significant-digit scientific notation so command
output is byte-identical across runs for the same document, command, and seed.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
from itertools import islice, product
from pathlib import Path

import numpy as np

from . import dsl, linalg, measure, pathsum, tensornet
from .formatting import _entry_key, _overflow, pair12, sci12

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_SEMANTIC = 2
EXIT_VERIFY = 3
EXIT_CAP = 4

#: ``linalg.AGREE_TOL`` as imported. ``verify`` reads ``AGREE_TOL`` when
#: called; this copy is kept only because ``bench/workloads.py`` reads it.
VERIFY_TOL = linalg.AGREE_TOL


class CommandError(Exception):
    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _lookup(table: dict, kind: str, name: str):
    if name not in table:
        raise ValueError(f"unknown {kind} '{name}'")
    return table[name]


def _circuit_diagram(
    doc: dsl.Document, name: str, input_index: int | None, output: int | None = pathsum.FREE
) -> pathsum.PathDiagram:
    return pathsum.PathDiagram(doc.dim, tuple(doc.circuit_layers(name)), input_index, output)


def _require_finite_column(column: np.ndarray, input_index: int) -> None:
    """Name the first amplitude of a matrix-product column that overflowed."""
    for j, amplitude in enumerate(column):
        if not cmath.isfinite(amplitude):
            raise ValueError(
                _overflow(f"amplitude (output {j}, input {input_index})", ("matrix product", amplitude))
            )


def _cmd_eval(doc: dsl.Document, options: dict) -> tuple[str, int]:
    pd = _circuit_diagram(doc, options["circuit"], options["input"])
    state = linalg.basis_ket(doc.dim, pd.input)
    for layer in pd.layers:
        state = layer @ state
    _require_finite_column(state, pd.input)
    return "".join(f"{j} {pair12(amplitude)}\n" for j, amplitude in enumerate(state)), EXIT_OK


def _cmd_paths(doc: dsl.Document, options: dict) -> tuple[str, int]:
    pd = _circuit_diagram(doc, options["circuit"], options["input"], options.get("output"))
    keys = map(",".join, product(*[map(str, ks) for ks in pathsum._ranges(pd)]))
    line = "{} {:.11e} {:.11e} {:.11e} {:.11e}\n".format
    blocks = []
    for weights, sums in pathsum._running_sums(pd, 1):
        # The first path whose running sum is not finite names the overflow.
        overflow = ~np.isfinite(sums).all(axis=0)
        if overflow.any():
            n = int(overflow.argmax())
            raise ValueError(_overflow(
                f"path {next(islice(keys, n, None))}",
                ("weight", complex(*weights[:, n])),
                ("running sum", complex(*sums[:, n])),
            ))
        # Adding 0.0 folds -0.0, as sci12 does.
        columns = (np.concatenate((weights, sums)) + 0.0).tolist()
        blocks.append("".join(map(line, islice(keys, weights.shape[1]), *columns)))
    return "".join(blocks), EXIT_OK


def _cmd_sample(doc: dsl.Document, options: dict) -> tuple[str, int]:
    pd = _circuit_diagram(doc, options["circuit"], options["input"])
    u = pathsum.composition_matrix(pd)
    # born_probabilities checks the whole matrix, so name its overflow first, sampled column first.
    for i in (pd.input, *range(doc.dim)):
        _require_finite_column(u[:, i], i)
    psi = linalg.basis_ket(doc.dim, pd.input)
    probs = measure.born_probabilities(u, psi)
    record = measure.sample(probs, options["shots"], options["seed"])
    return record.render(), EXIT_OK


def _cmd_verify(doc: dsl.Document, options: dict) -> tuple[str, int]:
    pd = _circuit_diagram(doc, options["circuit"], pathsum.FREE)
    u = pathsum.composition_matrix(pd)
    worst = 0.0
    # One pass sums every amplitude, input by input; the first overflow in that order is named.
    sums = pathsum._column_sums(pd)
    for (i, j), amplitude in zip(product(range(doc.dim), repeat=2), sums):
        deviation = abs(amplitude - u[j, i])
        if not math.isfinite(deviation):
            raise ValueError(_overflow(
                f"amplitude (output {j}, input {i})",
                ("path sum", amplitude),
                ("matrix product", u[j, i]),
            ))
        worst = max(worst, deviation)
    ok = worst <= linalg.AGREE_TOL
    text = f"{'PASS' if ok else 'FAIL'} max_deviation {sci12(worst)}\n"
    return text, EXIT_OK if ok else EXIT_VERIFY


def _cmd_contract(doc: dsl.Document, options: dict) -> tuple[str, int]:
    if not doc.node_refs:
        raise ValueError("document declares no network nodes")
    result = doc.network().contract()
    lines = ["legs" + "".join(f" {name}" for name, _ in result.legs)]
    for idx in np.ndindex(*result.data.shape):
        lines.append(f"{_entry_key(idx)} {pair12(result.data[idx])}")
    return "\n".join(lines) + "\n", EXIT_OK


def _cmd_dot(doc: dsl.Document, options: dict) -> tuple[str, int]:
    pd = _circuit_diagram(doc, options["circuit"], options["input"])
    return pathsum.to_dot(pathsum.emit_lab_diagram(pd)), EXIT_OK


def _cmd_hadamard_test(doc: dsl.Document, options: dict) -> tuple[str, int]:
    gate = _lookup(doc.gates, "gate", options["gate"])
    state = _lookup(doc.states, "state", options["state"])
    part = {"re": "real", "im": "imag"}[options["part"]]
    result = measure.hadamard_test(gate, state, part, options["shots"], options["seed"])
    lines = [
        f"part {options['part']}",
        f"shots {options['shots']}",
        f"seed {options['seed']}",
        f"exact_p0 {sci12(result.exact_p0)}",
        f"sampled_p0 {sci12(result.sampled_p0)}",
        f"estimate {sci12(result.estimate)}",
    ]
    return "\n".join(lines) + "\n", EXIT_OK


#: argparse settings of each ``--flag`` a subcommand can take.
_FLAGS = {
    "circuit": {"required": True},
    "gate": {"required": True},
    "state": {"required": True},
    "input": {"required": True, "type": int},
    "output": {"type": int},
    "part": {"required": True, "choices": ["re", "im"]},
    "shots": {"required": True, "type": int},
    "seed": {"required": True, "type": int},
}

#: Each subcommand's handler and its flags, in the order its usage lists them.
_COMMANDS = {
    "eval": (_cmd_eval, ("circuit", "input")),
    "paths": (_cmd_paths, ("circuit", "input", "output")),
    "sample": (_cmd_sample, ("circuit", "input", "shots", "seed")),
    "verify": (_cmd_verify, ("circuit",)),
    "contract": (_cmd_contract, ()),
    "dot": (_cmd_dot, ("circuit", "input")),
    "hadamard-test": (_cmd_hadamard_test, ("gate", "state", "part", "shots", "seed")),
}


def run_command(doc: dsl.Document, command: str, options: dict) -> tuple[str, int]:
    """Run one subcommand over a parsed document.

    Returns (output text, exit code). This is the commands' only error
    boundary: it raises CommandError with exit code 4 for an exceeded path
    cap, contraction entry cap or memory, and exit code 2 for every ValueError (unknown names,
    out-of-range indices, invalid inputs, values that overflow double precision).
    """
    if command not in _COMMANDS:
        raise CommandError(EXIT_SEMANTIC, f"unknown command '{command}'")
    try:
        # Commands report overflow by name once it reaches a result, not as numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[command][0](doc, options)
    except (pathsum.PathCapExceeded, tensornet.ContractionCapExceeded, MemoryError) as exc:
        raise CommandError(EXIT_CAP, str(exc) or "out of memory") from exc
    except ValueError as exc:
        raise CommandError(EXIT_SEMANTIC, str(exc)) from exc


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpath",
        description="Evaluate circuits and networks declared in a .qpd document.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("file", help="path to a .qpd document")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    path = Path(args.file)
    try:
        data = path.read_bytes()
    except OSError as exc:
        print(f"qpath: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC

    result = dsl.parse_bytes(data)
    if not result.ok:
        for diag in result.diagnostics:
            print(f"{path}:{diag.line}:{diag.column}: {diag.severity}: {diag.message}", file=sys.stderr)
            if diag.excerpt:
                print(f"  {diag.excerpt}", file=sys.stderr)
                print("  " + " " * (diag.column - 1) + "^", file=sys.stderr)
        return EXIT_PARSE

    options = {k: v for k, v in vars(args).items() if k not in ("command", "file")}
    try:
        text, code = run_command(result.document, args.command, options)
    except CommandError as exc:
        print(f"qpath: {exc}", file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
