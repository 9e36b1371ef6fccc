"""The four benchmark workloads: their inputs, their ops and their output checks.

A workload's ``setup`` generates its inputs from the seed, parses the
generated documents with the program's own parser, computes reference
results by numpy routes that share no code with the measured call, warms up,
and returns one *round*: the fixed list of ops the timed loop repeats. Every
op carries a check that compares its output with the references; an op that
raises, exits with the wrong code or prints a wrong number counts as failed.

Ops look up every program function as a module attribute at call time, so
the tracer can wrap those attributes without the workloads knowing.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qpath import cli, dsl, pathsum, tensornet

import gen

#: Passing checks return None; failing ones return a one-line reason.
Check = Callable[[object], "str | None"]


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    check: Check


# -- references and tolerances --------------------------------------------

#: Relative agreement demanded of every checked number. The program prints
#: 12 significant digits; summation error grows with the number of terms
#: times the sum of their magnitudes, which is the scale each check uses.
RTOL = 1e-9


def product(mats) -> np.ndarray:
    """mats[-1] @ ... @ mats[0] by numpy's chain product."""
    mats = list(mats)[::-1]
    return mats[0] if len(mats) == 1 else np.linalg.multi_dot(mats)


def free_weights(layers, i: int) -> np.ndarray:
    """Every FREE-output path weight from input ``i``, in lexicographic order."""
    w = layers[0][:, i]
    for m in layers[1:]:
        w = w[..., :, None] * m.T
    return w.reshape(-1)


def mismatch(actual, ref, scale, rtol: float = RTOL) -> str | None:
    """None when every |actual - ref| is within ``rtol * scale``, else the first miss."""
    actual, ref = np.asarray(actual), np.asarray(ref)
    if actual.shape != ref.shape:
        return f"shape {actual.shape} != {ref.shape}"
    err = np.abs(actual - ref)
    bad = err > rtol * np.asarray(scale)
    if np.any(bad):
        k = int(np.argmax(bad.reshape(-1)))
        return f"entry {k}: |{actual.reshape(-1)[k]} - {ref.reshape(-1)[k]}| = {err.reshape(-1)[k]:.3e}"
    return None


def parse_doc(text: bytes) -> dsl.Document:
    result = dsl.parse_bytes(text)
    if not result.ok:
        first = result.diagnostics[0]
        raise RuntimeError(f"generated document does not parse: {first.line}:{first.column} {first.message}")
    return result.document


class Workload:
    """One named workload; subclasses define ``setup``."""

    name = ""
    #: Rounds the traced run replays with tracing on (and as often with it off).
    trace_rounds = 2

    def __init__(self, seed: int, root: Path, grid=None):
        self.seed = int(seed)
        self.root = root
        self.grid = self.GRID if grid is None else grid

    def setup(self) -> list[Op]:
        raise NotImplementedError


# -- verify-deep -------------------------------------------------------------


class VerifyDeep(Workload):
    """One op is ``cli.run_command(doc, "verify")``: d**(L+1) path terms."""

    name = "verify-deep"
    # (d, L, documents per round). Sorted by path count, the six (3, 8)
    # ops sit in the middle of the 24 and the 65536-path ops around the
    # 90th percentile, so both fall inside a block of equal sizes rather
    # than at a jump between sizes. A block holds distinct documents: the
    # cost of one varies by a third with its seeded mix of dense and
    # sparse layers, and the median over several varies less.
    GRID = (
        (8, 3, 1), (4, 5, 2), (2, 11, 3), (3, 7, 2),
        (4, 6, 1), (3, 8, 6), (8, 4, 1), (2, 13, 2),
        (4, 7, 1), (3, 9, 1), (2, 15, 3), (2, 16, 1),
    )

    def setup(self) -> list[Op]:
        ops = []
        for k, (d, n_layers, copies) in enumerate(self.grid):
            for c in range(copies):
                spec = gen.circuit_doc(gen.rng_for(self.seed, 1, k, c), d, n_layers)
                doc = parse_doc(spec.text)
                ops.append(Op(f"verify d={d} L={n_layers}", self._verify(doc), _expect_pass))
        for op in ops[:1]:
            if op.check(op.call()) is not None:
                raise RuntimeError("warm-up verify failed")
        return ops

    @staticmethod
    def _verify(doc):
        return lambda: cli.run_command(doc, "verify", {"circuit": "c"})


_VERIFY_LINE = re.compile(r"PASS max_deviation (\S+)\n")


def _expect_pass(result) -> str | None:
    text, code = result
    m = _VERIFY_LINE.fullmatch(text)
    if code != cli.EXIT_OK or not m:
        return f"verify exited {code}: {text.strip()!r}"
    if not float(m.group(1)) <= cli.VERIFY_TOL:
        return f"PASS printed with deviation {m.group(1)}"
    return None


# -- paths-listing -----------------------------------------------------------


class PathsListing(Workload):
    """Path listings, lab diagrams and walks: materialize, then format."""

    name = "paths-listing"
    trace_rounds = 3
    # (d, L, with dot): each document gives four ops, two also a DOT
    # rendering. Sorted by latency, the median falls among six ops of
    # 44-59 ms and the 90th percentile among four of 122-142 ms, so
    # neither sits at a jump between sizes.
    GRID = ((2, 13, False), (2, 14, True), (3, 8, False), (4, 6, False), (4, 7, False), (8, 4, True))

    def setup(self) -> list[Op]:
        ops = []
        for k, (d, n_layers, with_dot) in enumerate(self.grid):
            rng = gen.rng_for(self.seed, 2, k)
            spec = gen.circuit_doc(rng, d, n_layers)
            i, j = (int(x) for x in rng.integers(0, d, 2))
            doc = parse_doc(spec.text)
            pd = pathsum.PathDiagram(d, tuple(doc.circuit_layers("c")), i)
            ops += self._ops(doc, pd, spec.mats, i, j, with_dot)
        for op in ops[:4]:
            reason = op.check(op.call())
            if reason is not None:
                raise RuntimeError(f"warm-up {op.kind} failed: {reason}")
        return ops

    @staticmethod
    def _ops(doc, pd, layers, i: int, j: int, with_dot: bool) -> list[Op]:
        d, n_layers = pd.dim, pd.n_layers
        w_free = free_weights(layers, i)
        w_pinned = w_free.reshape(-1, d)[:, j]
        shape = f"d={d} L={n_layers}"

        def listing(weights, n_lines):
            running = np.cumsum(weights)
            running_scale = np.cumsum(np.abs(weights))

            def check(result):
                text, code = result
                if code != cli.EXIT_OK:
                    return f"paths exited {code}"
                tokens = text.split()
                if len(tokens) != 5 * n_lines:
                    return f"{len(tokens)} fields, expected {n_lines} lines of 5"
                got = np.array(tokens[1::5], float) + 1j * np.array(tokens[2::5], float)
                run = np.array(tokens[3::5], float) + 1j * np.array(tokens[4::5], float)
                return mismatch(got, weights, np.abs(weights)) or mismatch(run, running, running_scale)

            return check

        free_opts = {"circuit": "c", "input": i}
        pinned_opts = {"circuit": "c", "input": i, "output": j}
        n_nodes, n_edges = 1 + n_layers * d + d, n_layers * d * d + d
        edge_ref = np.concatenate(
            [np.eye(d)[i], *(m.T.reshape(-1) for m in layers)]
        )

        def check_dot(result):
            text, code = result
            lines = text.splitlines()
            if code != cli.EXIT_OK or len(lines) != 3 + n_nodes + n_edges:
                return f"dot exited {code} with {len(lines)} lines"
            labels = [_LABEL.search(line) for line in lines[2 + n_nodes : -1]]
            if not all(labels):
                return "edge line without a complex label"
            got = np.array([complex(float(m.group(1)), float(m.group(2))) for m in labels])
            # Edge labels carry 6 significant digits.
            return mismatch(got, edge_ref, np.maximum(np.abs(edge_ref), 1.0), rtol=1e-5)

        total, scale = product(layers)[j, i], product([np.abs(m) for m in layers])[j, i]

        def check_report(report):
            if len(report.paths) != d ** (n_layers - 1):
                return f"{len(report.paths)} paths, expected {d ** (n_layers - 1)}"
            got = np.array([p.weight for p in report.paths])
            return (
                mismatch(got, w_pinned, np.abs(w_pinned))
                or mismatch(report.total, total, scale)
                or mismatch(report.weight_sum, scale, scale)
            )

        expected_idx = np.indices((d,) * n_layers).reshape(n_layers, -1).T

        def check_walks(walks):
            if len(walks) != d**n_layers:
                return f"{len(walks)} walks, expected {d ** n_layers}"
            if not np.array_equal(np.array([w[0] for w in walks]), expected_idx):
                return "walk index sequences differ from the lexicographic path order"
            got = np.array([w[1] for w in walks])
            return mismatch(got, w_free, np.abs(w_free))

        ops = [
            Op(f"paths-pinned {shape}", lambda: cli.run_command(doc, "paths", pinned_opts),
               listing(w_pinned, d ** (n_layers - 1))),
            Op(f"paths-free {shape}", lambda: cli.run_command(doc, "paths", free_opts),
               listing(w_free, d**n_layers)),
            Op(f"interference {shape}", lambda: pathsum.interference_report(pd, j), check_report),
            Op(f"walks {shape}", lambda: pathsum.emit_lab_diagram(pd).input_walks(), check_walks),
        ]
        if with_dot:
            ops.append(Op(f"dot {shape}", lambda: cli.run_command(doc, "dot", free_opts), check_dot))
        return ops


_LABEL = re.compile(r'label="([-+]?[\d.]+e[-+]\d+)([-+][\d.]+e[-+]\d+)i"')


# -- contract-wide -----------------------------------------------------------


class ContractWide(Workload):
    """One op builds one network and calls ``Network.contract()`` once."""

    name = "contract-wide"
    trace_rounds = 10
    # ("doc", d, N, closed): a parsed .qpd ring or open chain.
    # ("ring", d, N): N d x d matrices wired into a trace.
    # ("cut", d, N): a ring cut open, closed by a ket and a bra: an amplitude.
    # ("grid", rows, cols): a closed torus of rank-4 d=2 tensors.
    # Rings are the case where edge order cannot help; the tori are where
    # listed order builds large intermediates (a 4x5 torus allocates about
    # 24 MB, a 2x8 one exhausts 8 GB). Sorted by latency, eight
    # cheaper ops sit below a block of five equal ones (the d=4 rings and
    # the d=8 cut ring) and nine above it, so the median falls inside that
    # block; the three 4x5 tori hold the 90th percentile.
    GRID = (
        ("grid", 2, 2), ("grid", 2, 3), ("grid", 3, 3), ("ring", 16, 12),
        ("ring", 8, 16), ("cut", 16, 8), ("doc", 16, 8, False), ("doc", 16, 8, True),
        ("cut", 8, 16), ("ring", 4, 32), ("ring", 4, 32), ("ring", 4, 32), ("ring", 4, 32),
        ("doc", 8, 16, True), ("cut", 4, 24), ("ring", 2, 48), ("doc", 4, 24, False),
        ("grid", 3, 4), ("grid", 4, 4), ("grid", 4, 5), ("grid", 4, 5), ("grid", 4, 5),
    )

    def setup(self) -> list[Op]:
        ops = []
        for k, (kind, *shape) in enumerate(self.grid):
            rng = gen.rng_for(self.seed, 3, k)
            ops.append(getattr(self, f"_{kind}")(rng, *shape))
        for op in ops:
            reason = op.check(op.call())
            if reason is not None:
                raise RuntimeError(f"warm-up {op.kind} failed: {reason}")
        return ops

    def _doc(self, rng, d: int, n: int, closed: bool) -> Op:
        spec = gen.chain_doc(rng, d, n, closed)
        doc = parse_doc(spec.text)
        ref = product(spec.mats)
        scale = product([np.abs(m) for m in spec.mats])
        if closed:
            ref, scale = np.trace(ref), np.trace(scale)
        return Op(
            f"doc-{'ring' if closed else 'chain'} d={d} N={n}",
            lambda: doc.network().contract(),
            _check_tensor(ref, scale),
        )

    def _ring(self, rng, d: int, n: int) -> Op:
        mats = [gen.random_matrix(rng, d) for _ in range(n)]
        nodes, edges = _ring_wiring(mats)
        ref = np.trace(product(mats))
        scale = np.trace(product([np.abs(m) for m in mats]))
        return Op(
            f"ring d={d} N={n}",
            lambda: tensornet.Network(nodes, edges).contract(),
            _check_tensor(ref, scale),
        )

    def _cut(self, rng, d: int, n: int) -> Op:
        mats = [gen.random_matrix(rng, d) for _ in range(n)]
        nodes, edges = _ring_wiring(mats)
        k = int(rng.integers(0, n))
        ket = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        bra = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        cut = edges[k]  # n<k>.out -> n<k+1>.in
        order = [(k + 1 + t) % n for t in range(n)]
        chain = product([mats[t] for t in order])
        ref = np.vdot(bra, chain @ ket)
        scale = np.abs(bra) @ product([np.abs(mats[t]) for t in order]) @ np.abs(ket)

        def call():
            net = tensornet.Network(nodes, edges).cut_edge(cut)
            return net.insert_ket(cut[1], ket).insert_bra(cut[0], bra).contract()

        return Op(f"cut d={d} N={n}", call, _check_tensor(ref, scale))

    def _grid(self, rng, rows: int, cols: int) -> Op:
        arrays = gen.grid_tensors(rng, rows, cols)
        ids = [f"g{r}_{c}" for r in range(rows) for c in range(cols)]
        nodes = {
            node: tensornet.Tensor([("w", 2), ("e", 2), ("n", 2), ("s", 2)], a)
            for node, a in zip(ids, arrays)
        }
        edges = []
        for r in range(rows):
            for c in range(cols):
                edges.append(((f"g{r}_{c}", "e"), (f"g{r}_{(c + 1) % cols}", "w")))
                edges.append(((f"g{r}_{c}", "s"), (f"g{(r + 1) % rows}_{c}", "n")))
        ref, scale = _einsum_torus(arrays, rows, cols)
        return Op(
            f"grid {rows}x{cols}",
            lambda: tensornet.Network(nodes, edges).contract(),
            _check_tensor(ref, scale),
        )


def _ring_wiring(mats):
    n = len(mats)
    nodes = {f"n{k}": tensornet.Tensor.from_matrix(m) for k, m in enumerate(mats)}
    edges = [((f"n{k}", "out"), (f"n{(k + 1) % n}", "in")) for k in range(n)]
    return nodes, edges


def _einsum_torus(arrays, rows: int, cols: int):
    """Reference value and sum of term magnitudes for a closed torus.

    Each row is contracted along its horizontal ring with ``np.einsum`` into
    a 2**cols x 2**cols transfer matrix from its north to its south legs;
    the torus is the trace of the product of the row matrices.
    """
    h = "abcdefgh"[:cols]
    n = "ijklmnop"[:cols]
    s = "qrstuvwx"[:cols]
    spec = ",".join(h[c - 1] + h[c] + n[c] + s[c] for c in range(cols)) + "->" + n + s

    def torus(tensors):
        row_mats = [
            np.einsum(spec, *tensors[r * cols : (r + 1) * cols], optimize=True).reshape(2**cols, 2**cols)
            for r in range(rows)
        ]
        return np.trace(product(row_mats[::-1]))

    return torus(arrays), torus([np.abs(a) for a in arrays])


def _check_tensor(ref, scale) -> Check:
    def check(tensor):
        return mismatch(np.asarray(tensor.data), np.asarray(ref), np.asarray(scale))

    return check


# -- cli-startup -------------------------------------------------------------

GOLDEN = Path("tests") / "golden"

#: The seven subcommands on the shipped example documents, with their
#: byte-exact expected output.
GOLDEN_COMMANDS = (
    ("mz_eval.txt", ["eval", "mz.qpd", "--circuit", "mz", "--input", "0"]),
    ("mz_paths.txt", ["paths", "mz.qpd", "--circuit", "mz", "--input", "0", "--output", "1"]),
    ("mz_sample.txt", ["sample", "mz.qpd", "--circuit", "mz", "--input", "0", "--shots", "100000", "--seed", "42"]),
    ("mz_verify.txt", ["verify", "mz.qpd", "--circuit", "mz"]),
    ("mz_contract.txt", ["contract", "mz.qpd"]),
    ("mz_dot.txt", ["dot", "mz.qpd", "--circuit", "mz", "--input", "0"]),
    ("ht_re.txt", ["hadamard-test", "htest.qpd", "--gate", "X", "--state", "zero", "--part", "re", "--shots", "100000", "--seed", "7"]),
    ("ht_im.txt", ["hadamard-test", "htest.qpd", "--gate", "X", "--state", "zero", "--part", "im", "--shots", "100000", "--seed", "7"]),
)


def child_env(root: Path) -> dict:
    """Environment for a ``python -m qpath`` child: the checkout's sources, bytecode cache on."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass(frozen=True)
class CliCase:
    kind: str
    argv: tuple[str, ...]
    stdout: bytes
    code: int


class CliStartup(Workload):
    """One op is one ``python -m qpath <cmd>`` process, one at a time."""

    name = "cli-startup"
    trace_rounds = 10
    GRID = None

    def cases(self, scratch: Path) -> list[CliCase]:
        golden = self.root / GOLDEN
        cases = []
        for expected, argv in GOLDEN_COMMANDS:
            argv = [str(golden / a) if a.endswith(".qpd") else a for a in argv]
            cases.append(CliCase(argv[0], tuple(argv), (golden / expected).read_bytes(), cli.EXIT_OK))
        rng = gen.rng_for(self.seed, 4)
        scratch.mkdir(parents=True, exist_ok=True)
        broken, deep = scratch / "broken.qpd", scratch / "deep.qpd"
        broken.write_bytes(gen.broken_doc(rng))
        deep.write_bytes(gen.over_cap_doc(rng))
        if dsl.parse_bytes(broken.read_bytes()).ok or not dsl.parse_bytes(deep.read_bytes()).ok:
            raise RuntimeError("generated error-path documents do not parse as intended")
        cases.append(CliCase("parse-error", ("eval", str(broken), "--circuit", "c", "--input", "0"), b"", cli.EXIT_PARSE))
        cases.append(CliCase("path-cap", ("paths", str(deep), "--circuit", "deep", "--input", "0"), b"", cli.EXIT_CAP))
        for name in ("mz.qpd", "htest.qpd"):
            parse_doc((golden / name).read_bytes())
        return cases

    def setup(self) -> list[Op]:
        env = child_env(self.root)
        ops = [
            Op(case.kind, self._spawn(case.argv, env), _check_process(case))
            for case in self.cases(self.root / ".bench_out" / f"inputs-{self.seed}")
        ]
        reason = ops[0].check(ops[0].call())  # also writes the bytecode cache
        if reason is not None:
            raise RuntimeError(f"warm-up {ops[0].kind} failed: {reason}")
        return ops

    def _spawn(self, argv, env):
        command = [sys.executable, "-m", "qpath", *argv]
        root = str(self.root)
        return lambda: subprocess.run(command, cwd=root, env=env, capture_output=True)

    def in_process_ops(self) -> list[Op]:
        """The same cases through ``cli.main(argv)`` inside this process."""
        return [
            Op(case.kind, _in_process(case.argv), _check_process(case))
            for case in self.cases(self.root / ".bench_out" / f"inputs-{self.seed}")
        ]


def _in_process(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return subprocess.CompletedProcess(argv, code, out.getvalue().encode(), err.getvalue().encode())

    return call


def _check_process(case: CliCase) -> Check:
    def check(proc):
        if proc.returncode != case.code:
            return f"exit code {proc.returncode}, expected {case.code}: {proc.stderr[-200:]!r}"
        if proc.stdout != case.stdout:
            return "stdout differs from the expected bytes"
        if case.code != cli.EXIT_OK and not proc.stderr:
            return "error exit without a message on stderr"
        return None

    return check


WORKLOADS = {w.name: w for w in (VerifyDeep, PathsListing, ContractWide, CliStartup)}
