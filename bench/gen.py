"""Seeded input generators for the benchmark.

Everything the measured program sees is made here from one integer seed:
``.qpd`` document text for the path and CLI workloads, and plain numpy
arrays for the networks the contraction workload wires together. The same
seed always yields the same bytes and arrays; nothing here imports qpath, so
the references computed from these arrays are independent of the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """A generator for one (seed, tags...) stream, independent of call order."""
    return np.random.default_rng([int(seed), *(int(t) for t in tags)])


# -- gates ---------------------------------------------------------------


def haar(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def permutation(rng: np.random.Generator, d: int) -> np.ndarray:
    m = np.zeros((d, d), dtype=complex)
    m[rng.permutation(d), np.arange(d)] = 1.0
    return m


def diagonal(rng: np.random.Generator, d: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * rng.random(d)))


def fourier(d: int) -> np.ndarray:
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


def shift(d: int) -> np.ndarray:
    return np.roll(np.eye(d, dtype=complex), 1, axis=0)


def _layer_kinds(rng: np.random.Generator, n_layers: int) -> list[str]:
    """Half Haar-dense layers, the rest sparse or F S F^-1 interferometer triples.

    The interferometer (H X H for d = 2) splits, shifts and recombines, so
    its paths cancel exactly; the sparse layers put exact zeros on most paths.
    """
    kinds: list[str] = []
    while len(kinds) < n_layers:
        roll = rng.random()
        if roll < 0.5:
            kinds.append("haar")
        elif roll < 0.75 and n_layers - len(kinds) >= 3:
            kinds.extend(["F", "S", "Fi"])
        else:
            kinds.append("perm" if rng.random() < 0.5 else "diag")
    return kinds


def circuit_layers(rng: np.random.Generator, d: int, n_layers: int) -> list[np.ndarray]:
    layers = []
    for kind in _layer_kinds(rng, n_layers):
        if kind == "haar":
            layers.append(haar(rng, d))
        elif kind == "perm":
            layers.append(permutation(rng, d))
        elif kind == "diag":
            layers.append(diagonal(rng, d))
        elif kind == "F":
            layers.append(fourier(d))
        elif kind == "S":
            layers.append(shift(d))
        else:
            layers.append(fourier(d).conj().T)
    return layers


# -- .qpd text -----------------------------------------------------------


def literal(z: complex) -> str:
    """A .qpd complex literal that parses back to exactly the same doubles."""
    re, im = float(z.real), float(z.imag)
    if im == 0.0:
        return repr(re)
    sign = "-" if im < 0 else "+"
    return f"{re!r}{sign}{abs(im)!r}i"


def matrix_literal(m: np.ndarray) -> str:
    return "[" + ", ".join("[" + ", ".join(literal(v) for v in row) + "]" for row in m) + "]"


@dataclass(frozen=True)
class Doc:
    """A generated document and the matrices it declares, in declaration order."""

    mats: tuple[np.ndarray, ...]
    text: bytes


def circuit_doc(rng: np.random.Generator, d: int, n_layers: int) -> Doc:
    """``dim d``, one gate per distinct layer, and circuit ``c`` over them."""
    layers = circuit_layers(rng, d, n_layers)
    lines = [f"# generated circuit: d={d} L={n_layers}", f"dim {d}"]
    tokens = []
    for t, m in enumerate(layers):
        lines.append(f"gate G{t} = {matrix_literal(m)}")
        tokens.append(f"G{t}")
    lines.append("circuit c = " + " ".join(tokens))
    return Doc(tuple(layers), ("\n".join(lines) + "\n").encode())


def random_matrix(rng: np.random.Generator, d: int) -> np.ndarray:
    """A dense complex matrix with unit-scale singular values on average."""
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)


def chain_doc(rng: np.random.Generator, d: int, n: int, closed: bool) -> Doc:
    """N matrices wired in a ring or an open chain.

    Node ``n<k>.out`` feeds ``n<k+1>.in``. Closed, the network contracts to
    the trace of ``M[N-1] ... M[0]``; open, its free legs are ``n[N-1].out``
    then ``n0.in`` and it contracts to that product itself.
    """
    mats = tuple(random_matrix(rng, d) for _ in range(n))
    lines = [f"# generated {'ring' if closed else 'chain'}: d={d} N={n}", f"dim {d}"]
    lines += [f"gate M{k} = {matrix_literal(m)}" for k, m in enumerate(mats)]
    lines += [f"node n{k} : M{k}" for k in range(n)]
    lines += [f"edge n{k}.out -> n{k + 1}.in" for k in range(n - 1)]
    if closed:
        lines.append(f"edge n{n - 1}.out -> n0.in")
    else:
        lines += [f"free n{n - 1}.out", "free n0.in"]
    return Doc(mats, ("\n".join(lines) + "\n").encode())


def grid_tensors(rng: np.random.Generator, rows: int, cols: int) -> list[np.ndarray]:
    """Row-major rank-4 d=2 tensors (legs w, e, n, s) for a closed rows x cols torus."""
    return [rng.standard_normal((2, 2, 2, 2)) * 0.5 for _ in range(rows * cols)]


def broken_doc(rng: np.random.Generator) -> bytes:
    """A document with one malformed literal at a seeded position."""
    lines = ["dim 2", "gate X = [[0, 1], [1, 0]]"]
    bad = f"gate B = [[1, {rng.integers(2, 9)}x], [0, 1]]"
    lines.insert(int(rng.integers(1, len(lines) + 1)), bad)
    return ("\n".join(lines) + "\n").encode()


def over_cap_doc(rng: np.random.Generator, n_layers: int = 21) -> bytes:
    """A d = 2 circuit whose FREE listing exceeds the default path cap."""
    gates = [haar(rng, 2) for _ in range(3)]
    lines = ["dim 2"] + [f"gate U{k} = {matrix_literal(m)}" for k, m in enumerate(gates)]
    tokens = [f"U{int(k)}" for k in rng.integers(0, 3, n_layers)]
    lines.append("circuit deep = " + " ".join(tokens))
    return ("\n".join(lines) + "\n").encode()
