"""Explicit path summation over layered compositions of matrices.

A ``PathDiagram`` lists square layers in time order: ``layers[0]`` acts
first, so the listed sequence ``[U1, U2, ..., UL]`` denotes the product
``UL ... U2 U1`` applied to kets. A path assigns one basis index to every
wire segment after each layer; its weight is the product of the matrix
entries it traverses. Summing path weights reproduces the matrix-product
amplitude entry for entry, which is the executable content of this module
and is enforced by the test suite against the matrix route.

Each index runs over every basis value, except that the last one is fixed
when the output is pinned. ``_ranges`` states these index ranges once, for
the path count, the weight blocks, the path list and the ``paths`` keys.

Zero-weight paths are enumerated, never pruned: the correspondence between
paths and product terms covers vanishing terms too, and pruning would break
the bijection with walks through the laboratory diagram.

Weights are computed in numpy blocks of up to ``_BLOCK`` paths, equal bit
for bit to a scalar product loop. One loop, ``_running_sums``, streams the
blocks one at a time, checks the path cap and adds the weights in path
order, in one running sum or one per output. The ``qpath paths`` listing
formats each block with its running sums, ``enumerate_paths`` makes one
``Path`` per path, and ``_column_sums`` keeps each output's last sum:
``qpath verify`` calls it once per input with the output FREE, and
``path_sum_amplitude``, its pinned one-column case, gives
``interference_report`` its total. No sum uses builtin ``sum``, whose float
addition differs between interpreters.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import linalg
from .formatting import complex6

__all__ = [
    "FREE",
    "DEFAULT_PATH_CAP",
    "PathCapExceeded",
    "PathDiagram",
    "Path",
    "enumerate_paths",
    "path_sum_amplitude",
    "composition_matrix",
    "InterferenceReport",
    "interference_report",
    "LabDiagram",
    "emit_lab_diagram",
    "to_dot",
]

#: Sentinel for an unpinned output: enumerate over all final indices.
FREE = None

#: Fail loudly past this many terms in one sum (every path, or the paths into
#: one output for a column sum). ``enumerate_paths`` materializes a ``Path``
#: per path, so the cap bounds its memory; sums and the ``paths`` listing
#: stream blocks of bounded memory, so for them it bounds running time.
#: ``_running_sums`` reads it when called, so setting it changes every cap.
DEFAULT_PATH_CAP = 10**6

#: Paths per weight block computed by one round of array operations.
_BLOCK = 2**14


class PathCapExceeded(RuntimeError):
    """The diagram has more paths than the cap allows to list or sum."""


@dataclass(frozen=True, eq=False)
class PathDiagram:
    """A layered composition with a fixed input basis index.

    Fields:
        dim: basis size d of every layer.
        layers: square d x d matrices in time order.
        input: basis index prepared on the input wire.
        output: basis index detected at the end, or FREE.
    """

    dim: int
    layers: tuple[np.ndarray, ...]
    input: int
    output: int | None = FREE

    def __post_init__(self):
        d = linalg._dim(self.dim)
        if not self.layers:
            raise ValueError("an empty composition has no diagram")
        frozen = []
        for t, layer in enumerate(self.layers):
            m = linalg.as_matrix(layer)
            if m.shape != (d, d):
                raise ValueError(
                    f"layer {t} has shape {m.shape}, expected ({d}, {d})"
                )
            m = m.copy()
            m.setflags(write=False)
            frozen.append(m)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "layers", tuple(frozen))
        object.__setattr__(self, "input", linalg._index("input", self.input, d))
        if self.output is not FREE:
            object.__setattr__(self, "output", linalg._index("output", self.output, d))

    @property
    def n_layers(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class Path:
    """One basis-index assignment per layer boundary, with its complex weight."""

    indices: tuple[int, ...]
    weight: complex


def _pinned(pd: PathDiagram, **ends: int) -> PathDiagram:
    """``pd`` with the given ends (``input=i``, ``output=j``) pinned, sharing its validated layers."""
    pinned = copy.copy(pd)
    for end, index in ends.items():
        object.__setattr__(pinned, end, linalg._index(end, index, pd.dim))
    return pinned


def _ranges(pd: PathDiagram) -> list[range]:
    """The values each path index runs over: every k, the last fixed if the output is pinned."""
    ranges = [range(pd.dim)] * pd.n_layers
    if pd.output is not FREE:
        ranges[-1] = range(pd.output, pd.output + 1)
    return ranges


def _weight_blocks(pd: PathDiagram):
    """Yield the weights of ``pd``'s paths as float64 ``(re, im)`` arrays.

    Paths come in lexicographic order over the index ranges of ``_ranges``,
    as ``enumerate_paths`` lists them, in fresh arrays that the caller owns.
    The first ``h`` indices (the head) run in Python with scalar products.
    The rest vary within a block, whose shape is the lengths of their
    ranges: ``h`` is the smallest count for which a block holds at most
    ``_BLOCK`` paths, except that the last index always varies within it.

    A block grows one layer at a time: each step multiplies every partial
    weight by the entries of the layer in the rows its index range allows,
    by broadcasting. Partial weights keep the newest index on axis 0, so
    every step's inner loop runs along the long trailing axis; one
    transpose per block restores lexicographic order.

    Each step computes ``re*br - im*bi, re*bi + im*br``, the formula of a
    scalar complex product, so every weight equals the scalar loop's
    ``w = 1; w *= layer[k, prev]`` bit for bit. numpy's vectorized complex
    multiply can differ from it in the last bit.
    """
    ranges = _ranges(pd)
    h = pd.n_layers - 1
    while h > 0 and math.prod(map(len, ranges[h - 1 :])) <= _BLOCK:
        h -= 1
    rows = [slice(ks.start, ks.stop) for ks in ranges[h:]]
    shape = [len(ks) for ks in reversed(ranges[h:])]
    parts = [(m.real.copy(), m.imag.copy()) for m in pd.layers]

    for head in product(*ranges[:h]):
        re, im, prev = 1.0, 0.0, pd.input
        for (mr, mi), k in zip(parts, head):
            br, bi = mr[k, prev], mi[k, prev]
            re, im = re * br - im * bi, re * bi + im * br
            prev = k
        re, im = np.array([[re]]), np.array([[im]])
        prevs = slice(prev, prev + 1)
        for (mr, mi), ks in zip(parts[h:], rows):
            br, bi = mr[ks, prevs, None], mi[ks, prevs, None]
            re, im = re * br - im * bi, re * bi + im * br
            re, im = re.reshape(len(re), -1), im.reshape(len(im), -1)
            prevs = slice(None)
        yield re.reshape(shape).transpose().reshape(-1), im.reshape(shape).transpose().reshape(-1)


def _accumulate(carry: float | np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Running sums of ``weights`` added in sequence to ``carry``, in one new array.

    Element n is ``carry + w[0] + ... + w[n]`` added left to right, so a total
    carried from block to block equals Python's ``total += w`` over the paths
    in order: ``np.add.accumulate`` adds in sequence, where ``np.sum`` would
    add pairwise. Under a carry row, the columns of a 2-D block of rows add
    the same way, each on its own: ``np.add.accumulate`` runs along axis 0.
    """
    return np.add.accumulate(np.concatenate(([carry], weights)))[1:]


def _running_sums(pd: PathDiagram, w: int):
    """Yield ``(re, im, run_re, run_im)``: each weight block and its running sums in ``w`` columns.

    Column c holds the paths at positions c, c + w, c + 2w, ...: every path
    if ``w = 1``, the paths into output c if ``w`` counts the last index's
    values. ``run_re[n], run_im[n]`` sums the column of the block's n-th path
    up to that path, each part carried from block to block by ``_accumulate``
    on ``(n, w)`` reshapes, as Python's ``running += weight`` adds them. All
    four arrays are flat, in path order. The cap bounds each column's paths.
    """
    count = math.prod(map(len, _ranges(pd))) // w
    if count > DEFAULT_PATH_CAP:
        raise PathCapExceeded(f"diagram has {count} paths, exceeding the cap of {DEFAULT_PATH_CAP}")
    run_re = run_im = np.zeros(w)
    for re, im in _weight_blocks(pd):
        run_re = _accumulate(run_re[-w:], re.reshape(-1, w)).reshape(-1)
        run_im = _accumulate(run_im[-w:], im.reshape(-1, w)).reshape(-1)
        yield re, im, run_re, run_im


def enumerate_paths(pd: PathDiagram) -> list[Path]:
    """All paths through the diagram in lexicographic index order.

    With the output pinned to j there are exactly d**(L-1) paths (interior
    indices run free, the last index is forced to j); with a FREE output
    there are d**L. Zero-weight paths are included.
    """
    weights = (
        complex(a, b)
        for re, im, _, _ in _running_sums(pd, 1)
        for a, b in zip(re.tolist(), im.tolist())
    )
    return [Path(k, w) for k, w in zip(product(*_ranges(pd)), weights)]


def path_sum_amplitude(pd: PathDiagram, output_index: int) -> complex:
    """Sum of path weights with the output pinned to ``output_index``.

    Equals the matrix-product amplitude <j|UL...U1|i> up to float
    reassociation; the test suite holds the two routes together at 1e-10.
    It is the one-column case of ``_column_sums``.
    """
    return _column_sums(_pinned(pd, output=output_index))[0]


def _column_sums(pd: PathDiagram) -> list[complex]:
    """The path sums into each output ``pd`` allows, in one pass: every output if FREE, else one.

    ``_running_sums`` runs with one column per output and this keeps each
    column's last running sum, so each output's paths add in path order,
    left to right. A FREE pass's column j therefore equals the pinned
    ``path_sum_amplitude(pd, j)`` bit for bit. The cap holds per amplitude,
    on the paths into one output.
    """
    w = len(_ranges(pd)[-1])
    for _, _, run_re, run_im in _running_sums(pd, w):
        pass
    return list(map(complex, run_re[-w:].tolist(), run_im[-w:].tolist()))


def composition_matrix(pd: PathDiagram) -> np.ndarray:
    """The matrix route: the product of the layers in application order."""
    u = pd.layers[0]
    for layer in pd.layers[1:]:
        u = layer @ u
    return u


@dataclass(frozen=True)
class InterferenceReport:
    """Paths into one output with their sum and an interference verdict."""

    output: int
    paths: tuple[Path, ...]
    total: complex
    magnitude: float
    weight_sum: float
    verdict: str  # "destructive" | "constructive" | "mixed"


def interference_report(pd: PathDiagram, output_index: int) -> InterferenceReport:
    """Classify how the paths into ``output_index`` combine, with tol ``linalg.AGREE_TOL``.

    Destructive: the weights cancel (|sum| <= tol although the magnitudes
    add to more). Constructive: |sum| matches the sum of magnitudes within
    tol. Anything in between is mixed. ``total`` is ``path_sum_amplitude``'s,
    and ``weight_sum`` adds the magnitudes in path order too.
    """
    tol = linalg.AGREE_TOL
    pinned = _pinned(pd, output=output_index)
    paths = tuple(enumerate_paths(pinned))
    total = path_sum_amplitude(pinned, pinned.output)
    magnitude = abs(total)
    weight_sum = float(_accumulate(0.0, [abs(p.weight) for p in paths])[-1])
    if magnitude <= tol and weight_sum > tol:
        verdict = "destructive"
    elif abs(magnitude - weight_sum) <= tol:
        verdict = "constructive"
    else:
        verdict = "mixed"
    return InterferenceReport(
        output=pinned.output,
        paths=paths,
        total=total,
        magnitude=magnitude,
        weight_sum=weight_sum,
        verdict=verdict,
    )


@dataclass(frozen=True)
class LabDiagram:
    """The standardized laboratory form of a composition, as a layered DAG.

    One source node carries the prepared ket and fans out with one edge per
    basis value, weighted by the preparation amplitude (1 on the input
    branch, 0 elsewhere; zero-weight edges are kept). Each layer then has d
    device nodes, one per incoming branch value, each fanning out d weighted
    lines; the last layer's lines land on the d detector sinks. Node ids are
    stable: ``prep``, ``L<t>_k<b>``, ``D<k>``.

    Totals: 1 + L*d + d nodes and L*d**2 + d edges.
    """

    dim: int
    input: int
    n_layers: int
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, complex], ...]

    def input_walks(self) -> list[tuple[tuple[int, ...], complex]]:
        """Root-to-sink walks entering through the prepared input branch.

        Each walk is read as the sequence of branch values it visits after
        each layer, paired with the product of its edge weights; these
        correspond one to one with the FREE-output path enumeration.
        """
        successors: dict[str, list[tuple[str, int, complex]]] = {}
        for src, dst, w in self.edges:
            successors.setdefault(src, []).append((dst, _branch_of(dst), w))
        start = f"L1_k{self.input}"
        walks: list[tuple[tuple[int, ...], complex]] = []

        def descend(node_id: str, indices: tuple[int, ...], weight: complex) -> None:
            nexts = successors.get(node_id)
            if not nexts:
                walks.append((indices, weight))
                return
            for dst, branch, w in nexts:
                descend(dst, indices + (branch,), weight * w)

        descend(start, (), 1 + 0j)
        return walks


def _branch_of(node_id: str) -> int:
    # "L<t>_k<b>" -> b, "D<k>" -> k
    if node_id.startswith("D"):
        return int(node_id[1:])
    return int(node_id.rsplit("k", 1)[1])


def emit_lab_diagram(pd: PathDiagram) -> LabDiagram:
    """Build the laboratory DAG for a composition.

    Every root-to-sink walk through the prepared branch traverses one
    weighted line per layer; its weight product is the corresponding path
    weight, so the walk set is exactly the FREE-output path set.
    """
    d, L = pd.dim, pd.n_layers

    nodes = ["prep"]
    for t in range(1, L + 1):
        nodes.extend(f"L{t}_k{b}" for b in range(d))
    nodes.extend(f"D{k}" for k in range(d))

    edges: list[tuple[str, str, complex]] = []
    for b in range(d):
        amp = 1 + 0j if b == pd.input else 0j
        edges.append(("prep", f"L1_k{b}", amp))
    for t in range(1, L + 1):
        layer = pd.layers[t - 1]
        for b in range(d):
            src = f"L{t}_k{b}"
            for k in range(d):
                dst = f"L{t + 1}_k{k}" if t < L else f"D{k}"
                edges.append((src, dst, complex(layer[k, b])))

    return LabDiagram(
        dim=d,
        input=pd.input,
        n_layers=L,
        nodes=tuple(nodes),
        edges=tuple(edges),
    )


def to_dot(diagram: LabDiagram, role_labels: bool = False) -> str:
    """Serialize a laboratory DAG to Graphviz DOT text.

    Node identifiers are the stable ids of the diagram; edge labels carry
    the complex weights as ``a+bi`` with 6 significant digits. With
    ``role_labels`` (two-dimensional diagrams only), each device edge is
    additionally tagged T or R for the transmission (branch kept) or
    reflection (branch flipped) reading of a mirror element.
    """
    if role_labels and diagram.dim != 2:
        raise ValueError("role labels are defined only for two-dimensional diagrams")
    lines = ["digraph lab {", "  rankdir=LR;"]
    for node_id in diagram.nodes:
        if node_id == "prep":
            label = f"|{diagram.input}>"
            attrs = f'[shape=plaintext, label="{label}"]'
        elif node_id.startswith("D"):
            attrs = f'[shape=doublecircle, label="{node_id}"]'
        else:
            t, branch = node_id[1:].split("_k")
            attrs = f'[shape=box, label="U{t} b={branch}"]'
        lines.append(f'  "{node_id}" {attrs};')
    for src, dst, weight in diagram.edges:
        label = complex6(weight)
        if role_labels and src != "prep":
            role = "T" if _branch_of(src) == _branch_of(dst) else "R"
            label = f"{label} {role}"
        lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
