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
the path count, the weight blocks, the path list and the ``paths`` keys, and
``_input_range`` states the input's beside them: the pinned input, or every
input when a sum runs with the input FREE.

Listings enumerate zero-weight paths and never prune them: the
correspondence between paths and product terms covers vanishing terms too,
and pruning would break the bijection with walks through the laboratory
diagram. Sums skip the zeros that a layer's shape makes certain. In a layer
with one nonzero entry in every column (a permutation, shift, diagonal or
phase, say), a path at index p goes on with a nonzero weight only to that
entry's row, so such a layer adds no index that varies; the last layer always
varies, so that each output keeps its own sum. Skipping is exact whenever the
sums it gives are finite. An overflowed prefix stays inf or nan through every
later product and addition, so finite sums mean finite kept prefixes. A
skipped path multiplies a finite prefix by an exact zero, so its weight is
+0.0 or -0.0, and adding a signed zero leaves a running sum that starts at
+0.0 unchanged. Where a sum is not finite, ``_column_sums`` sums over every
path again, so overflow is reported exactly as the full sum gives it.
The public listings, sums and products (``enumerate_paths``,
``path_sum_amplitude``, ``composition_matrix``, ``interference_report``)
each compute under ``np.errstate(over="ignore", invalid="ignore")``: an
overflow gives inf or nan values, which they return, and no numpy warning.
``agreement`` computes under it too, and raises ValueError at an overflow.

A diagram checks its layers once, as one read-only ``(L, d, d)`` stack, and
its ``layers`` are views of that stack's rows. From the same stack it keeps,
in one array, each entry's float parts ``P = [re, im]`` and ``Q = [-im,
re]``. Weights are computed in numpy blocks of up to ``_BLOCK`` paths, both
parts in one ``(2, n)`` array, so a layer's step is ``w[0] * P + w[1] * Q``,
equal bit for bit to a scalar product loop (see ``_weight_blocks``). One
loop, ``_running_sums``, streams the blocks one at a time, checks the path
cap and adds both parts' weights in path order, in one running sum or one
per output. The ``qpath paths`` listing formats each block with its running
sums, ``enumerate_paths`` makes one ``Path`` per path, and ``_column_sums``
keeps each column's last sum: ``agreement`` calls it once for every amplitude
the diagram's ends allow (all of the matrix, for ``qpath verify``), and
``path_sum_amplitude``, its one-column case pinned at both ends, gives
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
from .formatting import _overflow, complex6

__all__ = [
    "FREE",
    "DEFAULT_PATH_CAP",
    "PathCapExceeded",
    "PathDiagram",
    "Path",
    "enumerate_paths",
    "path_sum_amplitude",
    "composition_matrix",
    "Agreement",
    "agreement",
    "InterferenceReport",
    "interference_report",
    "LabDiagram",
    "emit_lab_diagram",
    "to_dot",
]

#: Sentinel for an unpinned end: an output runs over every final index, and
#: (in sums) an input over every initial one.
FREE = None

#: Fail loudly past this many terms in one sum (every path, or the paths from
#: one input into one output for a column sum). ``enumerate_paths``
#: materializes a ``Path`` per path, so the cap bounds its memory; sums and
#: the ``paths`` listing stream blocks of bounded memory, so for them it
#: bounds running time. ``_running_sums`` reads it when called, so setting it
#: changes every cap.
DEFAULT_PATH_CAP = 10**6

#: Paths per weight block computed by one round of array operations.
_BLOCK = 2**14


class PathCapExceeded(RuntimeError):
    """The diagram has more paths than the cap allows to list or sum."""


@dataclass(frozen=True, eq=False)
class PathDiagram:
    """A layered composition between an input and an output basis index.

    Fields:
        dim: basis size d of every layer.
        layers: square d x d matrices in time order; the diagram keeps
            them as read-only views of one checked ``(L, d, d)`` copy.
        input: basis index prepared on the input wire, or FREE for a sum
            over every input at once; listings, ``path_sum_amplitude``,
            ``interference_report`` and ``emit_lab_diagram`` need one input.
        output: basis index detected at the end, or FREE.
    """

    dim: int
    layers: tuple[np.ndarray, ...]
    input: int | None
    output: int | None = FREE

    def __post_init__(self):
        d = linalg._dim(self.dim)
        if not self.layers:
            raise ValueError("an empty composition has no diagram")
        stack = _layer_stack(self.layers, d)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "layers", tuple(stack))
        object.__setattr__(self, "_parts", _parts(stack))
        object.__setattr__(self, "_unbranched", _unbranched(stack, self._parts))
        for end in ("input", "output"):
            if getattr(self, end) is not FREE:
                object.__setattr__(self, end, linalg._index(end, getattr(self, end), d))

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    def __deepcopy__(self, memo):
        return self  # its arrays are read-only and shared; ``copy.copy`` makes a new diagram, as ``_pinned`` needs


@dataclass(frozen=True)
class Path:
    """One basis-index assignment per layer boundary, with its complex weight."""

    indices: tuple[int, ...]
    weight: complex


def _layer_stack(layers, d: int) -> np.ndarray:
    """The layers as one read-only ``(L, d, d)`` complex stack, checked by one ``as_matrix`` call.

    ``as_matrix`` checks the stack's ``(L*d, d)`` view, so a finite stack
    passes as a whole. Layers that do not stack to that shape are taken one
    at a time instead, only to name the first bad one: ``as_matrix``'s error
    first, else ``layer t has shape ...``.
    """
    try:
        stack = np.array(layers, dtype=complex)
    except (TypeError, ValueError):
        stack = None
    if stack is None or stack.shape != (len(layers), d, d):
        for t, layer in enumerate(layers):
            shape = linalg.as_matrix(layer).shape
            if shape != (d, d):
                raise ValueError(f"layer {t} has shape {shape}, expected ({d}, {d})")
    linalg.as_matrix(stack.reshape(-1, d))
    stack.setflags(write=False)
    return stack


def _parts(stack: np.ndarray) -> np.ndarray:
    """Per layer, the float64 parts ``[P, Q]`` of its entries, as one ``(L, 2, 2, d, d)`` view.

    ``P = [re, im]`` and ``Q = [-im, re]``, so a weight ``w = [re, im]``
    times an entry ``b`` is ``w[0] * P + w[1] * Q``: ``re*br + im*(-bi),
    re*bi + im*br``.
    """
    re, im = stack.real, stack.imag
    return np.array(((re, im), (-im, re))).transpose(2, 0, 1, 3, 4)


def _unbranched(stack: np.ndarray, parts: np.ndarray) -> tuple:
    """Per layer: None if it branches, else where each of its columns goes.

    A layer with exactly one nonzero entry in every column p sends a path at
    p on to that entry's row alone; for it the item is ``(rows, entries)``,
    with ``rows[p]`` that row and ``entries[..., p]`` the ``[P, Q]`` of its
    entry, gathered from ``parts``. The last layer is always None: its
    index is the output, one column per value. The table comes from a few
    calls on the whole stack.
    """
    nonzero = stack != 0
    single = (nonzero.sum(axis=1) == 1).all(axis=1)
    single[-1] = False
    rows = nonzero.argmax(axis=1)
    entries = parts[np.arange(len(stack))[:, None], :, :, rows, np.arange(stack.shape[2])].transpose(0, 2, 3, 1)
    return tuple((r, e) if one else None for one, r, e in zip(single.tolist(), rows, entries))


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


def _input_range(pd: PathDiagram) -> range:
    """The input values a pass starts from: every one if the input is FREE, else the pinned one."""
    return range(pd.dim) if pd.input is FREE else range(pd.input, pd.input + 1)


def _one_input(pd: PathDiagram, caller: str) -> None:
    """Refuse a FREE input where ``caller`` follows the paths from one input."""
    if pd.input is FREE:
        raise ValueError(f"{caller} needs one input index, not a FREE input")


def _weight_blocks(pd: PathDiagram, unbranched: tuple | None = None):
    """Yield the weights of ``pd``'s paths as float64 ``(2, n)`` arrays: real parts, then imaginary.

    Paths come in lexicographic order over the index ranges of ``_ranges``,
    as ``enumerate_paths`` lists them, in fresh arrays that the caller owns.
    With ``unbranched``, the per-layer table of ``_unbranched``, a layer
    that does not branch keeps, for each path, only the one index its
    nonzero entry allows; the paths that are left keep their order. By
    default every layer branches, and every path is yielded.

    A block fixes the index of each of the first ``h`` layers (the head),
    and the rest grow it: its shape is the number of ways each of them
    continues a path, and ``h`` is the smallest count for which a block
    holds at most ``_BLOCK`` paths, except that the last layer and the input
    always grow it. One loop takes every layer's step on a block that starts
    as a column of ones, one row per value of ``_input_range`` labelled with
    that value, so the first step that branches spreads every input at once
    and the input is the block's oldest axis. A step that branches
    multiplies every partial weight by the layer's entries in the rows of
    its slice (one row in the head, the index range after it), by
    broadcasting, adds a block axis and labels the rows with its slice. A
    step that does not branch scales each row by its one entry and
    relabels it with that entry's row index. Partial weights are one
    ``(2, rows, rest)`` array, both parts with the newest index on axis 1,
    so every step's inner loop runs along the long trailing axis. One
    transpose per block, of both parts at once, puts the layers after the
    head oldest-first, then the input, then the output, so that a path's
    position in the block, taken modulo the number of (input, output)
    pairs, names its pair, and each pair's paths come in lexicographic
    order.

    A step is ``w[0] * P + w[1] * Q`` on the ``_parts`` of the entries,
    ``re*br + im*(-bi), re*bi + im*br``: one multiply, of ``w`` against
    ``[P, Q]``, forms both products of both parts, and one add sums them.
    That is the formula of a scalar complex product, ``re*br - im*bi,
    re*bi + im*br``, bit for bit, signed zeros included: IEEE 754 defines
    ``x - y`` as ``x + (-y)``, and flipping a sign commutes exactly with a
    rounded product. So every weight equals the scalar loop's ``w = 1; w
    *= layer[k, prev]`` bit for bit. numpy's vectorized complex multiply
    can differ from it in the last bit, so the parts stay apart.
    """
    ranges, ins = _ranges(pd), _input_range(pd)
    unbranched = unbranched or (None,) * pd.n_layers
    ways = [len(ks) if one is None else 1 for ks, one in zip(ranges, unbranched)]
    h = pd.n_layers - 1
    while h > 0 and math.prod(ways[h - 1 :]) * len(ins) <= _BLOCK:
        h -= 1
    # Axis a of a block's shape is layer L-1-a's index, and its last axis, m, is the input's.
    shape, m = [*ways[h:][::-1], len(ins)], pd.n_layers - h
    order = (0, *range(m, 1, -1), m + 1, 1)
    # steps[t]: the steps layer t can take in a block; a head layer that branches has one per index.
    steps = [[one] if one is not None else [slice(k, k + 1) for k in ks] if t < h else [slice(ks.start, ks.stop)]
             for t, (ks, one) in enumerate(zip(ranges, unbranched))]
    start = np.zeros((2, len(ins), 1))
    start[0] = 1.0

    for block in product(*steps):
        w, prevs = start, slice(ins.start, ins.stop)
        for pq, step in zip(pd._parts, block):
            if isinstance(step, slice):
                x, prevs = w[:, None, None] * pq[:, :, step, prevs, None], step
            else:
                to, pq = step
                x, prevs = w[:, None] * pq[:, :, prevs, None], to[prevs]
            # x[0] is w[0] * P and x[1] is w[1] * Q, with the new rows on axis 2.
            w = np.add(*x.reshape(2, 2, x.shape[2], -1))
        yield w.reshape(2, *shape).transpose(order).reshape(2, -1)


def _accumulate(carry, weights) -> np.ndarray:
    """Running sums of ``weights`` along axis -2, added in sequence to ``carry``, in one new array.

    ``carry`` is one row long on that axis. Row n is ``carry + w[0] + ... +
    w[n]`` added left to right, so a total carried from block to block
    equals Python's ``total += w`` over the paths in order:
    ``np.add.accumulate`` adds in sequence, where ``np.sum`` would add
    pairwise. The other axes add the same way, each entry on its own.
    """
    return np.add.accumulate(np.concatenate((carry, weights), axis=-2), axis=-2)[..., 1:, :]


def _running_sums(pd: PathDiagram, w: int, unbranched: tuple | None = None):
    """Yield ``(weights, sums)``: each weight block and its running sums in ``w`` columns.

    Both are float64 ``(2, n)`` arrays, real parts in row 0 and imaginary
    parts in row 1, in path order. Column c holds the paths at positions
    c, c + w, c + 2w, ...: every path if ``w = 1``; if ``w`` counts the
    pairs of an input value and a last index value, the paths of pair c,
    in the order ``_weight_blocks`` gives (input by input). ``sums[:, n]``
    adds the column of the block's n-th path up to that path, both parts
    and every column carried from block to block by one ``_accumulate`` on
    the ``(2, n // w, w)`` view, as Python's ``running += weight`` adds
    them. ``unbranched`` goes to ``_weight_blocks``. The cap bounds each
    column's paths, all of them counted, whether skipped or not.
    """
    count = math.prod(map(len, _ranges(pd))) * len(_input_range(pd)) // w
    if count > DEFAULT_PATH_CAP:
        raise PathCapExceeded(f"diagram has {count} paths, exceeding the cap of {DEFAULT_PATH_CAP}")
    run = np.zeros((2, 1, w))
    for weights in _weight_blocks(pd, unbranched):
        run = _accumulate(run[:, -1:], np.reshape(weights, (2, -1, w)))
        yield weights, run.reshape(2, -1)


def enumerate_paths(pd: PathDiagram) -> list[Path]:
    """All paths through the diagram in lexicographic index order.

    With the output pinned to j there are exactly d**(L-1) paths (interior
    indices run free, the last index is forced to j); with a FREE output
    there are d**L. Zero-weight paths are included. The input must be pinned.
    """
    _one_input(pd, "enumerate_paths")
    weights = (
        complex(a, b)
        for (re, im), _ in _running_sums(pd, 1)
        for a, b in zip(re.tolist(), im.tolist())
    )
    with np.errstate(over="ignore", invalid="ignore"):
        return [Path(k, w) for k, w in zip(product(*_ranges(pd)), weights)]


def path_sum_amplitude(pd: PathDiagram, output_index: int) -> complex:
    """Sum of path weights with the output pinned to ``output_index``.

    Equals the matrix-product amplitude <j|UL...U1|i> up to float
    reassociation; the test suite holds the two routes together at 1e-10.
    It is the one-column case of ``_column_sums``, so it skips the paths
    through the zeros of layers that do not branch and equals the sum over
    every path bit for bit. The input must be pinned.
    """
    _one_input(pd, "path_sum_amplitude")
    with np.errstate(over="ignore", invalid="ignore"):
        return _column_sums(_pinned(pd, output=output_index))[0]


def _column_sums(pd: PathDiagram) -> list[complex]:
    """The path sums from each input into each output ``pd`` allows, in one pass, input by input.

    A FREE end takes every value and a pinned one its own, so with both
    ends FREE the pass gives all d*d amplitudes ``<j|U|i>``, at position
    ``i*d + j``, the order in which ``agreement`` compares them.
    ``_running_sums`` runs with one column per (input, output) and this
    keeps each column's last running sum, so each amplitude's paths add in
    path order, left to right. A column therefore equals the sum pinned at
    both of its ends bit for bit, ``path_sum_amplitude``'s among them. The
    pass skips the paths through the zero entries of the layers that do not
    branch; if any sum it gives is not finite, a second pass sums over every
    path, so each sum equals the sum over every path bit for bit (see the
    module docstring). The cap holds per amplitude, on all the paths from
    one input into one output.
    """
    w = len(_input_range(pd)) * len(_ranges(pd)[-1])
    for unbranched in (pd._unbranched, None):
        for _, sums in _running_sums(pd, w, unbranched):
            pass
        last = sums[:, -w:]
        if np.isfinite(last).all():
            break
    return list(map(complex, *last.tolist()))


def composition_matrix(pd: PathDiagram) -> np.ndarray:
    """The matrix route: the product of the layers in application order."""
    u = pd.layers[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in pd.layers[1:]:
            u = layer @ u
    return u


@dataclass(frozen=True)
class Agreement:
    """The worst |path sum - matrix product|, the first amplitude at it (input by input), and a verdict."""

    deviation: float
    input: int
    output: int
    ok: bool  # deviation <= linalg.AGREE_TOL


def agreement(pd: PathDiagram) -> Agreement:
    """Hold the path sums against ``composition_matrix`` on every amplitude ``pd``'s ends allow.

    It compares them input by input, in ``_column_sums``'s order, by scalar
    ``abs``, reading the tolerance when called. The first deviation that is
    not finite raises ValueError, naming its amplitude and both routes' values.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u = composition_matrix(pd)
        worst, at = -1.0, None
        for (i, j), amplitude in zip(product(_input_range(pd), _ranges(pd)[-1]), _column_sums(pd)):
            deviation = abs(amplitude - u[j, i])
            if not math.isfinite(deviation):
                raise ValueError(_overflow(
                    f"amplitude (output {j}, input {i})", ("path sum", amplitude), ("matrix product", u[j, i])
                ))
            if deviation > worst:
                worst, at = float(deviation), (i, j)
    return Agreement(worst, *at, worst <= linalg.AGREE_TOL)


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
    _one_input(pd, "interference_report")
    tol = linalg.AGREE_TOL
    pinned = _pinned(pd, output=output_index)
    paths = tuple(enumerate_paths(pinned))
    total = path_sum_amplitude(pinned, pinned.output)
    magnitude = abs(total)
    magnitudes = np.reshape([abs(p.weight) for p in paths], (-1, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        weight_sum = float(_accumulate([[0.0]], magnitudes)[-1, 0])
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
    weight, so the walk set is exactly the FREE-output path set. The input
    must be pinned.
    """
    _one_input(pd, "emit_lab_diagram")
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


def to_dot(diagram: LabDiagram) -> str:
    """Serialize a laboratory DAG to Graphviz DOT text.

    Node identifiers are the stable ids of the diagram; edge labels carry
    the complex weights as ``a+bi`` with 6 significant digits.
    """
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
        lines.append(f'  "{src}" -> "{dst}" [label="{complex6(weight)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
