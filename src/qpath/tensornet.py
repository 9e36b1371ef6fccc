"""Box-and-line tensor networks: boxes hold tensors, lines carry shared indices.

A ``Network`` wires named tensor legs together. Every leg of every node is
either one endpoint of exactly one edge or appears exactly once in the free
leg list; a line with no free ends is summed over, free lines index the
result. A self-loop on a single node is ordinary wiring and yields a trace.

Networks are values: the surgery operations (``cut_edge``, ``wire``,
``insert_ket``, ``insert_bra``, ``add_node``) all return new networks and
never mutate the receiver. Public constructors (``Tensor(...)``,
``from_matrix``, ``from_state``, ``Network(...)``) check everything; surgery,
``trace_network`` and ``contract`` check only what they add, build from parts
already checked and never re-validate their results. Ids and leg names are
hashable values kept as given; a result leg is named ``f"{node}.{leg}"``.
A network's wiring is frozen, so its key is built and hashed once, by
``Network(...)`` or by a checked-parts network's first ``contract``;
``_check``, the structural check of that key, runs once per wiring and is
cached for the last ``_PLANS`` wirings. ``Network.contract`` passes the key
to ``_plan`` and replays the plan it works out once per wiring. Given no
order, the plan takes at each step the edge whose trace or merge leaves the
fewest entries (the size-greedy rule of opt_einsum). A tie between merges of
two matrices goes to the one whose matrices took fewer such merges to build,
any other tie to the lower edge index, so a chain or ring of one dimension
merges neighbours pairwise, level by level, in a tree of depth
ceil(log2 N). It merges components pair by pair, sums every line the two
share with one transpose, reshape and ``np.dot`` (numpy's ``tensordot``
arithmetic, bit for bit), passes two matrices sharing one line to ``np.dot``
as they are or transposed, and removes self-loops by a partial trace. A run
of such matrix merges that read no result of one another, a level of the
tree, is one ``np.matmul`` on stacked operands, the same bytes as its
``np.dot`` calls. A plan whose largest array would exceed ``ENTRY_CAP``
entries is refused before any arithmetic.
``brute_force_contract`` is an intentionally naive all-index-assignment
summation kept as an independent oracle, sharing no code with the engine.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from collections.abc import Hashable
from types import MappingProxyType

import numpy as np

from . import linalg
from .formatting import _entry_key, _overflow

__all__ = [
    "ENTRY_CAP",
    "ContractionCapExceeded",
    "NetworkError",
    "Tensor",
    "Network",
    "brute_force_contract",
    "trace_network",
    "amplitude_via_density",
]

#: A network endpoint: the tuple (node id, leg name), both hashable and compared as given.
EndPoint = tuple[Hashable, Hashable]


class NetworkError(ValueError):
    """A network violates its structural invariants."""


class Tensor:
    """A dense complex tensor whose axes are named, dimensioned legs.

    Args:
        legs: ordered (name, dim) pairs, hashable names unique within the tensor.
        data: complex array of shape ``dims``, one axis per leg in declared order.
    """

    __slots__ = ("legs", "data")

    def __init__(self, legs, data):
        legs = _unique(tuple((name, linalg._integer("leg dimension", dim)) for name, dim in legs))
        dims = tuple(dim for _, dim in legs)
        if any(dim < 1 for dim in dims):
            raise NetworkError(f"leg dimensions must be positive, got {dims}")
        arr = np.asarray(data, dtype=complex)
        if arr.shape != dims:
            raise NetworkError(f"data shape {arr.shape} does not match leg dims {dims}")
        if not np.all(np.isfinite(arr)):
            raise NetworkError("tensor entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        Tensor.legs.__set__(self, legs)
        Tensor.data.__set__(self, arr)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def __deepcopy__(self, memo=None):
        return self  # a value, as a tuple is: ``copy`` would restore the slots through ``__setattr__``

    __copy__ = __deepcopy__

    @classmethod
    def _of_checked(cls, legs, arr: np.ndarray) -> "Tensor":
        """A Tensor over ``arr`` itself: finite, complex, C-contiguous, of the legs' shape, owned by the caller.

        ``legs`` is a tuple of (name, positive int) pairs with unique hashable names.
        Nothing is checked or copied again; the array is made read-only.
        """
        tensor = object.__new__(cls)
        arr.setflags(write=False)
        Tensor.legs.__set__(tensor, legs)  # the slot descriptors: ``__setattr__`` refuses, object's is slower
        Tensor.data.__set__(tensor, arr)
        return tensor

    @classmethod
    def from_matrix(cls, m) -> "Tensor":
        """View a matrix as a gate box: legs ``("out", "in")``, data[o, i] = m[o, i]."""
        m = linalg.as_matrix(m)
        return cls._of_checked((("out", m.shape[0]), ("in", m.shape[1])), m.copy())

    @classmethod
    def from_state(cls, v) -> "Tensor":
        """View a ket as a state box: one leg, ``"out"``."""
        v = linalg.as_state(v)
        return cls._of_checked((("out", v.shape[0]),), v.copy())

    @property
    def rank(self) -> int:
        return len(self.legs)

    def leg_dim(self, name: Hashable) -> int:
        for leg_name, dim in self.legs:
            if leg_name == name:
                return dim
        raise NetworkError(f"tensor has no leg named '{name}'")

    def item(self) -> complex:
        """The value of a rank-0 tensor."""
        if self.legs:
            raise NetworkError(f"tensor of rank {self.rank} is not a scalar")
        return complex(self.data[()])

    def __repr__(self) -> str:
        legs = ", ".join(f"{n}:{d}" for n, d in self.legs)
        return f"Tensor({legs})"


def _unique(legs: tuple[tuple[Hashable, int], ...]) -> tuple[tuple[Hashable, int], ...]:
    """``legs`` itself, checked for unique names."""
    names = [name for name, _ in legs]
    if len(set(names)) != len(names):
        raise NetworkError(f"duplicate leg names in {names}")
    return legs


def _fmt_endpoint(p: EndPoint) -> str:
    return ".".join(map(str, p))


def _check_line(p: EndPoint, dp: int, q: EndPoint, dq: int) -> None:
    if dp != dq:
        raise NetworkError(
            f"edge endpoints {_fmt_endpoint(p)} (dim {dp}) and "
            f"{_fmt_endpoint(q)} (dim {dq}) have different dimensions"
        )


_PLANS = 128  # wirings whose plans ``_plan`` keeps, and whose checks ``_check`` keeps

#: The most entries (complex128, 16 bytes each) that one step of a contraction
#: plan, or its output, may make: 2**24 entries are 256 MiB.
ENTRY_CAP = 2**24


class ContractionCapExceeded(RuntimeError):
    """A contraction plan would make an array with more entries than ``ENTRY_CAP``."""


def _over_cap(what: str, shape: tuple[int, ...]) -> int:
    """The entry count of ``shape``, checked against ``ENTRY_CAP``."""
    entries = math.prod(shape)
    if entries > ENTRY_CAP:
        raise ContractionCapExceeded(
            f"{what} makes an array of shape {shape}, {entries} entries, exceeding the cap of {ENTRY_CAP}"
        )
    return entries


class _Wiring(tuple):
    """A wiring's key for ``_check`` and ``_plan``: its hash, taken once, each node's (id, legs), edges, free legs."""

    __slots__ = ()

    def __new__(cls, nodes: tuple, edges: tuple, free_legs: tuple):
        return tuple.__new__(cls, (hash((nodes, edges, free_legs)), nodes, edges, free_legs))

    def __hash__(self):
        return self[0]  # so a cache lookup hashes no nested tuple


@functools.lru_cache(maxsize=_PLANS)
def _plan(wiring, order):
    """``Network.contract``'s steps for one wiring, given by its ``_Wiring`` key, and order.

    With ``order`` None the plan picks the schedule: each step takes the live
    edge whose trace or merge leaves the fewest entries. On a tie between two
    components of two legs each it takes the pair whose deeper one took the
    fewest merges of two matrices to build (``depth``), then the lowest edge
    index; a tie with or among other steps goes to the lowest edge index, so
    a torus, whose tensors have four legs, keeps the schedule of that alone.
    Node k's array fills slot k. A step ``(c, d, x, y, n, shape)`` sets slot
    c to: if d == c, its trace over axes x and y; if n == 0, ``np.dot`` of it
    and slot d, each as is where x (y) is true and else transposed, on
    operands of shapes (m, k) and (k, p) where ``shape`` is (m, k, p); otherwise
    ``np.dot(c.transpose(x).reshape(-1, n), d.transpose(y).reshape(n, -1)).reshape(shape)``.
    ``_levels`` then makes each level of matrix merges one step, n == -1.
    Returns the steps, the slots left for the outer product, its free-leg
    permutation, the output dims, the schedule as a permutation of edge
    indices, and the peak: the most entries of any step's result or of the
    output. Raises ContractionCapExceeded, before any array is made, if a step
    is over ``ENTRY_CAP``; ``contract`` checks the output. Legs get integer ids
    in node then leg order. ``owner[i]`` is the slot holding axis i, or -1 once its
    line is eliminated; ``partner[i]`` is the id across i's edge, or -1 for a
    free leg, which reads the trailing ``owner`` entry, -1.
    """
    _, nodes, edges, free_legs = wiring
    ids, comp, owner, dims = {}, {}, [], []
    for key, (node_id, legs) in enumerate(nodes):
        comp[key] = list(range(len(owner), len(owner) + len(legs)))
        for leg_name, dim in legs:
            ids[(node_id, leg_name)] = len(owner)
            owner.append(key)
            dims.append(dim)
    partner = [-1] * len(owner)
    owner.append(-1)
    lines = [(ids[p], ids[q]) for p, q in edges]
    for p, q in lines:
        partner[p], partner[q] = q, p

    depth = dict.fromkeys(comp, 0)  # levels of merges of two matrices under each component

    def cheapest():
        # A merge sums every line the two components share, so its cost is per pair.
        while True:
            size = {c: math.prod(dims[x] for x in la) for c, la in comp.items()}
            shared = {}
            for p, q in lines:
                pair = (owner[p], owner[q])
                shared[pair] = shared.get(pair, 1) * dims[p]
            best = None
            for e, (p, q) in enumerate(lines):
                cp, cq = owner[p], owner[q]
                if cp < 0:
                    continue
                if cp == cq:
                    left = size[cp] // dims[p] ** 2
                else:
                    left = size[cp] * size[cq] // (shared.get((cp, cq), 1) * shared.get((cq, cp), 1)) ** 2
                key = (left, max(depth[cp], depth[cq]) if len(comp[cp]) == 2 == len(comp[cq]) else 0)
                if best is None or key < best[0]:
                    best = (key, e)
            if best is None:
                return
            yield best[1]

    steps, schedule, peak = [], [], 0
    for e in cheapest() if order is None else order:
        schedule.append(e)
        p, q = lines[e]
        cp, cq = owner[p], owner[q]
        if cp < 0:
            continue
        la = comp[cp]
        if cp == cq:
            steps.append((cp, cp, la.index(p), la.index(q), 0, None))
            comp[cp] = [x for x in la if x != p and x != q]
            owner[p] = owner[q] = -1
            shape = tuple(dims[x] for x in comp[cp])
            peak = max(peak, _over_cap(f"contraction step {len(steps)} (edge {e}, a trace)", shape))
            continue
        lb = comp.pop(cq)
        # Every line between the two components, found from the smaller
        # in its axis order: that order is the order the dot sums in.
        flip = len(lb) < len(la)
        small, big, other = (lb, la, cp) if flip else (la, lb, cq)
        ks, ms = [], []
        for k, x in enumerate(small):
            y = partner[x]
            if owner[y] == other:
                ks.append(k)
                ms.append(big.index(y))
                owner[x] = owner[y] = -1
        ia, ib = (ms, ks) if flip else (ks, ms)
        keep_a, keep_b, axes = [], [], []
        for k, x in enumerate(la):
            if owner[x] >= 0:
                keep_a.append(k)
                axes.append(x)
        for k, x in enumerate(lb):
            if owner[x] >= 0:
                keep_b.append(k)
                axes.append(x)
                owner[x] = cp
        pa, pb = tuple(keep_a + ia), tuple(ib + keep_b)
        shape = tuple(dims[x] for x in axes)
        peak = max(peak, _over_cap(f"contraction step {len(steps) + 1} (edge {e}, a merge)", shape))
        n = math.prod(dims[lb[k]] for k in ib)
        matrices = len(pa) == 2 == len(pb) and len(ia) == 1
        depth[cp] = max(depth[cp], depth.pop(cq)) + matrices
        if matrices:
            # Two matrices sharing one line: the dot's operands are a or a.T and b or b.T themselves.
            steps.append((cp, cq, pa == (0, 1), pb == (0, 1), 0, (shape[0], n, shape[1])))
        else:
            steps.append((cp, cq, pa, pb, n, shape))
        comp[cp] = axes
    schedule += sorted(set(range(len(edges))).difference(schedule))
    axes = [x for part in comp.values() for x in part]
    perm = tuple(axes.index(ids[p]) for p in free_legs)
    out_dims = tuple(dims[ids[p]] for p in free_legs)
    return _levels(steps, comp), tuple(comp), perm, out_dims, tuple(schedule), max(peak, math.prod(out_dims))


def _levels(steps, final):
    """``steps`` with each level of merges of two matrices made one step, replayed by one ``np.matmul``.

    A level is a run of consecutive merges, each of two matrices of the same
    shape with no dim below 2, both as is or both transposed, and none
    reading a slot an earlier one in the run wrote; its stacks and result
    together hold at most ``ENTRY_CAP`` entries. Other steps and runs of one
    merge, or over the cap, stay merge by merge. On such operands ``matmul``
    makes ``np.dot``'s bytes, gemm on each pair, where ``np.dot`` sends a
    1 x n operand to gemv or a plain loop and a matrix times its own
    transpose to syrk. A level is ``(a, b, x, y, -1, put)``: its left
    operands are the slots in the tuple ``a``, stacked, or the slice ``a``
    of the last level's result, and its right ones are ``b`` likewise. Merge
    k's result is item k of the level's result; ``put`` lists each (slot, k)
    that a later step reads on its own, so the replay puts item k in slot
    c[k] then.
    """
    runs, written = [], set()
    for step in steps:
        c, d, x, y, n, shape = step
        key = (x, shape) if n == 0 and c != d and x == y and min(shape) >= 2 else None
        if key and runs and runs[-1][0] == key and c not in written and d not in written:
            runs[-1][1].append(step)
        else:
            runs.append((key, [step]))
            written.clear()
        written.add(c)

    out, puts, held = [], [], {}  # held: slot -> (level, k) while the slot's value is item k of a level's result

    def read(slot):
        if slot in held:
            level, k = held.pop(slot)
            puts[level].append((slot, k))

    def source(slots):
        # A slice where the last level's result holds every operand at one stride; else a stack.
        at = [held.get(slot, (-1, 0)) for slot in slots]
        first, stride = at[0][1], at[1][1] - at[0][1]
        if stride > 0 and at == [(len(puts) - 1, first + k * stride) for k in range(len(at))]:
            return slice(first, at[-1][1] + 1, stride)
        for slot in slots:
            read(slot)
        return tuple(slots)

    for key, run in runs:
        m, n, p = key[1] if key else (0, 0, 0)
        if len(run) == 1 or len(run) * (m * n + n * p + m * p) > ENTRY_CAP:
            for c, d, *_ in run:
                read(c)
                read(d)
            out += run
            continue
        cs, ds = [step[0] for step in run], [step[1] for step in run]
        a, b = source(cs), source(ds)
        held.update((c, (len(puts), k)) for k, c in enumerate(cs))
        out.append((a, b, key[0], key[0], -1, len(puts)))
        puts.append([])
    for c in final:
        read(c)
    return tuple(step if step[4] >= 0 else (*step[:5], tuple(puts[step[5]])) for step in out)


@functools.lru_cache(maxsize=_PLANS)
def _check(wiring):
    """``Network``'s structural check of one wiring, given by its ``_Wiring`` key, the one ``_plan`` gets.

    Raises the first NetworkError that applies: edge by edge, an endpoint on
    an unknown node or leg, then a line whose two dimensions differ; then a
    free leg on an unknown node or leg; then the first leg wired more than
    once; then the first dangling leg in node then leg order. A wiring that
    passes is cached; ``lru_cache`` stores no exception, so one refused is
    checked again on every call. Returns the first key of an equal wiring
    that passed, which ``Network`` keeps so ``_plan`` finds it by identity.
    """
    _, nodes, edges, free_legs = wiring
    dims = {(node_id, leg): dim for node_id, legs in nodes for leg, dim in legs}

    def dim_of(p):
        if p in dims:
            return dims[p]
        node, leg = p
        if all(node_id != node for node_id, _ in nodes):
            raise NetworkError(f"endpoint {_fmt_endpoint(p)} references unknown node '{node}'")
        raise NetworkError(f"tensor has no leg named '{leg}'")

    for p, q in edges:
        _check_line(p, dim_of(p), q, dim_of(q))
    for p in free_legs:
        dim_of(p)
    wired = [p for edge in edges for p in edge] + list(free_legs)
    distinct = set(wired)
    if len(distinct) != len(wired):
        point = next(p for p, count in collections.Counter(wired).items() if count > 1)
        raise NetworkError(f"leg {_fmt_endpoint(point)} is wired more than once")
    if len(distinct) != len(dims):
        point = next(p for p in dims if p not in distinct)
        raise NetworkError(f"dangling leg {_fmt_endpoint(point)}")
    return wiring


class Network:
    """Tensors wired into a graph with free legs.

    Args:
        nodes: map node id -> Tensor.
        edges: ordered ((node, leg), (node, leg)) pairs; endpoint order is
            preserved and used when an edge is cut.
        free_legs: ordered (node, leg) pairs; this order fixes the leg order
            of the contraction result.

    Node ids and leg names are kept and compared as given (``1`` and ``"1"``
    are two nodes). Endpoints are hashable (node, leg) tuples; a list one
    raises TypeError when the wiring's key is hashed.

    Raises:
        NetworkError: if a node is not a Tensor, any leg is dangling or
            wired more than once, an endpoint references a missing node or
            leg, or the two endpoints of an edge have different dimensions.
        ValueError: if an endpoint is not a pair.

    A network is a value: ``nodes`` is a read-only view of its own dict,
    ``edges`` and ``free_legs`` are tuples and no attribute can be set, so
    the wiring's key is built and hashed once, here, and every ``contract``
    reuses it. ``_check``'s structural check (endpoints, dimensions, legs
    wired twice or dangling) is cached for the last ``_PLANS`` wirings.
    """

    __slots__ = ("nodes", "edges", "free_legs", "_key")

    def __init__(self, nodes, edges=(), free_legs=()):
        nodes = dict(nodes)
        for node_id, tensor in nodes.items():
            if not isinstance(tensor, Tensor):
                raise NetworkError(f"node '{node_id}' is not a Tensor")
        self._set(nodes, tuple(edges), tuple(free_legs))
        self._validate()

    @classmethod
    def _of_checked(cls, nodes: dict, edges: tuple, free_legs: tuple) -> "Network":
        """A Network over the caller's own fresh dict and tuples of valid wiring; unchecked, keyed on first use."""
        return object.__new__(cls)._set(nodes, edges, free_legs)

    def _set(self, nodes: dict, edges: tuple, free_legs: tuple) -> "Network":
        Network.nodes.__set__(self, MappingProxyType(nodes))  # the slot descriptors, since ``__setattr__`` refuses
        Network.edges.__set__(self, edges)
        Network.free_legs.__set__(self, free_legs)
        Network._key.__set__(self, None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Network is immutable")

    def __deepcopy__(self, memo=None):
        return self  # a value, as a tuple is: ``copy`` would restore the slots through ``__setattr__``

    __copy__ = __deepcopy__

    def _dim_of(self, p: EndPoint) -> int:
        node, leg = p
        if node not in self.nodes:
            raise NetworkError(f"endpoint {_fmt_endpoint(p)} references unknown node '{node}'")
        return self.nodes[node].leg_dim(leg)

    def _wiring_key(self) -> _Wiring:
        """The key ``_check`` and ``_plan`` cache this wiring by, built and hashed on first use and kept."""
        if self._key is None:
            # A tuple from a list: one grown from a generator is resized, which fills CPython's tuple free lists.
            nodes = tuple([(node_id, t.legs) for node_id, t in self.nodes.items()])
            Network._key.__set__(self, _Wiring(nodes, self.edges, self.free_legs))
        return self._key

    def _validate(self) -> None:
        """Raise the NetworkError ``_check`` finds in this network's wiring, checked once per wiring."""
        Network._key.__set__(self, _check(self._wiring_key()))

    # -- contraction -------------------------------------------------------

    def contract(self, order=None) -> Tensor:
        """Contract the network to a tensor over the free legs, in their order.

        Eliminates components pair by pair: when a scheduled edge joins two
        components, every line between them is summed in one merge (the
        transpose, reshape and ``np.dot`` that numpy's ``tensordot`` makes),
        and edges already eliminated that way are skipped when their turn
        comes; two matrices sharing one line go to ``np.dot`` as they are or
        transposed, and a run of such merges that need no result of one
        another goes to one ``np.matmul``, with the same bytes. Self-loops are
        removed by a partial trace, disconnected remainders combined by an
        outer product. ``_plan`` works these steps out once per wiring and
        ``order``, cached by the network's key; each call replays them.
        ``order`` optionally gives a permutation of edge indices to process,
        replayed as given; without it the plan picks the edge whose step
        leaves the fewest entries, breaking ties so that a chain or ring of
        one dimension merges neighbours pairwise, one level at a time, and
        ``contract()`` equals ``contract(order=<that schedule>)`` byte for
        byte. Any order yields the same result up to float reassociation. A
        network with no free legs contracts to a rank-0 tensor. If a step or
        the output would make more than ``ENTRY_CAP`` entries,
        ContractionCapExceeded names it before any arithmetic. If an entry
        overflows double precision, a NetworkError names the first one by
        the key ``qpath contract`` prints for it (``-`` for a scalar).
        """
        if order is not None:
            order = [linalg._integer("order entry", i) for i in order]
            if sorted(order) != list(range(len(self.edges))):
                raise ValueError("order must be a permutation of edge indices")
            order = tuple(order)
        steps, final, perm, out_dims, _, _ = _plan(self._wiring_key(), order)
        # Named per call: one plan serves ids equal but printed apart (1, 1.0, True); ("a.b", "c") and ("a", "b.c") clash.
        out_legs = _unique(tuple((f"{node}.{leg}", dim) for (node, leg), dim in zip(self.free_legs, out_dims)))
        _over_cap("the contraction's output", out_dims)
        arrs = [tensor.data for tensor in self.nodes.values()]
        # An overflow is named below, not left to escape as a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for c, d, x, y, n, shape in steps:
                if n < 0:
                    # A level of merges: one matmul, its operands stacked or sliced from the last level's result.
                    a = level[c] if type(c) is slice else np.array([arrs[k] for k in c])
                    b = level[d] if type(d) is slice else np.array([arrs[k] for k in d])
                    level = np.matmul(a if x else a.transpose(0, 2, 1), b if y else b.transpose(0, 2, 1))
                    for slot, k in shape:
                        arrs[slot] = level[k]
                    continue
                a, b = arrs[c], arrs[d]
                if c == d:
                    arrs[c] = np.trace(a, axis1=x, axis2=y)
                elif n == 0:
                    arrs[c] = np.dot(a if x else a.T, b if y else b.T)
                else:
                    arrs[c] = np.dot(a.transpose(x).reshape(-1, n), b.transpose(y).reshape(n, -1)).reshape(shape)
            arr = np.ones((), dtype=complex)
            for c in final:
                arr = np.multiply.outer(arr, arrs[c])
            out = arr.transpose(perm)
            if not out.flags.c_contiguous:
                out = out.copy()
            if not np.isfinite(out).all():
                idx = tuple(np.argwhere(~np.isfinite(out))[0].tolist())
                raise NetworkError(_overflow(f"entry {_entry_key(idx)}", ("contraction", out[idx])))
        return Tensor._of_checked(out_legs, out)

    # -- graph surgery -----------------------------------------------------

    def _find_edge(self, edge) -> int:
        (a, x), (b, y) = edge
        for i, stored in enumerate(self.edges):
            if stored in (((a, x), (b, y)), ((b, y), (a, x))):
                return i
        raise NetworkError(f"edge {a}.{x} -- {b}.{y} is not in the network")

    def cut_edge(self, edge) -> "Network":
        """Remove an edge; its endpoints become free legs, first endpoint first."""
        i = self._find_edge(edge)
        new_edges = self.edges[:i] + self.edges[i + 1 :]
        return Network._of_checked(self.nodes.copy(), new_edges, self.free_legs + tuple(self.edges[i]))

    def _free(self, leg) -> EndPoint:
        leg = tuple(leg)
        if leg not in self.free_legs:
            raise NetworkError(f"leg {_fmt_endpoint(leg)} is not free")
        return leg

    def wire(self, a, b) -> "Network":
        """Join two free legs into an edge (the inverse of ``cut_edge``)."""
        a, b = self._free(a), self._free(b)
        if a == b:
            raise NetworkError(f"cannot wire leg {_fmt_endpoint(a)} to itself")
        _check_line(a, self._dim_of(a), b, self._dim_of(b))
        remaining = tuple([p for p in self.free_legs if p not in (a, b)])
        return Network._of_checked(self.nodes.copy(), self.edges + ((a, b),), remaining)

    def add_node(self, node_id: Hashable, tensor: Tensor) -> "Network":
        """Add a tensor as a new node; its legs are appended to the free legs."""
        if node_id in self.nodes:
            raise NetworkError(f"node id '{node_id}' already exists")
        if not isinstance(tensor, Tensor):
            raise NetworkError(f"node '{node_id}' is not a Tensor")
        new_free = self.free_legs + tuple([(node_id, leg_name) for leg_name, _ in tensor.legs])
        return Network._of_checked({**self.nodes, node_id: tensor}, self.edges, new_free)

    def _fresh_id(self, prefix: str) -> str:
        n = 0
        while f"{prefix}{n}" in self.nodes:
            n += 1
        return f"{prefix}{n}"

    def _insert_rank1(self, free_leg: EndPoint, fresh: np.ndarray, prefix: str) -> "Network":
        have, want = fresh.shape[0], self._dim_of(free_leg)
        if have != want:
            raise NetworkError(
                f"dimension mismatch: state has dim {have}, "
                f"leg {_fmt_endpoint(free_leg)} has dim {want}"
            )
        node_id = self._fresh_id(prefix)
        return Network._of_checked(
            {**self.nodes, node_id: Tensor._of_checked((("out", have),), fresh)},
            self.edges + (((node_id, "out"), free_leg),),
            tuple([p for p in self.free_legs if p != free_leg]),
        )

    def insert_ket(self, free_leg, state) -> "Network":
        """Tie a ket into a free leg: a rank-1 node holding the amplitudes."""
        return self._insert_rank1(self._free(free_leg), linalg.as_state(state).copy(), "ket")

    def insert_bra(self, free_leg, state) -> "Network":
        """Tie a bra into a free leg: like ``insert_ket`` with conjugated amplitudes."""
        fresh = linalg.as_state(state).conj()
        return self._insert_rank1(self._free(free_leg), fresh, "bra")

    def __repr__(self) -> str:
        return (
            f"Network(nodes={sorted(self.nodes, key=str)}, edges={len(self.edges)}, "
            f"free={[f'{n}.{l}' for n, l in self.free_legs]})"
        )


def brute_force_contract(net: Network) -> Tensor:
    """Contract by explicitly summing every index assignment.

    Exponential in the number of lines. This routine exists as an independent
    oracle for ``Network.contract`` and deliberately avoids the pairwise
    engine: it walks plain Python loops over every edge and free-leg index
    tuple and multiplies scalar entries.
    """
    edge_dims = [net.nodes[p[0]].leg_dim(p[1]) for p, _ in net.edges]
    free_dims = [net.nodes[node].leg_dim(leg) for node, leg in net.free_legs]

    slot: dict[EndPoint, tuple[str, int]] = {}
    for k, (p, q) in enumerate(net.edges):
        slot[p] = ("edge", k)
        slot[q] = ("edge", k)
    for k, p in enumerate(net.free_legs):
        slot[p] = ("free", k)

    node_axes = {
        node_id: [slot[(node_id, leg_name)] for leg_name, _ in tensor.legs]
        for node_id, tensor in net.nodes.items()
    }

    out = np.zeros(tuple(free_dims), dtype=complex)
    for free_assign in itertools.product(*(range(d) for d in free_dims)):
        total = 0j
        for edge_assign in itertools.product(*(range(d) for d in edge_dims)):
            term = 1 + 0j
            for node_id, tensor in net.nodes.items():
                idx = tuple(
                    edge_assign[k] if kind == "edge" else free_assign[k]
                    for kind, k in node_axes[node_id]
                )
                term *= complex(tensor.data[idx])
            total += term
        out[free_assign] = total

    out_legs = [(f"{node}.{leg}", dim) for (node, leg), dim in zip(net.free_legs, free_dims)]
    return Tensor(out_legs, out)


def trace_network(m) -> Network:
    """The closed loop ``M.out -- M.in`` on one node ``M`` holding m: it contracts to tr(m)."""
    m = linalg.as_square(m)
    tensor = Tensor._of_checked((("out", len(m)), ("in", len(m))), m.copy())
    return Network._of_checked({"M": tensor}, ((("M", "out"), ("M", "in")),), ())


def amplitude_via_density(a, b, m) -> complex:
    """The transition amplitude <a|m|b> computed through a density-style trace.

    Uses the ket-bra rho = |b><a|, for which tr(rho m) equals <a|m|b> by
    direct computation, matching the graph-surgery amplitude for the same
    (a, b, m). An overflow returns its inf or nan value, not a numpy warning.
    """
    a = linalg.as_state(a)
    b = linalg.as_state(b)
    m = linalg.as_square(m)
    linalg._check_acts_on(m, a)
    linalg._check_acts_on(m, b)
    with np.errstate(over="ignore", invalid="ignore"):
        return complex(np.trace(np.outer(b, a.conj()) @ m))
