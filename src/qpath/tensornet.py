"""Box-and-line tensor networks: boxes hold tensors, lines carry shared indices.

A ``Network`` wires named tensor legs together. Every leg of every node is
either one endpoint of exactly one edge or appears exactly once in the free
leg list; a line with no free ends is summed over, free lines index the
result. A self-loop on a single node is ordinary wiring and yields a trace.

Networks are values: the surgery operations (``cut_edge``, ``wire``,
``insert_ket``, ``insert_bra``, ``add_node``) all return new networks and
never mutate the receiver. ``Network.contract`` merges components pair by
pair in edge-list order, summing every line the two share in one tensordot,
and removes self-loops by a partial trace; ``brute_force_contract`` is an
intentionally naive all-index-assignment summation kept as an independent
oracle, sharing no code with the engine.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import linalg

__all__ = [
    "NetworkError",
    "Tensor",
    "Network",
    "brute_force_contract",
    "trace_network",
    "amplitude_via_density",
]

#: A network endpoint: (node id, leg name).
EndPoint = tuple[str, str]


class NetworkError(ValueError):
    """A network violates its structural invariants."""


class Tensor:
    """A dense complex tensor whose axes are named, dimensioned legs.

    Args:
        legs: ordered (name, dim) pairs, names unique within the tensor.
        data: complex array of shape ``dims``, or flat of length ``prod(dims)``
            laid out row-major over the legs in declared order.
    """

    __slots__ = ("legs", "data")

    def __init__(self, legs, data):
        legs = tuple((str(name), int(dim)) for name, dim in legs)
        names = [name for name, _ in legs]
        if len(set(names)) != len(names):
            raise NetworkError(f"duplicate leg names in {names}")
        dims = tuple(dim for _, dim in legs)
        if any(dim < 1 for dim in dims):
            raise NetworkError(f"leg dimensions must be positive, got {dims}")
        arr = np.asarray(data, dtype=complex)
        size = int(np.prod(dims)) if dims else 1
        if arr.shape == (size,) and arr.shape != dims:
            arr = arr.reshape(dims)
        if arr.shape != dims:
            raise NetworkError(f"data shape {arr.shape} does not match leg dims {dims}")
        if not np.all(np.isfinite(arr)):
            raise NetworkError("tensor entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @classmethod
    def from_matrix(cls, m, out: str = "out", in_: str = "in") -> "Tensor":
        """View a matrix as a rank-2 tensor with (out, in) legs: data[o, i] = m[o, i]."""
        m = linalg.as_matrix(m)
        return cls([(out, m.shape[0]), (in_, m.shape[1])], m)

    @classmethod
    def from_state(cls, v, name: str = "out") -> "Tensor":
        """View a ket as a rank-1 tensor."""
        v = linalg.as_state(v)
        return cls([(name, v.shape[0])], v)

    @property
    def rank(self) -> int:
        return len(self.legs)

    def leg_dim(self, name: str) -> int:
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


def _fmt_endpoint(p: EndPoint) -> str:
    return f"{p[0]}.{p[1]}"


class Network:
    """Tensors wired into a graph with free legs.

    Args:
        nodes: map node id -> Tensor.
        edges: ordered ((node, leg), (node, leg)) pairs; endpoint order is
            preserved and used when an edge is cut.
        free_legs: ordered (node, leg) pairs; this order fixes the leg order
            of the contraction result.

    Raises:
        NetworkError: if any leg is dangling or wired more than once, an
            endpoint references a missing node or leg, or the two endpoints
            of an edge have different dimensions.
    """

    __slots__ = ("nodes", "edges", "free_legs")

    def __init__(self, nodes, edges=(), free_legs=()):
        self.nodes = {str(k): v for k, v in dict(nodes).items()}
        for node_id, tensor in self.nodes.items():
            if not isinstance(tensor, Tensor):
                raise NetworkError(f"node '{node_id}' is not a Tensor")
        self.edges = [
            ((str(a), str(x)), (str(b), str(y))) for (a, x), (b, y) in edges
        ]
        self.free_legs = [(str(a), str(x)) for a, x in free_legs]
        self._validate()

    def _dim_of(self, p: EndPoint) -> int:
        node, leg = p
        if node not in self.nodes:
            raise NetworkError(f"endpoint {_fmt_endpoint(p)} references unknown node '{node}'")
        return self.nodes[node].leg_dim(leg)

    def _validate(self) -> None:
        seen: dict[EndPoint, int] = {}
        for p, q in self.edges:
            if self._dim_of(p) != self._dim_of(q):
                raise NetworkError(
                    f"edge endpoints {_fmt_endpoint(p)} (dim {self._dim_of(p)}) and "
                    f"{_fmt_endpoint(q)} (dim {self._dim_of(q)}) have different dimensions"
                )
            for end in (p, q):
                seen[end] = seen.get(end, 0) + 1
        for p in self.free_legs:
            self._dim_of(p)
            seen[p] = seen.get(p, 0) + 1
        for point, count in seen.items():
            if count > 1:
                raise NetworkError(f"leg {_fmt_endpoint(point)} is wired more than once")
        for node_id, tensor in self.nodes.items():
            for leg_name, _ in tensor.legs:
                if (node_id, leg_name) not in seen:
                    raise NetworkError(f"dangling leg {_fmt_endpoint((node_id, leg_name))}")

    # -- contraction -------------------------------------------------------

    def contract(self, order=None) -> Tensor:
        """Contract the network to a tensor over the free legs, in their order.

        Eliminates components pair by pair: when a scheduled edge joins two
        components, every line between them goes in one tensordot, and edges
        already eliminated that way are skipped when their turn comes.
        Self-loops on a single node are removed by a partial trace.
        Disconnected remainders are combined by an outer product. ``order``
        optionally gives a permutation of edge indices to process; any
        permutation yields the same result up to float reassociation. A
        network with no free legs contracts to a rank-0 tensor.
        """
        if order is None:
            schedule = list(self.edges)
        else:
            order = [int(i) for i in order]
            if sorted(order) != list(range(len(self.edges))):
                raise ValueError("order must be a permutation of edge indices")
            schedule = [self.edges[i] for i in order]

        # Working components: id -> (array, axis labels); every original node
        # starts as its own component. A label stays in ``owner`` until its
        # edge is eliminated.
        comp: dict[str, tuple[np.ndarray, list[EndPoint]]] = {}
        owner: dict[EndPoint, str] = {}
        for node_id, tensor in self.nodes.items():
            labels = [(node_id, leg_name) for leg_name, _ in tensor.legs]
            comp[node_id] = (np.asarray(tensor.data), labels)
            for label in labels:
                owner[label] = node_id
        partner: dict[EndPoint, EndPoint] = {}
        for p, q in self.edges:
            partner[p], partner[q] = q, p

        for p, q in schedule:
            if p not in owner:
                continue
            cp, cq = owner[p], owner[q]
            if cp == cq:
                arr, labels = comp[cp]
                i, j = labels.index(p), labels.index(q)
                arr = np.trace(arr, axis1=i, axis2=j)
                labels = [lab for k, lab in enumerate(labels) if k not in (i, j)]
                comp[cp] = (arr, labels)
                del owner[p], owner[q]
                continue
            a, la = comp[cp]
            b, lb = comp[cq]
            # Every line between the two components, found from the smaller.
            flip = len(lb) < len(la)
            small, big, other = (lb, la, cp) if flip else (la, lb, cq)
            pos = {lab: k for k, lab in enumerate(big)}
            ks = [k for k, lab in enumerate(small) if owner.get(partner.get(lab)) == other]
            ms = [pos[partner[small[k]]] for k in ks]
            ia, ib = (ms, ks) if flip else (ks, ms)
            for k in ks:
                del owner[small[k]], owner[partner[small[k]]]
            arr = np.tensordot(a, b, axes=(ia, ib))
            rest_b = [lab for lab in lb if lab in owner]
            comp[cp] = (arr, [lab for lab in la if lab in owner] + rest_b)
            for label in rest_b:
                owner[label] = cp
            del comp[cq]

        # Outer product of whatever components remain (disconnected pieces).
        arr = np.ones((), dtype=complex)
        labels: list[EndPoint] = []
        for part, part_labels in comp.values():
            arr = np.multiply.outer(arr, part)
            labels = labels + part_labels

        perm = [labels.index(p) for p in self.free_legs]
        out = np.transpose(arr, perm) if perm else arr
        out_legs = [(f"{node}.{leg}", self._dim_of((node, leg))) for node, leg in self.free_legs]
        return Tensor(out_legs, np.ascontiguousarray(out))

    # -- graph surgery -----------------------------------------------------

    def _find_edge(self, edge) -> int:
        (a, x), (b, y) = edge
        target = ((str(a), str(x)), (str(b), str(y)))
        flipped = (target[1], target[0])
        for i, stored in enumerate(self.edges):
            if stored == target or stored == flipped:
                return i
        raise NetworkError(
            f"edge {_fmt_endpoint(target[0])} -- {_fmt_endpoint(target[1])} is not in the network"
        )

    def cut_edge(self, edge) -> "Network":
        """Remove an edge; its endpoints become free legs, first endpoint first."""
        i = self._find_edge(edge)
        stored = self.edges[i]
        new_edges = self.edges[:i] + self.edges[i + 1 :]
        return Network(self.nodes, new_edges, self.free_legs + [stored[0], stored[1]])

    def wire(self, a, b) -> "Network":
        """Join two free legs into an edge (the inverse of ``cut_edge``)."""
        a = (str(a[0]), str(a[1]))
        b = (str(b[0]), str(b[1]))
        for p in (a, b):
            if p not in self.free_legs:
                raise NetworkError(f"leg {_fmt_endpoint(p)} is not free")
        if a == b:
            raise NetworkError(f"cannot wire leg {_fmt_endpoint(a)} to itself")
        remaining = [p for p in self.free_legs if p not in (a, b)]
        return Network(self.nodes, self.edges + [(a, b)], remaining)

    def add_node(self, node_id: str, tensor: Tensor) -> "Network":
        """Add a tensor as a new node; its legs are appended to the free legs."""
        node_id = str(node_id)
        if node_id in self.nodes:
            raise NetworkError(f"node id '{node_id}' already exists")
        nodes = dict(self.nodes)
        nodes[node_id] = tensor
        new_free = self.free_legs + [(node_id, leg_name) for leg_name, _ in tensor.legs]
        return Network(nodes, self.edges, new_free)

    def _fresh_id(self, prefix: str) -> str:
        n = 0
        while f"{prefix}{n}" in self.nodes:
            n += 1
        return f"{prefix}{n}"

    def _insert_rank1(self, free_leg, amplitudes, prefix: str) -> "Network":
        free_leg = (str(free_leg[0]), str(free_leg[1]))
        if free_leg not in self.free_legs:
            raise NetworkError(f"leg {_fmt_endpoint(free_leg)} is not free")
        amplitudes = linalg.as_state(amplitudes)
        want = self._dim_of(free_leg)
        if amplitudes.shape[0] != want:
            raise NetworkError(
                f"dimension mismatch: state has dim {amplitudes.shape[0]}, "
                f"leg {_fmt_endpoint(free_leg)} has dim {want}"
            )
        node_id = self._fresh_id(prefix)
        grown = self.add_node(node_id, Tensor.from_state(amplitudes, name="out"))
        return grown.wire((node_id, "out"), free_leg)

    def insert_ket(self, free_leg, state) -> "Network":
        """Tie a ket into a free leg: a rank-1 node holding the amplitudes."""
        return self._insert_rank1(free_leg, state, "ket")

    def insert_bra(self, free_leg, state) -> "Network":
        """Tie a bra into a free leg: like ``insert_ket`` with conjugated amplitudes."""
        return self._insert_rank1(free_leg, linalg.as_state(state).conj(), "bra")

    def __repr__(self) -> str:
        return (
            f"Network(nodes={sorted(self.nodes)}, edges={len(self.edges)}, "
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

    out_legs = [
        (f"{node}.{leg}", net.nodes[node].leg_dim(leg)) for node, leg in net.free_legs
    ]
    return Tensor(out_legs, out)


def trace_network(m, node_id: str = "M") -> Network:
    """The closed-loop network for a square matrix: its contraction is tr(m)."""
    tensor = Tensor.from_matrix(linalg.as_square(m))
    return Network({node_id: tensor}, edges=[((node_id, "out"), (node_id, "in"))])


def amplitude_via_density(a, b, m) -> complex:
    """The transition amplitude <a|m|b> computed through a density-style trace.

    Uses the ket-bra rho = |b><a|, for which tr(rho m) equals <a|m|b> by
    direct computation, matching the graph-surgery amplitude for the same
    (a, b, m).
    """
    a = linalg.as_state(a)
    b = linalg.as_state(b)
    m = linalg.as_square(m)
    linalg._check_acts_on(m, a)
    linalg._check_acts_on(m, b)
    return complex(np.trace(np.outer(b, a.conj()) @ m))
