"""Tensor networks: contraction against a brute-force oracle, graph surgery."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpath import linalg
from qpath.tensornet import (
    Network,
    NetworkError,
    Tensor,
    amplitude_via_density,
    brute_force_contract,
    trace_network,
)


def random_matrix(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_state(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


def random_array(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_network(rng, max_nodes=5, max_dim=3, max_total_legs=8):
    """A random wiring with every leg either paired into an edge or free."""
    n_nodes = int(rng.integers(1, max_nodes + 1))
    nodes = {}
    all_legs = []
    total = 0
    for i in range(n_nodes):
        budget = max_total_legs - total - (n_nodes - 1 - i)  # leave >=1 leg per node
        rank = int(rng.integers(1, min(3, max(budget, 1)) + 1))
        total += rank
        dims = [int(rng.integers(1, max_dim + 1)) for _ in range(rank)]
        name = f"n{i}"
        legs = [(f"l{j}", dims[j]) for j in range(rank)]
        data = rng.standard_normal(dims) + 1j * rng.standard_normal(dims)
        nodes[name] = Tensor(legs, data)
        all_legs.extend(((name, f"l{j}"), dims[j]) for j in range(rank))

    order = rng.permutation(len(all_legs))
    edges, free = [], []
    used = set()
    for idx in order:
        if idx in used:
            continue
        p, dim = all_legs[idx]
        partners = [
            k
            for k in order
            if k not in used and k != idx and all_legs[k][1] == dim
        ]
        if partners and rng.random() < 0.6:
            k = partners[0]
            edges.append((p, all_legs[k][0]))
            used.add(int(k))
        else:
            free.append(p)
        used.add(int(idx))
    return Network(nodes, edges, free)


def torus(rng, rows, cols):
    """A closed rows x cols torus of rank-4 d=2 tensors in row-major edge order.

    Returns the network and its value, computed without the engine: each row's
    horizontal ring is summed by ``np.einsum`` into a 2**cols x 2**cols
    matrix from its north to its south legs, and the torus is the trace of
    the product of the row matrices. On a torus with two rows or two columns,
    neighbours share two lines.
    """
    nodes, edges, row_mats = {}, [], []
    h, n, s = range(cols), range(cols, 2 * cols), range(2 * cols, 3 * cols)
    for r in range(rows):
        operands = []
        for c in range(cols):
            data = random_array(rng, (2,) * 4)
            nodes[f"g{r}_{c}"] = Tensor([("w", 2), ("e", 2), ("n", 2), ("s", 2)], data)
            operands += [data, [h[c - 1], h[c], n[c], s[c]]]
            edges.append(((f"g{r}_{c}", "e"), (f"g{r}_{(c + 1) % cols}", "w")))
            edges.append(((f"g{r}_{c}", "s"), (f"g{(r + 1) % rows}_{c}", "n")))
        row = np.einsum(*operands, [*n, *s], optimize=True)
        row_mats.append(row.reshape(2**cols, 2**cols))
    return Network(nodes, edges), np.trace(functools.reduce(np.matmul, row_mats))


class TestTensor:
    def test_from_matrix_leg_order(self):
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        t = Tensor.from_matrix(m)
        assert t.legs == (("out", 2), ("in", 2))
        assert np.array_equal(t.data, m)

    def test_flat_data_reshaped(self):
        t = Tensor([("a", 2), ("b", 3)], np.arange(6, dtype=complex))
        assert t.data.shape == (2, 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(NetworkError):
            Tensor([("a", 2), ("b", 2)], np.zeros(5, dtype=complex))

    @pytest.mark.parametrize("entry", [math.inf, math.nan, complex(0, math.inf)], ids=["inf", "nan", "infj"])
    def test_non_finite_entries_rejected(self, entry):
        with pytest.raises(NetworkError, match=r"^tensor entries must be finite$"):
            Tensor([("a", 2)], [1, entry])

    def test_duplicate_leg_names_rejected(self):
        with pytest.raises(NetworkError):
            Tensor([("a", 2), ("a", 2)], np.zeros((2, 2)))

    def test_scalar_item(self):
        t = Tensor([], np.array(2 + 3j))
        assert t.item() == 2 + 3j
        with pytest.raises(NetworkError):
            Tensor.from_state([1, 0]).item()

    def test_immutable(self):
        t = Tensor.from_state([1, 0])
        with pytest.raises((AttributeError, ValueError)):
            t.data = np.zeros(2)
        with pytest.raises(ValueError):
            t.data[0] = 5


class TestInvariants:
    def test_dangling_leg_named(self):
        m = Tensor.from_matrix(np.eye(2))
        with pytest.raises(NetworkError, match=r"dangling leg M\.in"):
            Network({"M": m}, free_legs=[("M", "out")])

    def test_double_wiring_named(self):
        m = Tensor.from_matrix(np.eye(2))
        with pytest.raises(NetworkError, match=r"M\.out is wired more than once"):
            Network(
                {"M": m},
                edges=[(("M", "out"), ("M", "in"))],
                free_legs=[("M", "out")],
            )

    def test_dim_mismatch_across_edge(self):
        a = Tensor.from_state(np.ones(2))
        b = Tensor.from_state(np.ones(3))
        with pytest.raises(NetworkError, match="different dimensions"):
            Network({"a": a, "b": b}, edges=[(("a", "out"), ("b", "out"))])


class TestContract:
    def test_matrix_multiplication_wiring(self):
        # out(M) -> in(N) with free legs (M.in, N.out): the composite acts as N after M
        rng = np.random.default_rng(2)
        m, n = random_matrix(rng, 3), random_matrix(rng, 3)
        net = Network(
            {"M": Tensor.from_matrix(m), "N": Tensor.from_matrix(n)},
            edges=[(("M", "out"), ("N", "in"))],
            free_legs=[("M", "in"), ("N", "out")],
        )
        result = net.contract()
        assert [name for name, _ in result.legs] == ["M.in", "N.out"]
        # leg order is (in, out); reading axes as (out, in) gives the product N M
        assert linalg.max_abs_diff(np.asarray(result.data).T, linalg.matmul(n, m)) <= 1e-12

    def test_self_loop_is_trace(self):
        rng = np.random.default_rng(4)
        for d in range(2, 7):
            m = random_matrix(rng, d)
            value = trace_network(m).contract().item()
            assert abs(value - np.trace(m)) <= 1e-12

    def test_three_node_network_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = Tensor([("p", 2), ("q", 3)], rng.standard_normal((2, 3)) * (1 + 0j))
            b = Tensor([("q", 3), ("r", 2)], rng.standard_normal((3, 2)) * (1 + 0j))
            c = Tensor([("r", 2), ("s", 2)], rng.standard_normal((2, 2)) * (1 + 0j))
            # The reversed listing hands the result over as a transposed view.
            for free_legs in ([("a", "p"), ("c", "s")], [("c", "s"), ("a", "p")]):
                net = Network(
                    {"a": a, "b": b, "c": c},
                    edges=[(("a", "q"), ("b", "q")), (("b", "r"), ("c", "r"))],
                    free_legs=free_legs,
                )
                fast = net.contract()
                slow = brute_force_contract(net)
                assert fast.data.flags.c_contiguous
                assert fast.legs == slow.legs
                assert linalg.max_abs_diff(fast.data, slow.data) <= 1e-10

    def test_random_networks_match_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            net = random_network(rng)
            fast = net.contract()
            slow = brute_force_contract(net)
            assert fast.legs == slow.legs
            assert linalg.max_abs_diff(fast.data, slow.data) <= 1e-9

    def test_contraction_order_invariance(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            net = random_network(rng)
            if len(net.edges) < 2:
                continue
            baseline = net.contract()
            for _ in range(3):
                order = [int(i) for i in rng.permutation(len(net.edges))]
                again = net.contract(order=order)
                assert linalg.max_abs_diff(baseline.data, again.data) <= 1e-9

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_any_order_matches_brute_force(self, seed, data):
        net = random_network(np.random.default_rng(seed))
        order = data.draw(st.permutations(range(len(net.edges))), label="order")
        fast = net.contract(order=order)
        slow = brute_force_contract(net)
        assert fast.legs == slow.legs
        assert linalg.max_abs_diff(fast.data, slow.data) <= 1e-9

    def test_two_parallel_lines_give_trace_of_product(self):
        rng = np.random.default_rng(14)
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        net = Network(
            {"A": Tensor.from_matrix(a), "B": Tensor.from_matrix(b)},
            edges=[(("A", "in"), ("B", "out")), (("B", "in"), ("A", "out"))],
        )
        value = net.contract().item()
        assert abs(value - np.trace(a @ b)) <= 1e-12
        assert abs(value - brute_force_contract(net).item()) <= 1e-12

    def test_tori_match_einsum_in_any_order(self):
        rng = np.random.default_rng(15)
        for rows, cols in [(2, 2), (2, 3), (3, 3), (2, 8)]:
            net, ref = torus(rng, rows, cols)
            order = [int(i) for i in rng.permutation(len(net.edges))]
            for value in (net.contract().item(), net.contract(order=order).item()):
                assert abs(value - ref) <= 1e-9 * abs(ref), (rows, cols)

    def test_torus_contracts_in_bounded_memory(self):
        net, ref = torus(np.random.default_rng(16), 4, 5)
        tracemalloc.start()
        try:
            value = net.contract().item()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(value - ref) <= 1e-9 * abs(ref)
        # one line at a time carried 2**20-entry intermediates (~25 MB)
        assert peak < 2**21

    def test_order_may_list_edges_already_eliminated(self):
        # a and b share lines p and q; a also carries a self-loop t--u
        rng = np.random.default_rng(17)
        a = Tensor([("p", 2), ("q", 3), ("t", 2), ("u", 2)], random_array(rng, (2, 3, 2, 2)))
        b = Tensor([("p", 2), ("q", 3), ("r", 2)], random_array(rng, (2, 3, 2)))
        net = Network(
            {"a": a, "b": b},
            edges=[(("a", "p"), ("b", "p")), (("a", "t"), ("a", "u")), (("b", "q"), ("a", "q"))],
            free_legs=[("b", "r")],
        )
        slow = brute_force_contract(net)
        for order in itertools.permutations(range(3)):
            fast = net.contract(order=order)
            assert linalg.max_abs_diff(fast.data, slow.data) <= 1e-10, order

    def test_zero_free_legs_gives_scalar(self):
        result = trace_network(np.eye(3)).contract()
        assert result.legs == ()
        assert result.item() == 3

    def test_bad_order_rejected(self):
        net = trace_network(np.eye(2))
        with pytest.raises(ValueError):
            net.contract(order=[0, 0])


class TestCutEdge:
    def test_cut_self_loop_recovers_matrix(self):
        rng = np.random.default_rng(12)
        m = random_matrix(rng, 3)
        cut = trace_network(m).cut_edge((("M", "out"), ("M", "in")))
        assert cut.free_legs == [("M", "out"), ("M", "in")]
        assert linalg.max_abs_diff(cut.contract().data, m) <= 1e-12

    def test_cut_then_rewire_is_identity(self):
        rng = np.random.default_rng(14)
        m = random_matrix(rng, 4)
        net = trace_network(m)
        rewired = net.cut_edge((("M", "out"), ("M", "in"))).wire(("M", "out"), ("M", "in"))
        assert abs(rewired.contract().item() - net.contract().item()) <= 1e-12

    def test_cut_is_value_semantics(self):
        net = trace_network(np.eye(2))
        net.cut_edge((("M", "out"), ("M", "in")))
        assert len(net.edges) == 1 and net.free_legs == []

    def test_cut_reversed_endpoint_order_uses_stored_edge(self):
        net = trace_network(np.eye(2))
        cut = net.cut_edge((("M", "in"), ("M", "out")))
        assert cut.free_legs == [("M", "out"), ("M", "in")]

    def test_unknown_edge(self):
        net = trace_network(np.eye(2))
        with pytest.raises(NetworkError, match="not in the network"):
            net.cut_edge((("M", "out"), ("Q", "in")))

    def test_cut_chain_and_bridge_with_identity(self):
        # cutting an internal edge and bridging it with an identity node
        # reproduces the original scalar
        rng = np.random.default_rng(16)
        a, b, c = (random_matrix(rng, 3) for _ in range(3))
        net = Network(
            {
                "a": Tensor.from_matrix(a),
                "b": Tensor.from_matrix(b),
                "c": Tensor.from_matrix(c),
            },
            edges=[
                (("a", "out"), ("b", "in")),
                (("b", "out"), ("c", "in")),
                (("c", "out"), ("a", "in")),
            ],
        )
        original = net.contract().item()
        cut = net.cut_edge((("b", "out"), ("c", "in")))
        assert len(cut.free_legs) == 2
        bridged = (
            cut.add_node("eye", Tensor.from_matrix(np.eye(3)))
            .wire(("b", "out"), ("eye", "in"))
            .wire(("eye", "out"), ("c", "in"))
        )
        assert abs(bridged.contract().item() - original) <= 1e-10
        assert abs(brute_force_contract(bridged).item() - original) <= 1e-10


class TestInsert:
    def test_insert_ket_applies_matrix(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            m, b = random_matrix(rng, 3), random_state(rng, 3)
            cut = trace_network(m).cut_edge((("M", "out"), ("M", "in")))
            psi = cut.insert_ket(("M", "in"), b)
            assert psi.free_legs == [("M", "out")]
            assert linalg.max_abs_diff(psi.contract().data, m @ b) <= 1e-12

    def test_insert_basis_ket_extracts_column(self):
        rng = np.random.default_rng(20)
        m = random_matrix(rng, 4)
        cut = trace_network(m).cut_edge((("M", "out"), ("M", "in")))
        for i in range(4):
            col = cut.insert_ket(("M", "in"), linalg.basis_ket(4, i)).contract()
            assert linalg.max_abs_diff(col.data, m[:, i]) <= 1e-12

    def test_insert_bra_closes_to_amplitude(self):
        e0 = linalg.basis_ket(2, 0)
        cut = trace_network(np.eye(2)).cut_edge((("M", "out"), ("M", "in")))
        closed = cut.insert_ket(("M", "in"), e0).insert_bra(("M", "out"), e0)
        assert closed.free_legs == []
        assert abs(closed.contract().item() - 1) <= 1e-12

    def test_full_surgery_matches_direct_amplitude(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            m = random_matrix(rng, 3)
            a, b = random_state(rng, 3), random_state(rng, 3)
            cut = trace_network(m).cut_edge((("M", "out"), ("M", "in")))
            closed = cut.insert_ket(("M", "in"), b).insert_bra(("M", "out"), a)
            direct = linalg.inner_product(a, m @ b)
            assert abs(closed.contract().item() - direct) <= 1e-12

    def test_insert_errors(self):
        cut = trace_network(np.eye(2)).cut_edge((("M", "out"), ("M", "in")))
        with pytest.raises(NetworkError, match="dimension mismatch"):
            cut.insert_ket(("M", "in"), np.ones(3))
        wired = cut.insert_ket(("M", "in"), np.ones(2))
        with pytest.raises(NetworkError, match="is not free"):
            wired.insert_ket(("M", "in"), np.ones(2))


class TestDensityRoute:
    def test_identity_case(self):
        e0 = linalg.basis_ket(2, 0)
        assert abs(amplitude_via_density(e0, e0, np.eye(2)) - 1) <= 1e-12

    def test_projector_on_own_ray(self):
        rng = np.random.default_rng(24)
        a = linalg.normalize(random_state(rng, 3))
        p = linalg.ket_bra(a, a)
        assert abs(amplitude_via_density(a, a, p) - 1) <= 1e-10

    def test_matches_direct_amplitude(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            m = random_matrix(rng, 3)
            a, b = random_state(rng, 3), random_state(rng, 3)
            direct = linalg.inner_product(a, m @ b)
            assert abs(amplitude_via_density(a, b, m) - direct) <= 1e-12

    def test_three_routes_agree_on_basis_pairs(self):
        rng = np.random.default_rng(28)
        for d in (2, 3, 4):
            m = random_matrix(rng, d)
            for i in range(d):
                for j in range(d):
                    a, b = linalg.basis_ket(d, i), linalg.basis_ket(d, j)
                    direct = linalg.inner_product(a, m @ b)
                    density = amplitude_via_density(a, b, m)
                    cut = trace_network(m).cut_edge((("M", "out"), ("M", "in")))
                    surgery = (
                        cut.insert_ket(("M", "in"), b)
                        .insert_bra(("M", "out"), a)
                        .contract()
                        .item()
                    )
                    assert abs(direct - density) <= 1e-10
                    assert abs(direct - surgery) <= 1e-10
                    assert abs(density - surgery) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(linalg.ShapeError):
            amplitude_via_density(np.ones(2), np.ones(3), np.eye(3))
