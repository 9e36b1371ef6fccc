"""Tensor networks: contraction against a brute-force oracle, graph surgery."""

import copy
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpath import dsl, linalg, tensornet
from qpath.measure import cup_cap_network
from qpath.pathsum import FREE, PathDiagram
from qpath.tensornet import (
    ENTRY_CAP,
    ContractionCapExceeded,
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


def two_node_ring():
    """``A.out -- B.in`` and ``B.out -- A.in``: two edges, no free legs."""
    rng = np.random.default_rng(23)
    return Network(
        {"A": Tensor.from_matrix(random_matrix(rng, 2)), "B": Tensor.from_matrix(random_matrix(rng, 2))},
        edges=[(("A", "out"), ("B", "in")), (("B", "out"), ("A", "in"))],
    )


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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(NetworkError):
            Tensor([("a", 2), ("b", 2)], np.zeros(5, dtype=complex))

    def test_flat_data_is_a_shape_mismatch(self):
        with pytest.raises(NetworkError, match=r"^data shape \(6,\) does not match leg dims \(2, 3\)$"):
            Tensor([("a", 2), ("b", 3)], np.arange(6, dtype=complex))

    def test_repr_names_legs_and_dims(self):
        assert repr(Tensor.from_matrix(np.eye(2))) == "Tensor(out:2, in:2)"

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

    @pytest.mark.parametrize("dim", [2.7, 2.0, "2"], ids=["fraction", "integral-float", "str"])
    def test_non_integer_leg_dimension_rejected(self, dim):
        with pytest.raises(ValueError, match=rf"^leg dimension must be an integer, got {dim}$"):
            Tensor([("a", dim)], [1, 2])

    @pytest.mark.parametrize("dim", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_leg_dimensions_pass(self, dim):
        t = Tensor([("a", dim)], [1, 2])
        assert t.legs == (("a", 2),) and type(t.legs[0][1]) is int

    @pytest.mark.parametrize(
        "make",
        [lambda a: np.asfortranarray(a), lambda a: a],
        ids=["f-ordered", "caller-owned"],
    )
    def test_from_matrix_copies_into_a_read_only_c_array(self, make):
        m = make(random_matrix(np.random.default_rng(20), 3))
        t = Tensor.from_matrix(m)
        assert t.data.flags.c_contiguous and not t.data.flags.writeable
        assert not np.shares_memory(t.data, m) and m.flags.writeable
        assert t.data.tobytes() == np.ascontiguousarray(m).tobytes()
        m[0, 0] = 7
        assert t.data[0, 0] != 7

    def test_from_state_copies_into_a_read_only_array(self):
        v = random_state(np.random.default_rng(21), 3)
        t = Tensor.from_state(v)
        assert not t.data.flags.writeable and not np.shares_memory(t.data, v)
        assert t.legs == (("out", 3),) and np.array_equal(t.data, v)

    def test_zero_leg_dimension_rejected(self):
        with pytest.raises(NetworkError, match=r"^leg dimensions must be positive, got \(0,\)$"):
            Tensor([("a", 0)], [])

    def test_network_node_must_be_a_tensor(self):
        with pytest.raises(NetworkError, match=r"^node 'M' is not a Tensor$"):
            Network({"M": np.eye(2)})

    def test_from_matrix_checks_finiteness_once(self, monkeypatch):
        # as_matrix checks the entries; the Tensor around its array does not check again.
        m = random_matrix(np.random.default_rng(22), 2)
        isfinite = np.isfinite
        calls = []
        monkeypatch.setattr(np, "isfinite", lambda a: calls.append(a.shape) or isfinite(a))
        Tensor.from_matrix(m)
        assert calls == [(2, 2)]


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

    def test_unknown_node_named(self):
        m = Tensor.from_matrix(np.eye(2))
        with pytest.raises(NetworkError, match=r"^endpoint X\.in references unknown node 'X'$"):
            Network({"M": m}, edges=[(("M", "out"), ("X", "in"))], free_legs=[("M", "in")])

    def test_unknown_leg_named(self):
        m = Tensor.from_matrix(np.eye(2))
        with pytest.raises(NetworkError, match=r"^tensor has no leg named 'side'$"):
            Network({"M": m}, edges=[(("M", "out"), ("M", "in"))], free_legs=[("M", "side")])

    def test_unknown_endpoint_named_before_a_later_dangling_leg(self):
        # M.in is dangling and N is unknown; the edge check comes first.
        m = Tensor.from_matrix(np.eye(2))
        with pytest.raises(NetworkError, match=r"references unknown node 'N'"):
            Network({"M": m}, edges=[(("N", "in"), ("M", "out"))])

    def test_dim_mismatch_named_before_a_later_dangling_leg_and_double_wiring(self):
        a = Tensor.from_matrix(np.eye(2))
        b = Tensor.from_matrix(np.eye(3))
        with pytest.raises(
            NetworkError,
            match=r"^edge endpoints a\.out \(dim 2\) and b\.in \(dim 3\) have different dimensions$",
        ):
            Network({"a": a, "b": b}, edges=[(("a", "out"), ("b", "in"))], free_legs=[("a", "out")])

    def test_first_wired_leg_named_among_several_wired_twice(self):
        m = Tensor.from_matrix(np.eye(2))
        with pytest.raises(NetworkError, match=r"^leg M\.out is wired more than once$"):
            Network({"M": m}, edges=[(("M", "out"), ("M", "in"))], free_legs=[("M", "in"), ("M", "out")])


def mixed_id_network(rng):
    """A three-node chain with an int, a tuple and a str node id, and int, tuple and float leg names."""
    nodes = {
        0: Tensor([(0, 2), (1, 3)], random_array(rng, (2, 3))),
        ("t", 1): Tensor([(("x", 0), 3), (2.5, 2), ("in", 2)], random_array(rng, (3, 2, 2))),
        "s": Tensor.from_matrix(random_matrix(rng, 2)),
    }
    edges = [((0, 1), (("t", 1), ("x", 0))), ((("t", 1), 2.5), ("s", "in"))]
    return Network(nodes, edges, [(0, 0), (("t", 1), "in"), ("s", "out")])


def assert_contracts_like_the_oracle(net):
    fast, slow = net.contract(), brute_force_contract(net)
    assert fast.legs == slow.legs
    assert linalg.max_abs_diff(fast.data, slow.data) <= 1e-12


class TestIdsAsGiven:
    """Node ids and leg names are kept and compared as given; a result leg is named ``f"{node}.{leg}"``."""

    def test_ids_equal_as_strings_are_two_nodes(self):
        rng = np.random.default_rng(41)
        a, b = random_matrix(rng, 2), random_matrix(rng, 3)
        net = Network({1: Tensor.from_matrix(a), "1": Tensor.from_matrix(b)},
                      [((1, "out"), (1, "in")), (("1", "out"), ("1", "in"))])
        assert list(net.nodes) == [1, "1"]
        assert net.contract().item() == pytest.approx(np.trace(a) * np.trace(b), rel=1e-12)

    def test_ids_equal_as_strings_may_not_name_two_output_legs_alike(self):
        eye = Tensor.from_matrix(np.eye(2))
        net = Network({1: eye, "1": eye}, [], [(1, "out"), (1, "in"), ("1", "out"), ("1", "in")])
        with pytest.raises(NetworkError, match=r"^duplicate leg names in \['1\.out', '1\.in', '1\.out', '1\.in'\]$"):
            net.contract()

    def test_ids_equal_as_keys_keep_their_own_names(self):
        # One wiring key, four spellings: the later ones replay the first's plan but name legs from their own ids.
        a = random_matrix(np.random.default_rng(59), 2)
        spellings = ((1, 0), (1.0, 0.0), (True, False), (np.float64(1.0), np.int64(0)))
        for k, (node, leg) in enumerate(spellings):
            net = Network({node: Tensor([(leg, 2), ("in", 2)], a)}, [], [(node, leg), (node, "in")])
            hits = tensornet._plan.cache_info().hits
            assert [name for name, _ in net.contract().legs] == [f"{node}.{leg}", f"{node}.in"]
            assert tensornet._plan.cache_info().hits == hits + (k > 0)
            assert_contracts_like_the_oracle(net)

    def test_int_and_tuple_ids_and_non_string_legs_contract_like_the_oracle(self):
        net = mixed_id_network(np.random.default_rng(43))
        assert [name for name, _ in net.contract().legs] == ["0.0", "('t', 1).in", "s.out"]
        assert repr(net) == "Network(nodes=[('t', 1), 0, 's'], edges=2, free=['0.0', \"('t', 1).in\", 's.out'])"
        assert_contracts_like_the_oracle(net)

    def test_surgery_keeps_ids_and_leg_names_as_given(self):
        rng = np.random.default_rng(47)
        net = mixed_id_network(rng)
        cut = net.cut_edge((("s", "in"), (("t", 1), 2.5)))
        assert cut.free_legs[-2:] == ((("t", 1), 2.5), ("s", "in"))
        grown = cut.add_node(7, Tensor([(None, 2)], random_state(rng, 2))).wire((7, None), (0, 0))
        built = [cut, cut.wire((("t", 1), 2.5), ("s", "in")), grown,
                 grown.insert_ket((("t", 1), "in"), random_state(rng, 2)),
                 grown.insert_bra(("s", "out"), random_state(rng, 2))]
        assert built[1].edges == net.edges and built[1].free_legs == net.free_legs
        assert built[3].edges[-1] == (("ket0", "out"), (("t", 1), "in"))
        for each in built:
            assert_contracts_like_the_oracle(each)

    def test_a_list_endpoint_is_unhashable(self):
        eye = Tensor.from_matrix(np.eye(2))
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            Network({"M": eye}, [(["M", "out"], ("M", "in"))])
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            Network({"M": eye}, [], [("M", "out"), ["M", "in"]])

    def test_an_endpoint_that_is_not_a_pair_is_refused(self):
        eye = Tensor.from_matrix(np.eye(2))
        for edges, free in (([(("M", "out", "x"), ("M", "in"))], []), ([], [("M", "out"), ("M",)]),
                            ([(("M", "out"), ("M", "in"), ("M", "in"))], [])):
            with pytest.raises(ValueError, match="values to unpack"):
                Network({"M": eye}, edges, free)
        cut = trace_network(np.eye(2)).cut_edge((("M", "out"), ("M", "in")))
        for leg in (("M", "in", "x"), ("M",)):
            with pytest.raises(NetworkError, match=f"^leg {'.'.join(leg)} is not free$"):
                cut.insert_ket(leg, [1, 0])

    def test_a_wiring_rebuilt_from_the_same_values_is_a_check_hit(self):
        rng = np.random.default_rng(53)
        first = mixed_id_network(rng)
        info = tensornet._check.cache_info()
        again = mixed_id_network(rng)
        assert tensornet._check.cache_info()[:2] == (info.hits + 1, info.misses)
        assert again.edges == first.edges and again.free_legs == first.free_legs


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

    def test_result_is_the_checked_array_made_read_only(self, monkeypatch):
        # contract checks its result once; the Tensor around it neither checks nor copies it again.
        rng = np.random.default_rng(3)
        m, n = random_matrix(rng, 3), random_matrix(rng, 3)
        net = Network(
            {"m": Tensor.from_matrix(m), "n": Tensor.from_matrix(n)},
            edges=[(("m", "out"), ("n", "in"))],
            free_legs=[("n", "out"), ("m", "in")],
        )
        isfinite = np.isfinite
        calls = []
        monkeypatch.setattr(np, "isfinite", lambda a: calls.append(a.shape) or isfinite(a))
        result = net.contract()
        assert calls == [(3, 3)]
        assert result.legs == (("n.out", 3), ("m.in", 3))
        assert not result.data.flags.writeable and result.data.flags.c_contiguous
        assert linalg.max_abs_diff(result.data, n @ m) <= 1e-12

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
        with pytest.raises(ValueError, match=r"^order must be a permutation of edge indices$"):
            net.contract(order=[0, 0])

    @pytest.mark.parametrize("order", [[1], [], [0, 1, 2]])
    def test_order_not_a_permutation_named(self, order):
        net = two_node_ring()
        with pytest.raises(ValueError, match=r"^order must be a permutation of edge indices$"):
            net.contract(order=order)

    @pytest.mark.parametrize("entry", [0.7, 1.0, "1"], ids=["fraction", "integral-float", "str"])
    def test_non_integer_order_entry_rejected(self, entry):
        with pytest.raises(ValueError, match=rf"^order entry must be an integer, got {entry}$"):
            two_node_ring().contract(order=[entry, 0])

    def test_numpy_integer_order_entries_pass(self):
        net = two_node_ring()
        for order in ([np.int64(1), np.int32(0)], np.array([1, 0])):
            assert net.contract(order=order).item() == net.contract(order=[1, 0]).item()

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_two_components_equal_tensordot_bit_for_bit(self, seed, data):
        # Shared lines are summed in the smaller component's axis order, as one tensordot.
        rng = np.random.default_rng(seed)
        rank_a, rank_b = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        n_shared = data.draw(st.integers(1, min(3, rank_a, rank_b)))
        on_a = data.draw(st.permutations(range(rank_a)))[:n_shared]
        on_b = data.draw(st.permutations(range(rank_b)))[:n_shared]
        dims_a = [int(rng.integers(1, 4)) for _ in range(rank_a)]
        dims_b = [int(rng.integers(1, 4)) for _ in range(rank_b)]
        for x, y in zip(on_a, on_b):
            dims_b[y] = dims_a[x]
        a = Tensor([(f"a{k}", d) for k, d in enumerate(dims_a)], random_array(rng, dims_a))
        b = Tensor([(f"b{k}", d) for k, d in enumerate(dims_b)], random_array(rng, dims_b))
        lines = data.draw(st.permutations(list(zip(on_a, on_b))), label="edge order")
        net = Network(
            {"A": a, "B": b},
            edges=[(("A", f"a{x}"), ("B", f"b{y}")) for x, y in lines],
            free_legs=[("A", f"a{k}") for k in range(rank_a) if k not in on_a]
            + [("B", f"b{k}") for k in range(rank_b) if k not in on_b],
        )
        pairs = sorted(lines, key=lambda xy: xy[1] if rank_b < rank_a else xy[0])
        axes = ([x for x, _ in pairs], [y for _, y in pairs])
        expected = np.tensordot(a.data, b.data, axes)
        assert net.contract().data.tobytes() == expected.tobytes()


# -- the merge of two matrices --------------------------------------------------

def reference_contract(net, order=None):
    """(legs, array) from ``Network.contract``'s loop before its matrix merge, kept as its oracle.

    Every merge scans for the shared lines, then transposes, reshapes and dots.
    """
    schedule = range(len(net.edges)) if order is None else order
    ids, comp, owner = {}, {}, []
    for key, (node_id, tensor) in enumerate(net.nodes.items()):
        comp[key] = (tensor.data, list(range(len(owner), len(owner) + len(tensor.legs))))
        for leg_name, _ in tensor.legs:
            ids[(node_id, leg_name)] = len(owner)
            owner.append(key)
    partner = [-1] * len(owner)
    owner.append(-1)
    lines = []
    for p, q in net.edges:
        p, q = ids[p], ids[q]
        partner[p], partner[q] = q, p
        lines.append((p, q))
    for e in schedule:
        p, q = lines[e]
        cp, cq = owner[p], owner[q]
        if cp < 0:
            continue
        if cp == cq:
            arr, axes = comp[cp]
            arr = np.trace(arr, axis1=axes.index(p), axis2=axes.index(q))
            comp[cp] = (arr, [x for x in axes if x != p and x != q])
            owner[p] = owner[q] = -1
            continue
        a, la = comp[cp]
        b, lb = comp.pop(cq)
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
        at = a.transpose(keep_a + ia)
        bt = b.transpose(ib + keep_b)
        n = math.prod(bt.shape[: len(ib)])
        arr = np.dot(at.reshape(-1, n), bt.reshape(n, -1))
        comp[cp] = (arr.reshape(at.shape[: len(keep_a)] + bt.shape[len(ib) :]), axes)
    arr = np.ones((), dtype=complex)
    axes = []
    for part, part_axes in comp.values():
        arr = np.multiply.outer(arr, part)
        axes = axes + part_axes
    out = arr.transpose([axes.index(ids[p]) for p in net.free_legs])
    if not out.flags.c_contiguous:
        out = out.copy()
    return tuple((f"{node}.{leg}", dim) for (node, leg), dim in zip(net.free_legs, out.shape)), out


def matrix_network(rng, kind, n, dim=None, flips=True):
    """n rank-2 nodes in a line, each line of dim 1-5 (or all of ``dim``), each node wired by a random leg.

    ``open`` leaves the two end legs free, ``ring`` closes the line (n=2 joins
    two nodes by both legs), ``cut`` cuts a ring open and closes it with a ket
    and a bra, and ``loose`` drops some lines so that nodes keep free legs.
    Without ``flips`` every node's legs are (out, in) and every edge runs
    ``n<k>.out -- n<k+1>.in``, as ``Tensor.from_matrix`` and a ``.qpd`` chain wire them.
    """
    dims = [int(rng.integers(1, 6)) for _ in range(n)] if dim is None else [dim] * n  # line k joins node k to k+1
    nodes, ends = {}, []
    for k in range(n):
        legs = [("out", dims[k]), ("in", dims[k - 1])]
        if flips and rng.random() < 0.5:
            legs.reverse()
        nodes[f"n{k}"] = Tensor(legs, random_array(rng, [dim for _, dim in legs]))
        ends.append(((f"n{k}", "out"), (f"n{(k + 1) % n}", "in")))
    edges = [(q, p) if flips and rng.random() < 0.5 else (p, q) for p, q in ends]
    if kind in ("open", "loose"):
        dropped = [k for k in range(n - 1) if kind == "loose" and rng.random() < 0.3]
        free = [leg for k in [n - 1, *dropped] for leg in edges[k]]
        kept = [e for k, e in enumerate(edges[:-1]) if k not in dropped]
        return Network(nodes, kept, [free[int(i)] for i in rng.permutation(len(free))])
    net = Network(nodes, edges)
    if kind == "ring":
        return net
    p, q = net.edges[int(rng.integers(n))]
    d = net._dim_of(p)
    return net.cut_edge((p, q)).insert_ket(q, random_state(rng, d)).insert_bra(p, random_state(rng, d))


class TestMatrixMerge:
    @settings(max_examples=400)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["open", "ring", "cut", "loose", "random"]),
           dim=st.none() | st.integers(1, 4), flips=st.booleans(), data=st.data())
    def test_equals_the_general_loop_bit_for_bit(self, seed, kind, dim, flips, data):
        # Lines of one dim give levels of several merges, each level one matmul where no dim is 1.
        rng = np.random.default_rng(seed)
        if kind == "loose":
            dim = None  # free legs on every dropped line: keep the output small
        n = data.draw(st.integers(2, 8 if dim is None else 48), label="n")
        net = random_network(rng) if kind == "random" else matrix_network(rng, kind, n, dim, flips)
        order = data.draw(st.permutations(range(len(net.edges))), label="order")
        for got, (legs, want) in ((net.contract(), reference_contract(net, plan_of(net)[4])),
                                  (net.contract(order=order), reference_contract(net, order))):
            assert got.legs == legs
            assert got.data.tobytes() == want.tobytes()


def with_fresh_data(net, rng):
    """The same wiring over new random arrays."""
    nodes = {k: Tensor(t.legs, random_array(rng, t.data.shape)) for k, t in net.nodes.items()}
    return Network(nodes, net.edges, net.free_legs)


def plan_of(net, order=None):
    """``tensornet._plan``'s plan for ``net``'s wiring and ``order``, read through the key ``Network.contract`` passes.

    Item 4 of the plan is its schedule, a permutation of edge indices, and item 5 its peak entry count.
    """
    return tensornet._plan(net._wiring_key(), None if order is None else tuple(order))


def two_node_chain(a, b, edge=(("a", "out"), ("b", "in")), free=(("b", "out"), ("a", "in"))):
    """``a.out -- b.in``: the product b @ a over ``free``."""
    return Network({"a": Tensor.from_matrix(a), "b": Tensor.from_matrix(b)}, [edge], free)


class TestPlanCache:
    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["open", "ring", "cut", "loose", "random", "torus"]),
           n=st.integers(2, 8), data=st.data())
    def test_a_wiring_replays_its_plan_on_fresh_data(self, seed, kind, n, data):
        rng = np.random.default_rng(seed)
        if kind == "torus":
            net, _ = torus(rng, 2, n % 3 + 2)
        else:
            net = random_network(rng) if kind == "random" else matrix_network(rng, kind, n)
        order = data.draw(st.none() | st.permutations(range(len(net.edges))), label="order")
        for again, this in enumerate((net, with_fresh_data(net, rng))):
            hits = tensornet._plan.cache_info().hits
            got = this.contract(order=order)
            if again:
                assert tensornet._plan.cache_info().hits == hits + 1
            legs, want = reference_contract(this, plan_of(this, order)[4])
            assert got.legs == legs
            assert got.data.tobytes() == want.tobytes()

    def test_each_wiring_gets_its_own_plan(self):
        rng = np.random.default_rng(29)
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        variants = [
            two_node_chain(a, b),
            two_node_chain(random_array(rng, (3, 4)), b),  # one leg dim: a.in is 4
            Network({"a": Tensor([("out", 3), ("x", 3)], a), "b": Tensor.from_matrix(b)},
                    [(("a", "out"), ("b", "in"))], [("b", "out"), ("a", "x")]),  # one leg name
            two_node_chain(a, b, edge=(("b", "in"), ("a", "out"))),  # one edge's endpoint order
            two_node_chain(a, b, free=(("a", "in"), ("b", "out"))),  # the free-leg order
        ]
        tensornet._plan.cache_clear()
        for k, net in enumerate(variants + variants):
            got = net.contract()
            legs, want = reference_contract(net)
            assert (got.legs, got.data.tobytes()) == (legs, want.tobytes())
            assert linalg.max_abs_diff(got.data, brute_force_contract(net).data) <= 1e-12
            assert tensornet._plan.cache_info().currsize == min(k + 1, len(variants))
        assert tensornet._plan.cache_info().hits == len(variants)

    def test_an_overflow_is_named_on_a_wiring_already_planned(self):
        finite = two_node_chain(np.eye(2), np.eye(2)).contract()
        assert finite.data.tobytes() == np.eye(2, dtype=complex).tobytes()
        # (b @ a)[1, 0] = 1e300 * 1e300 is the first entry that overflows
        big = two_node_chain([[1e300, 0], [0, 1]], [[1, 0], [1e300, 1]])
        hits = tensornet._plan.cache_info().hits
        # The suite turns numpy warnings into errors, so none may escape ahead of the named error.
        with pytest.raises(NetworkError, match=r"^entry 1,0 overflows double precision: contraction "):
            big.contract()
        assert tensornet._plan.cache_info().hits == hits + 1


def ket_bra_pair():
    """Nodes ``k`` and ``b``, one leg ``out`` of dim 2 each."""
    return {"k": Tensor.from_state([1, 0]), "b": Tensor.from_state([0, 1])}


#: Wirings ``Network`` refuses, each with the one message it must give. Where
#: several faults apply, the edges come first in their order, then the free
#: legs, then a leg wired twice, then a dangling leg.
REFUSED = [
    ({"M": Tensor.from_matrix(np.eye(2))}, [], [("M", "out")], r"^dangling leg M\.in$"),
    ({"M": Tensor.from_matrix(np.eye(2))}, [(("M", "out"), ("M", "in"))], [("M", "in"), ("M", "out")],
     r"^leg M\.out is wired more than once$"),
    ({"M": Tensor.from_matrix(np.eye(2))}, [(("M", "out"), ("X", "in"))], [("M", "in")],
     r"^endpoint X\.in references unknown node 'X'$"),
    ({"M": Tensor.from_matrix(np.eye(2))}, [(("M", "out"), ("M", "in"))], [("M", "side")],
     r"^tensor has no leg named 'side'$"),
    ({"M": Tensor.from_matrix(np.eye(2))}, [(("N", "in"), ("M", "out"))], [],
     r"^endpoint N\.in references unknown node 'N'$"),
    ({"a": Tensor.from_matrix(np.eye(2)), "b": Tensor.from_matrix(np.eye(3))}, [(("a", "out"), ("b", "in"))],
     [("a", "out")], r"^edge endpoints a\.out \(dim 2\) and b\.in \(dim 3\) have different dimensions$"),
    ({**ket_bra_pair(), "c": Tensor.from_state([1, 1, 1])},
     [(("k", "out"), ("b", "nope")), (("k", "out"), ("c", "out"))], [], r"^tensor has no leg named 'nope'$"),
    (ket_bra_pair(), [(("k", "out"), ("b", "out"))], [("X", "out"), ("k", "out")],
     r"^endpoint X\.out references unknown node 'X'$"),
    (ket_bra_pair(), [(("k", "out"), ("b", "out")), (("b", "out"), ("k", "out"))], [],
     r"^leg k\.out is wired more than once$"),
    ({**ket_bra_pair(), "c": Tensor.from_state([1, 1])}, [(("b", "out"), ("k", "out"))], [("k", "out")],
     r"^leg k\.out is wired more than once$"),
    ({**ket_bra_pair(), "c": Tensor.from_state([1, 1]), "d": Tensor.from_state([1, 1])},
     [(("k", "out"), ("b", "out"))], [("d", "out")], r"^dangling leg c\.out$"),
]


class TestCheckCache:
    """``tensornet._check`` checks a wiring once; a refused one is checked again on every call."""

    @pytest.mark.parametrize("nodes, edges, free, message", REFUSED)
    def test_a_refused_wiring_is_refused_again_with_the_same_message(self, nodes, edges, free, message):
        for _ in range(2):
            misses = tensornet._check.cache_info().misses
            with pytest.raises(NetworkError, match=message):
                Network(nodes, edges, free)
            assert tensornet._check.cache_info().misses == misses + 1

    @pytest.mark.parametrize("seed", range(6))
    def test_the_same_wiring_on_fresh_tensors_is_a_hit(self, seed):
        rng = np.random.default_rng(seed)
        # A cut ring is built by surgery, which checks no wiring, so only its second copy is a hit.
        for net in (random_network(rng), torus(rng, 2, 3)[0], with_fresh_data(matrix_network(rng, "cut", 3), rng)):
            info = tensornet._check.cache_info()
            fresh = with_fresh_data(net, rng)
            assert tensornet._check.cache_info()[:2] == (info.hits + 1, info.misses)
            assert fresh.contract().data.tobytes() == reference_contract(fresh, plan_of(fresh)[4])[1].tobytes()

    def test_each_wiring_gets_its_own_check(self):
        rng = np.random.default_rng(37)
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        variants = [
            lambda: two_node_chain(a, b),
            lambda: two_node_chain(random_array(rng, (3, 4)), b),  # one leg dim: a.in is 4
            lambda: Network({"a": Tensor([("out", 3), ("x", 3)], a), "b": Tensor.from_matrix(b)},
                            [(("a", "out"), ("b", "in"))], [("b", "out"), ("a", "x")]),  # one leg name
            lambda: two_node_chain(a, b, edge=(("b", "in"), ("a", "out"))),  # one edge's endpoint order
            lambda: two_node_chain(a, b, free=(("a", "in"), ("b", "out"))),  # the free-leg order
            lambda: Network({"b": Tensor.from_matrix(b), "a": Tensor.from_matrix(a)},
                            [(("a", "out"), ("b", "in"))], [("b", "out"), ("a", "in")]),  # the node order
        ]
        tensornet._check.cache_clear()
        for k, build in enumerate(variants + variants):
            build()
            assert tensornet._check.cache_info().currsize == min(k + 1, len(variants))
        assert tensornet._check.cache_info().hits == len(variants)

    def test_surgery_checks_no_wiring(self, monkeypatch):
        # Surgery and trace_network build from checked parts, so none of them reaches the check.
        net = two_node_chain(np.eye(2), [[0, 1], [1, 0]])
        monkeypatch.setattr(tensornet, "_check", None)
        grown = net.add_node("x", Tensor.from_matrix([[1, 2], [3, 4]])).wire(("b", "out"), ("x", "in"))
        for built in (grown, grown.cut_edge(grown.edges[0]), grown.insert_ket(("a", "in"), [1, 0]),
                      grown.insert_bra(("x", "out"), [0, 1]), trace_network(np.eye(2))):
            assert linalg.max_abs_diff(built.contract().data, brute_force_contract(built).data) == 0


def as_document(net):
    """``net``, a wiring of d x d nodes on legs ``out`` and ``in``, written as a .qpd document and read back."""
    d = next(iter(net.nodes.values())).legs[0][1]
    lines = [f"dim {d}"]
    for k, (node_id, t) in enumerate(net.nodes.items()):
        m = t.data if t.legs[0][0] == "out" else t.data.T
        rows = ", ".join("[" + ", ".join(map(dsl.format_complex, row)) + "]" for row in m)
        lines += [f"gate G{k} = [{rows}]", f"node {node_id} : G{k}"]
    lines += ["edge {}.{} -> {}.{}".format(*p, *q) for p, q in net.edges]
    lines += ["free {}.{}".format(*p) for p in net.free_legs]
    return dsl.parse("\n".join(lines) + "\n").document


class TestGreedyPlan:
    @pytest.mark.parametrize("seed", range(12))
    def test_a_wiring_always_gets_the_same_schedule(self, seed):
        rng = np.random.default_rng(seed)
        for net in (torus(rng, 2 + seed % 3, 2 + seed % 4)[0], random_network(rng),
                    *(matrix_network(rng, kind, 2 + seed % 7) for kind in ("open", "ring", "cut", "loose"))):
            tensornet._plan.cache_clear()
            schedule = plan_of(net)[4]
            assert sorted(schedule) == list(range(len(net.edges)))
            fresh = with_fresh_data(net, rng)
            tensornet._plan.cache_clear()
            assert plan_of(fresh)[4] == schedule
            for this in (net, fresh):
                assert this.contract().data.tobytes() == this.contract(order=schedule).data.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 13, 24, 32, 47, 48])
    def test_a_chain_or_ring_of_one_dimension_merges_neighbours_pairwise(self, d, n):
        # Every candidate ties on these wirings; the plan pairs n0 n1, n2 n3, ... and then their results.
        rng = np.random.default_rng(100 * d + n)
        for net in (*(matrix_network(rng, kind, n, dim=d) for kind in ("open", "ring")),
                    as_document(matrix_network(rng, "open", n, dim=d)).network(),
                    as_document(matrix_network(rng, "ring", n, dim=d)).network()):
            schedule, peak = plan_of(net)[4:]
            assert schedule[: n // 2] == tuple(range(0, n - 1, 2))[: n // 2]
            assert merge_depth(net, schedule) == (n - 1).bit_length()
            assert peak <= plan_of(net, range(len(net.edges)))[5]  # the lowest-index rule's listed order
            got = net.contract().data.tobytes()
            assert got == net.contract(order=schedule).data.tobytes()
            assert got == reference_contract(net, schedule)[1].tobytes()

    @pytest.mark.parametrize("d, n, levels, steps", [(4, 32, 4, 5), (2, 48, 4, 6), (8, 16, 3, 4), (3, 5, 1, 3),
                                                     (2, 2, 0, 1), (1, 8, 0, 7)])
    def test_a_ring_replays_one_matmul_per_level(self, d, n, levels, steps):
        # (4, 32): levels of 16, 8, 4 and 2 merges, then the closing merge;
        # (2, 48): levels of 24, 12, 6 and 3, one merge of two, then the closing merge;
        # (3, 5): a level of 2, one merge of two, then the closing merge; d = 1 stays merge by merge.
        net = matrix_network(np.random.default_rng(n), "ring", n, dim=d, flips=False)
        plan = plan_of(net)[0]
        assert (sum(step[4] < 0 for step in plan), len(plan)) == (levels, steps)
        assert net.contract().data.tobytes() == reference_contract(net, plan_of(net)[4])[1].tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_a_cut_ring_takes_its_ket_first_and_makes_only_vectors(self, n):
        net = matrix_network(np.random.default_rng(n), "cut", n, dim=3)
        ket = net.edges.index(next(e for e in net.edges if e[0][0].startswith("ket")))
        schedule, peak = plan_of(net)[4:]
        assert schedule[0] == ket
        assert peak == 3
        assert plan_of(net, range(len(net.edges)))[5] == 9

    def test_a_4x5_torus_plans_a_sixteenth_of_the_listed_peak(self):
        net, ref = torus(np.random.default_rng(1000), 4, 5)
        assert plan_of(net)[5] == 256
        assert plan_of(net, range(len(net.edges)))[5] == 4096
        assert abs(net.contract().item() - ref) <= 1e-9 * abs(ref)


def merge_depth(net, schedule):
    """The depth of the tree of merges that contracting ``net`` in ``schedule`` builds: 0 for one node."""
    group, depth = {node_id: node_id for node_id in net.nodes}, dict.fromkeys(net.nodes, 0)
    for e in schedule:
        (a, _), (b, _) = net.edges[e]
        ga, gb = group[a], group[b]
        if ga != gb:
            depth[ga] = max(depth[ga], depth.pop(gb)) + 1
            group = {node_id: ga if g == gb else g for node_id, g in group.items()}
    return max(depth.values())


def vectors_through_a_wide_matrix(n):
    """kets on both ends of a(n, 2) and b(2, n) wired a.p -- b.p: the listed order first makes a @ b, n x n."""
    rng = np.random.default_rng(31)
    a, b = random_array(rng, (n, 2)), random_array(rng, (2, n))
    u, v = random_state(rng, n), random_state(rng, n)
    net = Network(
        {"a": Tensor([("x", n), ("p", 2)], a), "b": Tensor([("p", 2), ("y", n)], b),
         "u": Tensor.from_state(u), "v": Tensor.from_state(v)},
        [(("a", "p"), ("b", "p")), (("u", "out"), ("a", "x")), (("v", "out"), ("b", "y"))],
    )
    return net, (u @ a) @ (b @ v)


class TestEntryCap:
    def test_a_plan_over_the_cap_is_refused_before_any_arithmetic(self, monkeypatch):
        net, value = vectors_through_a_wide_matrix(5000)
        assert 5000 * 5000 > ENTRY_CAP
        got = net.contract().item()
        assert abs(got - value) <= 1e-9 * abs(value)
        assert plan_of(net)[5] == 2
        # contract may not reach numpy once its plan is refused.
        monkeypatch.setattr(tensornet, "np", None)
        for _ in range(2):  # the cache holds no refusal, so each call plans and refuses again
            misses = tensornet._plan.cache_info().misses
            with pytest.raises(ContractionCapExceeded, match=(
                r"^contraction step 1 \(edge 0, a merge\) makes an array of shape \(5000, 5000\), "
                rf"25000000 entries, exceeding the cap of {ENTRY_CAP}$"
            )):
                net.contract(order=[0, 1, 2])
            assert tensornet._plan.cache_info().misses == misses + 1

    def test_an_output_over_the_cap_is_refused(self, monkeypatch):
        # 25 free d=2 kets: an outer product of 2**25 entries.
        net = Network({f"k{j}": Tensor.from_state([1, 0]) for j in range(25)}, [],
                      [(f"k{j}", "out") for j in range(25)])
        monkeypatch.setattr(tensornet, "np", None)
        with pytest.raises(ContractionCapExceeded, match=(
            rf"^the contraction's output makes an array of shape \(2(, 2){{24}}\), "
            rf"33554432 entries, exceeding the cap of {ENTRY_CAP}$"
        )):
            net.contract()

    def test_a_level_over_the_cap_is_planned_merge_by_merge(self):
        # A wiring key alone, no arrays: a chain of 2**8 nodes of dim 2**9. Each merge makes 2**18
        # entries; a level of k merges would stack 3 * k * 2**18, over the cap for k of 32 or more.
        n, d = 2**8, 2**9
        nodes = tuple((f"n{k}", (("out", d), ("in", d))) for k in range(n))
        edges = tuple(((f"n{k}", "out"), (f"n{k + 1}", "in")) for k in range(n - 1))
        steps, *_, peak = tensornet._plan(tensornet._Wiring(nodes, edges, ((f"n{n - 1}", "out"), ("n0", "in"))), None)
        assert peak == d * d
        assert [step[4] for step in steps] == [0] * (128 + 64 + 32) + [-1] * 4 + [0]
        level = steps[128 + 64 + 32]
        assert len(level[0]) == 16 and 3 * 16 * d * d <= ENTRY_CAP

    def test_a_level_over_a_lowered_cap_replays_merge_by_merge(self, monkeypatch):
        # Levels of 16 and 8 merges of 4 x 4 matrices go over 192 entries, levels of 4 and 2 do not.
        net = matrix_network(np.random.default_rng(41), "ring", 32, dim=4, flips=False)
        tensornet._plan.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(tensornet, "ENTRY_CAP", 192)
            steps = plan_of(net)[0]
            got = net.contract().data.tobytes()
        tensornet._plan.cache_clear()
        assert [step[4] for step in steps] == [0] * (16 + 8) + [-1] * 2 + [16]
        assert got == reference_contract(net, plan_of(net)[4])[1].tobytes() == net.contract().data.tobytes()

    def test_a_plan_at_the_cap_is_made(self):
        # 2**24 entries in a plan only: two free legs of 4096 on nodes of 4096 entries each.
        net = Network({"u": Tensor.from_state(np.ones(4096)), "v": Tensor.from_state(np.ones(4096))}, [],
                      [("u", "out"), ("v", "out")])
        assert plan_of(net)[5] == ENTRY_CAP


# -- the exact value of a network ------------------------------------------------

#: The unit roundoff of a double.
U = Fraction(1, 2**53)
#: The bound's constant: sqrt(2) joins the real and imaginary parts' bounds
#: into one on the modulus, rounded up to cover gamma_k = k*u / (1 - k*u) too.
C = 2


def exact_contract(net, magnitudes=False):
    """The exact contraction of ``net``: (re, im) object arrays of Fractions over its free legs, in order.

    Every double is a rational, so these sums and products are exact and the
    order the nodes are taken in does not matter. With ``magnitudes`` each node
    entry z is replaced by the double |z|, which gives |N|: the sum, over every
    index assignment, of the product of the entries' moduli.
    """
    label = {p: ("edge", k) for k, edge in enumerate(net.edges) for p in edge}
    label.update({p: ("free", k) for k, p in enumerate(net.free_legs)})
    fraction = np.vectorize(Fraction, otypes=[object])
    re, im, axes = np.array(Fraction(1), dtype=object), np.array(Fraction(0), dtype=object), []
    for node_id, t in net.nodes.items():
        data = np.abs(t.data) if magnitudes else t.data
        nre, nim = fraction(data.real), fraction(data.imag)
        naxes = [label[(node_id, leg)] for leg, _ in t.legs]
        for loop in {lab for lab in naxes if naxes.count(lab) == 2}:
            i, j = (k for k, lab in enumerate(naxes) if lab == loop)
            nre, nim = np.trace(nre, axis1=i, axis2=j), np.trace(nim, axis1=i, axis2=j)
            naxes = [lab for lab in naxes if lab != loop]
        shared = [lab for lab in naxes if lab in axes]
        pairs = ([axes.index(lab) for lab in shared], [naxes.index(lab) for lab in shared])
        re, im = (np.tensordot(re, nre, pairs) - np.tensordot(im, nim, pairs),
                  np.tensordot(re, nim, pairs) + np.tensordot(im, nre, pairs))
        axes = [lab for lab in axes if lab not in shared] + [lab for lab in naxes if lab not in shared]
    perm = [axes.index(("free", k)) for k in range(len(net.free_legs))]
    return np.transpose(re, perm), np.transpose(im, perm)


def summed_terms(net, schedule):
    """For each trace or merge of ``net`` contracted in ``schedule``, the number of terms it sums.

    A trace sums over its one line; a merge over every line between the two components.
    """
    group = {node_id: node_id for node_id in net.nodes}
    done, counts = set(), []
    for e in schedule:
        if e in done:
            continue
        (a, _), (b, _) = net.edges[e]
        ga, gb = group[a], group[b]
        between = [e] if ga == gb else [
            f for f, ((x, _), (y, _)) in enumerate(net.edges) if f not in done and {group[x], group[y]} == {ga, gb}
        ]
        done.update(between)
        counts.append(math.prod(net._dim_of(net.edges[f][0]) for f in between))
        group = {node_id: ga if g == gb else g for node_id, g in group.items()}
    return counts


class TestExactOracle:
    def test_the_oracle_is_exact_on_a_small_integer_network(self):
        net = two_node_ring()
        ints = Network({k: Tensor(t.legs, np.round(t.data * 8)) for k, t in net.nodes.items()}, net.edges)
        re, im = exact_contract(ints)
        want = brute_force_contract(ints).item()  # small integers: every float step is exact
        assert (re[()], im[()]) == (Fraction(want.real), Fraction(want.imag))

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["random", "torus", "cut", "ring", "open", "doc"]),
           n=st.integers(2, 8), data=st.data())
    def test_the_planned_and_any_order_lie_within_the_rounding_bound(self, seed, kind, n, data):
        # Each term of the result passes through at most 2*n_s roundings in a step that
        # sums n_s complex terms (a real dot of 2*n_s terms) and through 2 in each outer
        # product, so |contract - exact| <= C * k * u * |N| entrywise, with
        # k = 2 * sum(n_s) + 2 * (number of nodes) and u the unit roundoff.
        # Chains and rings of one dimension get the pairwise plan, of up to 24 nodes.
        rng = np.random.default_rng(seed)
        if kind == "torus":
            net, _ = torus(rng, 2, n % 3 + 2)
        elif kind == "cut":
            net = matrix_network(rng, "cut", n)
        elif kind == "random":
            net = random_network(rng)
        else:
            d, n = data.draw(st.integers(1, 4), label="d"), data.draw(st.integers(2, 24), label="n")
            closed = data.draw(st.booleans(), label="closed") if kind == "doc" else kind == "ring"
            net = matrix_network(rng, "ring" if closed else "open", n, dim=d, flips=kind != "doc")
            if kind == "doc":
                net = as_document(net).network()
        order = data.draw(st.permutations(range(len(net.edges))), label="order")
        re, im = exact_contract(net)
        size, _ = exact_contract(net, magnitudes=True)
        for got, schedule in ((net.contract(), plan_of(net)[4]), (net.contract(order=order), order)):
            k = 2 * sum(summed_terms(net, schedule)) + 2 * len(net.nodes)
            for idx in np.ndindex(*got.data.shape):
                z = got.data[idx]
                dr, di = Fraction(z.real) - re[idx], Fraction(z.imag) - im[idx]
                assert dr * dr + di * di <= (C * k * U * size[idx]) ** 2, (idx, schedule)


class TestCutEdge:
    def test_cut_self_loop_recovers_matrix(self):
        rng = np.random.default_rng(12)
        m = random_matrix(rng, 3)
        cut = trace_network(m).cut_edge((("M", "out"), ("M", "in")))
        assert cut.free_legs == (("M", "out"), ("M", "in"))
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
        assert len(net.edges) == 1 and net.free_legs == ()

    def test_cut_reversed_endpoint_order_uses_stored_edge(self):
        net = trace_network(np.eye(2))
        cut = net.cut_edge((("M", "in"), ("M", "out")))
        assert cut.free_legs == (("M", "out"), ("M", "in"))

    def test_repr_before_and_after_cut(self):
        net = trace_network(np.eye(2))
        assert repr(net) == "Network(nodes=['M'], edges=1, free=[])"
        cut = net.cut_edge((("M", "out"), ("M", "in")))
        assert repr(cut) == "Network(nodes=['M'], edges=0, free=['M.out', 'M.in'])"

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

    def test_surgery_errors(self):
        cut = trace_network(np.eye(2)).cut_edge((("M", "out"), ("M", "in")))
        with pytest.raises(NetworkError, match=r"^leg M\.in is not free$"):
            cut.insert_ket(("M", "in"), [1, 0]).wire(("M", "out"), ("M", "in"))
        with pytest.raises(NetworkError, match=r"^cannot wire leg M\.out to itself$"):
            cut.wire(("M", "out"), ("M", "out"))
        with pytest.raises(NetworkError, match=r"^node id 'M' already exists$"):
            cut.add_node("M", Tensor.from_state([1, 0]))


class TestSurgeryChecks:
    """The checks surgery and ``contract`` keep once they no longer build through ``Network(...)``."""

    def test_wire_refuses_legs_of_different_dimensions(self):
        net = Network(
            {"a": Tensor.from_matrix(np.eye(2)), "b": Tensor.from_matrix(np.eye(3))},
            free_legs=[("a", "out"), ("a", "in"), ("b", "out"), ("b", "in")],
        )
        with pytest.raises(
            NetworkError, match=r"^edge endpoints a\.out \(dim 2\) and b\.in \(dim 3\) have different dimensions$"
        ):
            net.wire(("a", "out"), ("b", "in"))

    def test_add_node_refuses_a_bare_array(self):
        with pytest.raises(NetworkError, match=r"^node 'X' is not a Tensor$"):
            trace_network(np.eye(2)).add_node("X", np.eye(2))

    def test_contract_refuses_free_legs_whose_names_collide(self):
        # Distinct (node, leg) pairs, one result name: "a.b" + "c" and "a" + "b.c".
        net = Network(
            {"a.b": Tensor([("c", 2)], [1, 2]), "a": Tensor([("b.c", 2)], [3, 4])},
            free_legs=[("a.b", "c"), ("a", "b.c")],
        )
        for _ in range(2):  # a failed plan is not cached: the second call raises too
            with pytest.raises(NetworkError, match=r"duplicate leg names"):
                net.contract()

    def test_trace_network_checks_the_matrix_once(self, monkeypatch):
        as_matrix = linalg.as_matrix
        calls = []
        monkeypatch.setattr(linalg, "as_matrix", lambda m: calls.append(1) or as_matrix(m))
        trace_network(np.eye(2))
        assert len(calls) == 1


def built_networks(rng):
    """(receiver, result) for each network the library builds, from a random ring, chain or torus.

    The receiver is None for ``trace_network`` and ``Document.network``.
    """
    kind = ["ring", "chain", "torus"][int(rng.integers(3))]
    if kind == "torus":
        base, _ = torus(rng, 2, 2)
    else:
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        nodes = {f"n{k}": Tensor.from_matrix(random_matrix(rng, d)) for k in range(n)}
        edges = [((f"n{k}", "out"), (f"n{(k + 1) % n}", "in")) for k in range(n)]
        free = [] if kind == "ring" else [edges[-1][1], edges[-1][0]]
        base = Network(nodes, edges if kind == "ring" else edges[:-1], free)
    pairs = []
    net = base
    if net.edges:
        net = base.cut_edge(base.edges[int(rng.integers(len(base.edges)))])
        pairs.append((base, net))
    leg = net.free_legs[-1]
    d = net.nodes[leg[0]].leg_dim(leg[1])
    pairs.append((net, net.insert_ket(leg, random_state(rng, d))))
    pairs.append((net, net.insert_bra(leg, random_state(rng, d))))
    grown = net.add_node("extra", Tensor.from_matrix(random_matrix(rng, d)))
    pairs.append((net, grown))
    pairs.append((grown, grown.wire(leg, ("extra", "in"))))
    pairs.append((None, trace_network(random_matrix(rng, d))))
    gate = ", ".join(f"[{', '.join(str(float(x)) for x in row)}]" for row in rng.standard_normal((d, d)))
    doc = dsl.parse(f"dim {d}\ngate G = [{gate}]\nnode m : G\nedge m.out -> m.in\n").document
    pairs.append((None, doc.network()))
    return pairs


def assert_frozen(net):
    """``net``'s wiring cannot change: a read-only node mapping, edge and free-leg tuples, no attribute to set."""
    assert type(net.nodes) is MappingProxyType
    assert type(net.edges) is tuple and type(net.free_legs) is tuple
    with pytest.raises(TypeError, match="does not support item assignment"):
        net.nodes["mutant"] = Tensor.from_state([1])
    with pytest.raises(TypeError, match="does not support item deletion"):
        del net.nodes[next(iter(net.nodes))]
    with pytest.raises(AttributeError, match="has no attribute 'append'"):
        net.edges.append((("mutant", "out"), ("mutant", "out")))
    with pytest.raises(AttributeError, match="has no attribute 'append'"):
        net.free_legs.append(("mutant", "out"))
    for name in ("nodes", "edges", "free_legs", "_key"):
        with pytest.raises(AttributeError, match="^Network is immutable$"):
            setattr(net, name, getattr(net, name))
    assert copy.copy(net) is net


class TestBuiltNetworksAreValues:
    @pytest.mark.parametrize("seed", range(40))
    def test_valid_independent_and_contracting_like_the_oracle(self, seed):
        for receiver, net in built_networks(np.random.default_rng(seed)):
            net._validate()
            for each in (receiver, net):
                if each is not None:
                    assert_frozen(each)
            fast, slow = net.contract(), brute_force_contract(net)
            assert fast.legs == slow.legs
            assert linalg.max_abs_diff(fast.data, slow.data) <= 1e-10


def two_gates():
    """``a`` then ``b``, both X, with the chain's two ends free: a network every surgery can act on."""
    x = Tensor.from_matrix([[0, 1], [1, 0]])
    return Network({"a": x, "b": x}, [(("a", "out"), ("b", "in"))], [("a", "in"), ("b", "out")])


#: One builder of each kind of value that holds arrays.
BUILT = {
    "Tensor": lambda: Tensor([("i", 2)], [1, 0]),
    "from_matrix": lambda: Tensor.from_matrix(np.eye(2)),
    "from_state": lambda: Tensor.from_state([0, 1]),
    "contract": lambda: two_gates().contract(),
    "Network": two_gates,
    "cut_edge": lambda: two_gates().cut_edge((("a", "out"), ("b", "in"))),
    "wire": lambda: two_gates().wire(("b", "out"), ("a", "in")),
    "add_node": lambda: two_gates().add_node("s", Tensor.from_state([1, 0])),
    "insert_ket": lambda: two_gates().insert_ket(("a", "in"), [1, 0]),
    "insert_bra": lambda: two_gates().insert_bra(("b", "out"), [1, 0]),
    "trace_network": lambda: trace_network(np.eye(2)),
    "cup_cap_network": lambda: cup_cap_network(np.eye(2)),
    "Document.network": lambda: dsl.parse("dim 1\ngate G = [[1]]\nnode m : G\nedge m.out -> m.in\n").document.network(),
    "PathDiagram FREE": lambda: PathDiagram(2, (np.eye(2),) * 2, FREE),
    "PathDiagram pinned": lambda: PathDiagram(2, (np.eye(2),) * 2, 0, 1),
}


def held_arrays(value):
    """A tensor's data, a network's node data or a diagram's layers."""
    if isinstance(value, Tensor):
        return [value.data]
    if isinstance(value, Network):
        return [tensor.data for tensor in value.nodes.values()]
    return list(value.layers)


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
@pytest.mark.parametrize("build", BUILT.values(), ids=BUILT.keys())
def test_copies_share_the_read_only_arrays(build, copier):
    value = build()
    duplicate = copier(value)
    # Values copy to themselves; ``copy.copy`` of a diagram is a new diagram over the same layers.
    assert (duplicate is value) is not (copier is copy.copy and isinstance(value, PathDiagram))
    for array, copied in zip(held_arrays(value), held_arrays(duplicate), strict=True):
        assert copied is array and not copied.flags.writeable


class CountedId(str):
    """A node id that counts the times it is hashed."""

    hashes = 0

    def __hash__(self):
        CountedId.hashes += 1
        return str.__hash__(self)


class TestWiringKey:
    """A frozen wiring's ``_Wiring`` key is built and hashed once; ``contract`` reuses it."""

    def test_one_key_one_hash_and_one_check_for_three_contractions(self, monkeypatch):
        built = []

        class Spy(tensornet._Wiring):
            __slots__ = ()

            def __new__(cls, *parts):
                built.append(parts)
                return super().__new__(cls, *parts)

        monkeypatch.setattr(tensornet, "_Wiring", Spy)
        rng = np.random.default_rng(61)
        a, b = Tensor.from_matrix(random_matrix(rng, 3)), Tensor.from_matrix(random_matrix(rng, 3))
        ids = CountedId("a"), CountedId("b")
        nodes = dict(zip(ids, (a, b)))  # copied by Network with its hashes, not hashing the ids again

        def build():
            return Network(nodes, [((ids[0], "out"), (ids[1], "in"))], [(ids[1], "out"), (ids[0], "in")])

        first = build()
        want = first.contract().data.tobytes()  # checks and plans the wiring
        built.clear()
        CountedId.hashes = 0
        checks = tensornet._check.cache_info()
        net = build()
        # One hash of the key: each id once per place it takes in the wiring, two nodes, one edge, two free legs.
        assert (len(built), CountedId.hashes) == (1, 6)
        assert tensornet._check.cache_info()[:2] == (checks.hits + 1, checks.misses)
        for _ in range(3):
            plans = tensornet._plan.cache_info()
            assert net.contract().data.tobytes() == want
            assert tensornet._plan.cache_info()[:2] == (plans.hits + 1, plans.misses)
        assert (len(built), CountedId.hashes) == (1, 6)
        assert tensornet._check.cache_info()[:2] == (checks.hits + 1, checks.misses)
        # The check's hit hands back the first key of the wiring, so the plan's lookup finds it by identity.
        assert net._wiring_key() is net._key is first._key and type(net._key) is Spy

    def test_a_network_built_from_parts_is_keyed_on_its_first_contraction(self, monkeypatch):
        rng = np.random.default_rng(67)
        m = random_matrix(rng, 2)
        document = dsl.parse("dim 2\ngate G = [[1, 2], [3, 4]]\nnode g : G\nfree g.out\nfree g.in\n").document
        built = [document.network(), trace_network(m), trace_network(m).cut_edge((("M", "out"), ("M", "in"))),
                 cup_cap_network(m)]
        built.append(built[2].insert_ket(("M", "in"), [1, 0]).insert_bra(("M", "out"), [0, 1]))
        monkeypatch.setattr(tensornet, "_check", None)  # none of these is checked again
        for k, net in enumerate(built):
            assert_frozen(net)
            assert (net._key is None) == (k > 0)  # only the document's network went through Network(...)
            first = net.contract().data.tobytes()
            key = net._key
            assert type(key) is tensornet._Wiring and key[1:] == (
                tuple((node_id, t.legs) for node_id, t in net.nodes.items()), net.edges, net.free_legs)
            assert net.contract().data.tobytes() == first and net._key is key
        assert built[1]._key == trace_network(m)._wiring_key()

    def test_a_document_network_shares_one_legs_tuple_per_node_kind(self):
        doc = dsl.parse("dim 2\ngate G = [[1, 0], [0, 1]]\ngate H = [[0, 1], [1, 0]]\nstate s = [1, 0]\n"
                        "node g : G\nnode h : H\nnode k : s\nnode j : s\n"
                        "edge k.out -> g.in\nedge g.out -> h.in\nedge j.out -> h.out\n").document
        nodes = doc.network().nodes
        assert nodes["g"].legs is nodes["h"].legs and nodes["k"].legs is nodes["j"].legs
        assert (nodes["g"].legs, nodes["k"].legs) == ((("out", 2), ("in", 2)), (("out", 2),))


class TestInsert:
    def test_insert_ket_applies_matrix(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            m, b = random_matrix(rng, 3), random_state(rng, 3)
            cut = trace_network(m).cut_edge((("M", "out"), ("M", "in")))
            psi = cut.insert_ket(("M", "in"), b)
            assert psi.free_legs == (("M", "out"),)
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
        assert closed.free_legs == ()
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

    def test_second_ket_gets_the_next_id(self):
        net = Network({"M": Tensor.from_matrix(np.eye(2))}, free_legs=[("M", "out"), ("M", "in")])
        twice = net.insert_ket(("M", "in"), [1, 0]).insert_ket(("M", "out"), [0, 1])
        assert sorted(twice.nodes) == ["M", "ket0", "ket1"]
        assert twice.edges[-1] == (("ket1", "out"), ("M", "out"))

    def test_inserts_check_the_state_once(self, monkeypatch):
        # Each insert checks its state once and builds the node from that array.
        cut = trace_network(np.eye(2)).cut_edge((("M", "out"), ("M", "in")))
        as_state = linalg.as_state
        calls = []
        monkeypatch.setattr(linalg, "as_state", lambda v: calls.append("check") or as_state(v))
        ket = cut.insert_ket(("M", "in"), [1, 0])
        assert len(calls) == 1
        ket.insert_bra(("M", "out"), [1, 0])
        assert len(calls) == 2

    def test_inserts_build_one_network(self, monkeypatch):
        # One network per insert, built from checked parts and never re-validated.
        cut = trace_network(np.eye(2)).cut_edge((("M", "out"), ("M", "in")))
        of_checked, validate = Network._of_checked, Network._validate
        built, validated = [], []
        monkeypatch.setattr(Network, "_of_checked", lambda *a: built.append(1) or of_checked(*a))
        monkeypatch.setattr(Network, "_validate", lambda net: validated.append(1) or validate(net))
        ket = cut.insert_ket(("M", "in"), [1, 0])
        assert (len(built), len(validated)) == (1, 0)
        ket.insert_bra(("M", "out"), [1, 0])
        assert (len(built), len(validated)) == (2, 0)

    def test_insert_lays_out_like_add_node_then_wire(self):
        net = Network(
            {"M": Tensor.from_matrix(np.eye(2)), "N": Tensor.from_matrix(np.eye(2))},
            edges=[(("M", "out"), ("N", "in"))],
            free_legs=[("N", "out"), ("M", "in")],
        )
        for leg in net.free_legs:
            ket = net.insert_ket(leg, [1, 0])
            bra = net.insert_bra(leg, [0, 1j])
            for got, node_id, amplitudes in ((ket, "ket0", [1, 0]), (bra, "bra0", [0, -1j])):
                want = net.add_node(node_id, Tensor.from_state(amplitudes)).wire((node_id, "out"), leg)
                assert list(got.nodes) == list(want.nodes)
                assert got.edges == want.edges and got.free_legs == want.free_legs
                assert np.array_equal(got.nodes[node_id].data, want.nodes[node_id].data)

    def test_ket_checks_the_leg_first_and_bra_the_state(self):
        cut = trace_network(np.eye(2)).cut_edge((("M", "out"), ("M", "in")))
        with pytest.raises(NetworkError, match=r"^leg M\.up is not free$"):
            cut.insert_ket(("M", "up"), [[1, 0]])
        with pytest.raises(linalg.ShapeError, match="1-D state vector"):
            cut.insert_bra(("M", "up"), [[1, 0]])


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
