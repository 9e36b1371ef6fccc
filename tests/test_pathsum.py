"""Path enumeration and summation against the matrix-product route."""

import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpath import cli, dsl, linalg, pathsum
from qpath.measure import HADAMARD, MIRROR
from qpath.pathsum import (
    FREE,
    Path,
    PathCapExceeded,
    PathDiagram,
    composition_matrix,
    emit_lab_diagram,
    enumerate_paths,
    interference_report,
    path_sum_amplitude,
    to_dot,
)


def mach_zehnder(input_index=0, output=FREE):
    return PathDiagram(2, (HADAMARD, MIRROR, HADAMARD), input_index, output)


class TestDiagram:
    def test_layer_shape_validated(self):
        with pytest.raises(ValueError, match="layer 1"):
            PathDiagram(2, (np.eye(2), np.eye(3)), 0)

    def test_index_ranges_validated(self):
        with pytest.raises(ValueError):
            PathDiagram(2, (np.eye(2),), 2)
        with pytest.raises(ValueError):
            PathDiagram(2, (np.eye(2),), 0, 5)

    def test_empty_composition_has_no_diagram(self):
        with pytest.raises(ValueError, match="empty composition"):
            PathDiagram(2, (), 0)


class TestEnumeration:
    def test_four_paths_fixed_output(self):
        assert len(enumerate_paths(mach_zehnder(0, 0))) == 4

    def test_eight_paths_free_output(self):
        assert len(enumerate_paths(mach_zehnder(0))) == 8

    def test_single_identity_layer(self):
        paths = enumerate_paths(PathDiagram(2, (np.eye(2),), 0))
        assert [p.indices for p in paths] == [(0,), (1,)]
        assert [p.weight for p in paths] == [1, 0]

    def test_lexicographic_order(self):
        paths = enumerate_paths(mach_zehnder(0))
        assert [p.indices for p in paths] == sorted(p.indices for p in paths)

    def test_zero_weight_paths_kept(self):
        paths = enumerate_paths(mach_zehnder(0, 0))
        zero_weight = [p for p in paths if p.weight == 0]
        assert len(zero_weight) == 2  # the middle mirror never transmits

    def test_weights_recomputable_from_indices(self):
        pd = mach_zehnder(0)
        for path in enumerate_paths(pd):
            w = 1 + 0j
            prev = pd.input
            for layer, k in zip(pd.layers, path.indices):
                w *= layer[k, prev]
                prev = k
            assert w == path.weight

    def test_path_count_law(self):
        rng = np.random.default_rng(0)
        for d in (2, 3):
            for L in (1, 2, 3):
                layers = tuple(linalg.haar_unitary(d, rng) for _ in range(L))
                assert len(enumerate_paths(PathDiagram(d, layers, 0, 0))) == d ** (L - 1)
                assert len(enumerate_paths(PathDiagram(d, layers, 0))) == d**L

    def test_cap_enforced(self, monkeypatch):
        layers = tuple(np.eye(2) for _ in range(21))
        pd = PathDiagram(2, layers, 0)
        with pytest.raises(PathCapExceeded):
            enumerate_paths(pd)  # 2^21 paths exceed the default cap
        small = PathDiagram(2, layers[:5], 0)
        monkeypatch.setattr(pathsum, "DEFAULT_PATH_CAP", 31)
        with pytest.raises(PathCapExceeded):
            enumerate_paths(small)
        monkeypatch.setattr(pathsum, "DEFAULT_PATH_CAP", 32)
        assert len(enumerate_paths(small)) == 32


class TestPathSum:
    def test_mach_zehnder_routes_everything_to_zero(self):
        pd = mach_zehnder(0)
        assert abs(path_sum_amplitude(pd, 0) - 1) <= 1e-10
        assert abs(path_sum_amplitude(pd, 1)) <= 1e-10

    def test_single_hadamard_amplitude(self):
        pd = PathDiagram(2, (HADAMARD,), 0)
        assert abs(path_sum_amplitude(pd, 1) - 1 / np.sqrt(2)) <= 1e-12

    def test_matches_matrix_product_on_random_unitaries(self):
        rng = np.random.default_rng(1)
        for d in (2, 3, 5):
            for L in (2, 3, 4):
                layers = tuple(linalg.haar_unitary(d, rng) for _ in range(L))
                for i in range(d):
                    pd = PathDiagram(d, layers, i)
                    u = composition_matrix(pd)
                    for j in range(d):
                        assert abs(path_sum_amplitude(pd, j) - u[j, i]) <= 1e-10

    def test_accepts_non_unitary_layers(self):
        rng = np.random.default_rng(2)
        layers = tuple(
            rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(3)
        )
        pd = PathDiagram(3, layers, 1)
        u = composition_matrix(pd)
        for j in range(3):
            assert abs(path_sum_amplitude(pd, j) - u[j, 1]) <= 1e-9

    def test_probability_conservation_through_paths(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            layers = tuple(linalg.haar_unitary(d, rng) for _ in range(3))
            pd = PathDiagram(d, layers, 0)
            total = sum(abs(path_sum_amplitude(pd, j)) ** 2 for j in range(d))
            assert abs(total - 1) <= 1e-9

    def test_output_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            path_sum_amplitude(mach_zehnder(0), 2)

    @pytest.mark.parametrize("end", ["output", "input"])
    def test_pinning_an_output_does_not_revalidate_layers(self, end):
        pd = PathDiagram(3, random_layers(np.random.default_rng(4), 3, 4), 1, 0)
        u = composition_matrix(pd)
        with mock.patch.object(linalg, "as_matrix", wraps=linalg.as_matrix) as spy:
            pinned = [pathsum._pinned(pd, **{end: k}) for k in range(pd.dim)]
            sums = [path_sum_amplitude(p, p.output) for p in pinned]
            report = interference_report(pd, 0)
        assert spy.call_count == 0
        assert [getattr(p, end) for p in pinned] == [0, 1, 2]
        assert max(abs(s - u[p.output, p.input]) for p, s in zip(pinned, sums)) <= 1e-10
        assert report.output == 0 and len(report.paths) == 3**3

    def test_layer_order_convention(self):
        # first listed acts first: [H, X] on |0> means X(H|0>), amplitudes (c, c) -> (c, c) swapped
        x_after_h = PathDiagram(2, (HADAMARD, MIRROR), 0)
        u = composition_matrix(x_after_h)
        assert linalg.max_abs_diff(u, linalg.matmul(MIRROR, HADAMARD)) == 0.0

    def test_cap_enforced(self, monkeypatch):
        pd = PathDiagram(3, tuple(np.eye(3) for _ in range(5)), 0)
        monkeypatch.setattr(pathsum, "DEFAULT_PATH_CAP", 80)
        with pytest.raises(PathCapExceeded, match=r"^diagram has 81 paths, exceeding the cap of 80$"):
            path_sum_amplitude(pd, 1)  # 3**4 paths into each output
        monkeypatch.setattr(pathsum, "DEFAULT_PATH_CAP", 81)
        assert path_sum_amplitude(pd, 0) == 1

    def test_streams_in_bounded_memory(self, monkeypatch):
        pd = PathDiagram(2, (HADAMARD,) * 21, 0)
        monkeypatch.setattr(pathsum, "DEFAULT_PATH_CAP", 2**20)
        tracemalloc.start()
        try:
            amplitude = path_sum_amplitude(pd, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(amplitude - composition_matrix(pd)[1, 0]) <= 1e-10
        assert peak < 2**22  # 2**20 paths; one Path object alone takes ~100 bytes


SIX_IDENTITIES = PathDiagram(2, (np.eye(2),) * 6, 0)


@pytest.mark.parametrize("call, count", [
    (lambda: enumerate_paths(SIX_IDENTITIES), 64),
    (lambda: path_sum_amplitude(SIX_IDENTITIES, 1), 32),
    (lambda: interference_report(SIX_IDENTITIES, 1), 32),
], ids=["enumerate_paths", "path_sum_amplitude", "interference_report"])
def test_library_reads_the_cap_when_called(monkeypatch, call, count):
    monkeypatch.setattr(pathsum, "DEFAULT_PATH_CAP", 10)
    with pytest.raises(PathCapExceeded, match=f"^diagram has {count} paths, exceeding the cap of 10$"):
        call()


@pytest.mark.parametrize("command, options, count", [
    ("paths", {"input": 0, "output": FREE}, 64),
    ("verify", {}, 32),
])
def test_commands_read_the_cap_when_called(monkeypatch, command, options, count):
    doc = dsl.Document(dim=2, gates={"I": np.eye(2, dtype=complex)}, circuits={"c": ("I",) * 6})
    monkeypatch.setattr(pathsum, "DEFAULT_PATH_CAP", 10)
    with pytest.raises(cli.CommandError) as exc:
        cli.run_command(doc, command, {"circuit": "c", **options})
    assert exc.value.exit_code == cli.EXIT_CAP
    assert str(exc.value) == f"diagram has {count} paths, exceeding the cap of 10"


def test_every_sum_runs_in_one_loop():
    # Every route that adds path weights streams its blocks through _running_sums.
    doc = dsl.Document(dim=2, gates={"H": HADAMARD}, circuits={"c": ("H",) * 4})
    pd = mach_zehnder(1)
    with mock.patch.object(pathsum, "_weight_blocks", wraps=pathsum._weight_blocks) as blocks, \
            mock.patch.object(pathsum, "_running_sums", wraps=pathsum._running_sums) as sums:
        enumerate_paths(pd)
        path_sum_amplitude(pd, 0)
        pathsum._column_sums(pd)
        interference_report(pd, 1)
        cli.run_command(doc, "paths", {"circuit": "c", "input": 0, "output": FREE})
    assert blocks.call_count == sums.call_count == 6


def oracle_paths(pd):
    """The scalar loop the block engine replaced: (indices, weight) in path order."""
    d, L = pd.dim, pd.n_layers
    if pd.output is FREE:
        all_indices = list(product(range(d), repeat=L))
    else:
        all_indices = [k + (pd.output,) for k in product(range(d), repeat=L - 1)]
    paths = []
    for indices in all_indices:
        w = 1 + 0j
        prev = pd.input
        for layer, k in zip(pd.layers, indices):
            w *= layer[k, prev]
            prev = k
        paths.append((indices, complex(w)))
    return paths


def oracle_sum(pd, j):
    total = 0j
    for _, w in oracle_paths(PathDiagram(pd.dim, pd.layers, pd.input, j)):
        total += w
    return total


def exact(weights):
    """Equal lists mean equal bits: float repr round-trips and shows signed zeros."""
    return [repr(w) for w in weights]


def assert_engine_matches_oracle(pd):
    expected = oracle_paths(pd)
    paths = enumerate_paths(pd)
    assert [p.indices for p in paths] == [k for k, _ in expected]
    assert exact(p.weight for p in paths) == exact(w for _, w in expected)
    for j in range(pd.dim):
        assert exact([path_sum_amplitude(pd, j)]) == exact([oracle_sum(pd, j)])


def random_layers(rng, d, L):
    """Dense complex layers, with signed permutations mixed in for exact zeros."""
    layers = []
    for t in range(L):
        if t % 2:
            signs = rng.choice([-1.0, 1.0], size=(d, d))
            layers.append(np.eye(d)[rng.permutation(d)] * signs + 0j)
        else:
            layers.append(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return tuple(layers)


class TestBlockEngine:
    """Weights, sums and order equal the scalar loop's exactly, not within a tolerance."""

    @pytest.mark.parametrize("block", [1, 4, pathsum._BLOCK])
    @pytest.mark.parametrize("d,L", [(2, 1), (3, 1), (2, 5), (3, 4), (4, 3)])
    def test_matches_scalar_loop(self, monkeypatch, block, d, L):
        monkeypatch.setattr(pathsum, "_BLOCK", block)
        layers = random_layers(np.random.default_rng(10 * d + L), d, L)
        for output in (FREE, d - 1):
            assert_engine_matches_oracle(PathDiagram(d, layers, d // 2, output))

    def test_several_blocks(self, monkeypatch):
        monkeypatch.setattr(pathsum, "_BLOCK", 4)
        pd = PathDiagram(2, random_layers(np.random.default_rng(7), 2, 6), 1)
        blocks = list(pathsum._weight_blocks(pd))
        assert [len(re) for re, _ in blocks] == [4] * 16
        assert_engine_matches_oracle(pd)

    def test_single_layer(self):
        # L = 1: a pinned output leaves no index free to vary within a block
        layer = np.array([[1, 2j], [-3, 0.5]])
        assert [p.weight for p in enumerate_paths(PathDiagram(2, (layer,), 1))] == [2j, 0.5]
        assert [p.weight for p in enumerate_paths(PathDiagram(2, (layer,), 1, 0))] == [2j]
        assert path_sum_amplitude(PathDiagram(2, (layer,), 1), 1) == 0.5

    def test_zero_weights_from_permutation_layers(self):
        pd = PathDiagram(3, (np.eye(3)[[2, 0, 1]], -np.eye(3)[[1, 2, 0]]), 0)
        weights = [p.weight for p in enumerate_paths(pd)]
        assert weights.count(0) == 8
        assert_engine_matches_oracle(pd)


_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.7071067811865476]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@settings(max_examples=60)
@given(data=st.data())
def test_engine_matches_scalar_loop_property(data):
    d = data.draw(st.integers(1, 4), label="d")
    L = data.draw(st.integers(1, 6), label="L")
    parts = data.draw(st.lists(_ENTRY, min_size=2 * L * d * d, max_size=2 * L * d * d))
    values = np.array(parts).reshape(2, L, d, d)
    layers = np.empty((L, d, d), dtype=complex)
    layers.real, layers.imag = values  # keeps signed zeros, which adding 1j * x would not
    i = data.draw(st.integers(0, d - 1), label="input")
    output = data.draw(st.one_of(st.none(), st.integers(0, d - 1)), label="output")
    block = data.draw(st.sampled_from([1, 4, pathsum._BLOCK]), label="block")
    with mock.patch.object(pathsum, "_BLOCK", block):
        assert_engine_matches_oracle(PathDiagram(d, tuple(layers), i, output))


@st.composite
def column_layer(draw, d):
    """A signed permutation (exact and signed zeros) or a dense layer, scaled to overflow or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if draw(st.booleans(), label="permutation"):
        layer = np.empty((d, d), dtype=complex)
        layer.real = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], size=(d, d))
        layer.imag = rng.choice([-0.0, 0.0], size=(d, d))
        return layer
    # Unscaled twice as often as either overflowing scale, so that rounding shows in most sums.
    scale = draw(st.sampled_from([1, 1, 1e160, 1e160j]), label="scale")
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * scale


def dense_layers(d, L):
    """Dense complex layers: every path adds to its column, so the order of additions shows."""
    rng = np.random.default_rng(10 * d + L)
    return tuple(rng.standard_normal((L, d, d)) + 1j * rng.standard_normal((L, d, d)))


def assert_columns_equal_pinned_sums(pd):
    columns = pathsum._column_sums(pd)
    assert list(map(repr, columns)) == [repr(path_sum_amplitude(pd, j)) for j in range(pd.dim)]


class TestColumnSums:
    """Each column of a pass over every output equals that output's pinned sum, bit for bit."""

    @pytest.mark.parametrize("block", [1, 4, 16, pathsum._BLOCK])
    @pytest.mark.parametrize("d,L", [(1, 3), (2, 1), (2, 6), (3, 4), (4, 3)])
    def test_columns_equal_pinned_sums(self, block, d, L):
        layers = dense_layers(d, L)
        with mock.patch.object(pathsum, "_BLOCK", block):
            for i in range(d):
                assert_columns_equal_pinned_sums(PathDiagram(d, layers, i))

    @pytest.mark.parametrize("d,L", [(2, 16), (8, 5)])
    def test_columns_carried_across_full_blocks(self, d, L):
        pd = PathDiagram(d, dense_layers(d, L), 1)
        assert len(list(pathsum._weight_blocks(pd))) > 1
        assert_columns_equal_pinned_sums(pd)

    @settings(max_examples=80)
    @given(data=st.data())
    def test_columns_equal_pinned_sums_property(self, data):
        d = data.draw(st.integers(1, 4), label="d")
        L = data.draw(st.integers(1, 6), label="L")
        layers = tuple(data.draw(column_layer(d), label=f"layer {t}") for t in range(L))
        pd = PathDiagram(d, layers, data.draw(st.integers(0, d - 1), label="input"))
        block = data.draw(st.sampled_from([1, 4, pathsum._BLOCK]), label="block")
        with mock.patch.object(pathsum, "_BLOCK", block), np.errstate(over="ignore", invalid="ignore"):
            assert_columns_equal_pinned_sums(pd)

    def test_cap_counts_the_paths_into_one_output(self, monkeypatch):
        pd = PathDiagram(2, (HADAMARD,) * 3, 0)
        monkeypatch.setattr(pathsum, "DEFAULT_PATH_CAP", 4)
        assert len(pathsum._column_sums(pd)) == 2
        monkeypatch.setattr(pathsum, "DEFAULT_PATH_CAP", 3)
        with pytest.raises(PathCapExceeded, match="^diagram has 4 paths, exceeding the cap of 3$"):
            pathsum._column_sums(pd)


class TestInterference:
    def test_destructive_branch(self):
        report = interference_report(mach_zehnder(0), 1)
        nonzero = sorted(p.weight.real for p in report.paths if p.weight != 0)
        assert len(report.paths) == 4
        assert nonzero == pytest.approx([-0.5, 0.5])
        assert report.magnitude <= 1e-12
        assert report.verdict == "destructive"

    def test_constructive_branch(self):
        report = interference_report(mach_zehnder(0), 0)
        nonzero = [p.weight.real for p in report.paths if p.weight != 0]
        assert nonzero == pytest.approx([0.5, 0.5])
        assert report.verdict == "constructive"

    def test_single_layer_is_constructive(self):
        report = interference_report(PathDiagram(2, (HADAMARD,), 0), 1)
        assert report.verdict == "constructive"
        assert len(report.paths) == 1

    def test_mixed_branch(self):
        # phases at 120 degrees: |sum| is strictly between 0 and the weight sum
        w = np.exp(2j * np.pi / 3)
        layer1 = np.array([[1, 0], [1, 0]], dtype=complex)
        layer2 = np.array([[w, 1], [0, 0]], dtype=complex)
        report = interference_report(PathDiagram(2, (layer1, layer2), 0), 0)
        assert report.verdict == "mixed"

    def test_sums_add_in_path_order(self):
        # Weights 1e16, 1, 1: each 1 rounds away in order; a compensated sum would give 1e16 + 2.
        first = np.zeros((3, 3))
        first[:, 0] = [1e16, 1, 1]
        report = interference_report(PathDiagram(3, (first, np.ones((3, 3))), 0), 0)
        assert [p.weight for p in report.paths] == [1e16, 1, 1]
        assert report.weight_sum == 1e16
        assert report.total == 1e16


class TestLabDiagram:
    def test_node_and_edge_counts(self):
        for d, L in ((2, 3), (3, 2), (2, 1), (4, 4)):
            rng = np.random.default_rng(d * 10 + L)
            layers = tuple(linalg.haar_unitary(d, rng) for _ in range(L))
            lab = emit_lab_diagram(PathDiagram(d, layers, 0))
            assert len(lab.nodes) == d * L + d + 1
            assert len(lab.edges) == L * d**2 + d

    def test_mach_zehnder_diagram(self):
        lab = emit_lab_diagram(mach_zehnder(0))
        assert len(lab.edges) == 3 * 4 + 2
        assert len(lab.input_walks()) == 8

    def test_walks_biject_with_free_paths(self):
        rng = np.random.default_rng(5)
        for d, L in ((2, 3), (3, 2)):
            layers = tuple(linalg.haar_unitary(d, rng) for _ in range(L))
            for i in range(d):
                pd = PathDiagram(d, layers, i)
                walks = emit_lab_diagram(pd).input_walks()
                by_indices = {indices: weight for indices, weight in walks}
                paths = enumerate_paths(pd)
                assert set(by_indices) == {p.indices for p in paths}
                for p in paths:
                    assert abs(by_indices[p.indices] - p.weight) <= 1e-12

    def test_single_identity_layer_fan(self):
        lab = emit_lab_diagram(PathDiagram(2, (np.eye(2),), 0))
        prep_edges = [e for e in lab.edges if e[0] == "prep"]
        assert [w for _, _, w in prep_edges] == [1, 0]

    def test_preparation_edges_carry_input_amplitudes(self):
        lab = emit_lab_diagram(mach_zehnder(1))
        prep = {dst: w for src, dst, w in lab.edges if src == "prep"}
        assert prep == {"L1_k0": 0, "L1_k1": 1}


class TestDot:
    def test_dot_shape(self):
        text = to_dot(emit_lab_diagram(mach_zehnder(0)))
        assert text.startswith("digraph lab {")
        assert text.rstrip().endswith("}")
        assert text.count("->") == 14
        assert '"prep"' in text and '"D1"' in text

    def test_dot_deterministic(self):
        pd = mach_zehnder(0)
        assert to_dot(emit_lab_diagram(pd)) == to_dot(emit_lab_diagram(pd))

    def test_dot_edge_labels_six_digits(self):
        text = to_dot(emit_lab_diagram(mach_zehnder(0)))
        assert 'label="7.07107e-01+0.00000e+00i"' in text

    def test_dot_role_labels_for_qubit_mirrors(self):
        text = to_dot(emit_lab_diagram(mach_zehnder(0)), role_labels=True)
        # the middle mirror only flips the branch: its nonzero edges read R
        assert '"L2_k0" -> "L3_k1" [label="1.00000e+00+0.00000e+00i R"];' in text
        assert '"L2_k0" -> "L3_k0" [label="0.00000e+00+0.00000e+00i T"];' in text
        with pytest.raises(ValueError, match="two-dimensional"):
            rng = np.random.default_rng(0)
            pd = PathDiagram(3, (linalg.haar_unitary(3, rng),), 0)
            to_dot(emit_lab_diagram(pd), role_labels=True)


def test_paths_are_value_objects():
    p = Path((0, 1), 0.5 + 0j)
    assert p == Path((0, 1), 0.5 + 0j)
    with pytest.raises(AttributeError):
        p.weight = 1.0
