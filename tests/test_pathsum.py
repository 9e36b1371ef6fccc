"""Path enumeration and summation against the matrix-product route."""

import tracemalloc
from dataclasses import fields
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qpath import cli, dsl, linalg, pathsum
from qpath.formatting import pair12, sci12
from qpath.measure import HADAMARD, MIRROR
from qpath.pathsum import (
    FREE,
    Agreement,
    Path,
    PathCapExceeded,
    PathDiagram,
    agreement,
    composition_matrix,
    emit_lab_diagram,
    enumerate_paths,
    interference_report,
    path_sum_amplitude,
    to_dot,
)
from test_cli import BAD_INPUTS, MZ


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

    @pytest.mark.parametrize("layers, error, message", [
        ((np.eye(2), np.eye(2), np.eye(3)), ValueError, r"layer 2 has shape \(3, 3\), expected \(2, 2\)"),
        ((np.eye(2), np.ones((2, 2, 2))), linalg.ShapeError, r"expected a non-empty 2-D matrix, got shape \(2, 2, 2\)"),
        ((np.ones((1, 2, 2)),), linalg.ShapeError, r"expected a non-empty 2-D matrix, got shape \(1, 2, 2\)"),
        ((np.eye(2), np.diag([1, np.nan]), np.eye(3)), ValueError, "matrix entries must be finite"),
        ((np.eye(3), np.diag([1, np.inf])), ValueError, r"layer 0 has shape \(3, 3\), expected \(2, 2\)"),
        ((np.eye(2), np.diag([1, np.inf])), ValueError, "matrix entries must be finite"),
    ], ids=["later-mis-shaped", "3-D", "3-D-stacked", "non-finite-first", "mis-shaped-first", "non-finite"])
    def test_the_first_bad_layer_is_named(self, layers, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            PathDiagram(2, layers, 0)

    def test_layers_are_read_only_views_of_one_copy(self):
        layers = [np.eye(2, dtype=complex), np.array([[0, 1j], [1, 0]])]
        pd = PathDiagram(2, tuple(layers), 0)
        layers[1][0, 1] = 5
        assert pd.layers[1][0, 1] == 1j
        assert pd.layers[0].base is pd.layers[1].base
        with pytest.raises(ValueError):
            pd.layers[1].setflags(write=True)


@pytest.mark.parametrize("name, call", [
    ("enumerate_paths", lambda pd: enumerate_paths(pd)),
    ("path_sum_amplitude", lambda pd: path_sum_amplitude(pd, 0)),
    ("interference_report", lambda pd: interference_report(pd, 0)),
    ("emit_lab_diagram", lambda pd: emit_lab_diagram(pd)),
])
def test_one_input_entry_points_refuse_a_free_input(name, call):
    with pytest.raises(ValueError, match=f"^{name} needs one input index, not a FREE input$"):
        call(PathDiagram(2, (HADAMARD, MIRROR, HADAMARD), FREE))


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
    """A signed, phased or sparse layer (exact and signed zeros) or a dense one, scaled to overflow or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    kind = draw(st.sampled_from(["permutation", "phased", "sparse", "dense"]), label="kind")
    if kind == "permutation":
        layer = np.empty((d, d), dtype=complex)
        layer.real = np.eye(d)[rng.permutation(d)] * rng.choice([-1.0, 1.0], size=(d, d))
        layer.imag = rng.choice([-0.0, 0.0], size=(d, d))
        return layer
    dense = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if kind == "phased":
        # A generalized permutation; multiplying its zeros by the phases signs them.
        scale = draw(st.sampled_from([1, 1e160, 1e-160]), label="scale")
        return np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d)) * scale
    if kind == "sparse":
        # Zeros in random places: some columns keep one nonzero entry, some none, some several.
        return dense * (rng.random((d, d)) < 0.5)
    # Unscaled twice as often as either overflowing scale, so that rounding shows in most sums.
    return dense * draw(st.sampled_from([1, 1, 1e160, 1e160j]), label="scale")


def dense_layers(d, L):
    """Dense complex layers: every path adds to its column, so the order of additions shows."""
    rng = np.random.default_rng(10 * d + L)
    return tuple(rng.standard_normal((L, d, d)) + 1j * rng.standard_normal((L, d, d)))


def assert_columns_equal_pinned_sums(pd):
    columns = pathsum._column_sums(pd)
    assert list(map(repr, columns)) == [repr(path_sum_amplitude(pd, j)) for j in range(pd.dim)]


def per_input_sums(pd):
    """The FREE-output sums of each input's own pass, input by input."""
    return [s for i in range(pd.dim) for s in pathsum._column_sums(pathsum._pinned(pd, input=i))]


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
        free = PathDiagram(d, pd.layers, FREE)
        assert exact(pathsum._column_sums(free)) == exact(per_input_sums(free))

    @settings(max_examples=80)
    @given(data=st.data())
    def test_columns_equal_pinned_sums_property(self, data):
        # Sums skip the paths through zeros; FREE and pinned, each equals the scalar sum over every path.
        d = data.draw(st.integers(1, 4), label="d")
        L = data.draw(st.integers(1, 6), label="L")
        layers = tuple(data.draw(column_layer(d), label=f"layer {t}") for t in range(L))
        pd = PathDiagram(d, layers, data.draw(st.integers(0, d - 1), label="input"))
        block = data.draw(st.sampled_from([1, 4, pathsum._BLOCK]), label="block")
        with mock.patch.object(pathsum, "_BLOCK", block), np.errstate(over="ignore", invalid="ignore"):
            expected = exact(oracle_sum(pd, j) for j in range(d))
            assert exact(pathsum._column_sums(pd)) == expected
            assert exact(pathsum._column_sums(pathsum._pinned(pd, output=j))[0] for j in range(d)) == expected

    @pytest.mark.parametrize("block", [1, 4, 2**14])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_free_input_pass_equals_the_per_input_passes_property(self, block, data):
        # One pass over every input gives each input's pass's sums in order, overflowing scales included.
        d = data.draw(st.integers(1, 4), label="d")
        L = data.draw(st.integers(1, 6), label="L")
        layers = tuple(data.draw(column_layer(d), label=f"layer {t}") for t in range(L))
        output = data.draw(st.one_of(st.none(), st.integers(0, d - 1)), label="output")
        pd = PathDiagram(d, layers, FREE, output)
        with mock.patch.object(pathsum, "_BLOCK", block), np.errstate(over="ignore", invalid="ignore"):
            assert exact(pathsum._column_sums(pd)) == exact(per_input_sums(pd))

    @pytest.mark.parametrize("block", [1, 4, 2**14])
    @settings(max_examples=60)
    @given(data=st.data())
    def test_free_free_pass_equals_the_scalar_sums_property(self, block, data):
        # One pass over every input and output gives each amplitude's scalar sum over every path.
        d = data.draw(st.integers(1, 4), label="d")
        L = data.draw(st.integers(1, 6), label="L")
        layers = tuple(data.draw(column_layer(d), label=f"layer {t}") for t in range(L))
        pd = PathDiagram(d, layers, FREE)
        with mock.patch.object(pathsum, "_BLOCK", block), np.errstate(over="ignore", invalid="ignore"):
            expected = [oracle_sum(pathsum._pinned(pd, input=i), j) for i in range(d) for j in range(d)]
            assert exact(pathsum._column_sums(pd)) == exact(expected)

    @pytest.mark.parametrize("block", [1, 2, pathsum._BLOCK])
    def test_sums_skip_the_paths_through_zeros(self, monkeypatch, block):
        # X and diag(1, i) have one nonzero entry per column: 3 of the 5 layers branch.
        # Blocks of 1 and 2 paths put the layers that do not branch in the head.
        monkeypatch.setattr(pathsum, "_BLOCK", block)
        pd = PathDiagram(2, (HADAMARD, MIRROR, HADAMARD, np.diag([1, 1j]), HADAMARD), 0)
        engine, weights = pathsum._weight_blocks, []

        def counting(*args):
            for re, im in engine(*args):
                weights.append(len(re))
                yield re, im

        monkeypatch.setattr(pathsum, "_weight_blocks", counting)
        free = PathDiagram(2, pd.layers, FREE)
        expected = [oracle_sum(pathsum._pinned(pd, input=i), j) for i in range(2) for j in range(2)]
        assert exact(pathsum._column_sums(free)) == exact(expected)
        assert sum(weights) == 2 * 2**3
        weights.clear()
        paths = enumerate_paths(pd)
        assert sum(weights) == len(paths) == 2**5
        assert sum(p.weight == 0 for p in paths) == 2**5 - 2**3
        assert_engine_matches_oracle(pd)

    def test_cap_counts_the_paths_into_one_output(self, monkeypatch):
        pd = PathDiagram(2, (HADAMARD,) * 3, 0)
        monkeypatch.setattr(pathsum, "DEFAULT_PATH_CAP", 4)
        assert len(pathsum._column_sums(pd)) == 2
        monkeypatch.setattr(pathsum, "DEFAULT_PATH_CAP", 3)
        with pytest.raises(PathCapExceeded, match="^diagram has 4 paths, exceeding the cap of 3$"):
            pathsum._column_sums(pd)


#: The unit roundoff of a double.
U = 2.0**-53


def gamma(k):
    """Higham's gamma_k = k*u / (1 - k*u): the relative error bound of k rounded operations."""
    return k * U / (1 - k * U)


def exact_product(layers):
    """(re, im) object arrays of Fractions: U_L ... U_1 of the float layers, exactly.

    Every double is a rational, so the sums and products of their Fractions
    make no rounding error.
    """
    fraction = np.vectorize(Fraction, otypes=[object])
    re, im = fraction(layers[0].real), fraction(layers[0].imag)
    for layer in layers[1:]:
        lre, lim = fraction(layer.real), fraction(layer.imag)
        re, im = lre.dot(re) - lim.dot(im), lre.dot(im) + lim.dot(re)
    return re, im


@st.composite
def normal_range_layer(draw, d):
    """A dense or phased-permutation layer scaled by 10**k, |k| <= 30, so no product of six leaves the normal range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = 10.0 ** draw(st.integers(-30, 30), label="exponent")
    if draw(st.booleans(), label="dense"):
        return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * scale
    return np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d)) * scale


class TestExactOracle:
    """The matrix route and the path sums lie within a rounding bound of the exact product of the layers.

    Bounds are relative to ``S = |U_L|...|U_1|``, whose (j, i) entry is the
    sum of the moduli of the path weights from i into j. The path route sums
    ``N = d**(L-1)`` weights per amplitude, each a product of L complex
    entries, so it is held within ``2*gamma(N - 1 + 2*L)*S``; the matrix
    route makes L - 1 products whose entries each sum d complex products,
    so it is held within ``2*gamma((L - 1)*(d + 2))*S`` (Higham, *Accuracy
    and Stability of Numerical Algorithms*, ch. 3-4 and section 3.6). N counts
    every path, the skipped ones through exact zeros included, which only
    loosens the path bound. The bounds have no underflow term, so the draws
    keep every partial product in the normal range.
    """

    @settings(max_examples=100)
    @given(data=st.data())
    def test_each_route_lies_within_its_bound_property(self, data):
        d = data.draw(st.integers(2, 4), label="d")
        L = data.draw(st.integers(2, 6), label="L")
        layers = tuple(data.draw(normal_range_layer(d), label=f"layer {t}") for t in range(L))
        re, im = exact_product(layers)
        s = np.abs(layers[0])
        for layer in layers[1:]:
            s = np.abs(layer) @ s
        path_bound, matrix_bound = 2 * gamma(d ** (L - 1) - 1 + 2 * L), 2 * gamma((L - 1) * (d + 2))
        free = pathsum._column_sums(PathDiagram(d, layers, FREE))
        matrix = composition_matrix(PathDiagram(d, layers, 0))
        for i, j in product(range(d), repeat=2):
            def error(z):
                return abs(complex(float(Fraction(z.real) - re[j, i]), float(Fraction(z.imag) - im[j, i])))

            pinned = path_sum_amplitude(PathDiagram(d, layers, i), j)
            assert error(free[i * d + j]) <= path_bound * s[j, i]
            assert error(pinned) <= path_bound * s[j, i]
            assert error(matrix[j, i]) <= matrix_bound * s[j, i]


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


#: Three layers whose products overflow: 1e600 and its sums exceed a double.
OVERFLOWING = PathDiagram(2, (np.array([[1e200, 1e200], [1e200, -1e200]]),) * 3, 0)


class TestOverflow:
    # The suite turns numpy warnings into errors, so none may escape a library call;
    # each returns its non-finite values as documented.
    def test_composition_matrix_is_nan(self):
        u = composition_matrix(OVERFLOWING)
        assert np.isnan(u.real).all() and np.isnan(u.imag).all()

    def test_path_sum_amplitude_is_nan(self):
        assert repr(path_sum_amplitude(OVERFLOWING, 1)) == "(nan+nanj)"

    def test_enumerate_paths_lists_overflowed_weights(self):
        paths = enumerate_paths(OVERFLOWING)
        assert [p.indices for p in paths] == list(product(range(2), repeat=3))
        assert [p.weight.real for p in paths] == [np.inf, np.inf, np.inf, -np.inf, np.inf, np.inf, -np.inf, np.inf]
        assert all(np.isnan(p.weight.imag) for p in paths)

    def test_interference_report_keeps_the_non_finite_sums(self):
        report = interference_report(OVERFLOWING, 1)
        assert [p.indices for p in report.paths] == [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
        assert [p.weight.real for p in report.paths] == [np.inf, -np.inf, np.inf, np.inf]
        assert repr(report.total) == "(nan+nanj)"
        assert np.isnan(report.magnitude) and report.weight_sum == np.inf
        assert report.verdict == "mixed"

    def test_interference_report_weight_sum_overflows_to_inf(self):
        # Two finite weights of 1e308: their sum and the sum of their magnitudes pass the largest double.
        pd = PathDiagram(2, (np.array([[1, 0], [1, 0]]), np.array([[1e308, 1e308], [0, 0]])), 0)
        report = interference_report(pd, 0)
        assert (report.total, report.weight_sum, report.verdict) == (complex(np.inf, 0), np.inf, "mixed")


def circuit_diagram(source, circuit):
    doc = dsl.parse(source).document
    return PathDiagram(doc.dim, tuple(doc.circuit_layers(circuit)), FREE)


#: (name, document, circuit, message): ``verify``'s overflows as the CLI names them, and an inf - inf.
AGREEMENT_OVERFLOWS = [
    (name, source, options["circuit"], message)
    for name, source, command, options, _, message in BAD_INPUTS
    if command == "verify"
] + [(
    "inf - inf", "dim 2\ngate G = [[1e300, 0], [0, 1]]\ncircuit c = G G\n", "c",
    "amplitude (output 0, input 0) overflows double precision: "
    "path sum inf 0.00000000000e+00, matrix product inf nan",
)]


class TestAgreement:
    def test_mach_zehnder_as_the_golden_pins_it(self):
        result = agreement(circuit_diagram(MZ.read_text(), "mz"))
        assert [f.name for f in fields(Agreement)] == ["deviation", "input", "output", "ok"]
        assert sci12(result.deviation) == "4.26642158859e-17"
        assert (result.input, result.output, result.ok) == (0, 1, True)

    # The matrix route is off by a relative 1e-6 at (output 2, input 1); the ends that
    # include it fail there, and the others compare only their own amplitudes.
    @pytest.mark.parametrize("ends, ok", [
        ((FREE, FREE), False), ((1, FREE), False), ((FREE, 2), False), ((1, 2), False),
        ((0, FREE), True), ((2, FREE), True), ((FREE, 1), True), ((0, 2), True),
    ])
    def test_names_the_worst_amplitude_of_its_ends(self, monkeypatch, ends, ok):
        layers = random_layers(np.random.default_rng(7), 3, 4)
        u = composition_matrix(PathDiagram(3, layers, FREE)).copy()
        u[2, 1] *= 1 + 1e-6
        monkeypatch.setattr(pathsum, "composition_matrix", lambda pd: u)
        pd = PathDiagram(3, layers, *ends)
        result = agreement(pd)
        pairs = list(product(pathsum._input_range(pd), pathsum._ranges(pd)[-1]))
        deviations = [abs(path_sum_amplitude(PathDiagram(3, layers, i), j) - u[j, i]) for i, j in pairs]
        worst = max(deviations)
        assert result.deviation == worst
        assert (result.input, result.output) == pairs[deviations.index(worst)]
        assert result.ok is ok
        if not ok:
            assert (result.input, result.output) == (1, 2)
            assert result.deviation == pytest.approx(1e-6 * abs(u[2, 1]), rel=1e-3)

    # No errstate here: the suite turns a numpy warning into an error.
    @pytest.mark.parametrize(
        "source, circuit, message",
        [case[1:] for case in AGREEMENT_OVERFLOWS],
        ids=[case[0] for case in AGREEMENT_OVERFLOWS],
    )
    def test_overflow_raises_the_named_error(self, source, circuit, message):
        pd = circuit_diagram(source, circuit)
        with pytest.raises(ValueError) as exc:
            agreement(pd)
        assert str(exc.value) == message


def block_weights(pd):
    """Each weight as ``complex(re, im)`` of the float parts ``_weight_blocks`` yields, in path order."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [complex(a, b) for re, im in pathsum._weight_blocks(pd) for a, b in zip(re.tolist(), im.tolist())]


class TestPathValues:
    """``enumerate_paths`` and ``interference_report`` take each block's complexes in one pass."""

    def assert_weights_are_the_block_parts(self, pd):
        assert exact(p.weight for p in enumerate_paths(pd)) == exact(block_weights(pd))
        for j in range(pd.dim):
            report = interference_report(pd, j)
            assert exact(p.weight for p in report.paths) == exact(block_weights(pathsum._pinned(pd, output=j)))

    def test_signed_zeros_infinities_and_nans(self):
        first, second = np.array([[1e200, 1], [1, -1]]), np.array([[1e200, -1], [-1e200, 1]])
        pd = PathDiagram(2, (first, second, -MIRROR), 0)
        weights = np.array(block_weights(pd))
        parts = np.concatenate((weights.real, weights.imag))
        assert {np.inf, -np.inf} <= set(parts.tolist()) and np.isnan(parts).any()
        assert (np.signbit(parts) & (parts == 0)).any()
        self.assert_weights_are_the_block_parts(pd)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_weights_are_the_block_parts_property(self, data):
        d = data.draw(st.integers(1, 4), label="d")
        L = data.draw(st.integers(1, 5), label="L")
        layers = [data.draw(column_layer(d), label=f"layer {t}") for t in range(L)]
        i = data.draw(st.integers(0, d - 1), label="input")
        output = data.draw(st.one_of(st.none(), st.integers(0, d - 1)), label="output")
        block = data.draw(st.sampled_from([1, 7, 2**14]), label="block")
        with mock.patch.object(pathsum, "_BLOCK", block):
            self.assert_weights_are_the_block_parts(PathDiagram(d, tuple(layers), i, output))


class TestManyLayers:
    """A block leaves out its axes of length 1, so no number of layers meets numpy's limit of 64 axes."""

    @pytest.mark.parametrize("L", [63, 64, 70, 200])
    def test_dimension_one_gives_the_scalar_product(self, L, tmp_path, capsys):
        rng = np.random.default_rng(L)
        entries = (0.9 + 0.2 * rng.random(L)) * np.exp(2j * np.pi * rng.random(L))
        weight = 1 + 0j
        for c in entries.tolist():
            weight *= c
        pd = PathDiagram(1, tuple(np.reshape(entries, (L, 1, 1))), 0)
        paths = enumerate_paths(pd)
        assert [p.indices for p in paths] == [(0,) * L]
        assert exact(p.weight for p in paths) == exact([weight])
        assert exact([path_sum_amplitude(pd, 0)]) == exact([weight])
        report = interference_report(pd, 0)
        assert exact([report.total, *(p.weight for p in report.paths)]) == exact([weight, weight])
        assert agreement(PathDiagram(1, pd.layers, FREE)).ok

        source = tmp_path / "chain.qpd"
        gates = "".join(f"gate G{t} = [[{dsl.format_complex(c)}]]\n" for t, c in enumerate(entries.tolist()))
        source.write_text(f"dim 1\n{gates}circuit c = {' '.join(f'G{t}' for t in range(L))}\n")
        assert cli.main(["paths", str(source), "--circuit", "c", "--input", "0"]) == cli.EXIT_OK
        key = ",".join(["0"] * L)
        assert capsys.readouterr().out == f"{key} {pair12(weight)} {pair12(weight)}\n"
        assert cli.main(["verify", str(source), "--circuit", "c"]) == cli.EXIT_OK
        assert capsys.readouterr().out.startswith("PASS max_deviation ")

    def test_layers_that_do_not_branch(self, monkeypatch):
        # Sums skip the 66 X layers' zeros, so all but the last of them add an axis of length 1.
        monkeypatch.setattr(pathsum, "DEFAULT_PATH_CAP", 2**70)
        layers = (HADAMARD, *(MIRROR,) * 66)
        u = composition_matrix(PathDiagram(2, layers, FREE))
        result = agreement(PathDiagram(2, layers, FREE))
        assert (result.ok, result.deviation) == (True, 0.0)
        for i, j in product(range(2), repeat=2):
            assert path_sum_amplitude(PathDiagram(2, layers, i), j) == u[j, i]
        doc = dsl.Document(dim=2, gates={"H": HADAMARD, "X": MIRROR}, circuits={"c": ("H", *("X",) * 66)})
        assert cli.run_command(doc, "verify", {"circuit": "c"}) == ("PASS max_deviation 0.00000000000e+00\n", 0)


def reference_walks(lab):
    """The recursion ``input_walks`` replaced: one call per node, a walk appended at a node without out-edges."""
    successors = {}
    for src, dst, w in lab.edges:
        successors.setdefault(src, []).append((dst, pathsum._branch_of(dst), w))
    walks = []

    def descend(node_id, indices, weight):
        nexts = successors.get(node_id)
        if not nexts:
            walks.append((indices, weight))
            return
        for dst, branch, w in nexts:
            descend(dst, indices + (branch,), weight * w)

    descend(f"L1_k{lab.input}", (), 1 + 0j)
    return walks


@st.composite
def ragged_lab_diagram(draw):
    """A DAG in the lab diagram's node ids whose nodes keep any subset of their edges, in any order."""
    d = draw(st.integers(1, 3), label="d")
    L = draw(st.integers(1, 4), label="L")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    edges = []
    for t in range(1, L + 1):
        for b in range(d):
            for k in range(d):
                if rng.random() < 0.6:
                    dst = f"L{t + 1}_k{k}" if t < L and rng.random() < 0.8 else f"D{k}"
                    edges.append((f"L{t}_k{b}", dst, complex(*rng.standard_normal(2))))
    edges = [edges[n] for n in rng.permutation(len(edges))]
    return pathsum.LabDiagram(d, draw(st.integers(0, d - 1), label="input"), L, (), tuple(edges))


def walk_values(walks):
    return [(indices, repr(weight)) for indices, weight in walks]


class TestLabDiagram:
    @settings(max_examples=40)
    @given(data=st.data())
    def test_walks_equal_the_reference_recursion_property(self, data):
        d = data.draw(st.integers(1, 4), label="d")
        L = data.draw(st.integers(1, 5), label="L")
        layers = [data.draw(column_layer(d), label=f"layer {t}") for t in range(L)]
        lab = emit_lab_diagram(PathDiagram(d, tuple(layers), data.draw(st.integers(0, d - 1), label="input")))
        with np.errstate(over="ignore", invalid="ignore"):
            assert walk_values(lab.input_walks()) == walk_values(reference_walks(lab))

    @settings(max_examples=60)
    @given(lab=ragged_lab_diagram())
    def test_ragged_walks_equal_the_reference_recursion_property(self, lab):
        assert walk_values(lab.input_walks()) == walk_values(reference_walks(lab))

    @pytest.mark.parametrize("edges", [(), (("prep", "L1_k0", 1 + 0j), ("L1_k0", "D0", 2 + 0j))],
                             ids=["no edges", "edges elsewhere"])
    def test_start_without_out_edges_is_one_empty_walk(self, edges):
        lab = pathsum.LabDiagram(2, 1, 1, (), edges)
        assert lab.input_walks() == reference_walks(lab) == [((), 1 + 0j)]

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


def test_paths_are_value_objects():
    p = Path((0, 1), 0.5 + 0j)
    assert p == Path((0, 1), 0.5 + 0j)
    with pytest.raises(AttributeError):
        p.weight = 1.0
