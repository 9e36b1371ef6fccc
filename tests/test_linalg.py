"""Core linear algebra: products, inner and outer products, unitarity, states, checks."""

import inspect
from pathlib import Path

import numpy as np
import pytest

import qpath
from qpath import cli, dsl, formatting, linalg, measure, pathsum, tensornet
from qpath.measure import HADAMARD, MIRROR


def random_state(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


@pytest.mark.parametrize("takes_square", [
    linalg.unitarity_deviation,
    measure.controlled,
    measure.cup_cap_network,
    tensornet.trace_network,
    lambda m: tensornet.amplitude_via_density(np.ones(2), np.ones(2), m),
], ids=["unitarity_deviation", "controlled", "cup_cap_network", "trace_network",
        "amplitude_via_density"])
def test_square_check_has_one_error(takes_square):
    with pytest.raises(linalg.ShapeError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
        takes_square(np.ones((2, 3)))


def _mixed_branch_verdict():
    # test_mixed_branch's diagram: |sum| 1 against a weight sum of 2
    w = np.exp(2j * np.pi / 3)
    layers = (np.array([[1, 0], [1, 0]]), np.array([[w, 1], [0, 0]]))
    return pathsum.interference_report(pathsum.PathDiagram(2, layers, 0), 0).verdict


def _verify_mz_exit_code():
    doc = dsl.parse_bytes((Path(__file__).parent / "golden" / "mz.qpd").read_bytes()).document
    return cli.run_command(doc, "verify", {"circuit": "mz"})[1]


@pytest.mark.parametrize("name, value, result, expected", [
    ("AGREE_TOL", 10, _mixed_branch_verdict, "constructive"),
    ("AGREE_TOL", -1,
     lambda: measure.teleport_check(np.eye(2), linalg.basis_ket(2, 0)).agree, False),
    ("AGREE_TOL", -1, _verify_mz_exit_code, cli.EXIT_VERIFY),
    ("AGREE_TOL", -1,
     lambda: pathsum.agreement(pathsum.PathDiagram(2, (HADAMARD, MIRROR, HADAMARD), pathsum.FREE)).ok, False),
    ("NORM_TOL", 10, lambda: linalg.is_normalized([2, 0]), True),
], ids=["interference_report", "teleport_check", "verify", "agreement", "is_normalized"])
def test_tolerances_are_read_when_called(monkeypatch, name, value, result, expected):
    monkeypatch.setattr(linalg, name, value)
    assert result() == expected


@pytest.mark.parametrize("call, message", [
    (lambda: linalg.basis_ket(2, 1.9), "basis index must be an integer, got 1.9"),
    (lambda: linalg.basis_ket(2.0, 1), "dimension must be an integer, got 2.0"),
    (lambda: pathsum.PathDiagram(2, (HADAMARD,), np.float64(0.0)), "input index must be an integer, got 0.0"),
    (lambda: pathsum.path_sum_amplitude(pathsum.PathDiagram(2, (HADAMARD,), 0), 1.2),
     "output index must be an integer, got 1.2"),
], ids=["basis_ket index", "basis_ket dim", "PathDiagram input", "path_sum_amplitude output"])
def test_indices_and_dimensions_are_not_truncated(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_numpy_integers_are_indices_and_dimensions():
    assert linalg.basis_ket(np.int64(3), np.int32(1)).tolist() == [0, 1, 0]
    assert linalg.basis_ket(np.uint8(2), 0).shape == (2,)
    assert pathsum.PathDiagram(np.int64(2), (HADAMARD,), np.int16(1)).input == 1


def _functions(module):
    """The module's own functions and the methods of its own classes."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            yield from filter(inspect.isfunction, (getattr(m, "__func__", m) for m in vars(obj).values()))
        elif inspect.isfunction(obj):
            yield obj


def test_no_cap_or_tolerance_is_bound_at_import():
    # Caps and tolerances are module constants read when called: no function
    # takes one as an argument, with or without a default.
    taken = [
        f"{f.__module__}.{f.__qualname__}({p.name})"
        for module in (cli, dsl, formatting, linalg, measure, pathsum, tensornet)
        for f in _functions(module)
        for p in inspect.signature(f).parameters.values()
        if p.name in ("cap", "tol")
    ]
    assert taken == []


def test_package_exports_each_modules_all():
    # Each module's __all__ is the one list of qpath's public names.
    modules = (linalg, measure, pathsum, tensornet, dsl)
    missing = object()
    differ = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if getattr(qpath, name, missing) is not getattr(module, name)
    ]
    assert differ == []
    public = {n for n, v in vars(qpath).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert public == {name for module in modules for name in module.__all__}


class TestMatmul:
    def test_identity_absorbs(self):
        assert linalg.max_abs_diff(linalg.matmul(np.eye(2), HADAMARD), HADAMARD) == 0.0

    def test_hadamard_squares_to_identity(self):
        # (1/sqrt2)^2 + (1/sqrt2)^2 = 1 on the diagonal, 1/2 - 1/2 = 0 off it
        product = linalg.matmul(HADAMARD, HADAMARD)
        assert linalg.max_abs_diff(product, np.eye(2)) <= 1e-12

    def test_hxh_is_diag_1_minus1(self):
        product = linalg.matmul(linalg.matmul(HADAMARD, MIRROR), HADAMARD)
        assert linalg.max_abs_diff(product, np.diag([1.0, -1.0])) <= 1e-12

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(linalg.ShapeError, match=r"2x2 by 3x3"):
            linalg.matmul(np.eye(2), np.eye(3))


class TestInnerProduct:
    def test_orthonormal_basis_pairings(self):
        e0, e1 = linalg.basis_ket(2, 0), linalg.basis_ket(2, 1)
        assert linalg.inner_product(e0, e0) == 1
        assert linalg.inner_product(e0, e1) == 0

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b = random_state(rng, 4), random_state(rng, 4)
            lhs = linalg.inner_product(a, b)
            rhs = np.conj(linalg.inner_product(b, a))
            assert abs(lhs - rhs) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(linalg.ShapeError):
            linalg.inner_product(np.ones(2), np.ones(3))


class TestKetBra:
    def test_projector_on_zero(self):
        e0 = linalg.basis_ket(2, 0)
        assert np.array_equal(linalg.ket_bra(e0, e0), np.array([[1, 0], [0, 0]], dtype=complex))

    def test_square_rule(self):
        # P = |A><B| satisfies P^2 = <B|A> P
        rng = np.random.default_rng(5)
        for _ in range(30):
            a = linalg.normalize(random_state(rng, 3))
            b = linalg.normalize(random_state(rng, 3))
            p = linalg.ket_bra(a, b)
            lhs = linalg.matmul(p, p)
            rhs = linalg.inner_product(b, a) * p
            assert linalg.max_abs_diff(lhs, rhs) <= 1e-10

    def test_completeness_over_computed_basis(self):
        # sum_i |C_i><C_i| = 1 for an orthonormal basis from a QR factorization
        rng = np.random.default_rng(9)
        for d in (2, 3, 5):
            u = linalg.haar_unitary(d, rng)
            total = sum(linalg.ket_bra(u[:, i], u[:, i]) for i in range(d))
            assert linalg.max_abs_diff(total, np.eye(d)) <= 1e-10

    def test_rectangular_allowed(self):
        out = linalg.ket_bra(np.ones(3), np.ones(2))
        assert out.shape == (3, 2)


class TestUnitarity:
    def test_hadamard_is_unitary(self):
        assert linalg.unitarity_deviation(HADAMARD) <= 1e-10

    def test_shear_is_not(self):
        assert linalg.unitarity_deviation(np.array([[1, 1], [0, 1]])) > 1e-10

    @pytest.mark.parametrize("m", [[[1e200, 1e200], [1e200, -1e200]], [[1e200 + 1e200j, 0], [0, 1]]])
    def test_an_overflowing_product_is_infinitely_far(self, m):
        # The second matrix's U†U has a nan+nanj entry, which would pass any `deviation > tol` test.
        assert linalg.unitarity_deviation(m) == np.inf

    def test_qr_construction_is_unitary(self):
        rng = np.random.default_rng(23)
        for d in (2, 3, 5):
            assert linalg.unitarity_deviation(linalg.haar_unitary(d, rng)) <= 1e-10

    def test_preserves_inner_products(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            u = linalg.haar_unitary(d, rng)
            v, w = random_state(rng, d), random_state(rng, d)
            before = linalg.inner_product(v, w)
            after = linalg.inner_product(u @ v, u @ w)
            assert abs(after - before) <= 1e-9


class TestStates:
    def test_projector_law(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            a = linalg.normalize(random_state(rng, 4))
            p = linalg.ket_bra(a, a)
            assert linalg.max_abs_diff(linalg.matmul(p, p), p) <= 1e-10

    def test_resolution_of_identity_reconstructs(self):
        rng = np.random.default_rng(37)
        for d in (2, 3, 4):
            basis = linalg.haar_unitary(d, rng)
            a = random_state(rng, d)
            rebuilt = sum(
                linalg.inner_product(basis[:, i], a) * basis[:, i] for i in range(d)
            )
            assert linalg.max_abs_diff(rebuilt, a) <= 1e-10

    def test_normalize_flags(self):
        v = np.array([3.0, 4.0])
        assert not linalg.is_normalized(v)
        n = linalg.normalize(v)
        assert linalg.is_normalized(n)
        with pytest.raises(ValueError):
            linalg.normalize(np.zeros(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            linalg.as_matrix(np.array([[np.nan, 0], [0, 1]]))
        with pytest.raises(ValueError):
            linalg.as_state(np.array([np.inf, 0]))

    def test_state_must_be_one_dimensional(self):
        with pytest.raises(linalg.ShapeError, match=r"got shape \(2, 2\)$"):
            linalg.as_state(np.eye(2))

    def test_identity_of_dimension_zero_rejected(self):
        with pytest.raises(ValueError, match=r"^dimension must be positive, got 0$"):
            linalg.basis_ket(0, 0)

    def test_max_abs_diff_of_empty_arrays_is_zero(self):
        assert linalg.max_abs_diff(np.zeros(0), np.zeros(0)) == 0.0


def test_equality_is_tolerance_based():
    a = np.eye(2)
    b = np.eye(2) + 1e-12
    assert linalg.max_abs_diff(a, b) <= 1e-10
    assert linalg.max_abs_diff(a, b) > 1e-14
    with pytest.raises(linalg.ShapeError):
        linalg.max_abs_diff(np.eye(2), np.eye(3))
