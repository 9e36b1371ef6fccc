"""Measurement probabilities, seeded sampling, the expectation test, cup/cap."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qpath import linalg, measure, tensornet
from qpath.measure import (
    HADAMARD,
    MIRROR,
    PHASE_NEG_I,
    MeasurementRecord,
    born_probabilities,
    controlled,
    cup_cap_network,
    hadamard_test,
    sample,
    teleport_check,
)


def random_state(rng, d):
    return rng.standard_normal(d) + 1j * rng.standard_normal(d)


class TestGateLibrary:
    def test_constants_are_unitary(self):
        assert linalg.unitarity_deviation(HADAMARD) <= 1e-12
        assert linalg.unitarity_deviation(MIRROR) <= 1e-12
        assert linalg.unitarity_deviation(PHASE_NEG_I) <= 1e-12

    def test_hadamard_columns(self):
        c = 1 / np.sqrt(2)
        assert linalg.max_abs_diff(HADAMARD @ linalg.basis_ket(2, 0), [c, c]) <= 1e-12
        assert linalg.max_abs_diff(HADAMARD @ linalg.basis_ket(2, 1), [c, -c]) <= 1e-12

    def test_mirror_interchanges_superpositions(self):
        phi = np.array([0.6, 0.8j])
        assert np.array_equal(MIRROR @ phi, np.array([0.8j, 0.6]))


class TestBornProbabilities:
    def test_identity_on_basis_state(self):
        p = born_probabilities(np.eye(2), linalg.basis_ket(2, 0))
        assert p == pytest.approx([1, 0])

    def test_hadamard_splits_evenly(self):
        p = born_probabilities(HADAMARD, linalg.basis_ket(2, 0))
        assert p == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_mach_zehnder_routes_to_zero(self):
        u = HADAMARD @ MIRROR @ HADAMARD
        p = born_probabilities(u, linalg.basis_ket(2, 0))
        assert p == pytest.approx([1, 0], abs=1e-12)

    def test_sums_to_one_for_random_unitaries(self):
        rng = np.random.default_rng(0)
        for d in (2, 3, 5):
            u = linalg.haar_unitary(d, rng)
            psi = linalg.normalize(random_state(rng, d))
            assert abs(born_probabilities(u, psi).sum() - 1) <= 1e-9

    def test_non_unitary_rejected_with_deviation(self):
        with pytest.raises(ValueError, match=r"not unitary.*1\."):
            born_probabilities(np.array([[1, 1], [0, 1]]), linalg.basis_ket(2, 0))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            born_probabilities(np.eye(2), np.array([1.0, 1.0]))


class TestSample:
    def test_certain_outcome(self):
        record = sample([1.0, 0.0], 50, seed=0)
        assert record.counts == (50, 0)

    def test_certain_outcome_on_last_index(self):
        record = sample([0.0, 0.0, 1.0], 7, seed=0)
        assert record.counts == (0, 0, 7)

    def test_deterministic_given_seed(self):
        a = sample([0.5, 0.5], 10_000, seed=42)
        b = sample([0.5, 0.5], 10_000, seed=42)
        assert a == b
        c = sample([0.5, 0.5], 10_000, seed=43)
        assert c != a

    @given(
        weights=st.lists(st.integers(0, 100), min_size=1, max_size=6).filter(any),
        shots=st.integers(1, 2000),
        seed=st.integers(0, 2**64 - 1),
        global_seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)),
    )
    def test_deterministic_whatever_the_global_rng(self, weights, shots, seed, global_seeds):
        p = np.array(weights) / sum(weights)
        saved = np.random.get_state()
        try:
            records = []
            for global_seed in global_seeds:
                np.random.seed(global_seed)
                records.append(sample(p, shots, seed))
        finally:
            np.random.set_state(saved)
        assert records[0] == records[1]

    def test_balanced_counts_within_binomial_bound(self):
        shots = 100_000
        record = sample([0.5, 0.5], shots, seed=42)
        # seed-fixed golden, plus the 4-sigma binomial window
        assert record.counts == (50257, 49743)
        half_width = 4 * np.sqrt(shots * 0.25)
        for count in record.counts:
            assert abs(count - shots / 2) <= half_width

    def test_counts_sum_to_shots(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = rng.random(4)
            p /= p.sum()
            record = sample(p, 1000, seed=int(rng.integers(1 << 30)))
            assert sum(record.counts) == 1000

    def test_invalid_vectors_rejected(self):
        with pytest.raises(ValueError):
            sample([0.5, 0.6], 10, seed=0)
        with pytest.raises(ValueError):
            sample([-0.1, 1.1], 10, seed=0)
        with pytest.raises(ValueError):
            sample([0.5, 0.5], 0, seed=0)

    @pytest.mark.parametrize("shots, seed, message", [
        (2.7, 1, r"^shots must be an integer, got 2\.7$"),
        (2, 1.9, r"^seed must be an integer, got 1\.9$"),
    ])
    def test_non_integer_shots_and_seed_rejected(self, shots, seed, message):
        with pytest.raises(ValueError, match=message):
            sample([0.5, 0.5], shots, seed)

    def test_numpy_integer_shots_and_seed_accepted(self):
        record = sample([0.5, 0.5], np.int64(30), np.uint32(4))
        assert record == sample([0.5, 0.5], 30, 4)
        assert type(record.shots) is int and type(record.seed) is int

    def test_render_format(self):
        record = sample([1.0, 0.0], 3, seed=9)
        assert record.render() == (
            "shots 3\nseed 9\n0 3 1.00000000000e+00\n1 0 0.00000000000e+00\n"
        )

    def test_record_invariant(self):
        with pytest.raises(ValueError, match="sum to shots"):
            MeasurementRecord(shots=5, counts=(1, 1), probabilities=(0.5, 0.5), seed=0)
        with pytest.raises(ValueError, match=r"^probabilities must sum to 1 within 1e-09$"):
            MeasurementRecord(shots=2, counts=(1, 1), probabilities=(0.5, 0.5 + 1e-6), seed=0)

    def test_two_dimensional_vector_rejected(self):
        with pytest.raises(ValueError, match=r"^expected a 1-D probability vector, got shape \(2, 2\)$"):
            sample(np.eye(2) / 2, 10, seed=0)


class TestControlled:
    def test_identity_extends_to_identity(self):
        assert np.array_equal(controlled(np.eye(3)), np.eye(6))

    def test_cnot_action(self):
        cx = controlled(MIRROR)
        one_zero = np.kron(linalg.basis_ket(2, 1), linalg.basis_ket(2, 0))
        one_one = np.kron(linalg.basis_ket(2, 1), linalg.basis_ket(2, 1))
        assert np.array_equal(cx @ one_zero, one_one)

    def test_control_off_leaves_target(self):
        cx = controlled(MIRROR)
        zero_zero = np.kron(linalg.basis_ket(2, 0), linalg.basis_ket(2, 0))
        assert np.array_equal(cx @ zero_zero, zero_zero)

    def test_unitary_iff_block_is(self):
        rng = np.random.default_rng(3)
        for d in (2, 3):
            u = linalg.haar_unitary(d, rng)
            assert linalg.unitarity_deviation(controlled(u)) <= 1e-10
        assert linalg.unitarity_deviation(controlled(np.array([[1, 1], [0, 1]]))) > 1e-10


class TestHadamardTest:
    def test_identity_gives_certainty(self):
        rng = np.random.default_rng(4)
        psi = linalg.normalize(random_state(rng, 2))
        result = hadamard_test(np.eye(2), psi, "real", 100, seed=1)
        assert abs(result.exact_p0 - 1) <= 1e-10

    def test_diag_phase_flip(self):
        result = hadamard_test(np.diag([1, -1]).astype(complex), linalg.basis_ket(2, 1), "real", 100, seed=1)
        assert abs(result.exact_p0) <= 1e-10

    @pytest.mark.parametrize("shots, seed, message", [
        (3.5, 7, r"^shots must be an integer, got 3\.5$"),
        (3, 7.2, r"^seed must be an integer, got 7\.2$"),
    ])
    def test_non_integer_shots_and_seed_rejected(self, shots, seed, message):
        with pytest.raises(ValueError, match=message):
            hadamard_test(MIRROR, linalg.basis_ket(2, 0), "real", shots, seed)

    def test_mirror_expectation_zero(self):
        result = hadamard_test(MIRROR, linalg.basis_ket(2, 0), "real", 100_000, seed=7)
        assert abs(result.exact_p0 - 0.5) <= 1e-10
        assert abs(result.estimate) <= 0.02

    def test_closed_form_identity_random(self):
        rng = np.random.default_rng(5)
        for d in (2, 4):
            for _ in range(25):
                u = linalg.haar_unitary(d, rng)
                psi = linalg.normalize(random_state(rng, d))
                expectation = complex(np.vdot(psi, u @ psi))
                real = hadamard_test(u, psi, "real", 10, seed=0)
                imag = hadamard_test(u, psi, "imag", 10, seed=0)
                assert abs(real.exact_p0 - (0.5 + 0.5 * expectation.real)) <= 1e-10
                assert abs(imag.exact_p0 - (0.5 + 0.5 * expectation.imag)) <= 1e-10

    def test_estimator_converges(self):
        rng = np.random.default_rng(6)
        u = linalg.haar_unitary(2, rng)
        psi = linalg.normalize(random_state(rng, 2))
        exact = complex(np.vdot(psi, u @ psi)).real
        result = hadamard_test(u, psi, "real", 200_000, seed=11)
        assert abs(result.estimate - exact) <= 0.02

    def test_deterministic_given_seed(self):
        a = hadamard_test(MIRROR, linalg.basis_ket(2, 0), "real", 5000, seed=3)
        b = hadamard_test(MIRROR, linalg.basis_ket(2, 0), "real", 5000, seed=3)
        assert a == b

    def test_gate_within_the_unitarity_tolerance(self):
        # deviation 8e-10 <= NORM_TOL; 1/2 + 1/2 Re<psi|u|psi> is off by 2e-10 from the circuit here
        u = np.diag([1.0000000004, 1.0])
        result = hadamard_test(u, linalg.basis_ket(2, 0), "real", 10, seed=1)
        assert linalg.unitarity_deviation(u) <= linalg.NORM_TOL
        assert abs(result.exact_p0 - 1.0000000004) <= 1e-15

    def test_broken_phase_convention_is_caught(self, monkeypatch):
        monkeypatch.setattr(measure, "PHASE_NEG_I", np.diag([1, 1j]))
        psi = np.array([1, 1]) / np.sqrt(2)
        with pytest.raises(ArithmeticError, match="the phase convention is broken$"):
            hadamard_test(np.diag([1, 1j]), psi, "imag", 10, seed=0)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="part"):
            hadamard_test(np.eye(2), linalg.basis_ket(2, 0), "both", 10, seed=0)
        with pytest.raises(ValueError, match="not unitary"):
            hadamard_test(np.array([[1, 1], [0, 1]]), linalg.basis_ket(2, 0), "real", 10, seed=0)
        with pytest.raises(ValueError, match="not normalized"):
            hadamard_test(np.eye(2), np.array([1.0, 1.0]), "real", 10, seed=0)


class TestTeleport:
    def test_identity_passes_basis_state(self):
        check = teleport_check(np.eye(2), linalg.basis_ket(2, 0))
        assert check.agree
        assert linalg.max_abs_diff(check.via_network, linalg.basis_ket(2, 0)) <= 1e-12

    def test_hadamard_on_random_state(self):
        rng = np.random.default_rng(7)
        phi = random_state(rng, 2)
        check = teleport_check(HADAMARD, phi)
        assert check.agree
        assert linalg.max_abs_diff(check.via_network, HADAMARD @ phi) <= 1e-10

    def test_mirror_swaps_amplitudes(self):
        phi = np.array([0.6, 0.8], dtype=complex)
        check = teleport_check(MIRROR, phi)
        assert check.agree
        assert linalg.max_abs_diff(check.via_network, np.array([0.8, 0.6])) <= 1e-10

    def test_random_matrices_and_states(self):
        rng = np.random.default_rng(8)
        for d in (2, 3):
            for _ in range(25):
                m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                phi = random_state(rng, d)
                check = teleport_check(m, phi)
                assert check.agree
                assert linalg.max_abs_diff(check.via_network, check.direct) <= 1e-10

    def test_cup_cap_structure(self):
        net = cup_cap_network(HADAMARD)
        assert set(net.nodes) == {"cap", "cup"}
        assert np.array_equal(net.nodes["cup"].data, np.eye(2))
        assert net.free_legs == (("cap", "in0"), ("cup", "out1"))

    def test_cup_cap_checks_once_and_owns_its_arrays(self, monkeypatch):
        # One square check; both nodes and the wiring are built from checked parts.
        as_square, validate = linalg.as_square, measure.Network._validate
        checks, validated = [], []
        monkeypatch.setattr(linalg, "as_square", lambda v: checks.append(1) or as_square(v))
        monkeypatch.setattr(measure.Network, "_validate",
                            lambda net: validated.append(1) or validate(net))
        m = np.array([[1, 2j], [3, 4]], dtype=complex)
        net = cup_cap_network(m)
        assert (len(checks), len(validated)) == (1, 0)
        cap = net.nodes["cap"].data
        assert cap.flags.c_contiguous and np.array_equal(cap, m.T)
        assert not np.shares_memory(cap, m)
        m[0, 1] = 7
        assert cap[1, 0] == 2j
        assert net.edges == ((("cap", "in1"), ("cup", "out0")),)
        assert [leg for leg, _ in net.nodes["cap"].legs] == ["in0", "in1"]
        assert [leg for leg, _ in net.nodes["cup"].legs] == ["out0", "out1"]

    def test_dimension_mismatch(self):
        with pytest.raises(linalg.ShapeError):
            teleport_check(np.eye(2), np.ones(3))


#: Finite and far from unitary; a product of two of its entries overflows a double.
OVERFLOWING = np.array([[1e200, 1e200], [1e200, -1e200]])


class TestOverflow:
    # The suite turns numpy warnings into errors, so none may escape ahead of the documented error.
    @pytest.mark.parametrize("u", [OVERFLOWING, [[1e200 + 1e200j, 0], [0, 1]]])
    def test_the_unitarity_check_refuses_the_matrix(self, u):
        for call in (lambda: born_probabilities(u, [0, 1]), lambda: hadamard_test(u, [0, 1], "real", 10, 0)):
            with pytest.raises(ValueError, match=r"^matrix is not unitary: max \|U†U - I\| entry is inf$"):
                call()

    def test_amplitude_via_density_returns_the_non_finite_value(self):
        big = OVERFLOWING[0]
        assert repr(tensornet.amplitude_via_density(big, big, OVERFLOWING)) == "(nan+nanj)"

    def test_teleport_check_names_the_overflowing_entry(self):
        with pytest.raises(tensornet.NetworkError, match=r"^entry 0 overflows double precision: contraction "):
            teleport_check(OVERFLOWING, OVERFLOWING[0])

    def test_brute_force_contract_refuses_the_non_finite_result(self):
        m = tensornet.Tensor.from_matrix(OVERFLOWING)
        square = tensornet.Network({"a": m, "b": m}, [(("a", "in"), ("b", "out")), (("b", "in"), ("a", "out"))])
        with pytest.raises(tensornet.NetworkError, match=r"^tensor entries must be finite$"):
            tensornet.brute_force_contract(square)
