"""Measurement rules, seeded sampling, controlled gates, and the cup/cap check.

Measurement of U|psi> returns basis index i with probability |<i|U|psi>|^2.
Sampling is reproducible: outcomes are drawn with numpy's PCG64 generator
seeded explicitly per call (no global state) through an inverse-CDF lookup
with right-closed bins, so identical (probabilities, shots, seed) give
identical records bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import _SQRT1_2
from .formatting import sci12
from .tensornet import Network, Tensor

__all__ = [
    "HADAMARD",
    "MIRROR",
    "PHASE_NEG_I",
    "MeasurementRecord",
    "born_probabilities",
    "sample",
    "controlled",
    "HadamardTestResult",
    "hadamard_test",
    "cup_cap_network",
    "TeleportCheck",
    "teleport_check",
]

#: Balanced beam splitter: |0> and |1> go to equal-weight superpositions,
#: with a sign flip on the transmitted |1> component.
HADAMARD = np.array([[_SQRT1_2, _SQRT1_2], [_SQRT1_2, -_SQRT1_2]], dtype=complex)

#: Fully silvered mirror: interchanges the two basis states.
MIRROR = np.array([[0, 1], [1, 0]], dtype=complex)

#: Ancilla phase used by the imaginary branch of the expectation test.
PHASE_NEG_I = np.array([[1, 0], [0, -1j]], dtype=complex)


@dataclass(frozen=True)
class MeasurementRecord:
    """Shot counts against theoretical probabilities for one sampling run."""

    shots: int
    counts: tuple[int, ...]
    probabilities: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if sum(self.counts) != self.shots:
            raise ValueError("counts must sum to shots")
        if abs(sum(self.probabilities) - 1.0) > linalg.NORM_TOL:
            raise ValueError(f"probabilities must sum to 1 within {linalg.NORM_TOL}")

    def render(self) -> str:
        """Line-oriented text report: header with shots/seed, then one line
        per outcome with index, count, and theoretical probability."""
        lines = [f"shots {self.shots}", f"seed {self.seed}"]
        for i, (n, p) in enumerate(zip(self.counts, self.probabilities)):
            lines.append(f"{i} {n} {sci12(p)}")
        return "\n".join(lines) + "\n"


def _unitary_and_unit_state(u, psi) -> tuple[np.ndarray, np.ndarray]:
    """Coerce ``u`` and ``psi``, requiring a unitary u that acts on a unit psi."""
    u = linalg.as_matrix(u)
    psi = linalg.as_state(psi)
    deviation = linalg.unitarity_deviation(u)
    if deviation > linalg.NORM_TOL:
        raise ValueError(
            f"matrix is not unitary: max |U†U - I| entry is {deviation:.3e}"
        )
    linalg._check_acts_on(u, psi)
    if not linalg.is_normalized(psi):
        raise ValueError(
            f"state is not normalized: squared norm is {float(np.vdot(psi, psi).real)!r}"
        )
    return u, psi


def born_probabilities(u, psi) -> np.ndarray:
    """Outcome probabilities p_i = |<i|U|psi>|^2 for unitary u and unit psi."""
    u, psi = _unitary_and_unit_state(u, psi)
    amps = u @ psi
    return np.abs(amps) ** 2


def sample(probabilities, shots: int, seed: int) -> MeasurementRecord:
    """Draw ``shots`` outcomes from a probability vector, deterministically.

    Uses PCG64 seeded with ``seed``; each outcome is the smallest index i
    with u <= cum[i] for a uniform u in (0, 1] (right-closed bins, ties at
    bin edges resolved toward the lower index).
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"expected a 1-D probability vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise ValueError("probabilities must be finite and non-negative")
    if abs(float(p.sum()) - 1.0) > linalg.NORM_TOL:
        raise ValueError(f"probabilities sum to {float(p.sum())!r}, expected 1")
    shots = linalg._integer("shots", shots)
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    seed = linalg._integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")

    rng = np.random.default_rng(seed)
    u = 1.0 - rng.random(shots)  # uniform on (0, 1]
    cum = np.cumsum(p)
    idx = np.searchsorted(cum, u, side="left")
    idx = np.minimum(idx, p.size - 1)  # guard the top bin against float drift
    counts = np.bincount(idx, minlength=p.size)
    return MeasurementRecord(
        shots=shots,
        counts=tuple(int(c) for c in counts),
        probabilities=tuple(float(x) for x in p),
        seed=seed,
    )


def controlled(u) -> np.ndarray:
    """Extend u to a controlled gate: block diag(I, u), control on the first
    tensor factor (|0> leaves the identity, |1> applies u)."""
    u = linalg.as_square(u)
    d = u.shape[0]
    out = np.zeros((2 * d, 2 * d), dtype=complex)
    out[:d, :d] = np.eye(d)
    out[d:, d:] = u
    return out


@dataclass(frozen=True)
class HadamardTestResult:
    """Exact and sampled ancilla-0 probability plus the derived estimate."""

    part: str
    exact_p0: float
    sampled_p0: float
    estimate: float
    record: MeasurementRecord


def hadamard_test(u, psi, part: str, shots: int, seed: int) -> HadamardTestResult:
    """Estimate Re or Im of <psi|u|psi> from an ancilla-controlled circuit.

    The ancilla is the first tensor factor. It is prepared with a Hadamard
    (followed by the diag(1, -i) phase for the imaginary branch), controls
    u, and passes through a final Hadamard; the probability of reading 0 on
    the ancilla is then 1/2 + 1/2 Re<psi|u|psi> (or Im for the imaginary
    branch). That identity is recomputed here on every call rather than
    trusted, in the form (|psi|^2 + |u psi|^2)/4 + Re<psi|u|psi>/2, which
    stays exact for the near-unitary u and near-unit psi that ``NORM_TOL``
    lets through. The estimate is 2 * sampled_p0 - 1.
    """
    if part not in ("real", "imag"):
        raise ValueError(f"part must be 'real' or 'imag', got {part!r}")
    u, psi = _unitary_and_unit_state(u, psi)
    d = psi.shape[0]

    ancilla_prep = HADAMARD if part == "real" else PHASE_NEG_I @ HADAMARD
    eye = np.eye(d, dtype=complex)
    circuit = (
        np.kron(HADAMARD, eye) @ controlled(u) @ np.kron(ancilla_prep, eye)
    )
    initial = np.kron(np.array([1, 0], dtype=complex), psi)
    final = circuit @ initial
    exact_p0 = float(np.sum(np.abs(final[:d]) ** 2))

    u_psi = u @ psi
    expectation = complex(np.vdot(psi, u_psi))
    target = expectation.real if part == "real" else expectation.imag
    formula_p0 = 0.25 * float(np.vdot(psi, psi).real + np.vdot(u_psi, u_psi).real) + 0.5 * target
    if abs(exact_p0 - formula_p0) > linalg.AGREE_TOL:
        raise ArithmeticError(
            f"circuit probability {exact_p0!r} disagrees with the closed form "
            f"{formula_p0!r}; the phase convention is broken"
        )

    p0 = min(max(exact_p0, 0.0), 1.0)
    record = sample(np.array([p0, 1.0 - p0]), shots, seed)
    sampled_p0 = record.counts[0] / record.shots
    return HadamardTestResult(
        part=part,
        exact_p0=exact_p0,
        sampled_p0=sampled_p0,
        estimate=2.0 * sampled_p0 - 1.0,
        record=record,
    )


def cup_cap_network(m) -> Network:
    """The bent-wire network that routes a state through matrix m.

    The cup is a rank-2 tensor holding identity entries (both legs outputs,
    the unnormalized maximally entangled pair); the cap holds m with both
    legs as inputs, oriented so that tracing the single arc from the input
    free leg over the cap and cup applies m. Free legs, in order: the cap's
    open input, then the cup's open output.
    """
    m = linalg.as_square(m)
    d = m.shape[0]
    # Each node holds its own C-ordered array; the wiring below is valid by construction.
    cap = Tensor._of_checked((("in0", d), ("in1", d)), m.T.copy())
    cup = Tensor._of_checked((("out0", d), ("out1", d)), np.eye(d, dtype=complex))
    return Network._of_checked(
        {"cap": cap, "cup": cup},
        ((("cap", "in1"), ("cup", "out0")),),
        (("cap", "in0"), ("cup", "out1")),
    )


@dataclass(frozen=True)
class TeleportCheck:
    """Cup/cap contraction result against the direct matrix product."""

    via_network: np.ndarray
    direct: np.ndarray
    agree: bool


def teleport_check(m, phi) -> TeleportCheck:
    """Verify the bent-wire identity: inserting |phi> into the cup/cap
    network for m and contracting yields m @ phi within ``linalg.AGREE_TOL``."""
    m = linalg.as_matrix(m)
    phi = linalg.as_state(phi)
    linalg._check_acts_on(m, phi)
    net = cup_cap_network(m).insert_ket(("cap", "in0"), phi)
    via_network = np.asarray(net.contract().data)
    direct = m @ phi
    agree = bool(linalg.max_abs_diff(via_network, direct) <= linalg.AGREE_TOL)
    return TeleportCheck(via_network=via_network, direct=direct, agree=agree)
