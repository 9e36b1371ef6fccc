"""Dense complex linear algebra for small quantum processes.

Conventions: a matrix is a 2-D complex numpy array, a ket is a 1-D complex
numpy array, a scalar amplitude is a Python complex. Every operation is a
pure function returning a fresh array; inputs are never mutated. Dimensions
in scope are tiny, so storage is dense double precision throughout and no
sparsity or decomposition machinery exists here.

Equality of matrices and states is always tolerance based (max absolute
entry difference); nothing in the public surface compares floats exactly.
"""

from __future__ import annotations

import numpy as np

#: Tolerance on the squared norm for a state to count as normalized.
NORM_TOL = 1e-9

#: 1/sqrt(2), the balanced-splitter amplitude (equal to math.sqrt(0.5)).
_SQRT1_2 = 0.7071067811865476

__all__ = [
    "NORM_TOL",
    "ShapeError",
    "as_matrix",
    "as_state",
    "matmul",
    "dagger",
    "inner_product",
    "ket_bra",
    "trace",
    "tensor_product",
    "identity",
    "basis_ket",
    "unitarity_deviation",
    "is_unitary",
    "norm",
    "is_normalized",
    "normalize",
    "max_abs_diff",
    "equal_within",
    "haar_unitary",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


def as_matrix(values) -> np.ndarray:
    """Coerce to a non-empty 2-D complex array, rejecting non-finite entries."""
    m = np.asarray(values, dtype=complex)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ShapeError(f"expected a non-empty 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_state(values) -> np.ndarray:
    """Coerce to a non-empty 1-D complex array, rejecting non-finite entries."""
    v = np.asarray(values, dtype=complex)
    if v.ndim != 1 or v.shape[0] == 0:
        raise ShapeError(f"expected a non-empty 1-D state vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("state amplitudes must be finite")
    return v


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit shape check naming both shapes."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


def dagger(m) -> np.ndarray:
    """Conjugate transpose. Involutive and product-reversing exactly."""
    return as_matrix(m).conj().T.copy()


def inner_product(a, b) -> complex:
    """Complex inner product, conjugate-linear in the first argument."""
    a = as_state(a)
    b = as_state(b)
    if a.shape != b.shape:
        raise ShapeError(f"state dimensions differ: {a.shape[0]} vs {b.shape[0]}")
    return complex(np.vdot(a, b))


def ket_bra(a, b) -> np.ndarray:
    """Outer product: result[i, j] = a[i] * conj(b[j]). Rectangular allowed."""
    return np.outer(as_state(a), as_state(b).conj())


def trace(m) -> complex:
    """Sum of diagonal entries of a square matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"trace requires a square matrix, got shape {m.shape}")
    return complex(np.trace(m))


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two matrices."""
    return np.kron(as_matrix(a), as_matrix(b))


def identity(d: int) -> np.ndarray:
    """Complex identity matrix of dimension ``d``."""
    if int(d) < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return np.eye(int(d), dtype=complex)


def basis_ket(d: int, i: int) -> np.ndarray:
    """Computational basis ket with a 1 at position ``i``."""
    if not 0 <= int(i) < int(d):
        raise ValueError(f"basis index {i} out of range for dimension {d}")
    v = np.zeros(int(d), dtype=complex)
    v[int(i)] = 1.0
    return v


def unitarity_deviation(m) -> float:
    """Max absolute entry of ``m† m - I`` for a square matrix."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"unitarity check requires a square matrix, got shape {m.shape}")
    delta = m.conj().T @ m - np.eye(m.shape[0])
    return float(np.max(np.abs(delta)))


def is_unitary(m, tol: float) -> bool:
    """True iff the max absolute entry of ``m† m - I`` is at most ``tol``."""
    return unitarity_deviation(m) <= tol


def norm(v) -> float:
    """Euclidean norm of a state vector."""
    return float(np.linalg.norm(as_state(v)))


def is_normalized(v, tol: float = NORM_TOL) -> bool:
    """True iff the squared norm is within ``tol`` of 1."""
    v = as_state(v)
    return abs(float(np.vdot(v, v).real) - 1.0) <= tol


def normalize(v) -> np.ndarray:
    """Scaled copy with unit norm. Normalization is always explicit, never silent."""
    v = as_state(v)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return v / n


def max_abs_diff(a, b) -> float:
    """Max absolute entry difference between two same-shaped arrays."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b)))


def equal_within(a, b, tol: float) -> bool:
    """Tolerance-based equality on the max absolute entry difference."""
    return max_abs_diff(a, b) <= tol


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random unitary from the QR decomposition of a complex Gaussian matrix.

    The R-diagonal phases are divided out so the distribution does not
    degenerate; good enough for property tests at desk scale.
    """
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases
