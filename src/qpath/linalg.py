"""Dense complex linear algebra for small quantum processes.

Conventions: a matrix is a 2-D complex numpy array, a ket is a 1-D complex
numpy array, a scalar amplitude is a Python complex. Every operation is a
pure function returning a fresh array; inputs are never mutated. Dimensions
in scope are tiny, so storage is dense double precision throughout and no
sparsity or decomposition machinery exists here.

Equality of matrices and states is always tolerance based (max absolute
entry difference); nothing in the public surface compares floats exactly.

Shared checks run once, where a value enters: ``as_matrix``, ``as_state`` and
``as_square`` (shape, finiteness), ``_check_acts_on`` (matrix against state),
``_dim``, ``_index``; ``NORM_TOL`` (norms, unitarity, probability sums) and
``AGREE_TOL`` (two routes to one value); checked arrays go straight to numpy.
Functions read both tolerances when called; no function takes a tolerance
as an argument.
"""

from __future__ import annotations

import operator

import numpy as np

#: Tolerance on a squared norm, a unitarity deviation or a probability sum.
NORM_TOL = 1e-9

#: Absolute amplitude deviation allowed between two routes to the same value.
AGREE_TOL = 1e-10

#: 1/sqrt(2), the balanced-splitter amplitude (equal to math.sqrt(0.5)).
_SQRT1_2 = 0.7071067811865476

__all__ = [
    "NORM_TOL",
    "AGREE_TOL",
    "ShapeError",
    "as_matrix",
    "as_state",
    "as_square",
    "matmul",
    "inner_product",
    "ket_bra",
    "basis_ket",
    "unitarity_deviation",
    "is_normalized",
    "normalize",
    "max_abs_diff",
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


def as_square(values) -> np.ndarray:
    """Coerce with ``as_matrix``, requiring as many rows as columns."""
    m = as_matrix(values)
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_acts_on(m: np.ndarray, v: np.ndarray) -> None:
    if m.shape[1] != v.shape[0]:
        raise ShapeError(
            f"dimension mismatch: matrix is {m.shape[0]}x{m.shape[1]}, "
            f"state has dim {v.shape[0]}"
        )


def _integer(kind: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{kind} must be an integer, got {value}") from None


def _dim(d) -> int:
    d = _integer("dimension", d)
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return d


def _index(kind: str, index, d: int) -> int:
    i = _integer(f"{kind} index", index)
    if not 0 <= i < d:
        raise ValueError(f"{kind} index {index} out of range for dimension {d}")
    return i


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit shape check naming both shapes."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}"
        )
    return a @ b


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


def basis_ket(d: int, i: int) -> np.ndarray:
    """Computational basis ket with a 1 at position ``i``."""
    v = np.zeros(_dim(d), dtype=complex)
    v[_index("basis", i, len(v))] = 1.0
    return v


def unitarity_deviation(m) -> float:
    """Max absolute entry of ``m† m - I`` for a square matrix; inf if a product overflows."""
    m = as_square(m)
    with np.errstate(over="ignore", invalid="ignore"):
        delta = np.abs(m.conj().T @ m - np.eye(m.shape[0]))
    # Finite entries make a nan only by overflow, and a nan passes every `> tol` test.
    worst = float(np.max(delta))
    return np.inf if np.isnan(worst) else worst


def is_normalized(v) -> bool:
    """True iff the squared norm is within ``NORM_TOL`` of 1."""
    v = as_state(v)
    return abs(float(np.vdot(v, v).real) - 1.0) <= NORM_TOL


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
