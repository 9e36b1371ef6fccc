"""Shared numeric text formatting for reproducible reports and golden files."""

from __future__ import annotations


def sci12(x: float) -> str:
    """Format a real number in scientific notation with 12 significant digits."""
    return f"{float(x) + 0.0:.11e}"  # adding 0.0 folds -0.0, so output text is byte-stable


def pair12(z: complex) -> str:
    """Real and imaginary parts, space separated, 12 significant digits each."""
    z = complex(z)
    return f"{sci12(z.real)} {sci12(z.imag)}"


def _overflow(subject: str, *values: tuple[str, complex]) -> str:
    """``<subject> overflows double precision: <label> <pair12 value>, ...``, one pair per value."""
    named = ", ".join(f"{label} {pair12(value)}" for label, value in values)
    return f"{subject} overflows double precision: {named}"


def _entry_key(index: tuple[int, ...]) -> str:
    """The key of a contraction entry: its indices joined by commas, ``-`` for a scalar."""
    return ",".join(map(str, index)) or "-"


def complex6(z: complex) -> str:
    """Compact ``a+bi`` form with 6 significant digits, used for edge labels."""
    z = complex(z)
    re, im = z.real + 0.0, z.imag + 0.0
    sign = "-" if im < 0 else "+"
    return f"{re:.5e}{sign}{abs(im):.5e}i"
