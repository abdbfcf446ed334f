"""Small helpers for exact rational vectors."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vec = tuple[Fraction, ...]


def vec_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vec_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vec_scale(a: Sequence[Fraction], c: Fraction) -> Vec:
    return tuple(c * x for x in a)


def vec_dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), Fraction(0))


def vec_norm2(a: Sequence[Fraction]) -> Fraction:
    """Squared Euclidean norm, exact."""
    return sum((x * x for x in a), Fraction(0))


def zero_vec(dim: int) -> Vec:
    return tuple(Fraction(0) for _ in range(dim))
