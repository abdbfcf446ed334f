"""Small helpers for exact rational vectors."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

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


def over_one_denominator(rows: Iterable[Iterable[Fraction]]) -> tuple[int, list[list[int]]]:
    """``(D, rows * D)``: rows of rationals as integers over their least
    common denominator D."""
    rows = [list(row) for row in rows]
    D = lcm(*(v.denominator for row in rows for v in row))
    return D, [[v.numerator * (D // v.denominator) for v in row] for row in rows]
