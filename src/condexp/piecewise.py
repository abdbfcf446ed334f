"""One-dimensional piecewise utilities over exact rationals.

Everything here works on partitions of [0, 1] (or a sub-interval) given by
strictly increasing breakpoints, and on affine forms ``A + B*t``. These are
the workhorses behind step-function refinement, proportional splits, and
exact envelope integration.  The affine-form helpers and ``merged_pieces``
are exact on int input as well: they never divide, so integer rows over one
denominator stay integers, and a ``Fraction`` appears only where two forms
cross strictly inside a piece.

This module owns the piece-list format shared by step functions, selections
and strategies: a sequence of ``(upto, payload)`` pairs whose uptos increase
strictly and end at 1, piece k covering ``[upto_{k-1}, upto_k)``.  Only this
module walks, merges and checks such lists: ``merged_pieces`` is the one walk
(``clip_pieces`` clips one list to a span) and ``append_piece`` the one merge.
The one storage rule for cells without an inner coordinate (see
``PiecePlan``) and the two payload rules live here too: an index payload is
checked by ``check_index``, a weights payload by ``check_weights``, and an
index turns into its weights by ``unit_vector``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import partial
from numbers import Rational
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from .errors import IndexOutOfRange, SchemaError, WeightInvalid

AffineForm = tuple[Fraction, Fraction]  # (A, B) meaning A + B*t
ZERO = Fraction(0)
ONE = Fraction(1)


def clip_pieces(pieces: Sequence[tuple[Fraction, object]], lo: Fraction, hi: Fraction):
    """Yield (a, b, payload) for the pieces that meet [lo, hi), clipped to it."""
    k = bisect_right(pieces, lo, key=itemgetter(0))
    while lo < hi and k < len(pieces):
        upto, payload = pieces[k]
        yield lo, min(upto, hi), payload
        lo = upto
        k += 1


def append_piece(pieces: list[tuple[Fraction, object]], upto: Fraction, payload) -> None:
    """Append a piece, extending the last one instead when the payloads agree."""
    if pieces and pieces[-1][1] == payload:
        pieces[-1] = (upto, payload)
    else:
        pieces.append((upto, payload))


def check_pieces(
    path: str,
    pieces: Iterable[tuple[Fraction, object]],
    check: Callable[[object], None] | None = None,
) -> None:
    """Raise SchemaError unless the uptos increase strictly and end at 1.

    ``check`` sees each payload right after its upto passes, so faults are
    reported in piece order.
    """
    prev = Fraction(0)
    for upto, payload in pieces:
        if upto <= prev:
            raise SchemaError(path, "breakpoints must increase")
        if check is not None:
            check(payload)
        prev = upto
    if prev != 1:
        raise SchemaError(path, "pieces must end at 1")


def check_index(path: str, k, m: int, label: str = "index") -> None:
    """Raise IndexOutOfRange at ``path`` unless ``k`` is an int in range(m)."""
    if not isinstance(k, int) or not 0 <= k < m:
        raise IndexOutOfRange(path, f"{label} {k!r} is not in range({m})")


def check_weights(path: str, w, m: int) -> None:
    """Raise WeightInvalid at ``path`` unless ``w`` is a tuple or list of m
    rational numbers, each >= 0, summing to 1."""
    if not isinstance(w, (tuple, list)) or len(w) != m:
        raise WeightInvalid(path, f"expected {m} weights")
    if not all(isinstance(x, Rational) and x >= 0 for x in w) or sum(w) != 1:
        raise WeightInvalid(path, "weights must be >= 0 and sum to 1")


def unit_vector(m: int, k: int) -> tuple[Fraction, ...]:
    """The weights of index k among m: one at k, zero elsewhere."""
    return tuple(ONE if j == k else ZERO for j in range(m))


class PiecePlan:
    """Per-cell piece lists keyed by cell id, the base of every piecewise plan.

    A cell with an inner coordinate (``cell.has_inner``) stores a tuple of
    ``(upto, payload)`` pieces; a point cell stores its one payload bare.
    That rule lives only here, in ``convert_entry``: read through ``pieces``,
    every cell is a piece list, a point cell's being ``((1, payload),)``, and
    ``pack_pieces`` turns such a list back into the stored entry.  Subclasses
    expose their mapping of stored entries as ``entries``.
    """

    def pieces(self, cell) -> Sequence[tuple[Fraction, object]]:
        return convert_entry(cell, self.entries[cell.id], _same, _one_piece)

    def mapped(self, cell, fn: Callable[[object], object]):
        """The cell's stored entry with ``fn`` applied to every payload."""
        return pack_pieces(cell, [(upto, fn(payload)) for upto, payload in self.pieces(cell)])

    def check_cells(self, cells, name: str, check: Callable[[object, str, object], None]) -> None:
        """Raise SchemaError at ``name[cell id]`` for a missing entry, a
        malformed piece list or bad breakpoints; ``check(cell, path, payload)``
        sees each payload in piece order, with the cell's path."""
        for cell in cells:
            path = f"{name}[{cell.id}]"
            if cell.id not in self.entries:
                raise SchemaError(path, "missing cell entry")
            pieces = self.pieces(cell)
            if not isinstance(pieces, tuple) or not pieces or not isinstance(pieces[0], tuple):
                raise SchemaError(path, "expected a piece list")
            check_pieces(path, pieces, partial(check, cell, path))


def convert_entry(cell, entry, on_pieces: Callable, on_payload: Callable):
    """``on_pieces(entry)`` for a stored piece list, ``on_payload(entry)`` for
    a point cell's bare payload.  Serialized forms mirror storage, so this
    one dispatch serves them too."""
    return on_pieces(entry) if cell.has_inner else on_payload(entry)


def pack_pieces(cell, pieces: Iterable[tuple[Fraction, object]]):
    """The stored entry for a cell's pieces; a point cell keeps its one payload."""
    return convert_entry(cell, pieces, tuple, _only_payload)


def _same(entry):
    return entry


def _one_piece(payload):
    return ((ONE, payload),)


def _only_payload(pieces):
    ((_upto, payload),) = pieces
    return payload


def merged_pieces(*piece_lists: Sequence[tuple[Fraction, object]]):
    """Walk several [(upto, payload)] partitions of [0, 1] in lockstep.

    Yields (lo, hi, payloads) on the common refinement in one linear pass.
    The lists may instead partition [0, end] for any common last upto, such
    as integer uptos over one denominator.
    This is the one walk over two or more piece lists; ``clip_pieces`` clips
    a single list to a span.
    """
    idx = [0] * len(piece_lists)
    end = piece_lists[0][-1][0]
    lo = end * 0  # zero in the uptos' own type: int lists walk in ints
    while True:
        hi = min(pl[i][0] for pl, i in zip(piece_lists, idx))
        yield lo, hi, tuple(pl[i][1] for pl, i in zip(piece_lists, idx))
        if hi >= end:
            return
        for j, pl in enumerate(piece_lists):
            if pl[idx[j]][0] == hi:
                idx[j] += 1
        lo = hi


def twice_integral(form: AffineForm, lo: Fraction, hi: Fraction) -> Fraction:
    """Twice the integral of A + B*t over [lo, hi), with no division: an int
    on int input."""
    a, b = form
    return 2 * a * (hi - lo) + b * (hi * hi - lo * lo)


def inner_zero(form: AffineForm, lo: Fraction, hi: Fraction) -> Fraction | None:
    """The zero of A + B*t when it lies strictly inside (lo, hi), else None.

    The test is a cross product, so the ``Fraction`` is built only for a zero
    strictly inside; int and ``Fraction`` input alike.
    """
    a, b = form
    num, den = (-a, b) if b > 0 else (a, -b)
    if lo * den < num < hi * den:  # never for B = 0, where den is 0
        return Fraction(num, den)
    return None


def argmax_segments(
    forms: Sequence[AffineForm], lo: Fraction, hi: Fraction
) -> list[tuple[Fraction, Fraction, tuple[int, ...]]]:
    """Partition [lo, hi) so the argmax set of the forms is constant per part.

    Crossing points of distinct forms become breakpoints, so within each open
    part any tie at the midpoint means the tied forms coincide on the part.
    Exact on int or ``Fraction`` input: crossings come from ``inner_zero``,
    and the forms are compared at each part's midpoint through twice their
    value there, 2A + B*(lo + hi), so no division is taken.
    """
    if hi <= lo:
        return []
    cuts = {lo, hi}
    n = len(forms)
    for i in range(n):
        a1, b1 = forms[i]
        for j in range(i + 1, n):
            a2, b2 = forms[j]
            if b1 != b2:
                t = inner_zero((a1 - a2, b1 - b2), lo, hi)
                if t is not None:
                    cuts.add(t)
    points = sorted(cuts)
    segments = []
    for slo, shi in zip(points, points[1:]):
        span = slo + shi
        values = [2 * a + b * span for a, b in forms]
        best = max(values)
        winners = tuple(k for k, v in enumerate(values) if v == best)
        segments.append((slo, shi, winners))
    return segments


def twice_envelope_integral(forms: Sequence[AffineForm], lo: Fraction, hi: Fraction):
    """Twice the integral of max of affine forms over [lo, hi), exact with no
    division: an int on int input unless two forms cross strictly inside."""
    total = 0
    for slo, shi, winners in argmax_segments(forms, lo, hi):
        total += twice_integral(forms[winners[0]], slo, shi)
    return total


def integrate_envelope(forms: Sequence[AffineForm], lo: Fraction, hi: Fraction) -> Fraction:
    """Exact integral of max of affine forms over [lo, hi), on int or
    ``Fraction`` input."""
    return Fraction(twice_envelope_integral(forms, lo, hi), 2)


def proportional_subintervals(
    lo: Fraction,
    hi: Fraction,
    weights: Sequence[Fraction],
    symmetric: bool = False,
) -> list[tuple[Fraction, Fraction, int]]:
    """Split [lo, hi) into index-labelled sub-intervals with given lengths.

    Plain mode lays the sub-intervals left to right in index order.  Symmetric
    mode gives index k a mirrored pair of intervals about the midpoint, so the
    piece assigned to each index keeps the centroid of the whole interval;
    that preserves the integral of every affine function, not just constants.
    Zero weights get no interval.  The sub-intervals come back sorted and
    unmerged; callers merge equal neighbours with ``append_piece``.
    """
    total = sum(weights, Fraction(0))
    if total != 1 or any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative and sum to 1")
    length = hi - lo
    out: list[tuple[Fraction, Fraction, int]] = []
    if not symmetric:
        cursor = lo
        for k, w in enumerate(weights):
            if w == 0:
                continue
            nxt = cursor + w * length
            out.append((cursor, nxt, k))
            cursor = nxt
        return out
    acc = Fraction(0)
    for k, w in enumerate(weights):
        if w == 0:
            continue
        c0 = acc / 2
        c1 = (acc + w) / 2
        out.append((lo + c0 * length, lo + c1 * length, k))
        out.append((hi - c1 * length, hi - c0 * length, k))
        acc += w
    out.sort(key=itemgetter(0))
    return out


def split_pieces(
    pieces: Sequence[tuple[Fraction, Sequence[Fraction]]],
    spans: Iterable[tuple[Fraction, Fraction, bool]],
) -> list[tuple[Fraction, int]]:
    """Split mixture pieces into index pieces, span by span.

    ``pieces`` are ``(upto, weights)`` pieces; ``spans`` are ``(lo, hi,
    symmetric)`` triples, left to right.  Each piece is clipped to the span it
    meets and cut by ``proportional_subintervals`` in the span's mode, so every
    index keeps its measure on each clipped piece (and, in symmetric mode, its
    centroid); equal neighbours merge.  A one-hot piece splits into itself.
    """
    out: list[tuple[Fraction, int]] = []
    for lo, hi, symmetric in spans:
        for a, b, weights in clip_pieces(pieces, lo, hi):
            for _lo, upto, k in proportional_subintervals(a, b, weights, symmetric):
                append_piece(out, upto, k)
    return out
