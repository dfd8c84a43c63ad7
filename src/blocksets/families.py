"""The three extremal families: Hermitian unitals, Baer complements, and
planes minus a point, plus the combinatorial family test for found sets."""

from __future__ import annotations

from enum import Enum
from math import isqrt
from typing import Iterable

from . import blocking
from .plane import IncidencePlane, PlaneFormatError, header_value, read_rows


class FamilyLabel(Enum):
    UNITAL = "Unital"
    BAER_COMPLEMENT = "BaerComplement"
    PLANE_MINUS_POINT = "PlaneMinusPoint"
    UNCLASSIFIED = "Unclassified"


class PointSet:
    """A subset of plane points stored as a bitmask over point indices."""

    __slots__ = ("plane", "mask", "size")

    def __init__(self, plane: IncidencePlane, mask: int):
        if mask < 0 or mask >> plane.num_points:
            raise ValueError("mask has bits outside the point universe")
        self.plane = plane
        self.mask = mask
        self.size = mask.bit_count()

    @classmethod
    def from_indices(cls, plane: IncidencePlane, indices: Iterable[int]) -> "PointSet":
        mask = 0
        for i in indices:
            if not 0 <= i < plane.num_points:
                raise ValueError(f"point index {i} out of range")
            mask |= 1 << i
        return cls(plane, mask)

    def indices(self) -> tuple[int, ...]:
        """The set's points in increasing order, read from the binary digits
        of its mask a run of consecutive points at a time, so that a set of
        a few points, or of a few runs, costs a few steps in any plane."""
        digits = bin(self.mask)[:1:-1] + "0"  # digits[i] is bit i
        out = []
        i = digits.find("1")
        while i >= 0:
            if digits[i + 1] == "1":
                end = digits.find("0", i)
                out += range(i, end)
            else:
                end = i + 1
                out.append(i)
            i = digits.find("1", end)
        return tuple(out)

    def complement(self) -> "PointSet":
        return PointSet(self.plane, self.mask ^ ((1 << self.plane.num_points) - 1))

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.plane.num_points and bool(self.mask >> index & 1)

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other):
        return (
            isinstance(other, PointSet)
            and self.mask == other.mask
            and (self.plane is other.plane or self.plane == other.plane)
        )

    def __hash__(self):
        return hash((self.plane.order, self.mask))

    def __repr__(self):
        return f"PointSet(order={self.plane.order}, size={self.size})"


def _conjugates(plane: IncidencePlane) -> list[int]:
    """The map a -> a^r on GF(r^2), the plane's field, as a list over the
    element indices; it needs the plane's coordinates and an even degree."""
    f = plane.field
    if f is None:
        raise ValueError("plane has no coordinate map")
    if f.k % 2:
        raise ValueError("field degree must be even")
    r = f.p ** (f.k // 2)
    return [f.pow(a, r) for a in f.elements()]


def hermitian_unital(plane: IncidencePlane) -> PointSet:
    """Points (x:y:z) of PG(2, q^2) with N(x) + N(y) + N(z) = 0.

    N(a) = a * a^q is the norm down to GF(q), so the set is the classical
    unital of size q^3 + 1; every line meets it in 1 or q+1 points.
    """
    conj = _conjugates(plane)
    add, _, mul, _ = plane.field.int_tables()
    norm = [mul[a][c] for a, c in enumerate(conj)]
    mask = 0
    for idx, (x, y, z) in enumerate(plane.point_coords):
        if add[add[norm[x]][norm[y]]][norm[z]] == 0:
            mask |= 1 << idx
    return PointSet(plane, mask)


def baer_subplane(plane: IncidencePlane) -> PointSet:
    """The canonical subplane PG(2, q) inside PG(2, q^2): the points whose
    coordinates are all fixed by a -> a^q.

    Membership is tested on the normalized representative, coordinate by
    coordinate, so it does not depend on the choice of representative.
    """
    sub = [c == a for a, c in enumerate(_conjugates(plane))]
    mask = 0
    for idx, (x, y, z) in enumerate(plane.point_coords):
        if sub[x] and sub[y] and sub[z]:
            mask |= 1 << idx
    return PointSet(plane, mask)


def baer_complement(plane: IncidencePlane) -> PointSet:
    """Complement of the canonical Baer subplane; size n^2 - sqrt(n)."""
    return baer_subplane(plane).complement()


def plane_minus_point(plane: IncidencePlane, point: int) -> PointSet:
    """All points except one; works for any plane, coordinates not needed."""
    if not 0 <= point < plane.num_points:
        raise ValueError(f"point index {point} out of range")
    return PointSet(plane, ((1 << plane.num_points) - 1) ^ (1 << point))


def characterize(point_set: PointSet) -> FamilyLabel:
    """Family label for a set already verified as extremal.

    Tests the defining line-intersection patterns in the set's own plane,
    not isomorphism to a particular model, so non-classical members of a
    family are accepted.  The label is computed from the set alone.
    """
    n = point_set.plane.order
    comp = point_set.complement()
    if comp.size == 1:
        return FamilyLabel.PLANE_MINUS_POINT
    r = isqrt(n)
    if r * r == n:
        baer_values = {1, r + 1}
        if comp.size == n + r + 1:
            if set(blocking.spectrum(comp)) <= baer_values:
                return FamilyLabel.BAER_COMPLEMENT
        if point_set.size == n * r + 1:
            if set(blocking.spectrum(point_set)) <= baer_values:
                return FamilyLabel.UNITAL
    return FamilyLabel.UNCLASSIFIED


def format_point_set(point_set: PointSet) -> str:
    """A point set as text: 'order <n>', 'size <m>', then sorted indices."""
    indices = " ".join(str(i) for i in point_set.indices())
    return f"order {point_set.plane.order}\nsize {point_set.size}\n{indices}\n"


def save_point_set(point_set: PointSet, path) -> None:
    """Write ``format_point_set(point_set)`` to a file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_point_set(point_set))


def load_point_set(path, plane: IncidencePlane) -> PointSet:
    """Read a point-set file and attach it to the given plane.

    Format: ``order <n>``, ``size <m>``, then one line of the m sorted,
    distinct point indices (absent when m = 0).  Blank lines and lines
    starting with ``#`` are skipped; any other row is an error.  Problems
    are reported with their file line number.
    """
    rows = read_rows(path)
    if not rows:
        raise PlaneFormatError("empty point-set file")

    order = header_value(rows[0], "order", "n")
    if order != plane.order:
        raise PlaneFormatError(
            f"line {rows[0][0]}: order mismatch: file has {order}, plane has {plane.order}"
        )
    if len(rows) < 2:
        raise PlaneFormatError(f"line {rows[0][0]}: no 'size <m>' line follows")
    size = header_value(rows[1], "size", "m")
    if len(rows) > 3:
        raise PlaneFormatError(f"line {rows[3][0]}: unexpected row after the index line")

    lineno = rows[-1][0]
    indices: list[int] = []
    if len(rows) == 3:
        try:
            indices = [int(tok) for tok in rows[2][1].split()]
        except ValueError:
            raise PlaneFormatError(f"line {lineno}: non-integer point index") from None
    if len(indices) != size:
        raise PlaneFormatError(
            f"line {lineno}: size field {size} != {len(indices)} listed indices"
        )
    if indices != sorted(set(indices)):
        raise PlaneFormatError(f"line {lineno}: indices must be sorted and distinct")
    try:
        return PointSet.from_indices(plane, indices)
    except ValueError as exc:
        raise PlaneFormatError(f"line {lineno}: {exc}") from None
