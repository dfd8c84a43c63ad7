"""Projective planes as explicit point/line incidence structures.

Points and lines of PG(2, q) are homogeneous triples of GF(q) element
indices, normalized so the first nonzero coordinate equals 1 and numbered in
lexicographic order: (0:0:1) is point 0, (0:1:z) is point 1+z and (1:y:z)
is point 1+q+q*y+z, and line j is the dual of point j.  Planes of arbitrary
order can also be loaded from text files; only the Desarguesian constructor
assumes coordinates exist.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import getitem

from .gf import FieldSpec, prime_power

MAX_PLANE_FIELD_ORDER = 128
_UNDECODED_BYTE = re.compile("[\udc80-\udcff]")
_REFUSED_OUTSIDE_COMMENTS = re.compile("[+_]|[^\t\x20-\x7e]")


class PlaneFormatError(ValueError):
    """Raised when a plane or point-set file violates its format contract."""


class IncidencePlane:
    """A projective plane of order n as indexed points and sorted line lists.

    Immutable after construction.  The point universe is 0 .. n^2+n, and each
    line is stored as a sorted tuple of point indices.  A point index out of
    range or a line that repeats a point raises ValueError.  The incidence
    indices, ``line_masks`` (a bitmask over the universe per line, for fast
    intersection counting) and ``point_lines`` (the lines through each
    point), are computed from the lines on first use.  A plane from
    ``build_desarguesian_plane`` also computes its ``lines`` on first read,
    so a plane that is only built to construct a family never pays for them.
    """

    def __init__(self, order: int, lines):
        if order < 2:
            raise ValueError("plane order must be at least 2")
        num_points = order * order + order + 1
        checked = []
        for j, line in enumerate(lines):
            pts = tuple(sorted(line))
            if pts and not (0 <= pts[0] and pts[-1] < num_points):
                bad = next(i for i in pts if not 0 <= i < num_points)
                raise ValueError(f"point index {bad} out of range")
            if len(set(pts)) != len(pts):
                raise ValueError(f"line {j} repeats a point")
            checked.append(pts)
        self._fill(order, tuple(checked), None, None)

    @classmethod
    def _unchecked(cls, order, lines, fieldspec=None, point_coords=None) -> IncidencePlane:
        """A plane on lines already known to be sorted tuples of distinct
        in-range indices; ``lines=None`` leaves the n^2+n+1 lines of PG(2, n)
        to be made from ``fieldspec`` and ``point_coords`` on first read."""
        plane = cls.__new__(cls)
        plane._fill(order, lines, fieldspec, point_coords)
        return plane

    def _fill(self, order, lines, fieldspec, point_coords) -> None:
        self.order = order
        self.num_points = order * order + order + 1
        if lines is not None:
            self.lines = lines
        self.field = fieldspec
        self.point_coords = point_coords

    @cached_property
    def lines(self) -> tuple[tuple[int, ...], ...]:
        """Each line as a sorted tuple of point indices.  Every plane but a
        built PG(2, q) holds them from construction on."""
        return _desarguesian_lines(self.field, self.point_coords)

    @cached_property
    def _incidence(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(line_masks, point_lines), built together in one pass on first use."""
        masks = []
        through: list[list[int]] = [[] for _ in range(self.num_points)]
        for j, pts in enumerate(self.lines):
            mask = 0
            for i in pts:
                mask |= 1 << i
                through[i].append(j)
            masks.append(mask)
        return tuple(masks), tuple(tuple(ls) for ls in through)

    @cached_property
    def line_masks(self) -> tuple[int, ...]:
        """Bitmask over the point universe of each line."""
        return self._incidence[0]

    @cached_property
    def point_lines(self) -> tuple[tuple[int, ...], ...]:
        """Indices of the lines through each point."""
        return self._incidence[1]

    def __eq__(self, other):
        return (
            isinstance(other, IncidencePlane)
            and self.order == other.order
            and self.lines == other.lines
        )

    def __hash__(self):
        return hash((self.order, self.lines))

    def __repr__(self):
        kind = "coordinatized" if self.point_coords else "abstract"
        return f"IncidencePlane(order={self.order}, {kind})"


def build_desarguesian_plane(q: int) -> IncidencePlane:
    """Construct PG(2, q) over ``FieldSpec(p, k)``, q = p^k; a q above the
    plane cap is refused before it is factored.

    Points are normalized homogeneous triples (first nonzero coordinate 1)
    of element indices, numbered in lexicographic order of the triples:
    (0:0:1) is point 0, (0:1:z) is point 1+z and (1:y:z) is point
    1+q+q*y+z.  Line j is the dual triple [a:b:c] of point j, incident with
    (x:y:z) exactly when ax + by + cz = 0, so two builds of the same order
    yield identical structures.  The plane holds the point triples; its
    lines are made from the field tables when they are first read (to be
    written, searched or verified).
    """
    if q > MAX_PLANE_FIELD_ORDER:
        raise ValueError(f"field order {q} exceeds plane cap {MAX_PLANE_FIELD_ORDER}")
    spec = FieldSpec(*prime_power(q))
    one = spec.one
    triples = [(0, 0, one)]
    triples.extend((0, one, z) for z in range(q))
    triples.extend((one, y, z) for y in range(q) for z in range(q))
    return IncidencePlane._unchecked(q, None, fieldspec=spec, point_coords=triples)


def _desarguesian_lines(
    spec: FieldSpec, triples: list[tuple[int, int, int]]
) -> tuple[tuple[int, ...], ...]:
    """The lines of PG(2, q), line j the dual of point j, as sorted tuples.

    Each comes out sorted and distinct from the numbering alone: the points
    of a line are one point with x = 0, then one (1:y:z) per y in order; or
    (0:0:1), then the q points (1:y:z) of one y; or the q+1 points with x = 0.
    """
    q = spec.order
    add, neg, mul, inv = spec.int_tables()
    # affine[y][z] is the point (1:y:z): one int object per point, shared by
    # the q+1 lines through it (the points with x = 0 are cached small ints)
    affine = [tuple(range(1 + q + q * y, 1 + 2 * q + q * y)) for y in range(q)]
    lines = []
    for a, b, c in triples:
        if c:
            # z = m*a + m*b*y with m = -1/c, for (0:1:z) and each (1:y:z)
            row_m = mul[neg[inv[c]]]
            mb = row_m[b]
            z_of_y = map(add[row_m[a]].__getitem__, mul[mb])
            lines.append((1 + mb, *map(getitem, affine, z_of_y)))
        elif b:
            # (0:0:1) and the points (1:y:z) with y = -a/b
            lines.append((0,) + affine[mul[neg[a]][inv[b]]])
        else:
            # the line x = 0
            lines.append(tuple(range(q + 1)))
    return tuple(lines)


def verify_plane_axioms(plane: IncidencePlane) -> str | None:
    """The first failure of the projective-plane axioms, or None.

    The axioms are checked in this order: the line count, each line's
    cardinality, each point's degree, and then that any two distinct points
    lie on exactly one common line.  Once the counts hold, the lines through
    a point p carry at most (n+1) * n + 1 = n^2+n+1 points, so their masks
    cover the whole universe exactly when no other point shares two lines
    with p; such a point costs one OR per line.  At the first point p that
    fails, every such partner x is above p (a partner below would have
    failed first), so the first of them names the bad pair from its smaller
    point: ``points p and x lie on lines k and j`` with k < j.

    This is O(N * n) big-integer operations and keeps no per-pair state.
    """
    n = plane.order
    expected = n * n + n + 1
    if len(plane.lines) != expected:
        return f"line count {len(plane.lines)} != n^2+n+1 = {expected}"
    for j, pts in enumerate(plane.lines):
        if len(pts) != n + 1:
            return f"line {j} cardinality {len(pts)} != n+1 = {n + 1}"
    for i, ls in enumerate(plane.point_lines):
        if len(ls) != n + 1:
            return f"point {i} lies on {len(ls)} lines, expected n+1 = {n + 1}"
    masks = plane.line_masks
    universe = (1 << plane.num_points) - 1
    for p, ls in enumerate(plane.point_lines):
        cover = 0
        for j in ls:
            cover |= masks[j]
        if cover == universe:
            continue
        shared = cover = 0
        for j in ls:
            shared |= cover & masks[j]
            cover |= masks[j]
        shared >>= p + 1
        x = p + (shared & -shared).bit_length()
        k, j = [j for j in ls if masks[j] >> x & 1][:2]
        return f"points {p} and {x} lie on lines {k} and {j}"
    return None


def save_plane(plane: IncidencePlane, path) -> None:
    """Write a plane in the text format accepted by load_plane, streaming
    line by line and turning each point index into text once."""
    name = list(map(str, range(plane.num_points))).__getitem__
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"order {plane.order}\n")
        fh.writelines(" ".join(map(name, pts)) + "\n" for pts in plane.lines)


def read_rows(path) -> list[tuple[int, str]]:
    """(file line number, stripped text) of every line that is neither blank
    nor a ``#`` comment.  Such a row holds printable ASCII and tabs only, and
    neither '+' nor '_': ``int`` reads no '+2', '0_5' or non-ASCII digit, and
    ``str.split`` splits on no control character (form feed, U+001C ...).
    A byte that is not UTF-8 (read as U+DC00 + byte) is refused on any line."""
    rows = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not (raw.isascii() and text.isprintable()) or "+" in text or "_" in text:
                bad = _UNDECODED_BYTE.search(raw)
                if bad:
                    byte = ord(bad[0]) - 0xDC00
                    raise PlaneFormatError(f"line {lineno}: non-UTF-8 byte 0x{byte:02x}")
                bad = not text.startswith("#") and _REFUSED_OUTSIDE_COMMENTS.search(text)
                if bad:
                    raise PlaneFormatError(f"line {lineno}: unexpected character {bad[0]!r}")
            if text and not text.startswith("#"):
                rows.append((lineno, text))
    return rows


def header_value(row: tuple[int, str], key: str, var: str) -> int:
    """The integer of a ``<key> <var>`` header row, e.g. ``order 4``."""
    lineno, text = row
    parts = text.split()
    if len(parts) != 2 or parts[0] != key:
        raise PlaneFormatError(f"line {lineno}: expected '{key} <{var}>'")
    try:
        return int(parts[1])
    except ValueError:
        raise PlaneFormatError(f"line {lineno}: {key} is not an integer") from None


def load_plane(path) -> IncidencePlane:
    """Read a plane file and validate it, including the plane axioms.

    Format: line 1 is ``order <n>``; then exactly n^2+n+1 non-empty lines,
    each with n+1 distinct zero-based point indices separated by spaces
    or tabs.  Lines starting with ``#`` are comments.  Structural problems
    are reported with their file line number.
    """
    rows = read_rows(path)
    if not rows:
        raise PlaneFormatError("empty plane file")

    n = header_value(rows[0], "order", "n")
    if n < 2:
        raise PlaneFormatError(f"line {rows[0][0]}: order must be at least 2")

    expected = n * n + n + 1
    body = rows[1:]
    if len(body) != expected:
        raise PlaneFormatError(
            f"expected {expected} incidence lines for order {n}, found {len(body)}"
        )

    lines = []
    for lineno, text in body:
        try:
            pts = sorted(map(int, text.split()))
        except ValueError:
            raise PlaneFormatError(f"line {lineno}: non-integer point index") from None
        if len(pts) != n + 1:
            raise PlaneFormatError(f"line {lineno}: line cardinality != n+1")
        if len(set(pts)) != len(pts):
            # name the first index that repeats, in the file's order
            raw = list(map(int, text.split()))
            rep = next(i for k, i in enumerate(raw) if i in raw[:k])
            raise PlaneFormatError(f"line {lineno}: point {rep} repeated")
        if pts[0] < 0 or pts[-1] >= expected:
            bad = next(i for i in map(int, text.split()) if not 0 <= i < expected)
            raise PlaneFormatError(f"line {lineno}: point index {bad} out of range")
        lines.append(tuple(pts))

    plane = IncidencePlane._unchecked(n, tuple(lines))
    failure = verify_plane_axioms(plane)
    if failure is not None:
        raise PlaneFormatError(f"plane axioms violated: {failure}")
    return plane
