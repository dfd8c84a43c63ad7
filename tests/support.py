"""Shared oracles and exhaustive checkers for the test suite.

Everything here is deliberately independent of the implementation paths it
checks: reducibility is decided by multiplying smaller polynomials; field
arithmetic, PG(2, q), the unital and the Baer subplane are recomputed on
coefficient tuples by plain enumeration; a plane also comes from an XOR
construction; plane axioms are checked by counting the lines through every
pair of points; equality solutions are found by plain two-dimensional
enumeration; and extremal sets are found by filtering every subset of the
bound's size through the public verifiers, with no prune; the verifier
itself is checked against line members counted from ``plane.lines`` and a
Python set.
"""

from __future__ import annotations

import itertools

from blocksets import (
    FieldSpec,
    PointSet,
    build_desarguesian_plane,
    is_minimal,
    is_t_fold_blocking,
    is_two_valued,
    make_field,
    max_size_bound,
    spectrum,
)

_plane_cache: dict[int, object] = {}
_field_cache: dict[tuple[int, int], FieldSpec] = {}


def field(p: int, k: int) -> FieldSpec:
    key = (p, k)
    if key not in _field_cache:
        _field_cache[key] = make_field(p, k)
    return _field_cache[key]


def desarguesian(p: int, k: int):
    """Cached PG(2, p^k); planes are immutable so sharing is safe."""
    q = p**k
    if q not in _plane_cache:
        _plane_cache[q] = build_desarguesian_plane(field(p, k))
    return _plane_cache[q]


# -- polynomial oracle --------------------------------------------------------


def _poly_mul_mod(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def monic_polys(p, degree):
    """All monic coefficient tuples (constant first) of the given degree."""
    for tail in itertools.product(range(p), repeat=degree):
        yield tail + (1,)


def irreducible_monics_by_products(p, k):
    """Irreducible = monic minus every product of two smaller monics."""
    reducible = set()
    for d in range(1, k // 2 + 1):
        for f in monic_polys(p, d):
            for g in monic_polys(p, k - d):
                reducible.add(_poly_mul_mod(f, g, p))
    return [f for f in monic_polys(p, k) if f not in reducible]


class TupleField:
    """The field of a FieldSpec on coefficient tuples (constant term first),
    by schoolbook multiplication and reduction under the spec's modulus: the
    reference the index tables of FieldSpec are checked against."""

    def __init__(self, spec: FieldSpec):
        self.p = spec.p
        self.modulus = spec.modulus
        self.k = len(self.modulus) - 1
        self.elements = list(itertools.product(range(self.p), repeat=self.k))
        self.zero = (0,) * self.k
        self.one = (1,) + (0,) * (self.k - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        p, k, mod = self.p, self.k, self.modulus
        prod = list(_poly_mul_mod(a, b, p))
        for i in range(len(prod) - 1, k - 1, -1):
            c = prod[i]
            for j in range(k + 1):
                prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
        return tuple(prod[:k])

    def pow(self, a, e):
        out = self.one
        for _ in range(e):
            out = self.mul(out, a)
        return out


def normalized_triples(f: TupleField):
    """Points of PG(2, q) as sorted triples whose first nonzero entry is one."""
    return sorted(
        t
        for t in itertools.product(f.elements, repeat=3)
        if next((c for c in t if c != f.zero), None) == f.one
    )


def desarguesian_lines_by_enumeration(f: TupleField):
    """Line j of PG(2, q) is the dual of point j: the sorted indices i with
    <point j, point i> = 0."""
    pts = normalized_triples(f)

    def dot(u, v):
        total = f.zero
        for a, b in zip(u, v):
            total = f.add(total, f.mul(a, b))
        return total

    return [tuple(i for i, pt in enumerate(pts) if dot(line, pt) == f.zero) for line in pts]


def unital_and_baer_masks_by_enumeration(f: TupleField):
    """Masks of N(x)+N(y)+N(z) = 0 and of the points with coordinates fixed
    by a -> a^r, where r^2 = q and N(a) = a^(r+1)."""
    r = f.p ** (f.k // 2)
    unital = baer = 0
    for i, pt in enumerate(normalized_triples(f)):
        total = f.zero
        for c in pt:
            total = f.add(total, f.mul(c, f.pow(c, r)))
        if total == f.zero:
            unital |= 1 << i
        if all(f.pow(c, r) == c for c in pt):
            baer |= 1 << i
    return unital, baer


# -- field axiom checkers -----------------------------------------------------


def check_field_axioms(spec: FieldSpec):
    """Exhaustive triple enumeration of the field axioms via index tables."""
    add_t, neg_t, mul_t, inv_t = spec.int_tables()
    q = spec.order
    zero, one = spec.zero, spec.one
    assert zero == 0
    elems = range(q)

    for a in elems:
        assert add_t[a][zero] == a
        assert mul_t[a][one] == a
        assert mul_t[a][zero] == zero
        for b in range(a + 1, q):
            assert add_t[a][b] == add_t[b][a]
            assert mul_t[a][b] == mul_t[b][a]

    for a in elems:
        row_add, row_mul = add_t[a], mul_t[a]
        for b in elems:
            ab_add, ab_mul = row_add[b], row_mul[b]
            assert add_t[ab_add] == [row_add[x] for x in add_t[b]]
            assert mul_t[ab_mul] == [row_mul[x] for x in mul_t[b]]
            assert [row_mul[x] for x in add_t[b]] == [
                add_t[ab_mul][row_mul[c]] for c in elems
            ]

    for a in elems:
        assert add_t[a].count(zero) == 1
        assert add_t[a][neg_t[a]] == zero
        if a != zero:
            assert mul_t[a][inv_t[a]] == one


def check_frobenius_automorphism(spec: FieldSpec):
    """a -> a^p preserves both operations, exhaustively over the field."""
    add_t, _, mul_t, _ = spec.int_tables()
    q = spec.order
    frob = [spec.frobenius(a, 1) for a in range(q)]
    for a in range(q):
        for b in range(q):
            assert frob[add_t[a][b]] == add_t[frob[a]][frob[b]]
            assert frob[mul_t[a][b]] == mul_t[frob[a]][frob[b]]


# -- independent plane oracle -------------------------------------------------


def xor_fano_lines():
    """Fano plane on points 1..7 relabeled to 0..6: triples with XOR zero."""
    lines = []
    for triple in itertools.combinations(range(1, 8), 3):
        if triple[0] ^ triple[1] ^ triple[2] == 0:
            lines.append(tuple(x - 1 for x in triple))
    return lines


def plane_axioms_hold_by_pair_sets(order, lines):
    """Projective-plane axioms from plain sets: n^2+n+1 lines of n+1 distinct
    points, and every pair of distinct points on exactly one line."""
    num_points = order * order + order + 1
    if len(lines) != num_points:
        return False
    sets = [set(line) for line in lines]
    if any(len(s) != len(line) or len(s) != order + 1 for s, line in zip(sets, lines)):
        return False
    for a, b in itertools.combinations(range(num_points), 2):
        if sum(1 for s in sets if a in s and b in s) != 1:
            return False
    return True


# -- verifier oracle ----------------------------------------------------------


def verdict_by_points(plane, indices, t):
    """(spectrum, blocking, minimal, first short line) of the point set,
    counted from ``plane.lines`` and a Python set: no masks and nothing from
    ``blocking``.  minimal is None when the set is not t-fold blocking; the
    short line is (line index, count) of the first line met in fewer than t
    points, or None."""
    members = set(indices)
    counts = [sum(1 for i in line if i in members) for line in plane.lines]
    spec = {c: counts.count(c) for c in sorted(set(counts))}
    blocking = min(counts) >= t and t in counts
    minimal = None
    if blocking:
        t_lines = [set(line) for line, c in zip(plane.lines, counts) if c == t]
        minimal = all(any(i in line for line in t_lines) for i in members)
    short = next(((j, c) for j, c in enumerate(counts) if c < t), None)
    return spec, blocking, minimal, short


# -- prune-safety oracle for the search ---------------------------------------


def extremal_sets_by_enumeration(plane, t):
    """Index tuples, in lexicographic order, of every subset whose size is
    the attainable bound for (order, t) that is a minimal t-fold blocking set
    with the two-valued spectrum {t, b+1}: plain subset enumeration, with no
    prune and no node budget.  An unattainable bound has no such set."""
    bv = max_size_bound(plane.order, t)
    if not bv.attainable:
        return []
    found = []
    for combo in itertools.combinations(range(plane.num_points), bv.bound):
        ps = PointSet.from_indices(plane, combo)
        if (
            is_t_fold_blocking(ps, t)
            and is_minimal(ps, t)
            and is_two_valued(spectrum(ps), t, bv.b)
        ):
            found.append(combo)
    return found


# -- equality-condition oracle -------------------------------------------------


def equality_solutions_by_enumeration(n):
    """All (t, b) with both equality conditions, by plain 2D enumeration."""
    out = []
    for t in range(1, n + 1):
        for b in range(1, 2 * n + 2):
            quad = b * b + b * (1 - t) - t + t * t == t * n
            div = (b - t + 1) != 0 and n % (b - t + 1) == 0
            if quad and div:
                out.append((t, b))
    return out


def is_prime_power_by_factoring(q):
    """Full factorization check, independent of PrimePower.from_order."""
    if q < 2:
        return False
    factors = set()
    m = q
    f = 2
    while f * f <= m:
        while m % f == 0:
            factors.add(f)
            m //= f
        f += 1
    if m > 1:
        factors.add(m)
    return len(factors) == 1
