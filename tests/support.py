"""Shared oracles and exhaustive checkers for the test suite.

Everything here is deliberately independent of the implementation paths it
checks: reducibility is decided by multiplying smaller polynomials or by
trial division; field tables are rebuilt by polynomial multiplication and
reduction of every pair; field arithmetic, PG(2, q), the unital and the
Baer subplane are recomputed on coefficient tuples by plain enumeration; a
plane also comes from an XOR construction; the incidence indices of a plane
are rebuilt from its lines; plane axioms are checked by counting the lines
through every pair of points; equality solutions are found by plain
two-dimensional enumeration, and by evaluating the bound at every t; prime
powers are found by factoring; and extremal sets are found by filtering
every subset of the bound's size through ``blocking.verify``, with no
prune; the verifier itself is checked against line members counted from
``plane.lines`` and a Python set, which also finds the largest minimal sets
by enumerating every subset, and against every line's count by mask
intersection, where it counts from the smaller side; and the search's
leaves, node counts and budget stops are checked against the same tree
walked with a list of line counts in place of packed integers.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from blocksets import (
    EqualityParams,
    FieldSpec,
    PointSet,
    build_desarguesian_plane,
    check_star,
    max_size_bound,
)
from blocksets.blocking import Verdict, verify

_plane_cache: dict[int, object] = {}
_field_cache: dict[tuple[int, int], FieldSpec] = {}


def field(p: int, k: int) -> FieldSpec:
    key = (p, k)
    if key not in _field_cache:
        _field_cache[key] = FieldSpec(p, k)
    return _field_cache[key]


def desarguesian(p: int, k: int):
    """Cached PG(2, p^k); planes are immutable so sharing is safe."""
    q = p**k
    if q not in _plane_cache:
        _plane_cache[q] = build_desarguesian_plane(q)
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


def _poly_rem(a, mod, p):
    """Remainder of a modulo a monic polynomial, k = deg(mod) coefficients."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return tuple(a[:dm]) + (0,) * (dm - len(a))


def is_irreducible_by_trial_division(poly, p):
    """No monic divisor of degree 1 .. deg/2 leaves remainder zero."""
    k = len(poly) - 1
    divisors = (div for d in range(1, k // 2 + 1) for div in monic_polys(p, d))
    return all(any(_poly_rem(poly, div, p)) for div in divisors)


def modulus_by_trial_division(p, k):
    """The first monic irreducible of degree k in constant-term-first lex order."""
    return next(f for f in monic_polys(p, k) if is_irreducible_by_trial_division(f, p))


def tables_by_polynomials(spec: FieldSpec):
    """(add, neg, mul, inv) over element indices, every entry from adding or
    multiplying and reducing the coefficient tuples of its two operands."""
    p, mod = spec.p, spec.modulus
    k = len(mod) - 1
    vecs = list(itertools.product(range(p), repeat=k))
    index = {v: i for i, v in enumerate(vecs)}
    add = [[index[tuple((x + y) % p for x, y in zip(a, b))] for b in vecs] for a in vecs]
    mul = [[index[_poly_rem(_poly_mul_mod(a, b, p), mod, p)] for b in vecs] for a in vecs]
    one = index[(1,) + (0,) * (k - 1)]
    inv = [None] + [row.index(one) for row in mul[1:]]
    return add, [row.index(0) for row in add], mul, inv


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
    zero, one = 0, spec.one
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
    frob = [spec.pow(a, spec.p) for a in range(q)]
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


def incidence_by_lines(plane):
    """(line masks, lines through each point) rebuilt from ``plane.lines``."""
    masks = tuple(sum(1 << i for i in line) for line in plane.lines)
    through = tuple(
        tuple(j for j, line in enumerate(plane.lines) if i in line)
        for i in range(plane.num_points)
    )
    return masks, through


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


def verdict_by_masks(point_set, t):
    """The ``Verdict`` of ``blocking.verify``, field for field and word for
    word, decided from the set's count on every line by mask intersection:
    one ``bit_count`` per line of the plane, where ``blocking`` counts from
    the smaller side through ``point_lines``.  Its spectrum is the oracle of
    ``blocking.spectrum``."""
    plane = point_set.plane
    counts = [(point_set.mask & lm).bit_count() for lm in plane.line_masks]
    spec = {c: counts.count(c) for c in sorted(set(counts))}
    minimal = failure = None
    if min(spec) < t:
        j = next(j for j, c in enumerate(counts) if c < t)
        failure = f"line {j} meets the set in {counts[j]} < t points"
    elif t not in spec:
        failure = f"no line meets the set in exactly {t} points"
    else:
        cover = 0
        for lm, c in zip(plane.line_masks, counts):
            if c == t:
                cover |= lm
        minimal = point_set.mask & cover == point_set.mask
        if not minimal:
            failure = "a set point lies on no line meeting the set in exactly t points"
    return Verdict(t, point_set.size, minimal is not None, minimal, spec, failure)


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
        verdict = verify(PointSet.from_indices(plane, combo), t)
        if verdict.minimal and set(verdict.spectrum) == {t, bv.b + 1}:
            found.append(combo)
    return found


def largest_minimal_sets_by_enumeration(plane, t):
    """(size, number) of the largest minimal t-fold blocking sets: every
    subset, from the largest size down, through ``verdict_by_points``."""
    for size in range(plane.num_points, 0, -1):
        found = sum(
            1
            for combo in itertools.combinations(range(plane.num_points), size)
            if verdict_by_points(plane, combo, t)[2]
        )
        if found:
            return size, found
    return 0, 0


# -- step-by-step search oracle ----------------------------------------------


def search_side(plane, t, other=False):
    """The (m, lo, hi) the program searches for t: the sets of the bound's
    size m meeting every line in t or b+1 points, or, when they hold more
    than half the points, their complements, meeting every line in n-b or
    n+1-t points.  With ``other``, the side the program does not search."""
    bv = max_size_bound(plane.order, t)
    n, N, m, b = plane.order, plane.num_points, bv.bound, bv.b
    return (N - m, n - b, n + 1 - t) if (2 * m > N) != other else (m, t, b + 1)


def pruned_search_by_steps(plane, m, lo, hi, budget, two_valued=True):
    """Depth-first include-then-exclude search on an explicit stack for the
    sets of m points that meet every line in lo to hi points, counted in a
    list with one entry per line; with ``two_valued``, in exactly lo or hi
    points, and a line above lo that can no longer reach hi is cut.

    Returns (leaf masks, nodes visited, complete).  A fresh node is the entry
    (point, size, mask, None); (point, size, mask, included) marks the return
    from that node's include branch, where the include is undone (if it was
    taken) and the exclude branch is tried.  The search stops before visiting
    node budget + 1, and is complete exactly when the stack empties.
    """
    num_points = plane.num_points
    pt_lines = plane.point_lines
    # after[i][k]: points beyond i on line pt_lines[i][k] (lines are sorted),
    # for the dead-line prunes; both list the lines through i in index order
    after = [[] for _ in range(num_points)]
    for pts in plane.lines:
        last = len(pts) - 1
        for rank, i in enumerate(pts):
            after[i].append(last - rank)

    def alive(c, rest):
        """Whether a line holding c points, with rest undecided, can still
        end at an allowed count."""
        return c + rest >= lo and (not two_valued or c <= lo or c + rest >= hi)

    allowed = {lo, hi} if two_valued else set(range(lo, hi + 1))
    counts = [0] * len(plane.lines)
    leaves = []
    nodes = 0
    stack = [(0, 0, 0, None)]
    while stack:
        i, size, mask, included = stack.pop()
        if included is not None:
            lines = pt_lines[i]
            if included:
                for j in lines:
                    counts[j] -= 1
            if all(alive(counts[j], rest) for j, rest in zip(lines, after[i])):
                stack.append((i + 1, size, mask, None))
            continue
        if nodes == budget:
            return leaves, nodes, False
        nodes += 1
        if size == m:
            if all(c in allowed for c in counts):
                leaves.append(mask)
            continue
        if i == num_points or size + (num_points - i) < m:
            continue
        lines = pt_lines[i]
        take = all(counts[j] < hi and alive(counts[j] + 1, rest)
                   for j, rest in zip(lines, after[i]))
        stack.append((i, size, mask, take))
        if take:
            for j in lines:
                counts[j] += 1
            stack.append((i + 1, size + 1, mask | (1 << i), None))
    return leaves, nodes, True


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


def equality_candidates_by_scan(n):
    """All t in 1..n whose bound is attainable with (b - t + 1) dividing n,
    by evaluating the bound at every t: O(n) steps, against the divisors of
    n that ``equality_candidates`` takes."""
    if n < 2:
        raise ValueError("order must be at least 2")
    out = []
    for t in range(1, n + 1):
        bv = max_size_bound(n, t)
        if bv.attainable and check_star(n, t, bv.b):
            out.append(EqualityParams(n, t, bv.b))
    return out


def factorization(q):
    """{prime: exponent} of q >= 1 by full trial division, independent of
    ``gf.prime_power``, which stops at the smallest factor."""
    out = {}
    m = q
    f = 2
    while f * f <= m:
        while m % f == 0:
            out[f] = out.get(f, 0) + 1
            m //= f
        f += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


class PrimePowerOrder(NamedTuple):
    """An order q = p^k with p prime, as the tests enumerate them."""

    q: int
    p: int
    k: int


def prime_powers_up_to(limit):
    """Every prime power q with 2 <= q <= limit, found by factoring, in
    increasing order."""
    return [
        PrimePowerOrder(q, *f.popitem())
        for q in range(2, limit + 1)
        if len(f := factorization(q)) == 1
    ]
