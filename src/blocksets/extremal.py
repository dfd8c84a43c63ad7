"""Exact-arithmetic size bound for minimal t-fold blocking sets, the
equality conditions behind it, and the classification of the (t, b) pairs
attaining it in planes of prime-power order.

Everything here is integer-only: attainability decisions go through
math.isqrt, never floating point, so large orders cannot be mislabeled by
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple

from .families import FamilyLabel
from .gf import prime_power


@dataclass(frozen=True)
class BoundValue:
    """The maximal size of a minimal t-fold blocking set in order n.

    The real-valued bound is (n*sqrt(D) + (t-1)*n + 2t) / 2 with
    D = 4tn - (3t+1)(t-1).  It is attainable only when D is a perfect
    square and sqrt(D) + t - 1 is even; then ``bound`` and ``b`` are exact
    integers with bound = n*b + t and b = (sqrt(D) + t - 1) / 2, and every
    extremal set meets each line in exactly t or b+1 points.  ``size_floor``
    is the exact integer floor of the real-valued bound in every case.
    """

    n: int
    t: int
    discriminant: int
    attainable: bool
    bound: int | None
    b: int | None
    size_floor: int


def max_size_bound(n: int, t: int) -> BoundValue:
    """Evaluate the size bound exactly, flagging whether it is an integer."""
    if n < 2:
        raise ValueError("plane order must be at least 2")
    if not 1 <= t <= n:
        raise ValueError(f"t must be in 1..{n}")
    d = 4 * t * n - (3 * t + 1) * (t - 1)
    s = isqrt(d)
    if s * s == d and (s + t - 1) % 2 == 0:
        b = (s + t - 1) // 2
        size = n * b + t
        return BoundValue(n, t, d, True, size, b, size)
    floor = (isqrt(n * n * d) + (t - 1) * n + 2 * t) // 2
    return BoundValue(n, t, d, False, None, None, floor)


def check_dagger(n: int, t: int, b: int) -> bool:
    """The quadratic equality condition b^2 + b(1-t) - t + t^2 = tn."""
    return b * b + b * (1 - t) - t + t * t == t * n


def check_star(n: int, t: int, b: int) -> bool:
    """The divisibility condition (b - t + 1) | n."""
    d = b - t + 1
    return d != 0 and n % d == 0


@dataclass(frozen=True)
class EqualityParams:
    """A triple (n, t, b) satisfying both equality conditions."""

    n: int
    t: int
    b: int

    def __post_init__(self):
        if not check_dagger(self.n, self.t, self.b):
            raise ValueError(f"({self.n}, {self.t}, {self.b}) violates the quadratic condition")
        if not check_star(self.n, self.t, self.b):
            raise ValueError(f"({self.n}, {self.t}, {self.b}) violates the divisibility condition")


def equality_candidates(n: int) -> list[EqualityParams]:
    """All t in 1..n whose bound is attainable with (b - t + 1) dividing n,
    in order of t, from the divisors of n: n may be any order >= 2, and then
    these are necessary-condition solutions only.  A divisor d = b - t + 1
    puts b = d + t - 1 in (†): t^2 - (n + 1 - d) t + d(d - 1) = 0.  By (†)
    the bound's discriminant is (2b - t + 1)^2, and 2b - t + 1 = 2d + t - 1
    is positive, so the bound is attained with this b; and each t <= n has
    D - (t - 1)^2 = 4t(n + 1 - t) > 0, so the bound's own d is at least 1.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    found = {}
    for e in (e for e in range(1, isqrt(n) + 1) if n % e == 0):
        for d in {e, n // e}:
            s = n + 1 - d
            r = isqrt(max(s * s - 4 * d * (d - 1), 0))
            for t in {(s - r) // 2, (s + r) // 2}:
                if 1 <= t <= n and t * t - s * t + d * (d - 1) == 0:
                    found[t] = d + t - 1
    return [EqualityParams(n, t, found[t]) for t in sorted(found)]


class ExtremalValue(NamedTuple):
    t: int
    b: int
    family: FamilyLabel


def classify_prime_power(q: int) -> list[ExtremalValue]:
    """The closed-form list of (t, b, family) attaining the bound in order q.

    For non-square q only t = q occurs (plane minus a point); square q adds
    t = 1 (unital, b = sqrt(q)) and t = q - sqrt(q) (Baer complement,
    b = q - 1).  Implemented from the classification theorem directly, not
    by search; equality_candidates is the independent cross-check.
    """
    _, k = prime_power(q)
    entries = []
    if k % 2 == 0:
        r = isqrt(q)
        entries.append(ExtremalValue(1, r, FamilyLabel.UNITAL))
        entries.append(ExtremalValue(q - r, q - 1, FamilyLabel.BAER_COMPLEMENT))
    entries.append(ExtremalValue(q, q, FamilyLabel.PLANE_MINUS_POINT))
    entries.sort(key=lambda e: e.t)
    return entries


_CASE_FAMILY = {
    "I": FamilyLabel.UNCLASSIFIED,
    "II": FamilyLabel.BAER_COMPLEMENT,
    "III": FamilyLabel.UNITAL,
    "IV": FamilyLabel.PLANE_MINUS_POINT,
}


@dataclass(frozen=True)
class CaseTrace:
    """Decomposition of an equality solution (q, t, b) over q = p^k.

    t = alpha * p^l with alpha coprime to p, and b - t + 1 = p^h.  The case
    split is on (l, h): h = 0 gives case IV (b = t forces t = q); l = 0
    with h > 0 gives case III (unital); l = h > 0 gives case II (Baer
    complement); 0 < l < h is case I, which is contradictory and therefore
    always inconsistent.  beta is recorded only where the case derivation
    produces it (II: alpha + 1 = beta * p^h; III: alpha = beta * p^h + 1).
    """

    q: int
    p: int
    k: int
    t: int
    b: int
    alpha: int
    l: int
    h: int
    beta: int | None
    case: str
    family: FamilyLabel
    consistent: bool


def case_trace(q: int, t: int, b: int) -> CaseTrace:
    """Trace which case of the classification a solution (q, t, b) lands in."""
    p, k = prime_power(q)
    EqualityParams(q, t, b)  # raises unless both equality conditions hold

    d = b - t + 1
    h = 0
    m = d
    while m > 1 and m % p == 0:
        m //= p
        h += 1
    if m != 1:
        raise ValueError(f"b - t + 1 = {d} is not a power of {p}")

    l = 0
    m = t
    while m % p == 0:
        m //= p
        l += 1
    alpha = m

    # Substituting b = p^h + t - 1 into the quadratic condition.
    lhs = p**h * (p**h + alpha * p**l - 1) - alpha * p**l + alpha**2 * p ** (2 * l)
    assert lhs == alpha * p**l * q

    beta: int | None = None
    if h == 0:
        case = "IV"
        consistent = b == t == q
    elif l == 0:
        case = "III"
        if (alpha - 1) % p**h == 0:
            beta = (alpha - 1) // p**h
        consistent = alpha == 1 and p ** (2 * h) == q and t == 1 and b == isqrt(q)
    elif l == h:
        case = "II"
        if (alpha + 1) % p**h == 0:
            beta = (alpha + 1) // p**h
        eq2 = (p**h + alpha * p**h - 1) - alpha + alpha**2 * p**h == alpha * q
        consistent = (
            eq2
            and alpha == p**h - 1
            and p ** (2 * h) == q
            and t == q - isqrt(q)
            and b == q - 1
        )
    else:
        case = "I"
        consistent = False

    return CaseTrace(
        q=q,
        p=p,
        k=k,
        t=t,
        b=b,
        alpha=alpha,
        l=l,
        h=h,
        beta=beta,
        case=case,
        family=_CASE_FAMILY[case],
        consistent=consistent,
    )
