"""Exact arithmetic in GF(p^k), elements numbered 0 .. p^k - 1.

An element is an ``int``: the position of its coefficient vector over Z_p
in the polynomial basis, vectors ordered lexicographically from the
constant term, so 0 is zero and p^(k-1) is one.  ``FieldSpec.element`` and
``FieldSpec.coeffs`` convert between the two.  Arithmetic is table lookup;
the tables are built from polynomial multiplication and reduction on first
use, which is the only other place polynomials appear.  The reduction
modulus is the lexicographically smallest monic irreducible polynomial of
degree k (coefficients compared from the constant term upward), which
``FieldSpec`` finds itself: one canonical model of GF(p^k) per (p, k), so
every downstream construction is reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

FieldElement = int

MAX_EXTENSION_DEGREE = 16
MAX_CHARACTERISTIC = 2**31
MAX_TABLE_ORDER = 1024


def is_prime(m: int) -> bool:
    """Trial-division primality test, adequate for desk-scale inputs."""
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimePower:
    """An order q = p^k with p prime and k >= 1."""

    q: int
    p: int
    k: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.k < 1:
            raise ValueError("exponent must be at least 1")
        if self.p**self.k != self.q:
            raise ValueError(f"{self.q} != {self.p}^{self.k}")

    @classmethod
    def from_order(cls, q: int) -> "PrimePower":
        """Factor q as p^k, raising ValueError when q is not a prime power."""
        if q < 2:
            raise ValueError(f"{q} is not a prime power")
        p = q
        f = 2
        while f * f <= q:
            if q % f == 0:
                p = f
                break
            f += 1
        k = 0
        m = q
        while m % p == 0:
            m //= p
            k += 1
        if m != 1:
            raise ValueError(f"{q} is not a prime power")
        return cls(q, p, k)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _poly_rem(a, mod, p):
    """Remainder of a modulo a monic polynomial, coefficients in Z_p."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    a = a[:dm]
    if len(a) < dm:
        a.extend([0] * (dm - len(a)))
    return a


def _decode_lex(m: int, p: int, k: int) -> list[int]:
    """Coefficients of the m-th degree-k tail in constant-term-first lex order."""
    return [(m // p ** (k - 1 - i)) % p for i in range(k)]


def _encode_lex(coeffs, p: int) -> int:
    """Position of a coefficient vector in constant-term-first lex order."""
    idx = 0
    for c in coeffs:
        idx = idx * p + c
    return idx


def _is_irreducible(poly, p) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for m in range(p**d):
            div = _decode_lex(m, p, d) + [1]
            if not any(_poly_rem(poly, div, p)):
                return False
    return True


class FieldTables(NamedTuple):
    """Lookup tables over element indices; ``inv[0]`` is None."""

    add: list[list[int]]
    neg: list[int]
    mul: list[list[int]]
    inv: list[int | None]


class FieldSpec:
    """Arithmetic context for GF(p^k) under its canonical modulus, which
    the constructor finds from ``prime_power`` alone (see the module doc).

    An element is its index (an ``int`` in ``range(order)``); every operation
    is a lookup in tables built from the polynomial arithmetic on first use.
    """

    def __init__(self, prime_power: PrimePower):
        p, k = prime_power.p, prime_power.k
        self.prime_power = prime_power
        self.p = p
        self.k = k
        self.order = prime_power.q
        self.modulus = next(
            mod for mod in ((*_decode_lex(m, p, k), 1) for m in range(p**k))
            if _is_irreducible(mod, p)
        )
        self.zero: FieldElement = 0
        self.one: FieldElement = p ** (k - 1)
        self._tables: FieldTables | None = None

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and self.prime_power == other.prime_power

    def __hash__(self):
        return hash(self.prime_power)

    def __repr__(self):
        return f"FieldSpec(GF({self.order}), modulus={list(self.modulus)})"

    # -- the bridge to coefficient vectors ------------------------------------

    def element(self, coeffs: Iterable[int]) -> FieldElement:
        """Index of an arbitrary coefficient vector (constant term first),
        reduced modulo p and the modulus."""
        c = [int(v) % self.p for v in coeffs]
        if len(c) > self.k:
            c = _poly_rem(c, self.modulus, self.p)
        c.extend([0] * (self.k - len(c)))
        return _encode_lex(c, self.p)

    def coeffs(self, a: FieldElement) -> tuple[int, ...]:
        """Coefficient vector of an element, constant term first."""
        self._check(a)
        return tuple(_decode_lex(a, self.p, self.k))

    def elements(self) -> range:
        return range(self.order)

    def _check(self, *elems: FieldElement) -> None:
        """Reject an index outside range(order), which list indexing would
        wrap (negative) or fail on with IndexError."""
        for a in elems:
            if not 0 <= a < self.order:
                raise ValueError(f"element index {a} out of range")

    # -- arithmetic -----------------------------------------------------------

    def int_tables(self) -> FieldTables:
        """The lookup tables of the field, built on first use and cached.

        Each table has order^2 entries, so a field whose order exceeds
        MAX_TABLE_ORDER can be made and converted but has no arithmetic.
        """
        if self._tables is None:
            if self.order > MAX_TABLE_ORDER:
                raise ValueError(
                    f"field order {self.order} exceeds table cap {MAX_TABLE_ORDER}"
                )
            p, k, mod = self.p, self.k, self.modulus
            vecs = [_decode_lex(i, p, k) for i in range(self.order)]
            add = [
                [_encode_lex([(x + y) % p for x, y in zip(a, b)], p) for b in vecs]
                for a in vecs
            ]
            mul = [
                [_encode_lex(_poly_rem(_poly_mul(a, b, p), mod, p), p) for b in vecs]
                for a in vecs
            ]
            inv: list[int | None] = [None]
            inv.extend(row.index(self.one) for row in mul[1:])
            self._tables = FieldTables(add, [row.index(0) for row in add], mul, inv)
        return self._tables

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a, b)
        return self.int_tables().add[a][b]

    def neg(self, a: FieldElement) -> FieldElement:
        self._check(a)
        return self.int_tables().neg[a]

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a, b)
        return self.int_tables().mul[a][b]

    def pow(self, a: FieldElement, e: int) -> FieldElement:
        """a**e for e >= 0, with pow(a, 0) == 1 (also for a == 0)."""
        if e < 0:
            raise ValueError("exponent must be non-negative")
        self._check(a)
        mul = self.int_tables().mul
        result = self.one
        while e:
            if e & 1:
                result = mul[result][a]
            a = mul[a][a]
            e >>= 1
        return result

    def inv(self, a: FieldElement) -> FieldElement:
        self._check(a)
        inverse = self.int_tables().inv[a]
        if inverse is None:
            raise ZeroDivisionError("inversion of zero")
        return inverse

    def frobenius(self, a: FieldElement, m: int) -> FieldElement:
        """The automorphism a -> a^(p^m)."""
        if m < 0:
            raise ValueError("Frobenius power must be non-negative")
        return self.pow(a, self.p**m)

    # -- quadratic-extension helpers ----------------------------------------

    def base_subfield_order(self) -> int:
        if self.k % 2:
            raise ValueError("field degree must be even")
        return self.p ** (self.k // 2)

    def relative_norm(self, a: FieldElement) -> FieldElement:
        """Norm a -> a^(q+1) down to GF(q), where this field is GF(q^2)."""
        q = self.base_subfield_order()
        return self.mul(a, self.pow(a, q))

    def in_base_subfield(self, a: FieldElement) -> bool:
        """True iff a^q == a, i.e. a lies in the index-2 subfield GF(q)."""
        q = self.base_subfield_order()
        return self.pow(a, q) == a


def make_field(p: int, k: int) -> FieldSpec:
    """Build GF(p^k) under its canonical modulus (see ``FieldSpec``).

    The degree range and the characteristic cap are checked first, so a p
    above the cap is refused before the trial-division primality test,
    which ``PrimePower`` then runs on p.
    """
    if not 1 <= k <= MAX_EXTENSION_DEGREE:
        raise ValueError(f"extension degree must be in 1..{MAX_EXTENSION_DEGREE}")
    if p > MAX_CHARACTERISTIC:
        raise ValueError("characteristic too large")
    return FieldSpec(PrimePower(p**k, p, k))
