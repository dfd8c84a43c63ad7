"""Exact arithmetic in GF(p^k), elements numbered 0 .. p^k - 1.

An element is an ``int``: the position of its coefficient vector over Z_p
in the polynomial basis, vectors ordered lexicographically from the
constant term, so 0 is zero and p^(k-1) is one.  Arithmetic is lookup in
tables of order^2 entries (``FieldSpec.int_tables``), so ``FieldSpec(p, k)``
refuses p^k above MAX_TABLE_ORDER; on first use, addition is tabulated
digit by digit and multiplication from exp/log tables of a generator, whose
powers are the only other place polynomials are multiplied.  The reduction
modulus is the lexicographically smallest monic irreducible polynomial of
degree k (coefficients compared from the constant term upward), which
``FieldSpec(p, k)`` finds itself by trial division: one canonical model of
GF(p^k) per (p, k), so every downstream construction is reproducible across
runs.  ``prime_power(q)`` is the one place an order is split into p^k or a
number is tested for primality.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

MAX_TABLE_ORDER = 1024


def prime_power(q: int) -> tuple[int, int]:
    """(p, k) with q = p^k and p prime, raising ValueError when q is not a
    prime power.  p is the smallest factor of q above 1, so it is prime."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = _smallest_factor(q)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


@functools.lru_cache(maxsize=1)
def _smallest_factor(q: int) -> int:
    """The smallest factor of q >= 2 above 1, by trial division up to the
    square root.  The last order's is kept: ``classify`` and ``candidates``
    factor their order for the list and again for each row's case trace,
    which at a prime near 10^14 would divide for a second each time."""
    f = 2
    while f * f <= q:
        if q % f == 0:
            return f
        f += 1
    return q


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


def _mul_mod(a, b, mod, p):
    return _poly_rem(_poly_mul(a, b, p), mod, p)


def _is_irreducible(poly, p) -> bool:
    """No monic polynomial of degree 1 .. k/2 divides poly, of degree k."""
    k = len(poly) - 1
    return all(
        any(_poly_rem(poly, (*_decode_lex(m, p, d), 1), p))
        for d in range(1, k // 2 + 1)
        for m in range(p**d)
    )


class FieldTables(NamedTuple):
    """Lookup tables over element indices; ``inv[0]`` is None."""

    add: list[list[int]]
    neg: list[int]
    mul: list[list[int]]
    inv: list[int | None]


class FieldSpec:
    """Arithmetic context for GF(p^k) under its canonical modulus, which
    the constructor finds from p and k alone (see the module doc).

    A p below 2 is refused first; then the table cap, without computing a
    large power, so an order above it is refused before ``prime_power``
    tests p for primality.

    An element is its index (an ``int`` in ``range(order)``); every operation
    is a lookup in tables built on first use (see ``int_tables``).
    """

    def __init__(self, p: int, k: int):
        # the cap test assumes p >= 2, where k >= 11 already exceeds the cap,
        # so p**k stays small (and is at most 1 for k < 1)
        if p < 2:
            raise ValueError(f"{p} is not prime")
        if (k >= MAX_TABLE_ORDER.bit_length() or p > MAX_TABLE_ORDER
                or p**k > MAX_TABLE_ORDER):
            raise ValueError(f"field order {p}^{k} exceeds table cap {MAX_TABLE_ORDER}")
        if prime_power(p) != (p, 1):
            raise ValueError(f"{p} is not prime")
        if k < 1:
            raise ValueError("exponent must be at least 1")
        self.p = p
        self.k = k
        self.order = p**k
        # for k >= 2 a constant term of 0 makes x a factor, so start at 1
        first = p ** (k - 1) if k > 1 else 0
        self.modulus = next(
            mod for mod in ((*_decode_lex(m, p, k), 1) for m in range(first, p**k))
            if _is_irreducible(mod, p)
        )
        self.one = p ** (k - 1)
        self._tables: FieldTables | None = None

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"FieldSpec(GF({self.order}), modulus={list(self.modulus)})"

    def elements(self) -> range:
        return range(self.order)

    def _check(self, a: int) -> None:
        """Reject an index outside range(order), which list indexing would
        wrap (negative) or fail on with IndexError."""
        if not 0 <= a < self.order:
            raise ValueError(f"element index {a} out of range")

    def int_tables(self) -> FieldTables:
        """The lookup tables of the field, built on first use and cached:
        ``add`` digit by digit, ``mul`` and ``inv`` from the powers of the
        first element (in index order) that generates the multiplicative
        group, so mul[a][b] = g^(log a + log b).
        """
        if self._tables is None:
            p, k, q, one = self.p, self.k, self.order, self.one
            # add digit by digit: an index's base-p digits are its coefficients
            add = []
            for a in range(q):
                row = [0]
                for d in _decode_lex(a, p, k):
                    shifted = [(d + y) % p for y in range(p)]
                    row = [r * p + s for r in row for s in shifted]
                add.append(row)
            # exp[i] = g^i for the first g of multiplicative order q - 1
            for g in range(1, q):
                gv = v = _decode_lex(g, p, k)
                exp = [one]
                while (e := _encode_lex(v, p)) != one:
                    exp.append(e)
                    v = _mul_mod(v, gv, self.modulus, p)
                if len(exp) == q - 1:
                    break
            log = [0] * q
            for i, e in enumerate(exp):
                log[e] = i
            exp2 = exp + exp  # exp2[i + j] = g^(i+j) for i, j < q - 1
            mul = [[0] * q]
            mul.extend([0, *(exp2[la + lb] for lb in log[1:])] for la in log[1:])
            inv: list[int | None] = [None]
            inv.extend(exp[-la] for la in log[1:])
            self._tables = FieldTables(add, [row.index(0) for row in add], mul, inv)
        return self._tables

    def pow(self, a: int, e: int) -> int:
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
