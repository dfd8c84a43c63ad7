import pytest

import support
from blocksets import (
    FieldSpec,
    baer_subplane,
    hermitian_unital,
    prime_power,
)

# every GF(p^k) with k >= 2 under the table cap
EXTENSIONS = [
    (pp.p, pp.k) for pp in support.prime_powers_up_to(1024) if pp.k >= 2
]


def test_prime_power_factoring():
    assert prime_power(64) == (2, 6)
    assert prime_power(7) == (7, 1)
    assert prime_power(2**31 - 1) == (2**31 - 1, 1)
    for bad in (1, 0, -4, 6, 12, 100):
        with pytest.raises(ValueError, match=f"^{bad} is not a prime power$"):
            prime_power(bad)


def test_prime_power_invariants_enforced():
    # FieldSpec(p, k) refuses a p that is not prime first, then a k below 1
    for (p, k), text in [((4, 1), "4 is not prime"), ((4, 0), "4 is not prime"),
                         ((1, 1), "1 is not prime"), ((0, 1), "0 is not prime"),
                         ((2, 0), "exponent must be at least 1"),
                         ((2, -1), "exponent must be at least 1")]:
        with pytest.raises(ValueError) as excinfo:
            FieldSpec(p, k)
        assert str(excinfo.value) == text, (p, k)


@pytest.mark.parametrize(
    "p, k, text",
    [
        (0, -1, "0 is not prime"),
        (0, -5, "0 is not prime"),
        (4, 0, "4 is not prime"),
        (2, 0, "exponent must be at least 1"),
        (2, 11, "field order 2^11 exceeds table cap 1024"),
        (0, 11, "0 is not prime"),
        (1, 40, "1 is not prime"),
        (-2, 11, "-2 is not prime"),
    ],
)
def test_field_spec_refuses_a_power_below_one_without_computing_it(p, k, text):
    """A p below 2 is refused as not prime before the cap check, so 0 to a
    negative power is never computed, and a large k does not read as a
    power above the cap."""
    with pytest.raises(ValueError) as excinfo:
        FieldSpec(p, k)
    assert str(excinfo.value) == text


def test_prime_power_small():
    factored = {}
    for m in range(-2, 60):
        try:
            factored[m] = prime_power(m)
        except ValueError:
            pass
    primes = [m for m, pk in factored.items() if pk == (m, 1)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert {m: pk for m, pk in factored.items() if pk[1] > 1} == {
        4: (2, 2), 8: (2, 3), 9: (3, 2), 16: (2, 4), 25: (5, 2), 27: (3, 3),
        32: (2, 5), 49: (7, 2),
    }


def test_field_spec_rejects_bad_inputs():
    with pytest.raises(ValueError):
        FieldSpec(4, 1)
    with pytest.raises(ValueError):
        FieldSpec(2, 0)
    with pytest.raises(ValueError):
        FieldSpec(2, 17)


def test_trivial_degree_one_modulus():
    assert FieldSpec(2, 1).modulus == (0, 1)
    assert FieldSpec(7, 1).modulus == (0, 1)


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    # Oracle: irreducible quadratics over GF(2) found by multiplying linears.
    irr = support.irreducible_monics_by_products(2, 2)
    assert irr == [(1, 1, 1)]
    assert FieldSpec(2, 2).modulus == (1, 1, 1)


def test_gf9_modulus_lex_smallest():
    irr = support.irreducible_monics_by_products(3, 2)
    assert min(irr) == (1, 0, 1)
    assert FieldSpec(3, 2).modulus == (1, 0, 1)


@pytest.mark.parametrize("p,k", EXTENSIONS)
def test_modulus_is_lex_smallest_irreducible(p, k):
    irr = support.irreducible_monics_by_products(p, k)
    assert FieldSpec(p, k).modulus == min(irr)


def test_modulus_matches_trial_division_oracle():
    assert len(EXTENSIONS) == 26
    for p, k in EXTENSIONS:
        assert FieldSpec(p, k).modulus == support.modulus_by_trial_division(p, k), (p, k)


def test_field_spec_deterministic():
    assert FieldSpec(2, 4).modulus == FieldSpec(2, 4).modulus
    assert FieldSpec(2, 4) == FieldSpec(2, 4)


def test_fieldspec_finds_its_own_modulus():
    spec = FieldSpec(3, 2)
    assert spec.modulus == (1, 0, 1) == FieldSpec(3, 2).modulus
    assert spec == FieldSpec(3, 2) and hash(spec) == hash(FieldSpec(3, 2))
    assert spec != FieldSpec(2, 3)


def test_field_spec_checks_caps_before_primality(monkeypatch):
    import blocksets.gf

    tested = []
    real = blocksets.gf.prime_power

    def recording_prime_power(m):
        tested.append(m)
        return real(m)

    monkeypatch.setattr(blocksets.gf, "prime_power", recording_prime_power)
    # 2^(10^9) would take 125 MB, so the cap check must not compute it
    for p, k in [(2**61 - 1, 1), (1031, 1), (2, 11), (2, 10**9)]:
        with pytest.raises(ValueError) as excinfo:
            FieldSpec(p, k)
        assert str(excinfo.value) == f"field order {p}^{k} exceeds table cap 1024"
    assert tested == []
    FieldSpec(3, 2)
    assert tested == [3]


def test_gf4_multiplication():
    f = support.field(2, 2)
    elems = support.TupleField(f).elements
    x = elems.index((0, 1))
    assert f.int_tables().mul[x][x] == elems.index((1, 1))  # x^2 reduces to x + 1


def test_inverse_axiom_exhaustive():
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        f = support.field(p, k)
        _, _, mul, inv = f.int_tables()
        for a in f.elements():
            if a == 0:
                continue
            assert mul[a][inv[a]] == f.one


def test_zero_has_no_inverse():
    f = support.field(3, 2)
    _, _, mul, inv = f.int_tables()
    assert inv[0] is None
    assert f.one not in mul[0]


def test_pow_identities():
    f = support.field(3, 2)
    for a in f.elements():
        assert f.pow(a, 0) == f.one
        assert f.pow(a, 1) == a
        assert f.pow(a, 9) == a  # full Frobenius orbit of GF(9) closes


def test_frobenius_examples():
    f = support.field(2, 2)
    elems = support.TupleField(f).elements
    x = elems.index((0, 1))
    assert f.pow(x, 1) == x
    assert f.pow(x, 2) == elems.index((1, 1))
    for a in f.elements():
        assert f.pow(f.pow(a, 2), 2) == a


def test_frobenius_is_automorphism():
    for p, k in [(2, 3), (3, 2)]:
        support.check_frobenius_automorphism(support.field(p, k))


def _norm_and_subfield(f):
    """N(a) = a * a^r over GF(r^2) from the tables, and the r elements
    fixed by a -> a^r."""
    r = f.p ** (f.k // 2)
    mul = f.int_tables().mul
    norm = [mul[a][f.pow(a, r)] for a in f.elements()]
    return norm, {a for a in f.elements() if f.pow(a, r) == a}


def test_relative_norm_values():
    f = support.field(2, 2)
    elems = support.TupleField(f).elements
    norm, _ = _norm_and_subfield(f)
    assert norm[0] == 0
    assert norm[f.one] == f.one
    assert norm[elems.index((0, 1))] == f.one  # x generates the order-3 group


def test_relative_norm_requires_even_degree():
    plane = support.desarguesian(2, 3)
    for construct in (hermitian_unital, baer_subplane):
        with pytest.raises(ValueError, match="field degree must be even"):
            construct(plane)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (5, 2)])
def test_relative_norm_multiplicative_and_surjective(p, k):
    f = support.field(p, k)
    mul = f.int_tables().mul
    norm, subfield = _norm_and_subfield(f)
    for a in f.elements():
        assert norm[a] in subfield
        for b in f.elements():
            assert norm[mul[a][b]] == mul[norm[a]][norm[b]]
    assert len(subfield) == p ** (k // 2)
    assert set(norm) == subfield


def test_fixed_subfield_counts():
    for p, k, q in [(2, 2, 2), (3, 2, 3), (2, 4, 4), (5, 2, 5)]:
        f = support.field(p, k)
        assert sum(f.pow(a, q) == a for a in f.elements()) == q


def test_in_base_subfield_example():
    f = support.field(2, 2)
    _, subfield = _norm_and_subfield(f)
    assert subfield == {0, f.one}
    assert support.TupleField(f).elements.index((0, 1)) not in subfield


def test_field_axioms_small_fields():
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]:
        support.check_field_axioms(support.field(p, k))


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 6)])
def test_table_arithmetic_matches_tuple_oracle(p, k):
    """Index i is the i-th coefficient vector in constant-term-first lex
    order, and the tables add and multiply those vectors."""
    spec = support.field(p, k)
    oracle = support.TupleField(spec)
    elems = oracle.elements
    assert elems == sorted(elems) and len(elems) == spec.order
    assert elems[0] == oracle.zero and elems[spec.one] == oracle.one
    add, neg, mul, inv = spec.int_tables()
    for i, a in enumerate(elems):
        assert oracle.add(a, elems[neg[i]]) == oracle.zero
        if i:
            assert oracle.mul(a, elems[inv[i]]) == oracle.one
        for j, b in enumerate(elems):
            assert elems[add[i][j]] == oracle.add(a, b)
            assert elems[mul[i][j]] == oracle.mul(a, b)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128])
def test_int_tables_match_polynomial_oracle(q):
    f = FieldSpec(*prime_power(q))
    assert tuple(f.int_tables()) == support.tables_by_polynomials(f)


def test_tables_are_built_on_first_use():
    for p, k in [(1021, 1), (2, 10)]:  # the largest fields under the table cap
        f = FieldSpec(p, k)
        assert f._tables is None
        assert f.elements() == range(p**k)
        assert f.pow(f.one + 1, f.order - 1) == f.one
        assert f._tables is not None


def test_arithmetic_rejects_out_of_range_operands():
    f = support.field(2, 2)
    for bad in (-1, -4, f.order, 99):
        with pytest.raises(ValueError, match="out of range"):
            f.pow(bad, 2)
