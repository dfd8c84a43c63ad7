import pytest

import support
from blocksets import FieldSpec, PrimePower, is_prime, make_field


def test_prime_power_factoring():
    pp = PrimePower.from_order(64)
    assert (pp.q, pp.p, pp.k) == (64, 2, 6)
    assert PrimePower.from_order(7) == PrimePower(7, 7, 1)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            PrimePower.from_order(bad)


def test_prime_power_invariants_enforced():
    with pytest.raises(ValueError):
        PrimePower(8, 4, 1)
    with pytest.raises(ValueError):
        PrimePower(8, 2, 0)
    with pytest.raises(ValueError):
        PrimePower(9, 3, 3)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_make_field_rejects_bad_inputs():
    with pytest.raises(ValueError):
        make_field(4, 1)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 17)


def test_trivial_degree_one_modulus():
    assert make_field(2, 1).modulus == (0, 1)
    assert make_field(7, 1).modulus == (0, 1)


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    # Oracle: irreducible quadratics over GF(2) found by multiplying linears.
    irr = support.irreducible_monics_by_products(2, 2)
    assert irr == [(1, 1, 1)]
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_gf9_modulus_lex_smallest():
    irr = support.irreducible_monics_by_products(3, 2)
    assert min(irr) == (1, 0, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (3, 3), (5, 2)])
def test_modulus_is_lex_smallest_irreducible(p, k):
    irr = support.irreducible_monics_by_products(p, k)
    assert make_field(p, k).modulus == min(irr)


def test_make_field_deterministic():
    assert make_field(2, 4).modulus == make_field(2, 4).modulus
    assert make_field(2, 4) == make_field(2, 4)


def test_fieldspec_finds_its_own_modulus():
    spec = FieldSpec(PrimePower(9, 3, 2))
    assert spec.modulus == (1, 0, 1) == make_field(3, 2).modulus
    assert spec == make_field(3, 2) and hash(spec) == hash(make_field(3, 2))
    assert spec != make_field(2, 3)


def test_make_field_checks_caps_before_primality(monkeypatch):
    import blocksets.gf

    tested = []
    real, cap = blocksets.gf.is_prime, blocksets.gf.MAX_CHARACTERISTIC

    def recording_is_prime(m):
        tested.append(m)
        return m > cap or real(m)  # a p above the cap is not tested, only recorded

    monkeypatch.setattr(blocksets.gf, "is_prime", recording_is_prime)
    for p in (2**61 - 1, cap + 1):
        with pytest.raises(ValueError, match="characteristic too large"):
            make_field(p, 1)
    assert tested == []
    make_field(3, 2)
    assert tested == [3]


def test_gf4_multiplication():
    f = support.field(2, 2)
    x = f.element([0, 1])
    assert f.mul(x, x) == f.element([1, 1])  # x^2 reduces to x + 1


def test_inverse_axiom_exhaustive():
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        f = support.field(p, k)
        for a in f.elements():
            if a == f.zero:
                continue
            assert f.mul(a, f.inv(a)) == f.one


def test_inversion_of_zero_raises():
    f = support.field(3, 2)
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)


def test_pow_identities():
    f = support.field(3, 2)
    for a in f.elements():
        assert f.pow(a, 0) == f.one
        assert f.pow(a, 1) == a
        assert f.pow(a, 9) == a  # full Frobenius orbit of GF(9) closes


def test_frobenius_examples():
    f = support.field(2, 2)
    x = f.element([0, 1])
    assert f.frobenius(x, 0) == x
    assert f.frobenius(x, 1) == f.element([1, 1])
    for a in f.elements():
        assert f.frobenius(f.frobenius(a, 1), 1) == a


def test_frobenius_is_automorphism():
    for p, k in [(2, 3), (3, 2)]:
        support.check_frobenius_automorphism(support.field(p, k))


def test_relative_norm_values():
    f = support.field(2, 2)
    x = f.element([0, 1])
    assert f.relative_norm(f.zero) == f.zero
    assert f.relative_norm(f.one) == f.one
    assert f.relative_norm(x) == f.one  # x generates the order-3 group


def test_relative_norm_requires_even_degree():
    f = support.field(2, 3)
    with pytest.raises(ValueError):
        f.relative_norm(f.one)
    with pytest.raises(ValueError):
        f.in_base_subfield(f.one)


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4), (5, 2)])
def test_relative_norm_multiplicative_and_surjective(p, k):
    f = support.field(p, k)
    q = f.base_subfield_order()
    for a in f.elements():
        na = f.relative_norm(a)
        assert f.in_base_subfield(na)
        for b in f.elements():
            assert f.relative_norm(f.mul(a, b)) == f.mul(na, f.relative_norm(b))
    image = {f.relative_norm(a) for a in f.elements()}
    subfield = {a for a in f.elements() if f.in_base_subfield(a)}
    assert len(subfield) == q
    assert image == subfield


def test_fixed_subfield_counts():
    for p, k, q in [(2, 2, 2), (3, 2, 3), (2, 4, 4), (5, 2, 5)]:
        f = support.field(p, k)
        assert sum(f.in_base_subfield(a) for a in f.elements()) == q


def test_in_base_subfield_example():
    f = support.field(2, 2)
    assert f.in_base_subfield(f.zero)
    assert f.in_base_subfield(f.one)
    assert not f.in_base_subfield(f.element([0, 1]))


def test_field_axioms_small_fields():
    for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)]:
        support.check_field_axioms(support.field(p, k))


def test_element_index_round_trip():
    f = support.field(3, 2)
    for i in range(f.order):
        assert f.element(f.coeffs(i)) == i
    # index order matches constant-term-first lex order on coefficients
    vectors = [f.coeffs(i) for i in f.elements()]
    assert vectors == sorted(vectors)
    assert (f.zero, f.one) == (0, 3)
    with pytest.raises(ValueError):
        f.coeffs(f.order)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 6)])
def test_table_arithmetic_matches_tuple_oracle(p, k):
    spec = support.field(p, k)
    oracle = support.TupleField(spec)
    elems = oracle.elements
    assert [spec.coeffs(i) for i in spec.elements()] == elems
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert elems[spec.add(i, j)] == oracle.add(a, b)
            assert elems[spec.mul(i, j)] == oracle.mul(a, b)


def test_tables_are_built_on_first_use():
    f = make_field(1000003, 1)
    assert f._tables is None
    assert f.element([5]) == 5 and f.coeffs(7) == (7,)
    with pytest.raises(ValueError, match="table cap"):
        f.add(1, 2)
    assert f._tables is None


def test_element_reduces_long_vectors():
    f = support.field(2, 2)
    # x^2 + x + 1 is the modulus, so x^2 == x + 1
    assert f.element([0, 0, 1]) == f.element([1, 1])


def test_arithmetic_rejects_out_of_range_operands():
    f = support.field(2, 2)
    unary = [f.neg, f.inv, lambda a: f.pow(a, 2), lambda a: f.frobenius(a, 1),
             f.relative_norm, f.in_base_subfield]
    for bad in (-1, -4, f.order, 99):
        for op in (f.add, f.mul):
            with pytest.raises(ValueError, match="out of range"):
                op(bad, 0)
            with pytest.raises(ValueError, match="out of range"):
                op(2, bad)
        for op in unary:
            with pytest.raises(ValueError, match="out of range"):
                op(bad)
        with pytest.raises(ValueError, match="out of range"):
            f.coeffs(bad)
