from math import isqrt

import pytest

import support
from blocksets import (
    EqualityParams,
    FamilyLabel,
    case_trace,
    check_dagger,
    check_star,
    classify_prime_power,
    equality_candidates,
    max_size_bound,
    prime_power,
)


def test_bound_examples():
    bv = max_size_bound(4, 1)
    assert (bv.bound, bv.b, bv.attainable) == (9, 2, True)
    bv = max_size_bound(9, 6)
    assert (bv.bound, bv.b, bv.attainable) == (78, 8, True)
    bv = max_size_bound(4, 4)
    assert (bv.bound, bv.b, bv.attainable) == (20, 4, True)


def test_bound_unattainable():
    bv = max_size_bound(5, 1)
    assert bv.discriminant == 20
    assert not bv.attainable
    assert bv.bound is None and bv.b is None
    # floor of (5*sqrt(20) + 0 + 2)/2 = floor(12.18...) = 12
    assert bv.size_floor == 12


def test_bound_rejects_bad_arguments():
    with pytest.raises(ValueError):
        max_size_bound(1, 1)
    with pytest.raises(ValueError):
        max_size_bound(4, 0)
    with pytest.raises(ValueError):
        max_size_bound(4, 5)


def test_bound_value_identity():
    # when attainable, 2*bound == n*sqrt(D) + (t-1)*n + 2t exactly
    for n in range(2, 200):
        for t in range(1, n + 1):
            bv = max_size_bound(n, t)
            if bv.attainable:
                s = isqrt(bv.discriminant)
                assert s * s == bv.discriminant
                assert 2 * bv.bound == n * s + (t - 1) * n + 2 * t
                assert bv.b == (s + t - 1) // 2
                assert bv.size_floor == bv.bound


@pytest.mark.parametrize(
    "p,largest",
    [(2, [(3, 7), (6, 7)]), (3, [(6, 234), (9, 234), (12, 13)])],
)
def test_largest_minimal_set_is_the_size_floor(p, largest):
    """The bound holds with equality of its floor at every t for q = 2, 3,
    also where it is not an integer: (size, number of sets) for t = 1..q."""
    plane = support.desarguesian(p, 1)
    ts = range(1, p + 1)
    found = [support.largest_minimal_sets_by_enumeration(plane, t) for t in ts]
    assert found == largest
    assert [size for size, _ in found] == [max_size_bound(p, t).size_floor for t in ts]


def test_attainable_bound_satisfies_dagger():
    for n in range(2, 200):
        for t in range(1, n + 1):
            bv = max_size_bound(n, t)
            if bv.attainable:
                assert check_dagger(n, t, bv.b)


def test_dagger_star_examples():
    assert check_dagger(9, 6, 8) and check_star(9, 6, 8)
    assert check_dagger(4, 1, 2) and check_star(4, 1, 2)
    assert not check_dagger(7, 2, 3)


def test_dagger_without_star():
    # a quadratic-condition solution whose divisor condition fails
    assert check_dagger(10, 3, 6)
    assert not check_star(10, 3, 6)
    assert all(e.t != 3 for e in equality_candidates(10))


def test_equality_params_validation():
    EqualityParams(9, 6, 8)
    with pytest.raises(ValueError):
        EqualityParams(9, 6, 7)
    with pytest.raises(ValueError):
        EqualityParams(10, 3, 6)


def test_candidates_examples():
    assert [(e.t, e.b) for e in equality_candidates(9)] == [(1, 3), (6, 8), (9, 9)]
    assert [(e.t, e.b) for e in equality_candidates(5)] == [(5, 5)]
    assert [(e.t, e.b) for e in equality_candidates(6)] == [(6, 6)]


def test_candidates_against_enumeration_oracle():
    for n in range(2, 80):
        oracle = support.equality_solutions_by_enumeration(n)
        ours = [(e.t, e.b) for e in equality_candidates(n)]
        assert ours == oracle, f"n={n}"


def test_classify_examples():
    assert [(e.t, e.b, e.family) for e in classify_prime_power(9)] == [
        (1, 3, FamilyLabel.UNITAL),
        (6, 8, FamilyLabel.BAER_COMPLEMENT),
        (9, 9, FamilyLabel.PLANE_MINUS_POINT),
    ]
    assert [(e.t, e.b, e.family) for e in classify_prime_power(7)] == [
        (7, 7, FamilyLabel.PLANE_MINUS_POINT)
    ]
    assert [(e.t, e.b, e.family) for e in classify_prime_power(16)] == [
        (1, 4, FamilyLabel.UNITAL),
        (12, 15, FamilyLabel.BAER_COMPLEMENT),
        (16, 16, FamilyLabel.PLANE_MINUS_POINT),
    ]


def test_classify_rejects_non_prime_powers():
    for bad in (1, 6, 10, 12):
        with pytest.raises(ValueError):
            classify_prime_power(bad)


def test_classifier_matches_oracle_small():
    for pp in support.prime_powers_up_to(128):
        closed = [(e.t, e.b) for e in classify_prime_power(pp.q)]
        brute = [(e.t, e.b) for e in support.equality_candidates_by_scan(pp.q)]
        assert closed == brute, f"q={pp.q}"


def test_candidates_match_the_scan_over_every_t():
    for n in range(2, 1025):
        assert equality_candidates(n) == support.equality_candidates_by_scan(n), f"n={n}"


@pytest.mark.parametrize("n", [5040, 10000, 27720, 59049, 65536])
def test_candidates_match_the_scan_at_larger_orders(n):
    assert equality_candidates(n) == support.equality_candidates_by_scan(n)


def test_candidates_take_a_positive_divisor_and_attain_the_bound():
    for n in range(2, 1025):
        for e in equality_candidates(n):
            d = e.b - e.t + 1
            assert d >= 1 and n % d == 0, (n, e)
            bv = max_size_bound(n, e.t)
            assert bv.attainable and bv.b == e.b, (n, e)


@pytest.mark.parametrize("q", [2**40, 3**26, 10**9 + 7])
def test_candidates_at_large_prime_powers_are_the_classification(q):
    """Orders the scan over every t could not reach in hours."""
    closed = [(e.t, e.b) for e in classify_prime_power(q)]
    assert [(e.t, e.b) for e in equality_candidates(q)] == closed


def test_case_trace_baer_complement():
    tr = case_trace(9, 6, 8)
    assert (tr.alpha, tr.l, tr.h) == (2, 1, 1)
    assert tr.case == "II"
    assert tr.family is FamilyLabel.BAER_COMPLEMENT
    assert tr.beta == 1
    assert tr.consistent


def test_case_trace_unital():
    tr = case_trace(9, 1, 3)
    assert (tr.alpha, tr.l, tr.h) == (1, 0, 1)
    assert tr.case == "III"
    assert tr.family is FamilyLabel.UNITAL
    assert tr.beta == 0
    assert tr.consistent


def test_case_trace_plane_minus_point():
    tr = case_trace(9, 9, 9)
    assert (tr.alpha, tr.l, tr.h) == (1, 2, 0)
    assert tr.case == "IV"
    assert tr.family is FamilyLabel.PLANE_MINUS_POINT
    assert tr.beta is None
    assert tr.consistent


def test_case_trace_validates_input():
    with pytest.raises(ValueError):
        case_trace(9, 2, 3)  # quadratic condition fails
    with pytest.raises(ValueError):
        case_trace(12, 12, 12)  # not a prime power


def test_case_trace_over_all_candidates():
    for pp in support.prime_powers_up_to(1024):
        for e in equality_candidates(pp.q):
            tr = case_trace(pp.q, e.t, e.b)
            assert tr.case != "I"
            assert tr.consistent
            if tr.case in ("II", "III"):
                assert pp.p ** (2 * tr.h) == pp.q


def test_specializations():
    for root in range(2, 20):
        n = root * root
        assert max_size_bound(n, 1).bound == n * root + 1
        assert max_size_bound(n, n - root).bound == n * n - root
    for n in range(2, 200):
        assert max_size_bound(n, n).bound == n * n + n


def test_prime_power_accepts_exactly_the_prime_powers():
    got = [pp.q for pp in support.prime_powers_up_to(32)]
    assert got == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
    factored = {pp.q: (pp.p, pp.k) for pp in support.prime_powers_up_to(1024)}
    for q in range(2, 1025):
        if q in factored:
            assert prime_power(q) == factored[q]
        else:
            with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
                prime_power(q)
