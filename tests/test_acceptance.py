"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All numeric checks are exact (zero tolerance); runtimes are printed
for information.
"""

import time
from contextlib import contextmanager
from math import isqrt

import support
from blocksets import (
    FamilyLabel,
    SearchTask,
    baer_complement,
    certify_no_other_t,
    check_dagger,
    classify_prime_power,
    exhaustive_extremal_search,
    hermitian_unital,
    max_size_bound,
    plane_minus_point,
    spectrum,
    verify_plane_axioms,
)
from blocksets.blocking import verify


@contextmanager
def criterion(num: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL {title}")
        raise
    print(f"[criterion {num}] PASS {title} ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_classification_reproduction():
    with criterion(1, "classifier and brute-force oracle agree for all prime powers <= 1024"):
        for pp in support.prime_powers_up_to(1024):
            closed = [(e.t, e.b) for e in classify_prime_power(pp.q)]
            brute = [(e.t, e.b) for e in support.equality_candidates_by_scan(pp.q)]
            assert closed == brute, f"q={pp.q}: {closed} != {brute}"
            t_set = {t for t, _ in closed}
            if pp.k % 2:
                assert t_set == {pp.q}, f"q={pp.q}"
            else:
                r = isqrt(pp.q)
                assert t_set == {1, pp.q - r, pp.q}, f"q={pp.q}"


def test_criterion_2_bound_specializations():
    with criterion(2, "bound specializations t=1, t=n, t=n-sqrt(n) are exact"):
        for root in range(2, 33):
            n = root * root
            assert max_size_bound(n, 1).bound == n * root + 1
            assert max_size_bound(n, n - root).bound == n * n - root
        for n in range(2, 1025):
            assert max_size_bound(n, n).bound == n * n + n


def test_criterion_3_quadratic_identity():
    with criterion(3, "attainable b satisfies the quadratic equality condition, n <= 512"):
        checked = 0
        for n in range(2, 513):
            for t in range(1, n + 1):
                bv = max_size_bound(n, t)
                if bv.attainable:
                    assert check_dagger(n, t, bv.b), f"(n={n}, t={t})"
                    checked += 1
        assert checked >= 511  # at least the t=n family exists for every n


def test_criterion_4_construction_verification():
    with criterion(4, "unital/Baer-complement/minus-point verify at their t in PG(2,4), PG(2,9)"):
        for p in (2, 3):
            plane = support.desarguesian(p, 2)
            n = plane.order
            cases = [
                (hermitian_unital(plane), 1),
                (baer_complement(plane), n - p),
                (plane_minus_point(plane, 0), n),
            ]
            for ps, t in cases:
                bv = max_size_bound(n, t)
                assert bv.attainable
                assert ps.size == bv.bound
                assert verify(ps, t).minimal is True
                assert set(spectrum(ps)) == {t, bv.b + 1}


def test_criterion_5_desk_scale_certification():
    with criterion(5, "exhaustive certification of PG(2,2), PG(2,3), PG(2,4)"):
        for p, k in [(2, 1), (3, 1), (2, 2)]:
            plane = support.desarguesian(p, k)
            report = certify_no_other_t(plane)
            assert report.matches_theory, report.as_dict()
            assert all(e.complete for e in report.entries)
            expected = {e.t: e.family for e in classify_prime_power(plane.order)}
            found = {e.t for e in report.entries if e.found}
            assert found == set(expected)
            for entry in report.entries:
                if entry.found:
                    assert entry.families == {expected[entry.t].value: entry.found}
            if plane.order == 4:
                by_t = {e.t: e for e in report.entries}
                # every t=2 solution's complement passes the Baer spectrum test
                assert by_t[2].families == {FamilyLabel.BAER_COMPLEMENT.value: by_t[2].found}
                for ps in by_t[2].sets:
                    comp = ps.complement()
                    assert comp.size == 7
                    assert set(spectrum(comp)) == {1, 3}


def test_criterion_6_prune_safety():
    with criterion(6, "pruned search equals unpruned subset enumeration on PG(2,2)"):
        fano = support.desarguesian(2, 1)
        for t in (1, 2):
            pruned = exhaustive_extremal_search(SearchTask(fano, t))
            brute = support.extremal_sets_by_enumeration(fano, t)
            assert [s.indices() for s in pruned.sets] == brute
            assert pruned.complete


def test_criterion_7_field_and_plane_property_suites():
    with criterion(7, "field axioms to GF(64), plane axioms to order 9, subfield counts"):
        for pp in support.prime_powers_up_to(64):
            spec = support.field(pp.p, pp.k)
            support.check_field_axioms(spec)
            support.check_frobenius_automorphism(spec)
        for p, k in [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]:
            assert verify_plane_axioms(support.desarguesian(p, k)) is None
        for p, k, q in [(2, 2, 2), (3, 2, 3), (2, 4, 4), (5, 2, 5)]:
            f = support.field(p, k)
            assert sum(f.pow(a, q) == a for a in f.elements()) == q
