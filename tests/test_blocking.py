import json
import random

import pytest

import support
from blocksets import (
    PointSet,
    baer_complement,
    hermitian_unital,
    is_minimal,
    is_t_fold_blocking,
    is_two_valued,
    plane_minus_point,
    spectrum,
    spectrum_to_json,
)
from blocksets.blocking import verify


def test_spectrum_empty_set():
    fano = support.desarguesian(2, 1)
    assert spectrum(fano, PointSet.empty(fano)) == {0: 7}


def test_spectrum_full_plane():
    fano = support.desarguesian(2, 1)
    assert spectrum(fano, PointSet.full(fano)) == {3: 7}


def test_spectrum_single_line():
    fano = support.desarguesian(2, 1)
    line = PointSet.from_indices(fano, fano.lines[0])
    assert spectrum(fano, line) == {1: 6, 3: 1}


def test_spectrum_rejects_foreign_plane():
    fano = support.desarguesian(2, 1)
    other = support.desarguesian(3, 1)
    with pytest.raises(ValueError):
        spectrum(other, PointSet.empty(fano))


def test_spectrum_invariants_random_subsets():
    plane = support.desarguesian(3, 1)
    rng = random.Random(20240717)
    n = plane.order
    for _ in range(50):
        size = rng.randint(0, plane.num_points)
        ps = PointSet.from_indices(plane, rng.sample(range(plane.num_points), size))
        spec = spectrum(plane, ps)
        assert sum(spec.values()) == n * n + n + 1
        assert sum(k * v for k, v in spec.items()) == ps.size * (n + 1)


def test_spectrum_json_serialization():
    spec = {3: 1, 1: 6}
    assert spectrum_to_json(spec) == '{"1": 6, "3": 1}'
    assert json.loads(spectrum_to_json(spec)) == {"1": 6, "3": 1}


def test_fano_minus_point_blocking():
    fano = support.desarguesian(2, 1)
    ps = plane_minus_point(fano, 0)
    assert is_t_fold_blocking(fano, ps, 2)
    assert not is_t_fold_blocking(fano, ps, 1)  # no line meets in exactly 1


def test_unital_is_one_fold_blocking():
    plane = support.desarguesian(2, 2)
    assert is_t_fold_blocking(plane, hermitian_unital(plane), 1)


def test_t_range_enforced():
    fano = support.desarguesian(2, 1)
    ps = PointSet.full(fano)
    with pytest.raises(ValueError):
        is_t_fold_blocking(fano, ps, 0)
    with pytest.raises(ValueError):
        is_t_fold_blocking(fano, ps, 5)
    # t = n+1 is legal in the verifier: the full plane is (n+1)-fold blocked
    assert is_t_fold_blocking(fano, ps, 3)


def test_blocking_monotone_in_t():
    plane = support.desarguesian(3, 1)
    ps = plane_minus_point(plane, 4)
    spec = spectrum(plane, ps)
    low = min(spec)
    for t in range(1, plane.order + 2):
        expected = min(spec) >= t and t in spec
        assert is_t_fold_blocking(plane, ps, t) == expected
        if t > low:
            assert not is_t_fold_blocking(plane, ps, t)


def test_minimal_plane_minus_point():
    plane = support.desarguesian(3, 1)
    assert is_minimal(plane, plane_minus_point(plane, 0), 3)


def test_minimal_baer_complement():
    plane = support.desarguesian(2, 2)
    assert is_minimal(plane, baer_complement(plane), 2)


def test_minimal_requires_blocking_set():
    fano = support.desarguesian(2, 1)
    with pytest.raises(ValueError):
        is_minimal(fano, PointSet.full(fano), 2)


def test_not_minimal_example():
    # a full line plus an extra point blocks 1-fold, but interior line points
    # only lie on >=2-secants through the extra point? Construct directly:
    # take a line plus one external point; the external point lies on a
    # tangent, but line points on the line itself see 3 there. Check the
    # verifier agrees with a hand count.
    fano = support.desarguesian(2, 1)
    line_pts = set(fano.lines[0])
    extra = next(i for i in range(7) if i not in line_pts)
    ps = PointSet.from_indices(fano, sorted(line_pts | {extra}))
    assert is_t_fold_blocking(fano, ps, 1)
    spec = spectrum(fano, ps)
    # each point of the base line lies on some tangent iff the hand count
    # says so; trust only the definition here
    expected = True
    for s in ps.indices():
        if not any(
            (ps.mask & fano.line_masks[j]).bit_count() == 1
            for j in fano.lines_through_point(s)
        ):
            expected = False
    assert is_minimal(fano, ps, 1) == expected


def test_is_two_valued():
    plane = support.desarguesian(2, 2)
    unital = hermitian_unital(plane)
    assert is_two_valued(spectrum(plane, unital), 1, 2)
    comp = baer_complement(plane)
    assert is_two_valued(spectrum(plane, comp), 2, 3)
    fano = support.desarguesian(2, 1)
    line = PointSet.from_indices(fano, fano.lines[0])
    assert not is_two_valued(spectrum(fano, line), 1, 1)  # support {1,3} != {1,2}


@pytest.mark.parametrize("p, k", [(3, 1), (2, 2)])
def test_verify_and_predicates_match_point_count_oracle(p, k):
    """verify, spectrum, is_t_fold_blocking and is_minimal against
    support.verdict_by_points on 100 seeded random subsets, every t in 1..n+1;
    a shortfall failure names the oracle's first short line."""
    plane = support.desarguesian(p, k)
    rng = random.Random(7000 + plane.order)
    outcomes = set()
    for _ in range(100):
        density = rng.random()
        indices = [i for i in range(plane.num_points) if rng.random() < density]
        ps = PointSet.from_indices(plane, indices)
        for t in range(1, plane.order + 2):
            spec, blocked, minimal, short = support.verdict_by_points(plane, indices, t)
            verdict = verify(plane, ps, t)
            assert (verdict.t, verdict.size) == (t, len(indices))
            assert (verdict.spectrum, verdict.blocking, verdict.minimal) == (spec, blocked, minimal)
            assert spectrum(plane, ps) == spec
            assert is_t_fold_blocking(plane, ps, t) == blocked
            if blocked:
                assert is_minimal(plane, ps, t) == minimal
            else:
                with pytest.raises(ValueError):
                    is_minimal(plane, ps, t)
            if short is not None:
                kind, expected = "short", "line {} meets the set in {} < t points".format(*short)
            elif not blocked:
                kind, expected = "no t-line", f"no line meets the set in exactly {t} points"
            elif not minimal:
                kind = "uncovered"
                expected = "a set point lies on no line meeting the set in exactly t points"
            else:
                kind, expected = "minimal", None
            assert verdict.failure == expected
            outcomes.add(kind)
    assert outcomes == {"short", "no t-line", "uncovered", "minimal"}
