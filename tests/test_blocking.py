import ast
import functools
import inspect
import pathlib
import random
from math import isqrt

import pytest

import support
from blocksets import (
    PointSet,
    baer_complement,
    hermitian_unital,
    max_size_bound,
    plane_minus_point,
    prime_power,
    search,
    spectrum,
)
from blocksets.blocking import verify
from blocksets.cli import main
from blocksets.search import DEFAULT_NODE_BUDGET
from test_golden import golden_point_sets


def test_spectrum_empty_set():
    fano = support.desarguesian(2, 1)
    assert spectrum(PointSet(fano, 0)) == {0: 7}


def test_spectrum_full_plane():
    fano = support.desarguesian(2, 1)
    assert spectrum(PointSet(fano, 0).complement()) == {3: 7}


def test_spectrum_single_line():
    fano = support.desarguesian(2, 1)
    line = PointSet.from_indices(fano, fano.lines[0])
    assert spectrum(line) == {1: 6, 3: 1}


def test_spectrum_invariants_random_subsets():
    plane = support.desarguesian(3, 1)
    rng = random.Random(20240717)
    n = plane.order
    for _ in range(50):
        size = rng.randint(0, plane.num_points)
        ps = PointSet.from_indices(plane, rng.sample(range(plane.num_points), size))
        spec = spectrum(ps)
        assert sum(spec.values()) == n * n + n + 1
        assert sum(k * v for k, v in spec.items()) == ps.size * (n + 1)


def test_spectrum_json_serialization(tmp_path, capsys):
    """A spectrum is ordered once, numerically, where it is tallied, and the
    CLI writes it as it stands: PG(2,9) minus a point meets lines in 9 and
    10 points, which string order would swap."""
    assert list(spectrum(plane_minus_point(support.desarguesian(3, 2), 0))) == [9, 10]
    plane, points = str(tmp_path / "pg29.txt"), str(tmp_path / "minus-point.txt")
    assert main(["construct", "minus-point", "9", "--output", points, "--plane-out", plane]) == 0
    files = ["--plane", plane, "--set", points]
    expected = '{"9": 10, "10": 81}'
    assert main(["spectrum", *files]) == 0
    assert capsys.readouterr().out == expected + "\n"
    assert main(["verify", *files, "--t", "9"]) == 0
    assert capsys.readouterr().out.endswith(f" spectrum={expected}\n")
    assert main(["verify", *files, "--t", "9", "--json"]) == 0
    assert f'"spectrum": {expected},' in capsys.readouterr().out


def test_fano_minus_point_blocking():
    fano = support.desarguesian(2, 1)
    ps = plane_minus_point(fano, 0)
    assert verify(ps, 2).blocking
    assert not verify(ps, 1).blocking  # no line meets in exactly 1


def test_unital_is_one_fold_blocking():
    plane = support.desarguesian(2, 2)
    assert verify(hermitian_unital(plane), 1).blocking


def test_t_range_enforced():
    fano = support.desarguesian(2, 1)
    ps = PointSet(fano, 0).complement()
    with pytest.raises(ValueError):
        verify(ps, 0)
    with pytest.raises(ValueError):
        verify(ps, 5)
    # t = n+1 is legal in the verifier: the full plane is (n+1)-fold blocked
    assert verify(ps, 3).blocking


def test_blocking_monotone_in_t():
    plane = support.desarguesian(3, 1)
    ps = plane_minus_point(plane, 4)
    spec = spectrum(ps)
    low = min(spec)
    for t in range(1, plane.order + 2):
        expected = min(spec) >= t and t in spec
        assert verify(ps, t).blocking == expected
        if t > low:
            assert not verify(ps, t).blocking


def test_minimal_plane_minus_point():
    plane = support.desarguesian(3, 1)
    assert verify(plane_minus_point(plane, 0), 3).minimal is True


def test_minimal_baer_complement():
    plane = support.desarguesian(2, 2)
    assert verify(baer_complement(plane), 2).minimal is True


def test_minimal_requires_blocking_set():
    # minimality is undefined for a set that does not block: None, not False
    fano = support.desarguesian(2, 1)
    verdict = verify(PointSet(fano, 0).complement(), 2)
    assert (verdict.blocking, verdict.minimal) == (False, None)


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
    verdict = verify(ps, 1)
    assert verdict.blocking
    # each point of the base line lies on some tangent iff the hand count
    # says so; trust only the definition here
    expected = True
    for s in ps.indices():
        if not any(
            (ps.mask & fano.line_masks[j]).bit_count() == 1
            for j in fano.point_lines[s]
        ):
            expected = False
    assert verdict.minimal == expected


def test_is_two_valued():
    """The extremal families of PG(2,4) meet lines in t or b+1 points only."""
    plane = support.desarguesian(2, 2)
    assert spectrum(hermitian_unital(plane)) == {1: 9, 3: 12}
    assert spectrum(baer_complement(plane)) == {2: 7, 4: 14}


@pytest.mark.parametrize("p, k", [(3, 1), (2, 2)])
def test_verify_and_predicates_match_point_count_oracle(p, k):
    """verify and spectrum against support.verdict_by_points on 100 seeded
    random subsets, every t in 1..n+1; a shortfall failure names the oracle's
    first short line."""
    plane = support.desarguesian(p, k)
    rng = random.Random(7000 + plane.order)
    outcomes = set()
    for _ in range(100):
        density = rng.random()
        indices = [i for i in range(plane.num_points) if rng.random() < density]
        ps = PointSet.from_indices(plane, indices)
        for t in range(1, plane.order + 2):
            spec, blocked, minimal, short = support.verdict_by_points(plane, indices, t)
            verdict = verify(ps, t)
            assert (verdict.t, verdict.size) == (t, len(indices))
            assert (verdict.spectrum, verdict.blocking, verdict.minimal) == (spec, blocked, minimal)
            assert spectrum(ps) == spec
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


def test_no_public_callable_takes_a_plane_beside_a_point_set():
    """A point set brings its plane, so no call can pass a mismatched pair."""
    import blocksets

    for name in blocksets.__all__:
        obj = getattr(blocksets, name)
        if not callable(obj):
            continue
        try:
            params = set(inspect.signature(obj).parameters)
        except (TypeError, ValueError):
            continue
        assert not ("plane" in params and params & {"point_set", "sets"}), name


def _names_used(tree):
    """Every name a module reads: a Name, an Attribute's attribute, or a name
    inside a string annotation.  Definitions and imports are not uses."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _names_used(ast.parse(sub.value, mode="eval"))
    return used


def _public_members(cls):
    """The public non-dunder methods and properties a class defines."""
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    return {
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))
    }


def test_every_public_name_has_a_caller_in_the_package():
    """The public API is what the program calls: each name in __all__ is
    used by some module of the package other than __init__, and so is each
    public method and property of a public class, read as an attribute."""
    import blocksets

    package = pathlib.Path(blocksets.__file__).parent
    used, attributes = set(), set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= _names_used(tree)
            attributes |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert sorted(set(blocksets.__all__) - used) == []
    members = {
        f"{name}.{member}"
        for name in blocksets.__all__
        if inspect.isclass(cls := getattr(blocksets, name))
        for member in _public_members(cls)
    }
    assert sorted(m for m in members if m.split(".")[1] not in attributes) == []


def test_every_public_name_is_a_function_or_class_of_the_package():
    """__all__ exports no alias of a builtin or a typing construct: each
    name is a function or class that a module of the package defines."""
    import blocksets

    strays = [
        name
        for name in blocksets.__all__
        if not (inspect.isfunction(obj := getattr(blocksets, name)) or inspect.isclass(obj))
        or not obj.__module__.startswith("blocksets")
    ]
    assert strays == []


def _assert_matches_mask_oracle(ps, ts):
    """The whole Verdict at each t, and the spectrum, equal the mask
    oracle's, which counts every line of the plane by mask intersection."""
    for t in ts:
        expected = support.verdict_by_masks(ps, t)
        assert (verify(ps, t), spectrum(ps)) == (expected, expected.spectrum), (ps.indices(), t)


def _checked_ts(plane, *ts):
    """The given t that the verifier takes, with t = n + 1, where the lines
    that miss the complement are the t-lines, in sorted order."""
    return sorted({t for t in ts if 1 <= t <= plane.order} | {plane.order + 1})


# Each search below stops at this budget if it has not finished: every tree
# up to PG(2,4) finishes, as do PG(2,q) at t = q on both sides up to PG(2,16).
LEAF_BUDGET = 40000


@pytest.mark.parametrize("other", [False, True], ids=["searched_side", "other_side"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_verify_matches_mask_oracle_on_search_leaves(q, other):
    """Every leaf the search reaches within LEAF_BUDGET nodes, at every
    attainable t, on the side the program searches and on the other, and
    the complement of each: the sets the verifier sees from both sides."""
    plane = support.desarguesian(*prime_power(q))
    seen = 0
    for t in range(1, q + 1):
        if not max_size_bound(q, t).attainable:
            continue
        m, lo, hi = support.search_side(plane, t, other)
        leaves, _, _ = search._pruned_search(plane, m, lo, hi, LEAF_BUDGET)
        for mask in leaves:
            ps = PointSet(plane, mask)
            for each in (ps, ps.complement()):
                _assert_matches_mask_oracle(each, _checked_ts(plane, t, lo, hi))
        seen += len(leaves)
    assert seen


def test_verify_matches_mask_oracle_on_golden_point_sets():
    for _, ps in golden_point_sets().values():
        _assert_matches_mask_oracle(ps, range(1, ps.plane.order + 2))


@pytest.mark.parametrize("p, k", [(2, 2), (3, 2), (2, 4), (5, 2)],
                         ids=["pg24", "pg29", "pg216", "pg225"])
def test_verify_matches_mask_oracle_on_families_and_their_cuts(p, k):
    """The three families, and each with every one of its points removed."""
    plane = support.desarguesian(p, k)
    n = plane.order
    r = isqrt(n)
    families = [(hermitian_unital(plane), 1), (baer_complement(plane), n - r),
                (plane_minus_point(plane, 0), n)]
    for ps, t in families:
        ts = _checked_ts(plane, t)
        _assert_matches_mask_oracle(ps, ts)
        for i in ps.indices():
            _assert_matches_mask_oracle(PointSet(plane, ps.mask ^ (1 << i)), ts)


@pytest.mark.parametrize("k", [5, 6], ids=["pg232", "pg264"])
def test_verify_matches_mask_oracle_on_sampled_leaves_of_large_planes(k):
    """Every 16th leaf of the t = q search, a single point, and the set it
    stands for, the plane minus that point."""
    plane = support.desarguesian(2, k)
    q = plane.order
    leaves, _, complete = search._pruned_search(plane, *support.search_side(plane, q),
                                                DEFAULT_NODE_BUDGET)
    assert complete and len(leaves) == plane.num_points
    for mask in leaves[::16]:
        ps = PointSet(plane, mask)
        _assert_matches_mask_oracle(ps, [1])
        _assert_matches_mask_oracle(ps.complement(), [q, q + 1])
