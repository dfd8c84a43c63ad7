import pytest

import support
from blocksets import (
    FamilyLabel,
    PointSet,
    baer_complement,
    baer_subplane,
    characterize,
    hermitian_unital,
    is_minimal,
    is_t_fold_blocking,
    load_point_set,
    max_size_bound,
    plane_minus_point,
    save_point_set,
    spectrum,
)


def test_unital_sizes():
    assert hermitian_unital(support.desarguesian(2, 2)).size == 9  # 4*2+1
    assert hermitian_unital(support.desarguesian(3, 2)).size == 28  # 9*3+1


def test_unital_spectra():
    p4 = support.desarguesian(2, 2)
    assert set(spectrum(hermitian_unital(p4))) == {1, 3}
    p9 = support.desarguesian(3, 2)
    assert set(spectrum(hermitian_unital(p9))) == {1, 4}


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (2, 4)])
def test_family_masks_match_tuple_oracle(p, k):
    plane = support.desarguesian(p, k)
    unital, baer = support.unital_and_baer_masks_by_enumeration(
        support.TupleField(plane.field)
    )
    assert hermitian_unital(plane).mask == unital
    assert baer_subplane(plane).mask == baer


def test_baer_subplane_sizes_and_spectra():
    p4 = support.desarguesian(2, 2)
    b4 = baer_subplane(p4)
    assert b4.size == 7
    assert set(spectrum(b4)) == {1, 3}
    p9 = support.desarguesian(3, 2)
    b9 = baer_subplane(p9)
    assert b9.size == 13
    assert set(spectrum(b9)) == {1, 4}


def test_baer_complement_sizes_and_spectra():
    p4 = support.desarguesian(2, 2)
    c4 = baer_complement(p4)
    assert c4.size == 14
    assert set(spectrum(c4)) == {2, 4}
    p9 = support.desarguesian(3, 2)
    c9 = baer_complement(p9)
    assert c9.size == 78
    assert set(spectrum(c9)) == {6, 9}


def test_baer_partition():
    plane = support.desarguesian(3, 2)
    sub = baer_subplane(plane)
    comp = baer_complement(plane)
    assert sub.mask & comp.mask == 0
    assert sub.mask | comp.mask == (1 << plane.num_points) - 1


@pytest.mark.parametrize("p", [2, 3])
def test_unique_secant_through_external_points(p):
    # through every point outside the Baer subplane there is exactly one
    # line meeting the subplane in sqrt(n)+1 points
    plane = support.desarguesian(p, 2)
    sub = baer_subplane(plane)
    r = p  # sqrt of the plane order
    for i in range(plane.num_points):
        if i in sub:
            continue
        secants = sum(
            (sub.mask & plane.line_masks[j]).bit_count() == r + 1
            for j in plane.lines_through_point(i)
        )
        assert secants == 1


def test_plane_minus_point_fano():
    fano = support.desarguesian(2, 1)
    ps = plane_minus_point(fano, 0)
    assert ps.size == 6
    assert spectrum(ps) == {2: 3, 3: 4}


def test_plane_minus_point_pg24():
    plane = support.desarguesian(2, 2)
    ps = plane_minus_point(plane, 5)
    assert ps.size == 20
    assert spectrum(ps) == {4: 5, 5: 16}


def test_plane_minus_point_rejects_bad_index():
    fano = support.desarguesian(2, 1)
    with pytest.raises(ValueError):
        plane_minus_point(fano, 7)


def test_constructions_require_coordinates(tmp_path):
    from blocksets import load_plane, save_plane

    plane = support.desarguesian(2, 2)
    path = tmp_path / "plane.txt"
    save_plane(plane, path)
    loaded = load_plane(path)
    with pytest.raises(ValueError, match="coordinate"):
        hermitian_unital(loaded)
    with pytest.raises(ValueError, match="coordinate"):
        baer_subplane(loaded)
    # minus-point needs no coordinates
    assert plane_minus_point(loaded, 0).size == 20


def test_constructions_require_even_degree():
    fano = support.desarguesian(2, 1)
    with pytest.raises(ValueError, match="even"):
        hermitian_unital(fano)


@pytest.mark.parametrize("p", [2, 3])
def test_families_hit_bound_and_verify(p):
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
        assert is_t_fold_blocking(ps, t)
        assert is_minimal(ps, t)
        assert set(spectrum(ps)) == {t, bv.b + 1}


def test_characterize_constructions():
    plane = support.desarguesian(2, 2)
    fano = support.desarguesian(2, 1)
    assert characterize(hermitian_unital(plane)) is FamilyLabel.UNITAL
    assert characterize(baer_complement(plane)) is FamilyLabel.BAER_COMPLEMENT
    assert (
        characterize(plane_minus_point(fano, 0))
        is FamilyLabel.PLANE_MINUS_POINT
    )


def test_characterize_unclassified():
    plane = support.desarguesian(2, 2)
    line = PointSet.from_indices(plane, plane.lines[0])
    assert characterize(line) is FamilyLabel.UNCLASSIFIED
    # right size for a unital but wrong spectrum: 9 points containing a line
    off_line = [i for i in range(plane.num_points) if i not in plane.lines[0]]
    bad = PointSet.from_indices(plane, list(plane.lines[0]) + off_line[:4])
    assert bad.size == 9
    if set(spectrum(bad)) != {1, 3}:
        assert characterize(bad) is FamilyLabel.UNCLASSIFIED


def test_point_set_basics():
    fano = support.desarguesian(2, 1)
    ps = PointSet.from_indices(fano, [1, 3, 5])
    assert len(ps) == 3
    assert ps.indices() == (1, 3, 5)
    assert 3 in ps and 0 not in ps
    assert ps.complement().indices() == (0, 2, 4, 6)
    with pytest.raises(ValueError):
        PointSet.from_indices(fano, [7])
    with pytest.raises(ValueError):
        PointSet(fano, 1 << 7)


def test_point_set_round_trip(tmp_path):
    plane = support.desarguesian(2, 2)
    ps = hermitian_unital(plane)
    path = tmp_path / "unital.txt"
    save_point_set(ps, path)
    assert load_point_set(path, plane) == ps


def test_empty_point_set_round_trip(tmp_path):
    fano = support.desarguesian(2, 1)
    path = tmp_path / "empty.txt"
    save_point_set(PointSet.empty(fano), path)
    assert load_point_set(path, fano).size == 0


def test_point_set_load_order_mismatch(tmp_path):
    from blocksets import PlaneFormatError

    plane = support.desarguesian(2, 2)
    fano = support.desarguesian(2, 1)
    path = tmp_path / "set.txt"
    save_point_set(hermitian_unital(plane), path)
    with pytest.raises(PlaneFormatError, match="order mismatch"):
        load_point_set(path, fano)


def test_point_set_load_size_mismatch(tmp_path):
    from blocksets import PlaneFormatError

    fano = support.desarguesian(2, 1)
    path = tmp_path / "set.txt"
    path.write_text("order 2\nsize 3\n0 1\n")
    with pytest.raises(PlaneFormatError, match="size"):
        load_point_set(path, fano)


@pytest.mark.parametrize(
    "text,message",
    [
        ("order 2\nsize 3\n0 1 2\n5\n", "line 4: unexpected row"),
        ("order x\nsize 0\n", "line 1: order is not an integer"),
        ("# by hand\norder 2\nsize x\n", "line 3: size is not an integer"),
        ("size 3\norder 2\n", "line 1: expected 'order <n>'"),
        ("order 2\n# no size\n0 1 2\n", "line 3: expected 'size <m>'"),
        ("\norder 2\n", "line 2: no 'size <m>' line"),
        ("order 4\nsize 0\n", "line 1: order mismatch"),
        ("order 2\n# three\nsize 3\n0 1 x\n", "line 4: non-integer point index"),
        ("order 2\nsize 3\n\n0 1\n", "line 4: size field 3 != 2"),
        ("order 2\nsize 2\n1 0\n", "line 3: indices must be sorted"),
        ("order 2\nsize 1\n7\n", "line 3: point index 7 out of range"),
        ("# nothing\n\n", "empty point-set file"),
    ],
)
def test_point_set_load_rejects_malformed_file(tmp_path, text, message):
    from blocksets import PlaneFormatError

    fano = support.desarguesian(2, 1)
    path = tmp_path / "set.txt"
    path.write_text(text)
    with pytest.raises(PlaneFormatError, match=message):
        load_point_set(path, fano)


def test_point_set_load_skips_comments(tmp_path):
    fano = support.desarguesian(2, 1)
    path = tmp_path / "set.txt"
    path.write_text("# a line of the Fano plane\norder 2\n# its points\nsize 3\n0 1 2\n")
    assert load_point_set(path, fano).indices() == (0, 1, 2)
