import json
from fractions import Fraction
from math import comb, factorial, sqrt

import numpy as np
import pytest

from facevol import family, simplex
from facevol import (
    all_face_volumes,
    build_instance,
    build_pair,
    family_constants,
    is_realizable,
    squared_volume,
    sweep_rows,
    two_value_check,
    verify_pair,
    vertices_to_spec,
)
from conftest import circle_instance
from oracles import special_face_squared_volume


def test_constants_n4():
    c = family_constants(4)
    assert c.c_sq == Fraction(1, 3)
    assert c.t0 == 2
    assert c.x_max == Fraction(2, 3)
    assert c.alpha == Fraction(-1, 16)
    assert c.beta == Fraction(1, 4)
    assert c.alpha + c.beta == Fraction(3, 16)  # (sqrt(3)/4)^2


def test_constants_n5():
    c = family_constants(5)
    assert c.t0 == Fraction(3, 2)
    assert c.c_sq == Fraction(3, 8)


@pytest.mark.parametrize("n", range(4, 9))
def test_constants_invariants(n):
    c = family_constants(n)
    assert c.alpha + c.beta == Fraction(n - 1, 2 ** (n - 2) * factorial(n - 2) ** 2)
    assert c.t0 == -c.beta / (2 * c.alpha)
    assert 0 < c.x_max < c.t0
    # the admissible offset reaches exactly to the upper t boundary
    assert c.t0 + c.x_max == c.t_upper
    assert c.t0 - c.x_max > 0


def test_constants_domain():
    with pytest.raises(ValueError):
        family_constants(3)


def test_instance_t1_is_regular():
    instance = build_instance(4, 1)
    assert set(instance.spec.squared_lengths.values()) == {1}
    roundtrip = vertices_to_spec(circle_instance(4, 1).vertices)
    assert np.abs(roundtrip.vector() - 1.0).max() <= 1e-14


def test_instance_t2_has_one_stretched_edge():
    instance = build_instance(4, 2)
    values = sorted(float(v) for v in instance.spec.squared_lengths.values())
    assert len(values) == comb(5, 2)
    assert values == [1] * 9 + [2]
    assert instance.spec.edge(4, 5) == 2
    assert is_realizable(instance.spec)


def test_instance_t_range():
    upper = family_constants(4).t_upper
    assert upper == Fraction(8, 3)
    for bad in (0, -1, upper, float(upper) + 0.1, float("nan"), True):
        with pytest.raises(ValueError):
            build_instance(4, bad)
        with pytest.raises(ValueError):  # no instance holds a t where T(t) does not embed
            family.FamilyInstance(4, bad)


def test_instance_circle_parameters():
    c = family_constants(4)
    instance = circle_instance(4, Fraction(3, 2))
    rho_sq = float(1 - c.c_sq)
    assert instance.p**2 + instance.q**2 == pytest.approx(rho_sq, rel=1e-14)
    assert instance.r**2 + instance.s**2 == pytest.approx(rho_sq, rel=1e-14)
    t = (instance.p - instance.r) ** 2 + (instance.q - instance.s) ** 2
    assert t == pytest.approx(1.5, rel=1e-14)
    assert instance.s >= 0


@pytest.mark.parametrize("n", range(4, 9))
def test_construction_consistency(n):
    c = family_constants(n)
    for frac in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5)):
        t = frac * c.t_upper
        squared = vertices_to_spec(circle_instance(n, t).vertices).squared_lengths
        special = squared.pop((n, n + 1))
        assert special == pytest.approx(float(t), rel=1e-12, abs=1e-14)
        assert max(abs(v - 1.0) for v in squared.values()) <= 1e-14


@pytest.mark.parametrize("n", range(4, 9))
def test_barycenter_distance(n):
    vertices = circle_instance(n, 1.25).vertices
    center = vertices[: n - 1].mean(axis=0)
    c_sq = float(family_constants(n).c_sq)
    for vertex in vertices[: n - 1]:
        diff = vertex - center
        assert float(diff @ diff) == pytest.approx(c_sq, abs=1e-14)


def test_special_face_volume_values():
    assert special_face_squared_volume(4, Fraction(3, 2)) == Fraction(15, 64)
    assert special_face_squared_volume(4, Fraction(5, 2)) == Fraction(15, 64)
    assert float(special_face_squared_volume(4, 1.5)) == pytest.approx(3.75 / 16)
    assert special_face_squared_volume(4, 1) == Fraction(3, 16)
    assert special_face_squared_volume(4, 0) == 0
    assert special_face_squared_volume(4, 2) == Fraction(1, 4)


def test_special_face_volume_matches_cm_oracle_exactly():
    # the special face {i, n, n+1} is a triangle with squared sides (1, 1, t)
    for t in (Fraction(3, 2), Fraction(2), Fraction(5, 2)):
        spec = build_instance(4, t).spec
        assert squared_volume(spec, (1, 4, 5)) == special_face_squared_volume(4, t)


@pytest.mark.parametrize("n", range(4, 9))
def test_special_face_volume_oracle_grid(n):
    upper = float(family_constants(n).t_upper)
    face = tuple(sorted({*range(1, n - 2), n, n + 1}))  # n-1 vertices, both special
    for t in np.linspace(0.05 * upper, 0.95 * upper, 20):
        spec = build_instance(n, float(t)).spec
        oracle = float(squared_volume(spec, face))
        formula = float(special_face_squared_volume(n, float(t)))
        assert formula == pytest.approx(oracle, rel=1e-12)


def test_symmetry_about_t0():
    for n in range(4, 9):
        c = family_constants(n)
        for x in (Fraction(1, 7), Fraction(2, 5)):
            x = x * c.x_max
            assert special_face_squared_volume(n, c.t0 - x) == special_face_squared_volume(
                n, c.t0 + x
            )
        # float path
        x = 0.3 * float(c.x_max)
        lo = special_face_squared_volume(n, float(c.t0) - x)
        hi = special_face_squared_volume(n, float(c.t0) + x)
        assert lo == pytest.approx(hi, abs=1e-14)


def test_build_pair_t_values():
    pair = build_pair(4, 0.5)
    assert pair.minus.t == pytest.approx(1.5)
    assert pair.plus.t == pytest.approx(2.5)
    pair = build_pair(5, 0.25)
    assert pair.minus.t == pytest.approx(1.25)
    assert pair.plus.t == pytest.approx(1.75)


def test_build_pair_range():
    with pytest.raises(ValueError):
        build_pair(4, 0.7)  # x_max = 2/3
    with pytest.raises(ValueError):
        build_pair(4, 0)


def test_verify_pair_report():
    pair = build_pair(4, 0.5, tol=1e-10)
    report = pair.report
    assert report["passed"]
    assert report["max_facevol_reldiff"] <= 1e-12
    assert report["non_congruent"]
    assert report["vol_reldiff"] > 1e-6
    fresh = verify_pair(pair, tol=1e-10)
    assert fresh["vol_minus"] == report["vol_minus"]


def test_pair_differences_vanish_as_x_shrinks():
    # both instances approach T(t0), so every reported difference goes to 0
    vol_diffs = []
    for x in (1e-2, 1e-4, 1e-6):
        report = build_pair(4, x).report
        assert report["max_facevol_reldiff"] <= 1e-12
        vol_diffs.append(report["vol_reldiff"])
    assert vol_diffs[0] > vol_diffs[1] > vol_diffs[2]
    assert vol_diffs[2] <= 1e-4


def test_two_value_check_values():
    regular, special = two_value_check(build_instance(4, 2))
    assert regular == pytest.approx(sqrt(3) / 4, rel=1e-12)
    assert special == pytest.approx(0.5, rel=1e-12)

    regular, special = two_value_check(build_instance(4, 1))
    assert regular == pytest.approx(special, rel=1e-12)


def test_two_value_check_group_sizes():
    from facevol import all_face_volumes

    n = 6
    instance = build_instance(n, family_constants(n).t0)
    fvv = all_face_volumes(instance.spec, n - 2)
    assert len(fvv) == comb(n + 1, 2) == 21
    special_keys = [k for k in fvv.keys() if not {n, n + 1} & set(k)]
    assert len(special_keys) == comb(n - 1, 2)  # faces containing both movers
    regular, special = two_value_check(instance)
    assert regular != pytest.approx(special, rel=1e-6)
    assert len({round(v, 12) for v in fvv.values.values()}) == 2


@pytest.mark.parametrize("n", range(4, 13))
def test_two_value_check_matches_all_faces_oracle(n):
    upper = family_constants(n).t_upper
    fractions = [Fraction(i, 10) * upper for i in range(1, 10)]
    # ints 1 and 2 lie below t_upper = 2 + 2/(n-1); an int t counts as exact
    for t in fractions + [float(t) for t in fractions] + [1, 2]:
        instance = build_instance(n, t)
        regular, special = two_value_check(instance)
        fvv = all_face_volumes(instance.spec, n - 2)
        special_keys = {k for k in fvv.keys() if not {n, n + 1} & set(k)}
        regular_group = [v for k, v in fvv.values.items() if k not in special_keys]
        special_group = [v for k, v in fvv.values.items() if k in special_keys]
        assert len(regular_group) == 2 * n - 1 and len(special_group) == comb(n - 1, 2)
        assert set(regular_group) == {regular} and set(special_group) == {special}, f"t={t}"
        # the group means that two_value_check returned before it took one face per orbit
        assert float(np.mean(regular_group)) == pytest.approx(regular, rel=1e-15, abs=0)
        assert float(np.mean(special_group)) == pytest.approx(special, rel=1e-15, abs=0)


def test_two_value_check_degenerate_special_face_reads_zero():
    # at n=6 the float determinant of the special face at tiny t is about -1e-19
    for t in (5e-324, 1e-16):
        with np.errstate(all="raise", under="ignore"):
            regular, special = two_value_check(build_instance(6, t))
        assert special == 0.0 and regular > 0


def test_two_value_check_int_t_is_exact():
    exact = two_value_check(build_instance(6, Fraction(2)))
    assert two_value_check(build_instance(6, 2)) == exact
    assert exact[1] == sqrt(special_face_squared_volume(6, 2))  # 1/48
    assert two_value_check(build_instance(6, 2.0)) != exact  # the float path rounds


def test_sweep_rows():
    rows = sweep_rows(4, count=3)
    assert len(rows) == 3
    x_max = float(family_constants(4).x_max)
    assert [row["x"] for row in rows] == pytest.approx(
        [x_max / 4, x_max / 2, 3 * x_max / 4]
    )
    for row in rows:
        assert row["max_facevol_reldiff"] <= 1e-12
        assert row["vol_reldiff"] > 1e-6
        assert row["t_minus"] + row["t_plus"] == pytest.approx(2 * 2.0)


def all_faces_report(pair, tol=1e-10):
    """The mirror-pair report from every codimension-2 face of both instances."""
    n = pair.n
    spec_minus = pair.minus.spec
    spec_plus = pair.plus.spec

    faces_minus = np.sort(all_face_volumes(spec_minus, n - 2).vector())
    faces_plus = np.sort(all_face_volumes(spec_plus, n - 2).vector())
    face_reldiff = float(np.max(np.abs(faces_plus - faces_minus) / faces_minus))

    full = tuple(range(1, n + 2))
    vol_minus = sqrt(float(squared_volume(spec_minus, full)))
    vol_plus = sqrt(float(squared_volume(spec_plus, full)))
    vol_reldiff = abs(vol_plus - vol_minus) / vol_minus

    edges_minus = np.sort(spec_minus.vector())
    edges_plus = np.sort(spec_plus.vector())
    edge_diff = float(np.max(np.abs(edges_plus - edges_minus)))
    non_congruent = edge_diff > 1e-12 * float(edges_minus.max())

    return {
        "n": n,
        "x": float(pair.x),
        "t_minus": float(pair.minus.t),
        "t_plus": float(pair.plus.t),
        "max_facevol_reldiff": face_reldiff,
        "vol_minus": vol_minus,
        "vol_plus": vol_plus,
        "vol_reldiff": vol_reldiff,
        "non_congruent": bool(non_congruent),
        "tol": tol,
        "passed": bool(face_reldiff <= tol and vol_reldiff > tol and non_congruent),
    }


@pytest.mark.parametrize("n", range(4, 11))
def test_orbit_reports_match_all_faces_oracle(n):
    x_max = family_constants(n).x_max
    exact = [Fraction(i, 10) * x_max for i in range(1, 10)]
    oracles = []
    for x in exact + [0.5, 0.25, 1e-2, 1e-4, 1e-6]:
        pair = build_pair(n, x)
        oracle = json.dumps(all_faces_report(pair))
        assert json.dumps(pair.report) == oracle, f"n={n}, x={x}"
        assert json.dumps(verify_pair(pair, tol=1e-12)) == json.dumps(all_faces_report(pair, 1e-12))
        oracles.append(json.loads(oracle))
    # the sweep grid i/10 * x_max, i = 1..9, is the exact x above
    rows = [{column: oracle[column] for column in family.SWEEP_COLUMNS} for oracle in oracles[:9]]
    assert json.dumps(sweep_rows(n, 9)) == json.dumps(rows)


@pytest.mark.parametrize("n", range(4, 11))
def test_orbit_volumes_are_all_face_volumes(n):
    ts = [Fraction(i, 10) * family_constants(n).t_upper for i in range(1, 10)]
    for batch in (ts, [float(t) for t in ts]):
        faces = family._sorted_face_volumes(n, batch)
        total_sq = family._squared_volumes(n, batch, np.arange(n + 1)[None, :])[:, 0]
        for t, row, sq in zip(batch, faces, total_sq.tolist()):
            spec = build_instance(n, t).spec
            assert np.array_equal(row, np.sort(all_face_volumes(spec, n - 2).vector())), f"t={t}"
            assert sq == float(squared_volume(spec, tuple(range(1, n + 2)))), f"t={t}"


def test_sweep_rows_takes_two_eliminations_and_builds_no_instance(monkeypatch):
    calls = []
    bareiss = simplex.bareiss_determinants

    def counted(stack):
        calls.append(stack.shape)
        return bareiss(stack)

    def no_instance(n, t):
        raise AssertionError("sweep_rows built an instance")

    monkeypatch.setattr(simplex, "bareiss_determinants", counted)
    monkeypatch.setattr(family, "build_instance", no_instance)
    rows = sweep_rows(6, count=5)
    assert len(rows) == 5
    # doubled Gram matrices of the regular face and the special face of 2*5 instances
    # (5 vertices, order 4), then of the 10 whole simplices (7 vertices, order 6)
    assert calls == [(11, 4, 4), (10, 6, 6)]


def test_family_limits():
    family_constants(family.MAX_N)
    with pytest.raises(ValueError, match="above the limit"):
        family_constants(family.MAX_N + 1)
    with pytest.raises(ValueError, match="above the limit"):
        build_instance(family.MAX_N + 1, 1.0)
    with pytest.raises(ValueError, match="above the limit"):
        sweep_rows(4, family.MAX_SWEEP_COUNT + 1)
    assert len(sweep_rows(4, family.MAX_SWEEP_COUNT)) == family.MAX_SWEEP_COUNT
