"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with pytest -s / -rP) after
its assertions; stated runtime budgets are asserted where given.
"""

import time
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from facevol import (
    all_face_volumes,
    analytic_jacobian,
    basin_probe,
    build_instance,
    build_kneser_adjacency,
    build_pair,
    exact_determinant,
    family_constants,
    jacobian_rank,
    multiplicities_from_traces,
    predicted_eigenvalues,
    predicted_spectrum,
    regular_simplex,
    solve,
    squared_volume,
    verify_annihilation,
    verify_regular_point,
)
from facevol.inverse import InverseProblem
from conftest import perturbed_regular
from oracles import euler_identity_check, fd_jacobian, special_face_squared_volume


def test_criterion_1_determinant_identity():
    started = time.perf_counter()
    for n in range(3, 13):
        det = abs(exact_determinant(build_kneser_adjacency(n, 2)))
        assert det == (n - 2) ** (n + 1) * (n - 1) // 2, f"n={n}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"PASS criterion 1: |det| = (n-2)^(n+1)(n-1)/2 exactly for n=3..12 ({elapsed:.2f}s)")


def test_criterion_2_spectrum_certification():
    started = time.perf_counter()
    cases = [(4, 2), (5, 2), (6, 2), (8, 2), (6, 3), (8, 3), (8, 4), (9, 4)]
    for n, k in cases:
        adj = build_kneser_adjacency(n, k)
        spectrum = predicted_spectrum(n, k)
        assert verify_annihilation(adj, spectrum), f"(n,k)=({n},{k})"
        mults = multiplicities_from_traces(adj, predicted_eigenvalues(n, k))
        assert all(m >= 0 for m in mults)
        assert sum(mults) == comb(n + 1, k)
        if k == 2:
            pairs = sorted(zip(spectrum.eigenvalues, spectrum.multiplicities), key=lambda p: -p[0])
            assert pairs == [
                (comb(n - 1, 2), 1),
                (1, (n + 1) * (n - 2) // 2),
                (2 - n, n),
            ], f"n={n}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"PASS criterion 2: exact annihilation + multiplicities for {len(cases)} (n,k) pairs ({elapsed:.2f}s)")


def test_criterion_3_regular_point_jacobian():
    for n in range(3, 11):
        report = verify_regular_point(n, tol=1e-9)
        assert report["max_abs_deviation"] <= 1e-9, f"n={n}"
    worst_rel = 0.0
    for n in (4, 5, 6):
        rng = np.random.default_rng(100 + n)
        specs = [regular_simplex(n)] + [perturbed_regular(n, rng) for _ in range(10)]
        for spec in specs:
            jac = analytic_jacobian(spec)
            diff = np.abs(fd_jacobian(spec) - jac).max() / np.abs(jac).max()
            worst_rel = max(worst_rel, diff)
            assert diff <= 1e-6, f"n={n}"
    print(
        "PASS criterion 3: |J - c*M| <= 1e-9 for n=3..10; "
        f"fd agreement <= 1e-6 relative (worst {worst_rel:.2e})"
    )


def test_criterion_4_independence_certificate():
    for n in range(4, 11):
        rank, ratio = jacobian_rank(regular_simplex(n))
        assert rank == comb(n + 1, 2), f"n={n}"
        assert ratio > 1e-6, f"n={n}"
    print("PASS criterion 4: full Jacobian rank binom(n+1,2) with sv ratio > 1e-6 for n=4..10")


def test_criterion_5_euler_identity():
    for n in range(3, 7):
        rng = np.random.default_rng(200 + n)
        for _ in range(20):
            spec = perturbed_regular(n, rng)
            for face_dim in range(1, n + 1):
                scale = face_dim * all_face_volumes(spec, face_dim).vector().max()
                assert euler_identity_check(spec, face_dim) <= 1e-10 * scale
    print("PASS criterion 5: Euler residual <= 1e-10 relative, 20 specs per n=3..6, all face dims")


def test_criterion_6_mirror_pairs():
    for n in range(4, 9):
        constants = family_constants(n)
        for tenths in (1, 5, 9):
            x = Fraction(tenths, 10) * constants.x_max
            report = build_pair(n, x, tol=1e-12).report
            assert report["max_facevol_reldiff"] <= 1e-12, f"n={n}, x={x}"
            assert report["non_congruent"], f"n={n}, x={x}"
            assert report["vol_reldiff"] > 1e-6, f"n={n}, x={x}"
        face = tuple(sorted({*range(1, n - 2), n, n + 1}))
        upper = float(constants.t_upper)
        for t in np.linspace(0.05 * upper, 0.95 * upper, 20):
            oracle = float(squared_volume(build_instance(n, float(t)).spec, face))
            formula = float(special_face_squared_volume(n, float(t)))
            assert abs(formula - oracle) <= 1e-12 * max(abs(oracle), 1e-30), f"n={n}, t={t}"
    print("PASS criterion 6: mirror pairs share codim-2 volumes, differ in edges and volume, n=4..8")


def test_criterion_7_inverse_non_uniqueness():
    started = time.perf_counter()
    pair = build_pair(4, Fraction(1, 2))
    target = all_face_volumes(pair.minus.spec, 2)
    clusters = basin_probe(target, num_starts=50, seed=0)
    assert len(clusters) >= 2
    specials = [float(np.sort(c.solution.vector())[-1]) for c in clusters]
    assert any(abs(s - 1.5) <= 1e-6 for s in specials)
    assert any(abs(s - 2.5) <= 1e-6 for s in specials)

    rng = np.random.default_rng(77)
    for _ in range(10):
        spec = perturbed_regular(4, rng)
        result = solve(
            InverseProblem(target=all_face_volumes(spec, 2), start=spec, tol=1e-12)
        )
        assert result.converged and result.residual_norm <= 1e-12
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"PASS criterion 7: 50-start probe finds preimages at 1.5 and 2.5; "
        f"round-trip residual <= 1e-12 ({elapsed:.2f}s)"
    )


def test_criterion_8_full_scale_exact_identities():
    # headline identities reproduced at the spec's full desk-scale sizes,
    # no scaled-down substitutions
    adj = build_kneser_adjacency(9, 4)
    assert adj.order == comb(10, 4) == 210
    assert verify_annihilation(adj, predicted_spectrum(9, 4))

    adj12 = build_kneser_adjacency(12, 2)
    assert adj12.order == comb(13, 2) == 78
    assert abs(exact_determinant(adj12)) == 10**13 * 11 // 2

    report = verify_regular_point(10, tol=1e-9)
    assert report["rank"] == comb(11, 2) == 55
    assert report["passed"]
    print("PASS criterion 8: exact identities reproduced at full scale (orders 210, 78, 55)")
