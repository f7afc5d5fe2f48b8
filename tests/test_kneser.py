import json
from itertools import combinations
from math import comb, prod

import numpy as np
import pytest

from facevol import (
    SpectrumSpec,
    build_kneser_adjacency,
    exact_determinant,
    kneser,
    line_graph_adjacency,
    line_graph_complement_check,
    multiplicities_from_traces,
    predicted_eigenvalues,
    predicted_spectrum,
    spectrum_report,
    verify_annihilation,
)
from facevol.exact import exact_matmul

# the (n, k) of every spectrum request in the certify-volumes bench workload
BENCH_CASES = [(n, 2) for n in range(4, 13)] + [(n, 3) for n in range(6, 13)] + [(8, 4), (9, 4)]


def pairwise_shared(n, k, shared):
    """Reference: 1 where two k-subsets share exactly `shared` elements, pair by pair."""
    masks = [sum(1 << v for v in s) for s in combinations(range(n + 1), k)]
    return np.array([[(a & b).bit_count() == shared for b in masks] for a in masks], dtype=np.int64)


@pytest.mark.parametrize("n", range(2, 14))
def test_adjacency_matches_pairwise_reference(n):
    # every k with 2k <= n+1; for larger k the Kneser graph has no edges
    for k in range(1, (n + 1) // 2 + 1):
        assert np.array_equal(build_kneser_adjacency(n, k).matrix, pairwise_shared(n, k, 0)), k
    assert np.array_equal(line_graph_adjacency(n), pairwise_shared(n, 2, 1))


@pytest.mark.parametrize(
    "n, k",
    [(n, 2) for n in range(3, 13)] + [(n, 3) for n in range(5, 11)] + [(n, 4) for n in range(7, 10)],
)
def test_report_det_matches_bareiss(n, k):
    assert spectrum_report(n, k)["det"] == str(exact_determinant(build_kneser_adjacency(n, k)))


def test_petersen_adjacency():
    adj = build_kneser_adjacency(4, 2)
    assert adj.order == 10
    assert adj.degree == 3
    assert np.array_equal(adj.matrix, adj.matrix.T)
    assert np.all(np.diag(adj.matrix) == 0)
    assert np.all(adj.matrix.sum(axis=1) == 3)
    row = adj.subsets.index((1, 2))
    assert adj.matrix[row, adj.subsets.index((3, 4))] == 1
    assert adj.matrix[row, adj.subsets.index((2, 3))] == 0


def test_adjacency_84_vertices():
    adj = build_kneser_adjacency(8, 3)
    assert adj.order == 84
    assert np.all(adj.matrix.sum(axis=1) == 20)


@pytest.mark.parametrize(
    "n, k, expected",
    [
        (4, 2, [3, -2, 1]),
        (8, 3, [20, -10, 4, -1]),
        (5, 2, [6, -3, 1]),
    ],
)
def test_predicted_eigenvalues(n, k, expected):
    assert predicted_eigenvalues(n, k) == expected


def test_predicted_eigenvalues_last_is_one():
    assert predicted_eigenvalues(6, 3)[-1] == -1  # (-1)^3 * binom(1,0)


def test_predicted_eigenvalues_range_check():
    with pytest.raises(ValueError):
        predicted_eigenvalues(4, 1)
    with pytest.raises(ValueError):
        predicted_eigenvalues(4, 3)


def test_spectrum_closed_form_k2():
    spectrum = predicted_spectrum(4, 2)
    assert spectrum.eigenvalues == (3, -2, 1)
    assert spectrum.multiplicities == (1, 4, 5)
    spectrum = predicted_spectrum(6, 2)
    assert spectrum.multiplicities == (1, 6, 14)


def test_k2_at_n3_boundary():
    # 2k = n+1: the formula repeats eigenvalue 1, closed-form multiplicities
    # still certify via annihilation and the determinant
    spectrum = predicted_spectrum(3, 2)
    assert spectrum.eigenvalues == (1, -1, 1)
    assert spectrum.multiplicities == (1, 3, 2)
    adj = build_kneser_adjacency(3, 2)
    assert verify_annihilation(adj, spectrum)
    assert abs(exact_determinant(adj)) == 1


def test_trace_solve_matches_closed_form():
    adj = build_kneser_adjacency(4, 2)
    assert multiplicities_from_traces(adj, [3, -2, 1]) == [1, 4, 5]
    adj = build_kneser_adjacency(6, 2)
    assert multiplicities_from_traces(adj, [10, -4, 1]) == [1, 6, 14]


def test_trace_solve_large_k():
    spectrum = predicted_spectrum(8, 4)
    assert sum(spectrum.multiplicities) == comb(9, 4) == 126
    assert all(m > 0 for m in spectrum.multiplicities)


def test_trace_solve_rejects_repeats():
    adj = build_kneser_adjacency(4, 2)
    with pytest.raises(ValueError):
        multiplicities_from_traces(adj, [3, 3, 1])


def test_annihilation_certificates():
    adj = build_kneser_adjacency(4, 2)
    assert verify_annihilation(adj, SpectrumSpec((3, 1, -2), (1, 5, 4)))
    adj = build_kneser_adjacency(5, 2)
    assert verify_annihilation(adj, SpectrumSpec((6, 1, -3), (1, 9, 5)))


def test_annihilation_all_small_cases():
    for n in range(4, 10):
        for k in range(2, n // 2 + 1):
            adj = build_kneser_adjacency(n, k)
            assert verify_annihilation(adj, predicted_spectrum(n, k)), (n, k)


def test_annihilation_rejects_wrong_spectrum():
    adj = build_kneser_adjacency(4, 2)
    assert not verify_annihilation(adj, SpectrumSpec((3, -2, 2), (1, 4, 5)))


@pytest.mark.parametrize("n, expected", [(4, 48), (5, 1458), (3, 1)])
def test_exact_determinant_values(n, expected):
    # half * (n-2)^(n+1) * (n-1)
    assert expected == (n - 2) ** (n + 1) * (n - 1) // 2
    assert abs(exact_determinant(build_kneser_adjacency(n, 2))) == expected


def test_zero_trace_and_edge_count():
    for n, k in [(4, 2), (6, 3), (8, 4)]:
        adj = build_kneser_adjacency(n, k)
        matrix = adj.matrix.astype(np.int64)
        assert np.trace(matrix) == 0
        assert np.trace(matrix @ matrix) == adj.order * adj.degree


def test_determinant_matches_spectrum():
    for n, k in [(4, 2), (6, 2), (6, 3), (8, 4)]:
        adj = build_kneser_adjacency(n, k)
        spectrum = predicted_spectrum(n, k)
        assert verify_annihilation(adj, spectrum)
        product = 1
        for lam, mult in zip(spectrum.eigenvalues, spectrum.multiplicities):
            product *= abs(lam) ** mult
        assert abs(exact_determinant(adj)) == product


def test_spectrum_zero_sum():
    for n, k in [(4, 2), (8, 2), (8, 3), (9, 4)]:
        spectrum = predicted_spectrum(n, k)
        assert sum(spectrum.multiplicities) == comb(n + 1, k)
        assert sum(l * m for l, m in zip(spectrum.eigenvalues, spectrum.multiplicities)) == 0


def test_float_eigensolver_cross_check():
    for n, k in [(5, 2), (6, 3)]:
        adj = build_kneser_adjacency(n, k)
        spectrum = predicted_spectrum(n, k)
        expected = sorted(
            lam
            for lam, mult in zip(spectrum.eigenvalues, spectrum.multiplicities)
            for _ in range(mult)
        )
        computed = np.sort(np.linalg.eigvalsh(adj.matrix.astype(float)))
        assert computed == pytest.approx(expected, abs=1e-8)


def test_line_graph_structure():
    a = line_graph_adjacency(4)
    assert np.all(a.sum(axis=1) == 2 * 4 - 2)
    assert np.array_equal(a, a.T)


@pytest.mark.parametrize("n", range(2, 13))
def test_line_graph_complement_identity(n):
    assert line_graph_complement_check(n)


def test_line_graph_translation_values():
    # n=4: lambda = (10-6-1, -(-2)-1, -(1)-1) = (3, 1, -2)
    t1, t2, t3 = 2 * 4 - 2, -2, 4 - 3
    assert [comb(5, 2) - t1 - 1, -t2 - 1, -t3 - 1] == [3, 1, -2]
    # n=6: top eigenvalue is binom(n-1,2)
    assert comb(7, 2) - (2 * 6 - 2) - 1 == comb(5, 2) == 10


def test_n2_kneser_is_empty_graph():
    adj = build_kneser_adjacency(2, 2)
    assert adj.order == 3
    assert not np.any(adj.matrix)
    assert line_graph_complement_check(2)


def test_build_guards():
    with pytest.raises(ValueError):
        build_kneser_adjacency(4, 0)
    with pytest.raises(ValueError):
        build_kneser_adjacency(4, 6)
    with pytest.raises(ValueError):
        build_kneser_adjacency(25, 8)  # order way past the default limit
    assert build_kneser_adjacency(9, 4, max_order=300).order == 210


def test_spectrum_report_shape():
    report = spectrum_report(4, 2)
    assert report["eigenvalues"] == [3, 1, -2]
    assert report["multiplicities"] == [1, 5, 4]
    assert report["det"] == "48"
    assert report["annihilation"] is True


def reference_report(n, k):
    """spectrum_report built one product per power: traces of M^0..M^k, then verify_annihilation."""
    spectrum = predicted_spectrum(n, k)
    pairs = list(zip(spectrum.eigenvalues, spectrum.multiplicities))
    adj = build_kneser_adjacency(n, k)
    power = np.eye(adj.order, dtype=np.int64)
    for p in range(k + 1):
        assert int(np.trace(power)) == sum(m * lam**p for lam, m in pairs), p
        power = power @ adj.matrix
    annihilated = verify_annihilation(adj, spectrum)
    det = prod(lam**m for lam, m in pairs) if annihilated else exact_determinant(adj)
    pairs.sort(key=lambda pair: -pair[0])
    return {
        "n": n,
        "k": k,
        "eigenvalues": [lam for lam, _ in pairs],
        "multiplicities": [m for _, m in pairs],
        "det": str(det),
        "annihilation": annihilated,
    }


@pytest.mark.parametrize("n, k", BENCH_CASES + [(3, 2), (5, 3), (7, 4)])
def test_report_matches_per_power_reference(n, k):
    assert json.dumps(spectrum_report(n, k)) == json.dumps(reference_report(n, k))


@pytest.fixture
def products(monkeypatch):
    """The operands of every exact_matmul call made from kneser."""
    calls = []

    def recorded(a, b):
        calls.append((a, b))
        return exact_matmul(a, b)

    monkeypatch.setattr(kneser, "exact_matmul", recorded)
    return calls


@pytest.mark.parametrize(
    "n, k, count", [(3, 2, 2), (12, 2, 2), (5, 3, 2), (12, 3, 2), (7, 4, 3), (9, 4, 3)]
)
def test_report_products(products, n, k, count):
    # M^2..M^h with h = ceil((k+1)/2), then Q(M) @ R(M)
    spectrum_report(n, k)
    assert len(products) == count


def test_reference_certificates_skip_identity_products(products):
    adj = build_kneser_adjacency(8, 4)
    spectrum = predicted_spectrum(8, 4)  # five distinct eigenvalues
    eye = np.eye(adj.order, dtype=np.int64)
    assert verify_annihilation(adj, spectrum)
    assert len(products) == 4  # five factors (M - lam I)
    assert multiplicities_from_traces(adj, spectrum.eigenvalues) == list(spectrum.multiplicities)
    assert len(products) == 4 + 3  # M^2, M^3, M^4
    assert not any(np.array_equal(x, eye) for pair in products for x in pair)


@pytest.mark.parametrize("roots", [[3, -2], [20, -10, 4], [2**40, -(2**40)]])
def test_polynomial_at_matches_factor_product(roots):
    matrix = build_kneser_adjacency(8, 3).matrix
    powers = [matrix, matrix @ matrix, matrix @ matrix @ matrix]
    eye = np.eye(len(matrix), dtype=object)
    expected = eye
    for r in roots:
        expected = np.dot(expected, matrix.astype(object) - r * eye)
    value = kneser._polynomial_at(powers, roots)
    assert value.dtype == (object if roots[0] == 2**40 else np.int64)  # -2**80 I needs Python ints
    assert value.tolist() == expected.tolist()
