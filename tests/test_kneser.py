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
    multiplicities_from_traces,
    predicted_eigenvalues,
    predicted_spectrum,
    spectrum_report,
    verify_annihilation,
)
from facevol.exact import exact_matmul
from oracles import line_graph_adjacency, line_graph_complement_check

# the (n, k) of every spectrum request in the certify-volumes bench workload
BENCH_CASES = [(n, 2) for n in range(4, 13)] + [(n, 3) for n in range(6, 13)] + [(8, 4), (9, 4)]


POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], dtype=np.uint8)


def pairwise_shared(n, k, shared):
    """Reference: 1 where two k-subsets share exactly `shared` elements.

    Each subset is a 16-bit mask; every pair's AND is split into its two
    bytes, whose set bits are counted by table lookup.
    """
    assert n + 1 <= 16
    masks = np.array([sum(1 << v for v in s) for s in combinations(range(n + 1), k)], np.uint16)
    both = (masks[:, None] & masks[None, :]).view(np.uint8)
    counts = POPCOUNT[both].reshape(len(masks), len(masks), 2).sum(axis=2)
    return (counts == shared).astype(np.int64)


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


def test_build_guards(monkeypatch):
    with pytest.raises(ValueError):
        build_kneser_adjacency(4, 0)
    with pytest.raises(ValueError):
        build_kneser_adjacency(4, 6)
    with pytest.raises(ValueError):
        build_kneser_adjacency(25, 8)  # order way past the limit
    monkeypatch.setattr(kneser, "MAX_ORDER", 300)
    assert build_kneser_adjacency(9, 4).order == 210


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


def test_reference_certificates_skip_identity_products(products):
    adj = build_kneser_adjacency(8, 4)
    spectrum = predicted_spectrum(8, 4)  # five distinct eigenvalues
    eye = np.eye(adj.order, dtype=np.int64)
    assert verify_annihilation(adj, spectrum)
    assert len(products) == 4  # five factors (M - lam I)
    assert multiplicities_from_traces(adj, spectrum.eigenvalues) == list(spectrum.multiplicities)
    assert len(products) == 4 + 3  # M^2, M^3, M^4
    assert not any(np.array_equal(x, eye) for pair in products for x in pair)


# every (n, k) with 1 <= k <= (n+1)/2 and order C(n+1,k) <= 500
RULE_CASES = [
    (n, k) for n in range(1, 500) for k in range(1, (n + 1) // 2 + 1) if comb(n + 1, k) <= 500
]


def transposed_rule(n, k):
    return [list(col) for col in zip(*kneser.product_rule(n, k))]


def swapped_binomial_rule(n, k):
    """The rule with C(l, k-j) miswritten as C(l, j)."""
    return [[comb(l, j) * comb(n + 1 - k - l, j) for j in range(k + 1)] for l in range(k + 1)]


def rules_holding(n, k, rules):
    """Which rules give A_k @ A_j == sum_l rule[l][j] * A_l entrywise, A_l = (|E & F| == k - l)."""
    relation = k - kneser._intersection_sizes(n, k)[1].astype(np.int64)  # l of every pair (E, F)
    a = [(relation == l).astype(float) for l in range(k + 1)]
    products = [a[k] @ a[j] for j in range(k + 1)]  # entries are at most the order: exact
    # the A_l have disjoint supports, so sum_l rule[l][j] * A_l is rule[l][j] at each pair
    tables = [np.array(rule, dtype=float)[relation] for rule in rules]
    return [all(np.array_equal(p, t[:, :, j]) for j, p in enumerate(products)) for t in tables]


def test_product_rule_matches_matrix_products():
    # the only guard on how the rule is indexed: the trace and annihilation
    # checks also pass with the transposed rule, which the products catch
    assert len(RULE_CASES) == 545
    differs = {transposed_rule: 0, swapped_binomial_rule: 0}
    for n, k in RULE_CASES:
        rule = kneser.product_rule(n, k)
        mutants = [mutant(n, k) for mutant in differs]
        holds = rules_holding(n, k, [rule] + mutants)
        assert holds[0], (n, k)
        for mutant, wrong, mutant_holds in zip(differs, mutants, holds[1:]):
            assert mutant_holds == (wrong == rule), (mutant.__name__, n, k)
            differs[mutant] += wrong != rule
    # every wrong rule fails; the transposed one differs except at the five
    # perfect matchings K(2j,j), j = 1..5, whose rule is symmetric
    assert list(differs.values()) == [540, 545]


@pytest.mark.parametrize("n, k", BENCH_CASES + [(3, 2), (5, 3), (7, 4), (99, 2), (20, 3), (14, 5)])
def test_spectrum_report_builds_no_matrix(monkeypatch, n, k):
    def no_matrix(*args):
        raise AssertionError("spectrum_report built a matrix")

    monkeypatch.setattr(kneser, "build_kneser_adjacency", no_matrix)
    monkeypatch.setattr(kneser, "exact_matmul", no_matrix)
    assert spectrum_report(n, k)["annihilation"] is True


def test_spectrum_report_at_order_limit_matches_closed_form():
    # K(100,2) has order 4950, just under the 5000-vertex limit
    n = 99
    report = spectrum_report(n, 2)
    assert report["eigenvalues"] == [comb(n - 1, 2), 1, 2 - n]
    assert report["multiplicities"] == [1, (n + 1) * (n - 2) // 2, n]
    assert abs(int(report["det"])) == (n - 2) ** (n + 1) * (n - 1) // 2
    assert report["annihilation"] is True


@pytest.mark.parametrize(
    "n, k, shown", [(20, 5, "order 20349,"), (100000, 10000, "order over 5000050000,")]
)
def test_order_limit_checked_before_any_binomial(monkeypatch, n, k, shown):
    def no_binomials(n, k):
        raise AssertionError("the spectrum was predicted before the order check")

    monkeypatch.setattr(kneser, "predicted_spectrum", no_binomials)
    with pytest.raises(ValueError, match=f"K\\({n + 1},{k}\\) has {shown} above the limit of 5000"):
        spectrum_report(n, k)


def test_kneser_order_exact_up_to_limit_squared(monkeypatch):
    monkeypatch.setattr(kneser, "MAX_ORDER", 500)
    for n, k in RULE_CASES + [(9, 9), (9, 10), (30, 30), (30, 31)]:
        assert kneser.kneser_order(n, k) == comb(n + 1, k)
    with pytest.raises(ValueError, match="has order 4060, above the limit of 500 "):
        kneser.kneser_order(29, 27)  # C(30,27) = C(30,3), built in 3 steps
    # C(1001,i) passes 500**2 at i = 2, so the order is shown as over C(1001,2)
    with pytest.raises(ValueError, match="has order over 500500, above the limit of 500 "):
        kneser.kneser_order(1000, 400)
