"""The paper's closed forms and bounds at size.

2-regular hypergraphs, Cayley windows, and the upper bounds on the least
H-eigenvalue of minimal hypergraphs.

A 2-regular hypergraph is the dual of a multigraph: its incidence matrix
has exactly two ones in every column.  So its GF(2) rank is ``m - c``, c
being the number of classes of edges that share vertices, and it is minimal
non-odd-transversal exactly when c = 1 and m is odd.  The window hypergraph
on Z_n with windows of even length k (n odd) has rank ``n - gcd(n, k)`` and
is minimal exactly when the gcd is 1.  The component count comes from
``oracles.edge_components``, which shares no code with the package.

A minimal k-uniform hypergraph of even k with spectral radius rho has
least H-eigenvalue at most ``bound1 = -rho + 2k / n^{1/k}`` and at most
``bound2 = -(1 - 2/m) rho``, and never below ``-rho``; the descent's
feasible value must lie there too.
"""

import math

import pytest

from oracles import edge_components

from oddtrans import (
    analyze_spectra,
    build,
    cayley,
    classify,
    cycle_graph,
    edge_injection,
    power,
    projective_plane,
    two_regular_random,
)

LARGE = two_regular_random(8, 401, 3)
LARGER = two_regular_random(8, 4001, 3)
SMALL = two_regular_random(4, 21, 3)
UNION = build(
    LARGE.n + SMALL.n, LARGE.edges + tuple(tuple(LARGE.n + v for v in e) for e in SMALL.edges)
)


@pytest.mark.parametrize(
    "hg", [LARGE, LARGER, UNION], ids=["tworeg-8-401", "tworeg-8-4001", "disjoint-union"]
)
def test_two_regular_rank_and_minimality(hg):
    assert hg.is_regular() == 2
    c = edge_components(list(hg.edges))
    report = classify(hg)
    assert report.rank == hg.m - c
    assert report.is_minimal == (c == 1 and hg.m % 2 == 1)
    assert_injection_if_minimal(hg, report.is_minimal)


def test_the_inputs_cover_both_verdicts():
    # Connected members with m odd are minimal, so the injection check runs;
    # the union of two connected members is not.
    counts = [edge_components(list(hg.edges)) for hg in (LARGE, LARGER, SMALL, UNION)]
    assert counts == [1, 1, 1, 2]


@pytest.mark.parametrize("n, k", [(2001, 4), (2001, 6)])
def test_cayley_window_rank_and_minimality(n, k):
    hg = cayley(n, k)
    g = math.gcd(n, k)
    report = classify(hg)
    assert report.rank == n - g
    assert report.is_minimal == (g == 1)
    assert_injection_if_minimal(hg, report.is_minimal)


@pytest.mark.parametrize(
    "hg, degree", [(power(cycle_graph(41), 4), 2), (projective_plane(7), 8)], ids=["C41^4", "pp7"]
)
def test_least_eigenvalue_bounds_hold_at_size(hg, degree):
    # Both are regular, so rho is the degree: 2 for the cycle power, q + 1 = 8 for pp7.
    report = analyze_spectra(hg)
    tol = 1e-8
    assert report.classification.is_minimal and report.perron.converged
    assert abs(report.perron.rho - degree) <= tol
    n, m, k, rho = hg.n, hg.m, report.k, report.perron.rho
    bound1 = -rho + 2 * k / n ** (1 / k)
    bound2 = -(1 - 2 / m) * rho
    assert math.isclose(report.bound1, bound1) and math.isclose(report.bound2, bound2)
    assert -rho - tol <= report.lambda_min_upper <= min(bound1, bound2) + tol
    assert report.flip_identity_max_error <= 1e-9


def assert_injection_if_minimal(hg, minimal):
    """An even-edged minimal hypergraph has n >= m and an injection of edges into vertices."""
    if not minimal:
        return
    assert all(len(e) % 2 == 0 for e in hg.edges)
    assert hg.n >= hg.m
    injection = edge_injection(hg)
    assert injection is not None
    assert sorted(injection) == list(range(hg.m))
    assert len(set(injection.values())) == hg.m
    assert all(v in hg.edges[e] for e, v in injection.items())
