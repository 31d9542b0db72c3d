import itertools
import math

import pytest

from oracles import is_bipartite_graph

from oddtrans import (
    blowup,
    build,
    cayley,
    classify,
    cycle_graph,
    fixtures,
    power,
    projective_plane,
    rank,
    simplex,
    two_regular_random,
)

FIX = fixtures()


# ------------------------------------------------------------------ cayley


def test_cayley_window_2_is_a_cycle():
    hg = cayley(5, 2)
    assert hg.edges == ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))


def test_cayley_coprime_window_is_minimal():
    assert classify(cayley(7, 4)).is_minimal


def test_cayley_gcd3_window_is_not_minimal_and_has_rank_n_minus_gcd():
    rep = classify(cayley(9, 6))
    assert not rep.is_minimal
    assert rep.rank == 9 - math.gcd(9, 6)


def test_cayley_structure():
    for n, k in [(7, 4), (9, 4), (11, 6), (10, 3)]:
        hg = cayley(n, k)
        assert hg.n == n and hg.m == n
        assert hg.is_uniform() == k and hg.is_regular() == k
        assert hg.is_connected()


def test_cayley_rejects_wide_window():
    with pytest.raises(ValueError):
        cayley(4, 4)


# ------------------------------------------------------------------- power


def test_power_of_triangle_is_the_shipped_fixture():
    assert power(cycle_graph(3), 4) == FIX["c3_pow42"]


def test_power_of_even_cycle_is_odd_transversal():
    assert classify(power(cycle_graph(4), 4)).count > 0


def test_power_of_single_edge_is_one_block_pair():
    hg = power([(0, 1)], 6)
    assert hg.edges == ((0, 1, 2, 3, 4, 5),)


def test_power_k2_returns_the_graph():
    hg = power([(3, 7), (7, 9)], 2)
    assert hg.edges == ((0, 1), (1, 2))


def test_power_rejects_odd_k_and_bad_graphs():
    with pytest.raises(ValueError):
        power(cycle_graph(3), 5)
    with pytest.raises(ValueError):
        power([(0, 0)], 4)
    with pytest.raises(ValueError):
        power([(0, 1), (1, 0)], 4)


def connected_labeled_graphs(n_max):
    for n in range(2, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for picked in range(1, 1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if (picked >> i) & 1]
            covered = {v for e in edges for v in e}
            if len(covered) != n:
                continue
            try:
                hg = build(n, edges)
            except Exception:
                continue
            if hg.is_connected():
                yield n, edges


def test_power_is_odd_transversal_iff_base_graph_is_bipartite():
    # exhaustive over every connected labeled graph on up to 6 vertices
    for n, edges in connected_labeled_graphs(6):
        powered = power(edges, 4)
        has_witness = classify(powered).count > 0
        assert has_witness == is_bipartite_graph(n, edges), (n, edges)


# ------------------------------------------------------------------ blowup


def test_blowup_of_cycle_matches_power_structure():
    doubled = blowup(build(3, cycle_graph(3)), 2)
    assert (doubled.n, doubled.m) == (6, 3)
    assert doubled.is_uniform() == 4 and doubled.is_regular() == 2
    assert classify(doubled).is_minimal


def test_blowup_identity():
    hg = FIX["genexm2"]
    assert blowup(hg, 1) == hg


def test_blowup_incidence_is_horizontal_copies():
    hg = FIX["genexm1"]
    for t in (2, 3):
        big = blowup(hg, t)
        base = hg.edge_masks()
        expected = tuple(
            sum(mask << (i * hg.n) for i in range(t)) for mask in base
        )
        assert big.edge_masks() == expected
        assert rank(big.incidence()) == rank(hg.incidence())


def test_blowup_preserves_minimality_both_ways():
    assert classify(blowup(cayley(7, 4), 3)).is_minimal
    assert not classify(blowup(cayley(9, 6), 2)).is_minimal


# --------------------------------------------------------- projective plane


def test_projective_plane_order3():
    hg = projective_plane(3)
    assert (hg.n, hg.m) == (13, 13)
    assert hg.is_uniform() == 4 and hg.is_regular() == 4
    rep = classify(hg)
    assert rep.is_minimal and rep.rank == 12


def test_projective_plane_order5():
    hg = projective_plane(5)
    assert (hg.n, hg.m) == (31, 31)
    assert hg.is_uniform() == 6 and hg.is_regular() == 6
    assert classify(hg).is_minimal


def test_projective_plane_line_pairs_meet_once():
    for q in (3, 5):
        hg = projective_plane(q)
        for a in range(hg.m):
            for b in range(a + 1, hg.m):
                assert len(set(hg.edges[a]) & set(hg.edges[b])) == 1


def test_projective_plane_rejects_bad_orders():
    for q in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            projective_plane(q)


# --------------------------------------------------------- random 2-regular


def test_two_regular_outputs_satisfy_construction_contract():
    for k, m in [(4, 3), (4, 5), (6, 3)]:
        for seed in range(25):
            hg = two_regular_random(k, m, seed)
            assert hg.n == k * m // 2
            assert hg.is_uniform() == k
            assert hg.is_regular() == 2
            assert len(set(hg.edges)) == hg.m == m
            if hg.is_connected() and m % 2 == 1:
                assert classify(hg).is_minimal


def test_two_regular_smallest_case_is_always_connected_and_minimal():
    for seed in range(50):
        hg = two_regular_random(4, 3, seed)
        assert hg.is_connected()
        assert classify(hg).is_minimal


def test_two_regular_is_deterministic_per_seed():
    assert two_regular_random(4, 7, 123) == two_regular_random(4, 7, 123)
    assert two_regular_random(4, 7, 123) != two_regular_random(4, 7, 124)


def test_two_regular_reports_exhausted_budget():
    # m = 2 forces the swapped-blocks pattern, which is rejected.
    with pytest.raises(ValueError, match="attempts"):
        two_regular_random(4, 2, 0)


def test_two_regular_rejects_odd_or_small_k():
    with pytest.raises(ValueError):
        two_regular_random(3, 5, 0)
    with pytest.raises(ValueError):
        two_regular_random(2, 5, 0)


# ---------------------------------------------------------------- simplex


def test_simplex_k2_is_triangle():
    assert simplex(2).edges == ((1, 2), (0, 2), (0, 1))


def test_simplices_are_minimal():
    for k in (4, 6):
        hg = simplex(k)
        assert (hg.n, hg.m) == (k + 1, k + 1)
        assert hg.is_regular() == k
        assert classify(hg).is_minimal


def test_simplex_rejects_odd_k():
    with pytest.raises(ValueError):
        simplex(3)


# ---------------------------------------------------------------- fixtures


def test_fixture_catalogue_names_and_shapes():
    assert set(FIX) == {
        "genexm1",
        "genexm2",
        "genexm3",
        "five_edge_4u",
        "square_6u6r",
        "sixreg_8u",
        "cutedge_18v",
        "nonregular_9v",
        "c3_pow42",
    }
    assert (FIX["genexm1"].n, FIX["genexm1"].m) == (5, 3)
    assert (FIX["cutedge_18v"].n, FIX["cutedge_18v"].m) == (18, 9)


def test_nonregular_fixture_is_minimal_but_not_regular():
    hg = FIX["nonregular_9v"]
    assert hg.is_regular() is None
    assert classify(hg).is_minimal


def test_cut_edge_fixture_is_minimal_with_a_cut_edge():
    hg = FIX["cutedge_18v"]
    assert classify(hg).is_minimal
    assert hg.cut_edges() != ()
