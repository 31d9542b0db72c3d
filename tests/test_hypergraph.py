import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import bit_rows, delete_edge, random_connected_hypergraph, transpose

from oddtrans import (
    HypergraphError,
    build,
    classify,
    fixtures,
    projective_plane,
    rank,
)

FIX = fixtures()


# ----------------------------------------------------------------- build


def test_build_mixed_size_example():
    hg = build(5, [(0, 1, 2, 3), (1, 2, 3, 4), (0, 4)])
    assert hg.m == 3
    assert hg.edges[0] == (0, 1, 2, 3)


def test_build_rejects_duplicate_edges():
    with pytest.raises(HypergraphError, match="duplicates"):
        build(2, [(0, 1), (1, 0)])


def test_build_rejects_empty_edge():
    with pytest.raises(HypergraphError, match="empty"):
        build(2, [()])


def test_build_rejects_repeated_vertex():
    with pytest.raises(HypergraphError, match="repeats"):
        build(3, [(0, 1, 1)])


def test_build_rejects_out_of_range_vertex():
    with pytest.raises(HypergraphError, match="out-of-range"):
        build(2, [(0, 2)])


def test_build_rejects_isolated_vertex_unless_allowed():
    with pytest.raises(HypergraphError, match="isolated"):
        build(3, [(0, 1)])
    hg = build(3, [(0, 1)], allow_isolated=True)
    assert hg.degrees() == [1, 1, 0]


# ------------------------------------------------------------- incidence


def test_incidence_single_edge():
    m = build(2, [(0, 1)]).incidence()
    assert bit_rows(m) == [[1, 1]]


def test_incidence_triangle_power_weights():
    m = FIX["c3_pow42"].incidence()
    assert [row.bit_count() for row in m.data] == [4] * 3
    assert [col.bit_count() for col in transpose(m).data] == [2] * 6


def test_incidence_mixed_example_row_weights_and_rank():
    m = FIX["genexm1"].incidence()
    assert [row.bit_count() for row in m.data] == [4, 4, 2]
    assert rank(m) == 2


# ------------------------------------------------- degrees / uniform / regular


def test_triangle_power_is_2_regular_4_uniform():
    hg = FIX["c3_pow42"]
    assert hg.degrees() == [2] * 6
    assert hg.is_uniform() == 4
    assert hg.is_regular() == 2


def test_mixed_five_edge_example_degrees():
    hg = FIX["genexm2"]
    assert hg.degrees() == [2, 2, 4, 4, 2]
    assert hg.is_uniform() is None


def test_projective_plane_uniform_regular():
    hg = projective_plane(3)
    assert hg.is_uniform() == 4
    assert hg.is_regular() == 4


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_degree_sum_equals_edge_size_sum(seed):
    hg = random_connected_hypergraph(random.Random(seed), 9, 7)
    assert sum(hg.degrees()) == sum(len(e) for e in hg.edges)


def test_regular_uniform_count_identity():
    for hg in (FIX["c3_pow42"], FIX["square_6u6r"], projective_plane(3)):
        d = hg.is_regular()
        k = hg.is_uniform()
        assert hg.n * d == hg.m * k


# ------------------------------------------------------------------ dual


def test_dual_of_square_example_transposes_and_stays_minimal():
    hg = FIX["square_6u6r"]
    result = hg.dual()
    assert not result.had_duplicate_stars
    assert result.dual.incidence() == transpose(hg.incidence())
    assert classify(result.dual).is_minimal


def test_dual_of_triangle_power_flags_duplicate_stars():
    assert FIX["c3_pow42"].dual().had_duplicate_stars


def test_dual_of_single_edge():
    result = build(2, [(0, 1)]).dual()
    assert result.had_duplicate_stars
    assert result.dual.n == 1
    assert result.dual.edges == ((0,),)


def test_double_dual_square_example_roundtrips():
    hg = FIX["square_6u6r"]
    double = hg.dual().dual.dual()
    assert not double.had_duplicate_stars
    assert double.dual.incidence() == hg.incidence()


# ---------------------------------------------------------- sub-hypergraphs


def test_edge_induced_proper_subsets_of_minimal_fixture_have_odd_degree_vertex():
    masks = FIX["genexm2"].edge_masks()
    for chosen in range(1, (1 << len(masks)) - 1):
        degrees_mod_2 = 0
        for i, mask in enumerate(masks):
            if (chosen >> i) & 1:
                degrees_mod_2 ^= mask
        assert degrees_mod_2 != 0


def test_vertex_induced_counts_and_odd_traces_on_square_example():
    hg = FIX["square_6u6r"]
    masks = hg.edge_masks()
    for subset in range(1, (1 << hg.n) - 1):
        traces = [(subset & mask).bit_count() for mask in masks]
        met = [t for t in traces if t]
        assert len(met) >= subset.bit_count() + 1
        assert any(t % 2 for t in met)


# ------------------------------------------------------------ connectivity


def test_fixtures_are_connected_without_cut_vertices():
    for name, hg in FIX.items():
        assert hg.is_connected(), name
        assert hg.cut_vertices() == (), name


def test_cut_edge_in_18_vertex_example():
    hg = FIX["cutedge_18v"]
    cut = hg.cut_edges()
    assert len(cut) == 1
    assert hg.edges[cut[0]] == (0, 1, 9, 10)


def test_disjoint_union_is_disconnected():
    hg = build(4, [(0, 1), (2, 3)])
    assert not hg.is_connected()
    # Cuts are defined for connected input; this pins what they return anyway.
    assert hg.cut_vertices() == (0, 1, 2, 3)
    assert hg.cut_edges() == (0, 1)


@pytest.mark.parametrize(
    "n, edges, cut_vertices, cut_edges",
    [
        (2, [(0,), (0, 1)], (), (1,)),
        (3, [(0, 1), (1, 2), (1,)], (1,), (0, 1)),
        (5, [(0, 1, 2), (2, 3), (3, 4), (4,)], (2, 3), (0, 1, 2)),
    ],
)
def test_cuts_with_edges_of_size_one(n, edges, cut_vertices, cut_edges):
    hg = build(n, edges)
    assert hg.is_connected()
    assert hg.cut_vertices() == cut_vertices
    assert hg.cut_edges() == cut_edges


def test_delete_edge_keeps_vertex_set():
    hg = FIX["genexm1"]
    smaller = delete_edge(hg, 2)
    assert smaller.n == hg.n
    assert smaller.m == hg.m - 1


def test_deleting_bridge_disconnects():
    hg = FIX["cutedge_18v"]
    bridge = hg.cut_edges()[0]
    assert not delete_edge(hg, bridge).is_connected()
    keep = (bridge + 1) % hg.m
    assert delete_edge(hg, keep).is_connected()
