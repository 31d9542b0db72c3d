import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_odd_transversals, max_matching_size, naive_solve
from support import (
    bit_rows,
    delete_edge,
    even_edged_minimal_fixtures,
    random_connected_hypergraph,
)

from oddtrans import (
    build,
    cayley,
    classify,
    cycle_graph,
    edge_injection,
    find_odd_transversal,
    fixtures,
    intersection_bound_check,
    minimal_subset_certificate,
    power,
    rank,
)
from oddtrans import transversal
from oddtrans.gf2 import BitMatrix, Factorization
from oddtrans.transversal import deletion_transversals

FIX = fixtures()


def meets_all_oddly(hg, subset) -> bool:
    chosen = set(subset)
    return all(len(chosen.intersection(e)) % 2 == 1 for e in hg.edges)


# -------------------------------------------------------------- existence


def test_witness_after_deleting_last_edge_of_mixed_example():
    hg = delete_edge(FIX["genexm1"], 2)
    witness = find_odd_transversal(hg)
    assert witness is not None
    assert meets_all_oddly(hg, witness)
    assert witness == find_odd_transversal(hg)  # deterministic


def test_single_edge_witness_is_one_vertex():
    hg = build(4, [(0, 1, 2, 3)])
    assert find_odd_transversal(hg) == (0,)
    assert brute_odd_transversals(list(hg.edges), hg.n)[0] == 0b1


def test_seven_edge_example_has_no_witness():
    assert find_odd_transversal(FIX["genexm3"]) is None


def test_triangle_power_has_no_witness_even_by_brute_force():
    hg = FIX["c3_pow42"]
    assert brute_odd_transversals(list(hg.edges), hg.n) == []


def test_solver_and_brute_force_agree_on_random_hypergraphs():
    rng = random.Random(5150)
    for _ in range(120):
        hg = random_connected_hypergraph(rng, 12, 10)
        hits = brute_odd_transversals(list(hg.edges), hg.n)
        witness = find_odd_transversal(hg)
        assert (witness is not None) == bool(hits)
        assert classify(hg).count == len(hits)
        if witness is not None:
            assert meets_all_oddly(hg, witness)


# ------------------------------------------------------ single deletions


def oracle_deletion_witness(hg, i):
    """The free-variables-zero odd transversal of ``hg - e_i``, by the naive solver."""
    bits = bit_rows(hg.incidence())
    x = naive_solve(bits[:i] + bits[i + 1 :], [1] * (hg.m - 1), hg.n)
    return None if x is None else tuple(v for v in range(hg.n) if x[v])


def random_non_odd_transversal(rng: random.Random):
    """A random hypergraph on at most 12 vertices with no odd transversal.

    One edge is the symmetric difference of an even number of others, an
    odd dependency that rules out ``B x = 1``.
    """
    while True:
        n = rng.randint(2, 12)
        draws = rng.randint(2, 8)
        edges = sorted({tuple(sorted(rng.sample(range(n), rng.randint(1, n)))) for _ in range(draws)})
        chosen = rng.sample(edges, 2 * rng.randint(1, len(edges) // 2)) if len(edges) >= 2 else []
        closing = set()
        for e in chosen:
            closing ^= set(e)
        if not closing or tuple(sorted(closing)) in edges:
            continue
        edges.insert(rng.randint(0, len(edges)), tuple(sorted(closing)))
        return build(n, edges, allow_isolated=True)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_deletion_transversals_match_brute_force(seed):
    hg = random_non_odd_transversal(random.Random(seed))
    assert not brute_odd_transversals(list(hg.edges), hg.n)
    witnesses = deletion_transversals(Factorization(hg.incidence()))
    assert len(witnesses) == hg.m
    for i, witness in enumerate(witnesses):
        rest = list(hg.edges[:i] + hg.edges[i + 1 :])
        hits = brute_odd_transversals(rest, hg.n)
        assert (witness is not None) == bool(hits)
        if witness is not None:
            assert sum(1 << v for v in witness) in hits
        assert witness == oracle_deletion_witness(hg, i)


def test_deletion_transversals_equal_the_witnesses_of_the_deletions():
    catalogue = [*FIX.values(), *(cayley(n, k) for k in (4, 6) for n in range(k + 1, 40, 2))]
    checked = 0
    for hg in catalogue:
        if find_odd_transversal(hg) is not None:
            continue
        expected = [find_odd_transversal(delete_edge(hg, i)) for i in range(hg.m)]
        assert deletion_transversals(Factorization(hg.incidence())) == expected
        assert expected == [oracle_deletion_witness(hg, i) for i in range(hg.m)]
        checked += 1
    assert checked >= 20


def test_deletion_transversals_require_no_odd_transversal():
    with pytest.raises(ValueError, match="no odd transversal"):
        deletion_transversals(Factorization(build(4, [(0, 1, 2, 3)]).incidence()))


# --------------------------------------------------------------- counting


def test_count_single_edge():
    assert classify(build(4, [(0, 1, 2, 3)])).count == 8


def test_count_mixed_example_is_zero():
    assert classify(FIX["genexm1"]).count == 0


def test_count_triangle_power_minus_edge():
    assert classify(delete_edge(FIX["c3_pow42"], 0)).count == 16


# ----------------------------------------------------------------- classify


def test_classify_minimal_fixture_reports():
    rep = classify(FIX["genexm2"])
    assert rep.is_minimal
    assert rep.minimality_method == "both-agree"
    assert rep.definitional_minimal is True
    assert not rep.is_odd_transversal
    assert rep.witness is None and rep.count == 0
    assert rep.m_odd and rep.all_degrees_even and rep.connected
    assert rep.rank == 4


def test_classify_five_edge_uniform_example():
    assert classify(FIX["five_edge_4u"]).is_minimal


def test_classify_disconnected_union_is_not_minimal():
    c3 = FIX["c3_pow42"]
    shifted = [tuple(v + 6 for v in e) for e in c3.edges]
    union = build(12, list(c3.edges) + shifted)
    rep = classify(union)
    assert not rep.connected
    assert not rep.is_minimal
    assert not rep.m_odd  # six edges


def test_classify_without_definitional_check():
    rep = classify(FIX["genexm1"], definitional=False)
    assert rep.is_minimal
    assert rep.minimality_method == "rank-criterion"
    assert rep.definitional_minimal is None


def test_rank_criterion_matches_single_deletion_definition_on_randoms():
    rng = random.Random(90125)
    for _ in range(100):
        hg = random_connected_hypergraph(rng, 10, 9)
        rep = classify(hg, definitional=True)
        assert rep.minimality_method == "both-agree"
        assert rep.definitional_minimal == rep.is_minimal


def test_every_m_minus_1_row_submatrix_of_minimal_fixture_has_full_rank():
    for name, hg in FIX.items():
        m = hg.incidence()
        for drop in range(hg.m):
            sub = BitMatrix.from_packed(
                (m.data[i] for i in range(hg.m) if i != drop), hg.n
            )
            assert rank(sub) == hg.m - 1, name


def test_odd_edge_count_and_even_degrees_forbid_odd_transversal():
    # Holds also for non-minimal instances such as the gcd-3 Cayley window.
    for hg in [*FIX.values(), cayley(9, 6), cayley(15, 6)]:
        if hg.m % 2 == 1 and all(d % 2 == 0 for d in hg.degrees()):
            assert find_odd_transversal(hg) is None


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_returned_witness_always_meets_every_edge_oddly(seed):
    hg = random_connected_hypergraph(random.Random(seed), 10, 8)
    witness = find_odd_transversal(hg)
    if witness is not None:
        assert meets_all_oddly(hg, witness)


# ------------------------------------------------------- subset certificate


def test_certificate_absent_for_minimal_example():
    assert minimal_subset_certificate(FIX["genexm1"]) is None


def test_certificate_absent_for_single_edge():
    assert minimal_subset_certificate(build(4, [(0, 1, 2, 3)])) is None


def test_certificate_found_in_disjoint_union_of_two_powers():
    c3 = FIX["c3_pow42"]
    c5 = power(cycle_graph(5), 4)
    shifted = [tuple(v + c3.n for v in e) for e in c5.edges]
    union = build(c3.n + c5.n, list(c3.edges) + shifted)
    cert = minimal_subset_certificate(union)
    assert cert is not None
    assert 0 < len(cert) < union.m
    masks = union.edge_masks()
    acc = 0
    for i in cert:
        acc ^= masks[i]
    assert acc == 0
    # the only proper dependent subsets here are the two components
    assert cert in (tuple(range(c3.m)), tuple(range(c3.m, union.m)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_certificate_is_a_proper_nonempty_zero_sum_edge_set(seed):
    rng = random.Random(seed)
    hg = random_connected_hypergraph(rng, 8, 12) if seed % 2 else random_non_odd_transversal(rng)
    cert = minimal_subset_certificate(hg)
    if cert is not None:
        assert 0 < len(cert) < hg.m
        assert list(cert) == sorted(set(cert))
        masks = hg.edge_masks()
        acc = 0
        for i in cert:
            acc ^= masks[i]
        assert acc == 0


# ----------------------------------------------------------- edge injection


def test_injection_exists_for_triangle_power():
    inj = edge_injection(FIX["c3_pow42"])
    assert inj is not None
    assert len(set(inj.values())) == 3
    for e, v in inj.items():
        assert v in FIX["c3_pow42"].edges[e]


def test_square_example_has_perfect_matching():
    hg = FIX["square_6u6r"]
    inj = edge_injection(hg)
    assert inj is not None
    assert sorted(inj.values()) == list(range(hg.n))


def test_injection_absent_when_edges_outnumber_vertices():
    hg = build(3, [(0, 1), (0, 2), (1, 2), (0, 1, 2)])
    assert edge_injection(hg) is None


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), unique=True, max_size=12),
        )
    )
)
def test_matching_is_maximum(instance):
    n, edge_sets = instance
    edges = [tuple(sorted(e)) for e in edge_sets]
    matching = transversal._hopcroft_karp([list(e) for e in edges], n)
    assert all(v in edges[e] for e, v in matching.items())
    assert len(set(matching.values())) == len(matching)
    assert len(matching) == max_matching_size(edges)
    injection = edge_injection(build(n, edges, allow_isolated=True))
    assert (injection is not None) == (len(matching) == len(edges))


def test_injection_along_a_long_path():
    # Edges {i, i+1}, then {0}: the last edge's only augmenting path runs
    # the whole path, one search level per edge.
    length = 1500
    edges = [(i, i + 1) for i in range(length)] + [(0,)]
    injection = edge_injection(build(length + 1, edges))
    assert injection is not None
    assert injection == {**{i: i + 1 for i in range(length)}, length: 0}
    assert len(injection) == max_matching_size(edges)


# ------------------------------------------------------ intersection bound


def test_no_union_size_violations_in_minimal_examples():
    assert intersection_bound_check(FIX["genexm1"], 2) is None
    assert intersection_bound_check(FIX["c3_pow42"], 2) is None


def test_two_overlapping_edges_cover_enough_vertices():
    hg = build(5, [(0, 1, 2, 3), (0, 1, 2, 4)])
    assert intersection_bound_check(hg, 1) is None


def test_intersection_bound_detects_violation():
    hg = build(4, [(0, 1), (1, 2), (0, 2), (0, 1, 2, 3)])
    violation = intersection_bound_check(hg, 3)
    assert violation == (0, 1, 2)  # three edges on three vertices


def test_intersection_bound_rejects_bad_max_t():
    with pytest.raises(ValueError):
        intersection_bound_check(FIX["c3_pow42"], 3)


# ---------------------------------------------------- even-edged corollaries


def test_even_edged_minimal_fixtures_have_vertex_surplus_and_injection():
    for name, hg in even_edged_minimal_fixtures().items():
        assert hg.n >= hg.m, name
        assert edge_injection(hg) is not None, name


def test_square_even_edged_duals_remain_minimal():
    for name, hg in even_edged_minimal_fixtures().items():
        if hg.n != hg.m:
            continue
        result = hg.dual()
        assert not result.had_duplicate_stars, name
        assert classify(result.dual).is_minimal, name


def test_minimal_uniform_fixtures_have_even_uniformity_and_degrees():
    from support import minimal_uniform_fixtures

    for name, hg in minimal_uniform_fixtures().items():
        k = hg.is_uniform()
        assert k is not None and k % 2 == 0, name
        d = hg.is_regular()
        if d is not None:
            assert d % 2 == 0 and d <= k, name
