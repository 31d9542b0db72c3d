import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_solution_count, naive_rank, naive_solve
from support import bit_matrix, bit_rows, transpose

from oddtrans import (
    BitMatrix,
    BitVector,
    InvariantError,
    build,
    cayley,
    classify,
    fixtures,
    gf2,
    hypergraph,
    rank,
    solve,
)
from oddtrans.gf2 import Factorization, matvec

C3 = fixtures()["c3_pow42"]


def random_bits(rng: random.Random, rows: int, cols: int) -> list[list[int]]:
    return [[rng.getrandbits(1) for _ in range(cols)] for _ in range(rows)]


# ---------------------------------------------------------------- rank


def test_rank_incidence_of_triangle_power():
    assert rank(C3.incidence()) == 2


def test_rank_single_row():
    assert rank(bit_matrix([[1, 1]])) == 1


def test_rank_seed42_matrix_against_naive_eliminator():
    bits = random_bits(random.Random(42), 5, 7)
    expected = naive_rank(bits)
    assert expected == 5  # frozen from the naive eliminator
    assert rank(bit_matrix(bits)) == expected


def test_rank_matches_naive_eliminator_on_500_random_matrices():
    rng = random.Random(7)
    for _ in range(500):
        rows = rng.randint(1, 16)
        cols = rng.randint(1, 16)
        bits = random_bits(rng, rows, cols)
        assert rank(bit_matrix(bits)) == naive_rank(bits)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_rank_invariant_under_row_permutation_and_row_addition(data):
    rows = data.draw(st.integers(1, 8))
    cols = data.draw(st.integers(1, 8))
    bits = data.draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    m = bit_matrix(bits)
    base = rank(m)

    perm = data.draw(st.permutations(range(rows)))
    assert rank(bit_matrix([bits[i] for i in perm])) == base

    src = data.draw(st.integers(0, rows - 1))
    dst = data.draw(st.integers(0, rows - 1))
    if src != dst:
        mutated = [row[:] for row in bits]
        mutated[dst] = [a ^ b for a, b in zip(mutated[dst], bits[src])]
        assert rank(bit_matrix(mutated)) == base


# ---------------------------------------------------------------- solve


def test_solve_single_edge_picks_one_vertex():
    m = build(4, [(0, 1, 2, 3)]).incidence()
    x = solve(m, BitVector.ones(1))
    assert x is not None
    assert x.support() == (0,)  # free variables are zeroed, so deterministic


def test_solve_triangle_power_is_inconsistent():
    assert solve(C3.incidence(), BitVector.ones(3)) is None


def test_solve_mixed_size_example_is_inconsistent():
    g1 = fixtures()["genexm1"]
    assert solve(g1.incidence(), BitVector.ones(3)) is None


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(bit_matrix([[1, 0]]), BitVector.ones(2))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_solve_of_constructed_system_verifies(data):
    rows = data.draw(st.integers(1, 8))
    cols = data.draw(st.integers(1, 8))
    bits = data.draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    m = bit_matrix(bits)
    secret = BitVector(cols, data.draw(st.integers(0, (1 << cols) - 1)))
    b = matvec(m, secret)
    x = solve(m, b)
    assert x is not None  # consistent by construction
    assert matvec(m, x) == b


# -------------------------------------------------------- factorization


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_factorization_matches_the_naive_eliminators(data):
    rows = data.draw(st.integers(0, 12))
    cols = data.draw(st.integers(0, 12))
    bits = [[data.draw(st.integers(0, 1)) for _ in range(cols)] for _ in range(rows)]
    rhs = [data.draw(st.integers(0, 1)) for _ in range(rows)]
    m = bit_matrix(bits, cols)
    f = Factorization(m)
    assert f.rank == naive_rank(bits)
    assert len(f.dependencies) == rows - f.rank
    for dep in f.dependencies:
        assert matvec(transpose(m), dep).bits == 0
    x = f.solve(BitVector(rows, sum(v << i for i, v in enumerate(rhs))))
    count = brute_solution_count(bits, rhs) if rows else 1 << cols
    assert (x is None) == (count == 0)
    if x is not None:
        assert count == 1 << (cols - f.rank)
        assert [(x.bits >> j) & 1 for j in range(cols)] == naive_solve(bits, rhs, cols)


def test_invariant_error_is_one_class_defined_in_the_lowest_layer():
    assert hypergraph.InvariantError is InvariantError is gf2.InvariantError


def test_factorization_checks_both_answers():
    m = C3.incidence()
    f = Factorization(m)
    ones = BitVector.ones(m.rows)
    f.dependencies = (BitVector(m.rows, 0b001),)  # row 0 alone is not zero
    with pytest.raises(InvariantError, match="dependency"):
        f.solve(ones)
    f = Factorization(m)
    low, (row, combo) = next(iter(f.pivots.items()))
    f.pivots[low] = (row, combo ^ 0b1)
    f.dependencies = ()
    with pytest.raises(InvariantError, match="non-solution"):
        f.solve(ones)


# ------------------------------------------------------------- counting


def test_count_is_arbitrary_precision():
    assert classify(build(80, [tuple(range(80))])).count == 1 << 79


# ---------------------------------------------------------- nullspace


def test_nullspace_dim_cayley_window():
    m = cayley(9, 6).incidence()
    assert m.cols - rank(m) == 3


def test_nullspace_dim_zero_matrix():
    m = BitMatrix(2, 5, (0, 0))
    assert m.cols - rank(m) == 5


def test_nullspace_dim_triangle_power():
    m = C3.incidence()
    assert m.cols - rank(m) == 4


def test_nullspace_basis_spans_kernel():
    rng = random.Random(3)
    for _ in range(50):
        bits = random_bits(rng, rng.randint(1, 8), rng.randint(1, 10))
        m = bit_matrix(bits)
        basis = Factorization(transpose(m)).dependencies
        assert len(basis) == m.cols - rank(m)
        for vec in basis:
            assert matvec(m, vec).bits == 0
        # basis vectors are linearly independent
        stacked = BitMatrix.from_packed([v.bits for v in basis], m.cols)
        assert rank(stacked) == len(basis)


def test_transpose_involution_and_shape():
    bits = [[1, 0, 1], [0, 1, 1]]
    m = bit_matrix(bits)
    t = transpose(m)
    assert (t.rows, t.cols) == (3, 2)
    assert transpose(t) == m
    assert bit_rows(t) == [[1, 0], [0, 1], [1, 1]]


# ---------------------------------------------------------- validation


def test_bitvector_rejects_stray_bits():
    with pytest.raises(ValueError):
        BitVector(2, 0b100)


def test_bitmatrix_rejects_padding_violation():
    with pytest.raises(ValueError):
        BitMatrix(1, 2, (0b100,))
