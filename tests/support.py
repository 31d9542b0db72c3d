"""Shared test helpers: GF(2) matrices, seeded random instances and fixture groupings."""

from __future__ import annotations

import math
import random

from oddtrans import BitMatrix, Hypergraph, build, cayley, fixtures, projective_plane, simplex


def delete_edge(hg: Hypergraph, i: int) -> Hypergraph:
    """``hg`` minus edge ``i`` on the same vertex set, the single-deletion oracle.

    Vertices that lose their last edge stay as isolated vertices.
    """
    if not 0 <= i < hg.m:
        raise IndexError(i)
    return build(hg.n, hg.edges[:i] + hg.edges[i + 1 :], allow_isolated=True)


def bit_rows(matrix: BitMatrix) -> list[list[int]]:
    """The 0/1 entries of a packed GF(2) matrix, one list per row."""
    return [[(row >> j) & 1 for j in range(matrix.cols)] for row in matrix.data]


def bit_matrix(bits: list[list[int]], cols: int | None = None) -> BitMatrix:
    """The packed GF(2) matrix with these 0/1 entries, one list per row; inverts ``bit_rows``."""
    if cols is None:
        cols = len(bits[0]) if bits else 0
    if any(len(row) != cols or not set(row) <= {0, 1} for row in bits):
        raise ValueError("expected rows of 0/1 entries, all of the same length")
    return BitMatrix.from_packed((sum(bit << j for j, bit in enumerate(row)) for row in bits), cols)


def transpose(matrix: BitMatrix) -> BitMatrix:
    """The transpose of a packed GF(2) matrix."""
    columns = (
        sum(((row >> j) & 1) << i for i, row in enumerate(matrix.data)) for j in range(matrix.cols)
    )
    return BitMatrix.from_packed(columns, matrix.rows)


def random_connected_hypergraph(
    rng: random.Random, max_n: int, max_m: int
) -> Hypergraph:
    """A uniformly scruffy connected hypergraph without isolated vertices."""
    while True:
        n = rng.randint(2, max_n)
        m = rng.randint(1, max_m)
        edges: set[tuple[int, ...]] = set()
        for _ in range(200):
            if len(edges) == m:
                break
            size = rng.randint(1, n)
            edges.add(tuple(sorted(rng.sample(range(n), size))))
        if len(edges) != m:
            continue
        ordered = sorted(edges)
        if {v for e in ordered for v in e} != set(range(n)):
            continue
        hg = build(n, ordered)
        if hg.is_connected():
            return hg


def random_uniform_hypergraph(
    rng: random.Random, n: int, m: int, k: int, connected: bool = False
) -> Hypergraph:
    """A random k-uniform hypergraph covering all n vertices."""
    if not k <= n <= m * k:
        raise ValueError("parameters must admit full vertex coverage")
    if m > math.comb(n, k):
        raise ValueError("not enough distinct edges available")
    while True:
        edges: set[tuple[int, ...]] = set()
        for _ in range(400):
            if len(edges) == m:
                break
            edges.add(tuple(sorted(rng.sample(range(n), k))))
        if len(edges) != m:
            continue
        ordered = sorted(edges)
        if {v for e in ordered for v in e} != set(range(n)):
            continue
        hg = build(n, ordered)
        if not connected or hg.is_connected():
            return hg


def random_uniform_instance(
    rng: random.Random,
    max_n: int = 8,
    max_m: int = 6,
    uniformities: tuple[int, ...] = (2, 3, 4),
) -> Hypergraph:
    """Feasible random uniform parameters plus the hypergraph itself."""
    while True:
        k = rng.choice(uniformities)
        n = rng.randint(k, max_n)
        m_lo = -(-n // k)  # coverage needs at least ceil(n/k) edges
        m_hi = min(max_m, math.comb(n, k))
        if m_lo > m_hi:
            continue
        m = rng.randint(m_lo, m_hi)
        return random_uniform_hypergraph(rng, n, m, k)


def minimal_uniform_fixtures() -> dict[str, Hypergraph]:
    """Every uniform minimal hypergraph in the suite with at most 20 vertices."""
    catalogue = fixtures()
    out = {
        name: catalogue[name]
        for name in (
            "five_edge_4u",
            "square_6u6r",
            "sixreg_8u",
            "cutedge_18v",
            "nonregular_9v",
            "c3_pow42",
        )
    }
    out["simplex4"] = simplex(4)
    out["simplex6"] = simplex(6)
    out["pp3"] = projective_plane(3)
    out["cayley_7_4"] = cayley(7, 4)
    return out


def even_edged_minimal_fixtures() -> dict[str, Hypergraph]:
    """Minimal fixtures whose edges all have even size."""
    out = dict(minimal_uniform_fixtures())
    out["genexm1"] = fixtures()["genexm1"]
    for name, hg in out.items():
        if any(len(e) % 2 for e in hg.edges):
            raise ValueError(f"{name} has an edge of odd size")
    return out
