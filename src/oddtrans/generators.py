"""Hypergraph family generators.

Covers the constructions exercised throughout the suite: consecutive-window
Cayley hypergraphs on Z_n, generalized powers of graphs, blow-ups,
projective planes of odd prime order, seeded random 2-regular uniform
hypergraphs, simplices, and the catalogue of small worked examples.
All generators are deterministic given their parameters (and seed).
"""

from __future__ import annotations

import math
import random
from typing import Mapping, Sequence

from .hypergraph import Hypergraph, InvariantError, build

REJECTION_BUDGET = 10_000


def cayley(n: int, k: int) -> Hypergraph:
    """The Cayley hypergraph on Z_n whose edges are the n windows of k
    consecutive residues ``{i, i+1, ..., i+k-1}``.

    Connected, k-uniform and k-regular, with n vertices and n edges.
    """
    if not 2 <= k < n:
        raise ValueError(f"need 2 <= k < n; got k={k}, n={n}")
    edges = [tuple(sorted((i + j) % n for j in range(k))) for i in range(n)]
    return build(n, edges)


def cycle_graph(length: int) -> list[tuple[int, int]]:
    """Edge list of the cycle on ``length`` vertices."""
    if length < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return [(i, (i + 1) % length) for i in range(length)]


def power(graph_edges: Sequence[Sequence[int]], k: int) -> Hypergraph:
    """The generalized power of a simple graph: every vertex becomes a
    block of ``k/2`` fresh vertices and every graph edge the union of its
    two blocks.  ``k = 2`` returns the graph itself (relabeled densely).
    """
    if k < 2 or k % 2:
        raise ValueError(f"power needs an even k >= 2; got {k}")
    pairs = []
    seen = set()
    for raw in graph_edges:
        pair = tuple(raw)
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ValueError(f"not a simple graph edge: {raw!r}")
        key = frozenset(pair)
        if key in seen:
            raise ValueError(f"duplicate graph edge: {raw!r}")
        seen.add(key)
        pairs.append(pair)
    if not pairs:
        raise ValueError("the base graph has no edges")
    half = k // 2
    verts = sorted({v for pair in pairs for v in pair})
    block = {v: range(i * half, (i + 1) * half) for i, v in enumerate(verts)}
    edges = [tuple(sorted([*block[u], *block[v]])) for u, v in pairs]
    return build(len(verts) * half, edges)


def blowup(hg: Hypergraph, t: int) -> Hypergraph:
    """Union of ``t`` disjoint copies, edges merged copy-wise.

    Copy ``i`` of vertex ``v`` is ``i*n + v``; edge ``j`` of the result is
    the union of the ``t`` copies of edge ``j``, so the incidence matrix is
    ``t`` horizontal copies of the original and the GF(2) rank is
    unchanged.  Degrees are preserved; edge sizes scale by ``t``.
    """
    if t < 1:
        raise ValueError(f"blow-up factor must be positive; got {t}")
    edges = [
        tuple(i * hg.n + v for i in range(t) for v in e) for e in hg.edges
    ]
    return build(t * hg.n, edges)


def _is_odd_prime(q: int) -> bool:
    if q < 3 or q % 2 == 0:
        return False
    return all(q % p for p in range(3, math.isqrt(q) + 1, 2))


def projective_plane(q: int) -> Hypergraph:
    """The projective plane of odd prime order ``q`` as a hypergraph.

    Points are the 1-dimensional subspaces of the 3-dimensional vector
    space over the field with q elements; lines are the 2-dimensional
    subspaces.  The result is (q+1)-uniform and (q+1)-regular with
    ``q^2 + q + 1`` vertices and edges, and any two points lie on exactly
    one line (checked before returning; a failure raises ``InvariantError``).
    """
    if not _is_odd_prime(q):
        raise ValueError(f"order must be an odd prime; got {q}")
    # Canonical representatives: first non-zero coordinate is 1.
    points = (
        [(1, a, b) for a in range(q) for b in range(q)]
        + [(0, 1, a) for a in range(q)]
        + [(0, 0, 1)]
    )
    index = {p: i for i, p in enumerate(points)}
    edges = []
    for coef in points:
        line = tuple(
            sorted(
                index[p]
                for p in points
                if (coef[0] * p[0] + coef[1] * p[1] + coef[2] * p[2]) % q == 0
            )
        )
        edges.append(line)
    hg = build(len(points), edges)
    lines_on: list[set[int]] = [set() for _ in range(hg.n)]
    for i, e in enumerate(hg.edges):
        for v in e:
            lines_on[v].add(i)
    for a in range(hg.n):
        for b in range(a + 1, hg.n):
            if len(lines_on[a] & lines_on[b]) != 1:
                raise InvariantError(f"points {a} and {b} do not lie on exactly one line")
    return hg


def two_regular_random(k: int, m: int, seed: int) -> Hypergraph:
    """A random 2-regular k-uniform hypergraph on ``k*m/2`` vertices.

    Fixes the first block partition ``V_t = {k/2*t, ..., k/2*(t+1)-1}`` and
    samples the second partition ``W_t`` by shuffling the vertices into
    ``k/2``-blocks, rejecting draws where some ``W_t`` meets ``V_t`` or
    where two blocks swap (``W_t = V_s`` and ``W_s = V_t``), which is
    exactly the duplicate-edge case.  Edges are ``V_t | W_t``.
    Deterministic for a fixed seed.  Infeasible parameters show as
    ``REJECTION_BUDGET`` rejected draws, which raise ``ValueError``.
    """
    if k <= 2 or k % 2:
        raise ValueError(f"need an even k > 2; got {k}")
    if m < 1:
        raise ValueError(f"need at least one edge; got m={m}")
    half = k // 2
    n = half * m
    vblocks = [frozenset(range(half * t, half * (t + 1))) for t in range(m)]
    vindex = {vb: t for t, vb in enumerate(vblocks)}
    rng = random.Random(seed)
    order = list(range(n))
    for _ in range(REJECTION_BUDGET):
        rng.shuffle(order)
        wblocks = [frozenset(order[half * t : half * (t + 1)]) for t in range(m)]
        if any(w & v for w, v in zip(wblocks, vblocks)):
            continue
        if any(
            (s := vindex.get(wblocks[t])) is not None
            and s != t
            and wblocks[s] == vblocks[t]
            for t in range(m)
        ):
            continue
        edges = [tuple(sorted(v | w)) for v, w in zip(vblocks, wblocks)]
        return build(n, edges)
    raise ValueError(
        f"no admissible block partition after {REJECTION_BUDGET} attempts "
        f"(k={k}, m={m} may be infeasible)"
    )


def simplex(k: int) -> Hypergraph:
    """All k-subsets of k+1 vertices; k-uniform and k-regular."""
    if k < 2 or k % 2:
        raise ValueError(f"simplex needs an even k >= 2; got {k}")
    n = k + 1
    edges = [tuple(v for v in range(n) if v != skip) for skip in range(n)]
    return build(n, edges)


def _from_one_based(raw_edges: Sequence[Sequence[int]]) -> Hypergraph:
    n = max(v for e in raw_edges for v in e)
    return build(n, [[v - 1 for v in e] for e in raw_edges])


def fixtures() -> Mapping[str, Hypergraph]:
    """The catalogue of small worked examples, keyed by stable names.

    Vertex labels from the sources are 1-based; they are shifted down by
    one here, matching what the text-format parser does with the shipped
    fixture files.
    """
    return {
        "genexm1": _from_one_based([(1, 2, 3, 4), (2, 3, 4, 5), (1, 5)]),
        "genexm2": _from_one_based(
            [(1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 4, 5), (3, 4)]
        ),
        "genexm3": _from_one_based(
            [
                (1, 2, 3),
                (1, 3, 4, 5),
                (1, 2, 4, 6),
                (1, 5, 6, 7),
                (2, 4, 7),
                (2, 5, 6, 7),
                (4, 5, 6, 7),
            ]
        ),
        "five_edge_4u": _from_one_based(
            [(1, 2, 3, 4), (3, 4, 5, 6), (5, 6, 7, 8), (1, 7, 9, 10), (2, 8, 9, 10)]
        ),
        "square_6u6r": _from_one_based(
            [
                (1, 2, 3, 4, 5, 6),
                (1, 4, 5, 6, 7, 9),
                (1, 3, 5, 6, 7, 8),
                (1, 2, 4, 6, 7, 8),
                (1, 3, 5, 7, 8, 9),
                (1, 2, 6, 7, 8, 9),
                (2, 3, 4, 5, 7, 9),
                (2, 3, 4, 5, 8, 9),
                (2, 3, 4, 6, 8, 9),
            ]
        ),
        "sixreg_8u": _from_one_based(
            [
                (1, 2, 3, 4, 5, 6, 7, 8),
                (1, 3, 4, 5, 6, 7, 9, 11),
                (1, 4, 5, 6, 7, 8, 9, 10),
                (1, 5, 7, 8, 9, 10, 11, 12),
                (1, 2, 3, 6, 7, 9, 10, 12),
                (1, 2, 4, 5, 8, 10, 11, 12),
                (2, 3, 4, 6, 8, 10, 11, 12),
                (2, 3, 4, 5, 8, 9, 11, 12),
                (2, 3, 6, 7, 9, 10, 11, 12),
            ]
        ),
        "cutedge_18v": _from_one_based(
            [
                (1, 3, 4, 5),
                (2, 3, 4, 6),
                (5, 7, 8, 9),
                (6, 7, 8, 9),
                (1, 2, 10, 11),
                (10, 12, 13, 14),
                (11, 12, 13, 15),
                (14, 16, 17, 18),
                (15, 16, 17, 18),
            ]
        ),
        "nonregular_9v": _from_one_based(
            [(1, 2, 3, 4), (1, 2, 4, 5), (1, 3, 6, 7), (1, 5, 8, 9), (6, 7, 8, 9)]
        ),
        "c3_pow42": power(cycle_graph(3), 4),
    }
