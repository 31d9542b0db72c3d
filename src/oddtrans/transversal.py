"""Odd-transversal structure over GF(2).

An odd transversal is a vertex set meeting every edge in an odd number of
vertices.  Existence, counting, and the minimal-non-odd-transversal
classification all reduce to the incidence matrix over GF(2): a hypergraph
has an odd transversal iff ``B x = 1`` is solvable, and a connected
hypergraph is minimal non-odd-transversal iff its edge count is odd, every
vertex degree is even, and the incidence rank is ``m - 1``.  :func:`classify`
answers all three from one factorization; the exact count of odd
transversals is ``classify(hg).count``.

The combinatorial companion checks are here too: edge injections into
vertices and the edge-union size bound.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field

from . import gf2
from .gf2 import BitVector
from .hypergraph import Hypergraph, InvariantError

DEFINITIONAL_CHECK_MAX_EDGES = 64


@dataclass(frozen=True)
class ClassificationReport:
    """Everything the rank criterion says about one hypergraph.

    The incidence factorization is kept for the sign-flip starts of
    :mod:`oddtrans.spectral`.
    """

    is_odd_transversal: bool
    witness: tuple[int, ...] | None
    count: int
    m_odd: bool
    all_degrees_even: bool
    rank: int
    connected: bool
    is_minimal: bool
    minimality_method: str
    definitional_minimal: bool | None = None
    _factorization: gf2.Factorization | None = field(default=None, compare=False, repr=False)


def find_odd_transversal(hg: Hypergraph) -> tuple[int, ...] | None:
    """An odd transversal from the GF(2) solve, or None when none exists.

    Free variables are set to zero, so the witness is deterministic.  The
    witness is re-verified against every edge before it is returned.
    """
    x = gf2.solve(hg.incidence(), BitVector.ones(hg.m))
    if x is None:
        return None
    if not all((mask & x.bits).bit_count() & 1 for mask in hg.edge_masks()):
        raise InvariantError("solver witness fails the odd-intersection check")
    return x.support()


def deletion_transversals(f: gf2.Factorization) -> list[tuple[int, ...] | None]:
    """The odd transversal of every single-edge deletion, from one factorization.

    ``f`` factors the incidence matrix B of a hypergraph G that has no odd
    transversal: some dependency has odd weight (checked; ``ValueError``
    otherwise).  Entry i solves ``B x = 1 + e_i`` and is exactly
    ``find_odd_transversal(G - e_i)``:

    1. Since ``B x = 1`` has no solution, every odd transversal of G - e_i
       meets e_i evenly (meeting it oddly would solve ``B x = 1``), so the
       odd transversals of G - e_i are the solutions of ``B x = 1 + e_i``.
    2. So both systems have the same solution set (both answers are None if
       it is empty); its differences are both nullspaces, so the row spaces
       are equal too.
    3. The set of lowest-bit pivots depends on the row space only, and so
       does the solution with every free variable zero.
    """
    if not any(dep.weight() & 1 for dep in f.dependencies):
        raise ValueError("deletion witnesses need a hypergraph with no odd transversal")
    ones = BitVector.ones(f.matrix.rows)
    solutions = (f.solve(BitVector(ones.size, ones.bits ^ (1 << i))) for i in range(ones.size))
    return [x.support() if x is not None else None for x in solutions]


def classify(hg: Hypergraph, definitional: bool | None = None) -> ClassificationReport:
    """Classify a hypergraph against the minimal-non-odd-transversal criteria.

    Never raises on disconnected input: disconnection alone already rules
    out minimality and the report simply records it.  When ``definitional``
    is true (default: auto, for ``m <= 64``) the single-edge-deletion
    definition is evaluated as well -- one GF(2) solve per edge on the same
    factorization -- and the agreement is recorded in ``minimality_method``.
    """
    f = gf2.Factorization(hg.incidence())
    rank = f.rank
    x = f.solve(BitVector.ones(hg.m))
    witness = x.support() if x is not None else None
    count = (1 << (hg.n - rank)) if x is not None else 0
    m_odd = hg.m % 2 == 1
    all_even = all(d % 2 == 0 for d in hg.degrees())
    connected = hg.is_connected()
    is_minimal = connected and m_odd and all_even and rank == hg.m - 1

    if definitional is None:
        definitional = hg.m <= DEFINITIONAL_CHECK_MAX_EDGES
    definitional_minimal: bool | None = None
    method = "rank-criterion"
    if definitional:
        definitional_minimal = x is None and None not in deletion_transversals(f)
        # For connected inputs the two verdicts provably coincide; a
        # mismatch would mean a defect in the solver or rank computation.
        if connected and definitional_minimal != is_minimal:
            raise InvariantError(
                f"rank criterion says minimal={is_minimal}, "
                f"single-edge deletions say minimal={definitional_minimal}"
            )
        method = "both-agree" if definitional_minimal == is_minimal else "definitional"

    return ClassificationReport(
        is_odd_transversal=x is not None,
        witness=witness,
        count=count,
        m_odd=m_odd,
        all_degrees_even=all_even,
        rank=rank,
        connected=connected,
        is_minimal=is_minimal,
        minimality_method=method,
        definitional_minimal=definitional_minimal,
        _factorization=f,
    )


def minimal_subset_certificate(hg: Hypergraph) -> tuple[int, ...] | None:
    """A non-empty proper edge set whose indicator rows sum to zero, if any.

    Such a set certifies that the hypergraph is not minimal (a proper
    dependent edge subset exists).  The incidence factorization records a
    basis of the row dependencies, so no enumeration is needed: any basis
    vector with support different from the full edge set qualifies, and
    when the only dependency is the all-edges one, no certificate exists.
    """
    full = (1 << hg.m) - 1
    basis = gf2.Factorization(hg.incidence()).dependencies
    return next((vec.support() for vec in basis if vec.bits != full), None)


def _hopcroft_karp(adjacency: list[list[int]], n_right: int) -> dict[int, int]:
    """Maximum bipartite matching; returns {left index: right index}."""
    inf = float("inf")
    n_left = len(adjacency)
    match_left: list[int | None] = [None] * n_left
    match_right: list[int | None] = [None] * n_right
    dist: list[float] = [0.0] * n_left

    def bfs() -> bool:
        queue = deque()
        for u in range(n_left):
            if match_left[u] is None:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = inf
        found = False
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                w = match_right[v]
                if w is None:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def augment(root: int) -> None:
        """The layered depth-first search from a free left vertex, on an explicit stack.

        ``path`` holds the left vertices of the current alternating path and
        ``nxt`` the index of the neighbour each one is trying.  Neighbours are
        tried in adjacency order and a dead end gets distance infinity, as in
        the recursive textbook form, so the same augmenting paths are found.
        """
        path, nxt = [root], [0]
        while path:
            u, i = path[-1], nxt[-1]
            if i == len(adjacency[u]):
                dist[u] = inf
                path.pop()
                nxt.pop()
                if nxt:
                    nxt[-1] += 1
                continue
            w = match_right[adjacency[u][i]]
            if w is None:
                for left, j in zip(path, nxt):
                    match_left[left] = adjacency[left][j]
                    match_right[adjacency[left][j]] = left
                return
            if dist[w] == dist[u] + 1:
                path.append(w)
                nxt.append(0)
            else:
                nxt[-1] += 1

    while bfs():
        for u in range(n_left):
            if match_left[u] is None:
                augment(u)
    return {u: v for u, v in enumerate(match_left) if v is not None}


def edge_injection(hg: Hypergraph) -> dict[int, int] | None:
    """An injection of edges into vertices with each edge mapped inside itself.

    Computed as a maximum matching of the incidence bipartite graph and
    returned as ``{edge index: vertex}``; None when the matching cannot
    saturate the edge side.
    """
    matching = _hopcroft_karp([list(e) for e in hg.edges], hg.n)
    if len(matching) != hg.m:
        return None
    if len(set(matching.values())) != hg.m:
        raise InvariantError("the edge matching maps two edges to one vertex")
    if not all(v in hg.edges[e] for e, v in matching.items()):
        raise InvariantError("the edge matching maps an edge outside itself")
    return matching


def intersection_bound_check(hg: Hypergraph, max_t: int) -> tuple[int, ...] | None:
    """Search for ``t <= max_t`` edges whose union has at most ``t`` vertices.

    Returns the offending edge-index set, or None when every subset up to
    ``max_t`` covers at least one vertex more than its size.  Enumeration is
    exponential in ``max_t``, hence the explicit cap.
    """
    if not 1 <= max_t <= hg.m - 1:
        raise ValueError(f"max_t must be in [1, m-1]; got {max_t} with m={hg.m}")
    masks = hg.edge_masks()
    for t in range(1, max_t + 1):
        for combo in itertools.combinations(range(hg.m), t):
            union = 0
            for i in combo:
                union |= masks[i]
            if union.bit_count() <= t:
                return combo
    return None
