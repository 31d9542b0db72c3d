"""Independent oracles the implementation is checked against.

Everything here is written naively on purpose: entry-by-entry elimination
over 0/1 lists (rank, and solves with every free variable zero),
exhaustive enumeration over all vectors or vertex subsets, explicit
two-colorings, one augmenting-path search per edge for matchings, a
union-find over edges for components, the full tensor contraction summed
over every index ordering, per-edge product loops in plain floats, and
one projected descent per start on those loops.  None of it shares code
with the package: the only import beyond the standard library is numpy,
which the descent uses for its k-norm and for ``grad @ grad``, because
the package must match the order in which those sum.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def naive_rank(bits: list[list[int]]) -> int:
    """GF(2) rank by textbook column-by-column elimination on 0/1 lists."""
    work = [row[:] for row in bits]
    n_rows = len(work)
    n_cols = len(work[0]) if work else 0
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        found = None
        for r in range(pivot_row, n_rows):
            if work[r][col] == 1:
                found = r
                break
        if found is None:
            continue
        work[pivot_row], work[found] = work[found], work[pivot_row]
        for r in range(n_rows):
            if r != pivot_row and work[r][col] == 1:
                for c in range(n_cols):
                    work[r][c] ^= work[pivot_row][c]
        rank += 1
        pivot_row += 1
    return rank


def naive_solve(bits: list[list[int]], rhs: list[int], n_cols: int) -> list[int] | None:
    """The solution of a GF(2) system with every free variable zero, or None.

    Textbook Gauss-Jordan elimination on the augmented 0/1 rows, column by
    column from column 0; a column without a pivot is free and set to 0.
    """
    work = [row[:] + [b] for row, b in zip(bits, rhs)]
    pivot_cols: list[int] = []
    for col in range(n_cols):
        r = len(pivot_cols)
        found = next((i for i in range(r, len(work)) if work[i][col] == 1), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        for i in range(len(work)):
            if i != r and work[i][col] == 1:
                work[i] = [a ^ b for a, b in zip(work[i], work[r])]
        pivot_cols.append(col)
    if any(row[-1] == 1 for row in work[len(pivot_cols):]):
        return None
    x = [0] * n_cols
    for r, col in enumerate(pivot_cols):
        x[col] = work[r][-1]
    return x


def brute_solution_count(bits: list[list[int]], rhs: list[int]) -> int:
    """Count solutions of a GF(2) system by trying all 2**cols vectors."""
    n_cols = len(bits[0]) if bits else 0
    if n_cols > 20:
        raise ValueError("oracle guard: more than 20 columns")
    count = 0
    for assignment in itertools.product((0, 1), repeat=n_cols):
        if all(
            sum(row[c] * assignment[c] for c in range(n_cols)) % 2 == b
            for row, b in zip(bits, rhs)
        ):
            count += 1
    return count


def brute_odd_transversals(edges: list[tuple[int, ...]], n: int) -> list[int]:
    """All vertex subsets (as bit masks) meeting every edge oddly."""
    if n > 20:
        raise ValueError("oracle guard: more than 20 vertices")
    masks = []
    for e in edges:
        mask = 0
        for v in e:
            mask |= 1 << v
        masks.append(mask)
    hits = []
    for subset in range(1, 1 << n):
        if all((subset & mask).bit_count() % 2 == 1 for mask in masks):
            hits.append(subset)
    return hits


def max_matching_size(edges: list[tuple[int, ...]]) -> int:
    """Most edges that can each be matched to a distinct vertex of their own.

    Kuhn's method: edges in order, one breadth-first search per edge for an
    alternating path to a free vertex, flipped back to the edge it started
    from.
    """
    owner: dict[int, int] = {}  # matched vertex -> its edge
    mate: dict[int, int] = {}  # matched edge -> its vertex
    for root in range(len(edges)):
        reached_from: dict[int, int] = {}  # vertex -> the edge the search reached it from
        queue, free = [root], None
        for e in queue:  # the queue grows while it is read
            for v in edges[e]:
                if v in reached_from:
                    continue
                reached_from[v] = e
                if v not in owner:
                    free = v
                    break
                queue.append(owner[v])
            if free is not None:
                break
        while free is not None:
            e = reached_from[free]
            previous = mate.get(e)
            owner[free], mate[e] = e, free
            free = previous
    return len(mate)


def edge_components(edges: list[tuple[int, ...]]) -> int:
    """Number of classes of edges, two edges joined when they share a vertex.

    Union-find over edge indices: each vertex joins every edge that contains
    it to the first edge that did.
    """
    parent = list(range(len(edges)))

    def root(e: int) -> int:
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    first: dict[int, int] = {}  # vertex -> the first edge seen containing it
    for e, edge in enumerate(edges):
        for v in edge:
            parent[root(e)] = root(first.setdefault(v, e))
    return sum(1 for e in range(len(edges)) if root(e) == e)


def is_bipartite_graph(n: int, edges: list[tuple[int, int]]) -> bool:
    """Two-coloring by depth-first search."""
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    color: list[int | None] = [None] * n
    for start in range(n):
        if color[start] is not None:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adjacency[u]:
                if color[w] is None:
                    color[w] = 1 - color[u]
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def tensor_apply_naive(edges: list[tuple[int, ...]], k: int, x: list[float]) -> list[float]:
    """(T x^{k-1})_i summed over every ordered index tuple of the tensor.

    The tensor carries weight 1/(k-1)! on each of the k! orderings of each
    edge; no cancellation shortcut is taken.
    """
    n = len(x)
    weight = 1.0 / math.factorial(k - 1)
    out = [0.0] * n
    for e in edges:
        for ordering in itertools.permutations(e):
            i = ordering[0]
            prod = weight
            for v in ordering[1:]:
                prod *= x[v]
            out[i] += prod
    return out


def tensor_power_iteration_naive(
    edges: list[tuple[int, ...]], n: int, k: int, tol: float = 1e-12, max_iter: int = 100_000
) -> float:
    """Spectral radius via the naive tensor contraction (long, tight run)."""
    x = [n ** (-1.0 / k)] * n
    for _ in range(max_iter):
        ax = tensor_apply_naive(edges, k, x)
        y = [a + xv ** (k - 1) for a, xv in zip(ax, x)]
        ratios = [yv / xv ** (k - 1) for yv, xv in zip(y, x)]
        lo, hi = min(ratios) - 1.0, max(ratios) - 1.0
        if hi - lo < tol:
            return hi
        x = [yv ** (1.0 / (k - 1)) for yv in y]
        norm = sum(xv**k for xv in x) ** (1.0 / k)
        x = [xv / norm for xv in x]
    return hi


def edgewise_apply(edges: list[tuple[int, ...]], n: int, x: list[float]) -> list[float]:
    """(A x^{k-1})_v edge by edge, with prefix/suffix products and no division.

    The multiplications and additions happen in edge order, one factor at a
    time, so a correct vectorized kernel matches this bit for bit.
    """
    out = [0.0] * n
    for e in edges:
        vals = [x[v] for v in e]
        prefix = [1.0] * (len(e) + 1)
        for i, val in enumerate(vals):
            prefix[i + 1] = prefix[i] * val
        suffix = 1.0
        for i in range(len(e) - 1, -1, -1):
            out[e[i]] += prefix[i] * suffix
            suffix *= vals[i]
    return out


def edgewise_rayleigh(edges: list[tuple[int, ...]], k: int, x: list[float]) -> float:
    """A x^k = k * sum over edges of the product of their coordinates, in edge order."""
    total = 0.0
    for e in edges:
        prod = 1.0
        for v in e:
            prod *= x[v]
        total += prod
    return k * total


def descend_naive(
    edges: list[tuple[int, ...]], n: int, k: int, start: list[float], max_steps: int = 400
) -> tuple[float, list[float]]:
    """Projected gradient descent for A x^k on the unit k-norm sphere, from one start.

    Each gradient ``k * A x^{k-1}`` takes the step ``1 / (1 + max |grad|)``,
    halved until the candidate, renormalized to unit k-norm, passes the
    Armijo test ``value < value(x) - 1e-4 * step * |grad|^2``.  The descent
    ends after ``max_steps`` gradients, at a gradient with ``|grad|^2 <
    1e-28``, or when the step falls to 1e-18 (the ladder runs out).  Every
    step is plain float arithmetic, coordinate by coordinate; numpy only
    takes the k-norm (its power and pairwise sum) and ``|grad|^2`` (a BLAS
    dot).  Returns the final value and point.
    """

    def project(y: list[float]) -> list[float] | None:
        norm = float(np.sum(np.abs(np.array(y)) ** k) ** (1.0 / k))
        return None if norm < 1e-30 else [v / norm for v in y]

    x = project(start)
    if x is None:
        raise ValueError("cannot start descent from the zero vector")
    value = edgewise_rayleigh(edges, k, x)
    for _ in range(max_steps):
        grad = [k * g for g in edgewise_apply(edges, n, x)]
        gnorm2 = float(np.dot(grad, grad))
        if gnorm2 < 1e-28:
            break
        step = 1.0 / (1.0 + max(abs(g) for g in grad))
        while step > 1e-18:
            cand = project([v - step * g for v, g in zip(x, grad)])
            if cand is not None:
                cand_value = edgewise_rayleigh(edges, k, cand)
                if cand_value < value - 1e-4 * step * gnorm2:
                    x, value = cand, cand_value
                    break
            step *= 0.5
        else:
            break
    return value, x
