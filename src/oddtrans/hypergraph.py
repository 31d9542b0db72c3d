"""Hypergraph data model.

A hypergraph is a vertex count ``n`` (vertices are the dense integers
``0..n-1``) plus an ordered tuple of distinct non-empty edges, each a
strictly sorted vertex tuple.  Values are immutable after construction and
every query here is a pure function, so hypergraphs are safe to share
across threads.

Use :func:`build` to construct validated instances; the raw dataclass
constructor is reserved for internal transformations that preserve the
invariants by themselves (e.g. edge deletion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .gf2 import BitMatrix


class HypergraphError(ValueError):
    """Raised when edge data violates the hypergraph invariants."""


class InvariantError(RuntimeError):
    """Raised when a computed result breaks a property that provably holds.

    It signals a defect in the package, never bad input, and unlike an
    ``assert`` it is not stripped by ``python -O``.
    """


def _component_count(members: Iterable[int], groups: Iterable[Iterable[int]]) -> int:
    """Number of connected components induced on ``members`` by ``groups``.

    Every group is merged into one component; members of no group count as
    singleton components.
    """
    parent = {v: v for v in members}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for group in groups:
        it = iter(group)
        first = next(it, None)
        if first is None:
            continue
        ra = find(first)
        for v in it:
            rb = find(v)
            if ra != rb:
                parent[rb] = ra
    return len({find(v) for v in parent})


@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_masks(self) -> tuple[int, ...]:
        """Each edge as a vertex bit set (bit ``v`` set iff ``v`` in the edge)."""
        out = []
        for e in self.edges:
            mask = 0
            for v in e:
                mask |= 1 << v
            out.append(mask)
        return tuple(out)

    def incidence(self) -> BitMatrix:
        """The edge-vertex incidence matrix: ``m`` rows, ``n`` columns."""
        return BitMatrix.from_packed(self.edge_masks(), self.n)

    def degrees(self) -> list[int]:
        degs = [0] * self.n
        for e in self.edges:
            for v in e:
                degs[v] += 1
        return degs

    def is_uniform(self) -> int | None:
        """Common edge size, or None when edge sizes differ (or there are no edges)."""
        sizes = {len(e) for e in self.edges}
        if len(sizes) != 1:
            return None
        return sizes.pop()

    def is_regular(self) -> int | None:
        """Common vertex degree, or None when degrees differ (or n == 0)."""
        degs = set(self.degrees())
        if len(degs) != 1:
            return None
        return degs.pop()

    def delete_edge(self, index: int) -> Hypergraph:
        """The hypergraph minus one edge, on the unchanged vertex set.

        Vertices that lose their last edge stay as isolated vertices.
        """
        if not 0 <= index < self.m:
            raise IndexError(index)
        return Hypergraph(self.n, self.edges[:index] + self.edges[index + 1 :])

    def dual(self) -> DualResult:
        """Exchange the roles of vertices and edges via vertex stars.

        The dual's vertices index this hypergraph's edges; the dual's edges
        are the stars ``{e : v in e}``.  Coinciding stars are deduplicated
        (keeping first occurrence order) and flagged, since the transpose
        relationship with the incidence matrix only holds for distinct
        stars.
        """
        stars: list[tuple[int, ...]] = []
        seen = set()
        duplicate = False
        for v in range(self.n):
            star = tuple(i for i, e in enumerate(self.edges) if v in e)
            if not star:
                raise HypergraphError(f"dual undefined: vertex {v} is isolated")
            if star in seen:
                duplicate = True
                continue
            seen.add(star)
            stars.append(star)
        return DualResult(build(self.m, stars), duplicate)

    def edge_induced(self, indices: Iterable[int]) -> tuple[Hypergraph, tuple[int, ...]]:
        """Sub-hypergraph on the union of the selected edges.

        Vertices are relabeled compactly; the second element maps each new
        vertex index back to the original vertex.
        """
        chosen = sorted(set(indices))
        if not chosen:
            raise HypergraphError("edge-induced sub-hypergraph needs at least one edge")
        for i in chosen:
            if not 0 <= i < self.m:
                raise HypergraphError(f"edge index {i} out of range")
        verts = sorted({v for i in chosen for v in self.edges[i]})
        rename = {v: j for j, v in enumerate(verts)}
        sub_edges = tuple(tuple(rename[v] for v in self.edges[i]) for i in chosen)
        return Hypergraph(len(verts), sub_edges), tuple(verts)

    def vertex_induced(self, vertices: Iterable[int]) -> list[tuple[int, tuple[int, ...]]]:
        """Edge traces on a vertex subset, keyed by the originating edge.

        Every edge with a non-empty intersection contributes one entry, so
        coinciding traces are kept apart; that multiplicity is exactly what
        the sub-structure counting arguments need.
        """
        keep = set(vertices)
        if not keep:
            raise HypergraphError("vertex-induced sub-hypergraph needs at least one vertex")
        for v in keep:
            if not 0 <= v < self.n:
                raise HypergraphError(f"vertex {v} out of range")
        out = []
        for i, e in enumerate(self.edges):
            trace = tuple(v for v in e if v in keep)
            if trace:
                out.append((i, trace))
        return out

    def is_connected(self) -> bool:
        """True when every pair of vertices is joined by a walk."""
        if self.n <= 1:
            return True
        return _component_count(range(self.n), self.edges) == 1

    def walk_between(self, u: int, v: int) -> list[int] | None:
        """A shortest alternating walk ``[v0, e1, v1, ..., et, vt]`` or None.

        Vertices and edge indices alternate; consecutive vertices share the
        edge between them.
        """
        for w in (u, v):
            if not 0 <= w < self.n:
                raise HypergraphError(f"vertex {w} out of range")
        if u == v:
            return [u]
        incident: list[list[int]] = [[] for _ in range(self.n)]
        for i, e in enumerate(self.edges):
            for w in e:
                incident[w].append(i)
        prev: dict[int, tuple[int, int]] = {}
        frontier = [u]
        seen = {u}
        while frontier:
            nxt = []
            for a in frontier:
                for i in incident[a]:
                    for b in self.edges[i]:
                        if b in seen:
                            continue
                        seen.add(b)
                        prev[b] = (a, i)
                        if b == v:
                            walk = [b]
                            cur = b
                            while cur != u:
                                a0, e0 = prev[cur]
                                walk.append(e0)
                                walk.append(a0)
                                cur = a0
                            walk.reverse()
                            return walk
                        nxt.append(b)
            frontier = nxt
        return None

    def cut_vertices(self) -> tuple[int, ...]:
        """Vertices whose removal disconnects the vertex-induced remainder.

        Meaningful for connected hypergraphs; removal keeps the non-empty
        edge traces on the remaining vertices.
        """
        out = []
        for v in range(self.n):
            rest = [w for w in range(self.n) if w != v]
            if len(rest) <= 1:
                continue
            traces = (
                [w for w in e if w != v] for e in self.edges if any(w != v for w in e)
            )
            if _component_count(rest, traces) > 1:
                out.append(v)
        return tuple(out)

    def cut_edges(self) -> tuple[int, ...]:
        """Edge indices whose deletion disconnects the hypergraph.

        Deletion keeps the full vertex set, so an edge whose removal
        isolates a vertex counts as a cut edge.
        """
        if self.n <= 1:
            return ()
        out = []
        for i in range(self.m):
            remaining = (e for j, e in enumerate(self.edges) if j != i)
            if _component_count(range(self.n), remaining) > 1:
                out.append(i)
        return tuple(out)


@dataclass(frozen=True)
class DualResult:
    dual: Hypergraph
    had_duplicate_stars: bool


def build(
    n: int,
    raw_edges: Iterable[Sequence[int]],
    allow_isolated: bool = False,
) -> Hypergraph:
    """Validate and construct a hypergraph.

    Rejects empty edges, repeated vertices within an edge, out-of-range
    vertices, duplicate edges, and (unless ``allow_isolated``) vertices
    contained in no edge.  Vertices within each edge are sorted; edge order
    is preserved.
    """
    if n < 0:
        raise HypergraphError("vertex count must be nonnegative")
    edges: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}
    for idx, raw in enumerate(raw_edges):
        verts = list(raw)
        if not verts:
            raise HypergraphError(f"edge {idx} is empty")
        if len(set(verts)) != len(verts):
            raise HypergraphError(f"edge {idx} repeats a vertex: {verts}")
        for v in verts:
            if not 0 <= v < n:
                raise HypergraphError(f"edge {idx} has out-of-range vertex {v}")
        edge = tuple(sorted(verts))
        if edge in seen:
            raise HypergraphError(f"edge {idx} duplicates edge {seen[edge]}: {edge}")
        seen[edge] = idx
        edges.append(edge)
    if not allow_isolated:
        covered = {v for e in edges for v in e}
        missing = [v for v in range(n) if v not in covered]
        if missing:
            raise HypergraphError(f"isolated vertices: {missing}")
    return Hypergraph(n, tuple(edges))
