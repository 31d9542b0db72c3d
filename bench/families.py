"""Seeded input families, written by the benchmark's own code.

Nothing here imports ``oddtrans``: a change to the package's generators
cannot change what the benchmark runs.  Every family returns an
:class:`Instance` holding 0-based edge tuples plus what the construction
guarantees (``known``); files are written with 1-based integer labels, so
the program's vertex ``v`` is the file label ``v + 1``.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Instance:
    name: str
    family: str
    n: int
    edges: list[tuple[int, ...]]
    known: dict = field(default_factory=dict)
    path: str = ""

    @property
    def m(self) -> int:
        return len(self.edges)

    def text(self) -> str:
        return "".join(" ".join(str(v + 1) for v in e) + "\n" for e in self.edges)


def connected(n: int, edges: list[tuple[int, ...]]) -> bool:
    """Union-find connectivity of the vertices 0..n-1."""
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in edges:
        root = find(e[0])
        for v in e[1:]:
            parent[find(v)] = root
    return len({find(v) for v in range(n)}) == 1


def relabel(n: int, edges: list[tuple[int, ...]], rng: random.Random) -> list[tuple[int, ...]]:
    """Apply a seeded vertex permutation and a seeded edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [tuple(sorted(perm[v] for v in e)) for e in edges]
    rng.shuffle(out)
    return out


def window(n: int, k: int) -> Instance:
    """Cayley windows on Z_n: edges {i, ..., i+k-1 mod n}, in natural (banded) order.

    The classification is known in closed form for odd n: minimal iff
    gcd(n, k) = 1, with rank n - gcd(n, k).  Window i maps injectively to
    vertex i, and no vertex or edge is a cut.
    """
    edges = [tuple(sorted((i + j) % n for j in range(k))) for i in range(n)]
    known = {"uniform": k, "regular": k, "injection": True, "cut_vertices": (), "cut_edges": ()}
    if n % 2:
        g = math.gcd(n, k)
        known.update(is_minimal=g == 1, rank=n - g)
    return Instance(f"window-n{n}-k{k}", "window", n, edges, known)


def relabeled_window(n: int, k: int, rng: random.Random) -> Instance:
    inst = window(n, k)
    inst.edges = relabel(n, inst.edges, rng)
    inst.family = "window-relabeled"
    inst.name = f"rwindow-n{n}-k{k}"
    return inst


def two_regular(k: int, m: int, rng: random.Random) -> Instance:
    """Random 2-regular k-uniform hypergraph on k*m/2 vertices.

    Edge t is V_t | W_t: V is the fixed partition into consecutive
    k/2-blocks and W a shuffled one.  A vertex shuffled into its own
    V-block's slot is swapped with a random vertex that fits both slots, so
    the cost of a draw barely depends on the seed; the draw is repeated
    only when two edges coincide or the result is disconnected.  Each
    vertex lies in exactly one V- and one W-block.
    """
    half = k // 2
    n = half * m
    order = list(range(n))
    for _ in range(1000):
        rng.shuffle(order)
        for i in range(n):
            while order[i] // half == i // half:
                j = rng.randrange(n)
                if order[j] // half != i // half and order[i] // half != j // half:
                    order[i], order[j] = order[j], order[i]
        blocks = [order[half * t : half * (t + 1)] for t in range(m)]
        edges = [
            tuple(sorted([*range(half * t, half * (t + 1)), *w])) for t, w in enumerate(blocks)
        ]
        if len(set(edges)) == m and connected(n, edges):
            return Instance(
                f"tworeg-k{k}-m{m}", "tworeg", n, edges,
                {"uniform": k, "regular": 2, "injection": True},
            )
    raise RuntimeError(f"no 2-regular draw for k={k}, m={m}")


def cut_chain(a: int, b: int, c: int) -> Instance:
    """Three 4-uniform window blocks with one cut vertex and one cut edge.

    Block A (vertices 0..a-1) and block B (a..a+b-1) are joined only by the
    bridge edge {0, 1, a, a+1}; block C hangs off B's vertex z alone.  So z
    is the only cut vertex and the bridge the only cut edge.  With
    m = n + 2 edges no edge injection exists.
    """
    def cycle(verts: list[int]) -> list[tuple[int, ...]]:
        s = len(verts)
        return [tuple(sorted(verts[(i + j) % s] for j in range(4))) for i in range(s)]

    z = a + b // 2
    block_a = cycle(list(range(a)))
    block_b = cycle(list(range(a, a + b)))
    block_c = cycle([z] + list(range(a + b, a + b + c - 1)))
    bridge = (0, 1, a, a + 1)
    edges = block_a + [bridge] + block_b + block_c
    known = {
        "uniform": 4, "regular": None, "injection": False,
        "cut_vertices": (z,), "cut_edges": (len(block_a),),
    }
    return Instance(f"cutchain-{a}-{b}-{c}", "cut-chain", a + b + c - 1, edges, known)


def projective_plane(q: int, rng: random.Random) -> Instance:
    """Points and lines of PG(2, q), q an odd prime, under a seeded relabeling."""
    points = (
        [(1, x, y) for x in range(q) for y in range(q)]
        + [(0, 1, x) for x in range(q)]
        + [(0, 0, 1)]
    )
    lines = [
        tuple(i for i, p in enumerate(points) if sum(a * b for a, b in zip(line, p)) % q == 0)
        for line in points
    ]
    n = len(points)
    return Instance(
        f"pp-q{q}", "projective-plane", n, relabel(n, lines, rng),
        {"uniform": q + 1, "regular": q + 1, "is_minimal": True},
    )


def _graph_power(
    n_base: int, graph: list[tuple[int, int]], k: int
) -> tuple[int, list[tuple[int, ...]]]:
    """Generalized power: vertex u becomes the block of k/2 fresh vertices."""
    half = k // 2
    edges = [
        tuple(sorted([*range(u * half, (u + 1) * half), *range(v * half, (v + 1) * half)]))
        for u, v in graph
    ]
    return n_base * half, edges


def cycle_power(length: int, k: int, rng: random.Random) -> Instance:
    """Power of the cycle C_length; minimal iff length is odd."""
    n, edges = _graph_power(length, [(i, (i + 1) % length) for i in range(length)], k)
    return Instance(
        f"cpow-m{length}-k{k}", "cycle-power", n, relabel(n, edges, rng),
        {"uniform": k, "regular": 2, "is_minimal": length % 2 == 1},
    )


def random_graph_power(n_base: int, extra: int, k: int, rng: random.Random) -> Instance:
    """Power of a seeded random connected graph that is neither regular nor all-even.

    A random recursive tree plus ``extra`` random chords; redrawn until some
    degree differs from another and some degree is odd, so the power is
    connected, non-regular and not minimal.
    """
    while True:
        graph = set()
        for v in range(1, n_base):
            u = rng.randrange(v)
            graph.add((u, v))
        while len(graph) < n_base - 1 + extra:
            u, v = sorted(rng.sample(range(n_base), 2))
            graph.add((u, v))
        deg = [0] * n_base
        for u, v in graph:
            deg[u] += 1
            deg[v] += 1
        if len(set(deg)) > 1 and any(d % 2 for d in deg):
            break
    n, edges = _graph_power(n_base, sorted(graph), k)
    return Instance(
        f"gpow-n{n_base}-x{extra}-k{k}", "graph-power", n, relabel(n, edges, rng),
        {"uniform": k, "regular": None, "is_minimal": False},
    )


def write_all(instances: list[Instance], directory: Path) -> str:
    """Write every instance under ``directory``; return the sha256 of all inputs."""
    directory.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for i, inst in enumerate(instances):
        text = inst.text()
        path = directory / f"{i:03d}-{inst.name}.hg"
        path.write_text(text)
        inst.path = str(path)
        digest.update(f"{inst.name}\0{text}\0".encode())
    return digest.hexdigest()
