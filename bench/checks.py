"""Output checks, run outside the timed region.

Expected values come from the construction (``Instance.known``) and from
reference computations written here, independent of the package: a
sparse GF(2) echelon form for rank and solvability, union-find
connectivity, and one Tarjan DFS over the vertex-edge incidence graph for
cut vertices and cut edges.  Checks compare fields, never captured output,
so new JSON keys do not fail them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from families import Instance, connected

# Relative tolerance for float identities; JSON floats carry 12 significant digits.
REL_TOL = 1e-8
FLIP_IDENTITY_MAX = 1e-9


class CheckFailed(Exception):
    pass


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Reference:
    degrees: list[int]
    uniform: int | None
    regular: int | None
    connected: bool
    rank: int
    odd_transversal: bool
    is_minimal: bool
    cut_vertices: tuple[int, ...] | None
    cut_edges: tuple[int, ...] | None


def _rank_and_solvable(n: int, edges: list[tuple[int, ...]]) -> tuple[int, bool]:
    """Rank of the incidence matrix and solvability of B x = 1 over GF(2).

    Rows carry the right-hand side as bit n; each row is reduced only
    against the pivots keyed by its current lowest bit.  A pivot at bit n
    is the row 0 = 1.
    """
    aug = 1 << n
    pivots: dict[int, int] = {}
    for e in edges:
        row = aug
        for v in e:
            row |= 1 << v
        while row:
            low = row & -row
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = row
                break
            row ^= pivot
    solvable = aug not in pivots
    return len(pivots) - (not solvable), solvable


def reference(inst: Instance) -> Reference:
    degrees = [0] * inst.n
    for e in inst.edges:
        for v in e:
            degrees[v] += 1
    sizes = {len(e) for e in inst.edges}
    rank, solvable = _rank_and_solvable(inst.n, inst.edges)
    is_connected = connected(inst.n, inst.edges)
    is_minimal = (
        is_connected and inst.m % 2 == 1 and all(d % 2 == 0 for d in degrees) and rank == inst.m - 1
    )
    cut_v, cut_e = cut_structure(inst.n, inst.edges) if is_connected else (None, None)
    return Reference(
        degrees=degrees,
        uniform=sizes.pop() if len(sizes) == 1 else None,
        regular=degrees[0] if len(set(degrees)) == 1 else None,
        connected=is_connected,
        rank=rank,
        odd_transversal=solvable,
        is_minimal=is_minimal,
        cut_vertices=cut_v,
        cut_edges=cut_e,
    )


def cut_structure(n: int, edges: list[tuple[int, ...]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cut vertices and cut edges of a connected hypergraph in one DFS.

    Nodes 0..n-1 are vertices and n+i is edge i.  An edge-node is a cut
    edge when it is an articulation point.  A vertex-node is a cut vertex
    only when a separated DFS subtree holds another vertex, i.e. its child
    edge-node has at least two vertices (an edge {v} alone separates none).
    """
    adj: list[list[int]] = [[] for _ in range(n + len(edges))]
    for i, e in enumerate(edges):
        for v in e:
            adj[v].append(n + i)
            adj[n + i].append(v)
    disc = [-1] * len(adj)
    low = [0] * len(adj)
    disc[0] = 0
    clock = 1
    cut_v: set[int] = set()
    cut_e: set[int] = set()
    root_branches = 0
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        u, parent, neighbours = stack[-1]
        for w in neighbours:
            if w == parent:
                continue
            if disc[w] < 0:
                disc[w] = low[w] = clock
                clock += 1
                stack.append((w, u, iter(adj[w])))
                break
            low[u] = min(low[u], disc[w])
        else:
            stack.pop()
            if not stack:
                continue
            p = stack[-1][0]
            low[p] = min(low[p], low[u])
            if low[u] < disc[p]:
                continue
            if p >= n:
                cut_e.add(p - n)
            elif len(edges[u - n]) >= 2:
                if p == 0:
                    root_branches += 1
                else:
                    cut_v.add(p)
    if root_branches >= 2:
        cut_v.add(0)
    return tuple(sorted(cut_v)), tuple(sorted(cut_e))


def _close(a: float, b: float, scale: float = 1.0) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(scale))


def _meets_all_oddly(edges: list[tuple[int, ...]], vertices: set[int]) -> bool:
    return all(sum(v in vertices for v in e) % 2 == 1 for e in edges)


def check_analyze(inst: Instance, ref: Reference, rc: int, out: str) -> None:
    expect(rc == 0, f"exit code {rc}")
    d = json.loads(out)
    labels = [str(v + 1) for v in range(inst.n)]
    known = inst.known
    expect(d["n"] == inst.n and d["m"] == inst.m, "n/m")
    expect(d["labels"] == labels, "labels")
    expect(d["degrees"] == ref.degrees, "degrees")
    expect(d["uniform"] == ref.uniform and d["regular"] == ref.regular, "uniform/regular")
    expect(d["connected"] == ref.connected, "connected")
    expect(d["rank"] == ref.rank and d["rank"] == known.get("rank", ref.rank), "rank")
    expect(d["m_odd"] == (inst.m % 2 == 1), "m_odd")
    expect(d["all_degrees_even"] == all(x % 2 == 0 for x in ref.degrees), "all_degrees_even")
    expect(d["is_odd_transversal"] == ref.odd_transversal, "is_odd_transversal")
    if ref.odd_transversal:
        witness = {int(label) - 1 for label in d["odd_transversal"]}
        expect(_meets_all_oddly(inst.edges, witness), "witness meets an edge evenly")
        expect(d["odd_transversal_count"] == 1 << (inst.n - ref.rank), "count")
    else:
        expect(d["odd_transversal"] is None and d["odd_transversal_count"] == 0, "no witness")
    expect(d["is_minimal"] == ref.is_minimal, "is_minimal")
    expect(d["is_minimal"] == known.get("is_minimal", ref.is_minimal), "is_minimal (theory)")
    cut_v, cut_e = ref.cut_vertices, ref.cut_edges
    if cut_v is not None:
        expect(cut_v == known.get("cut_vertices", cut_v), "cut vertices (construction)")
        expect(cut_e == known.get("cut_edges", cut_e), "cut edges (construction)")
        expect(d["cut_vertices"] == [labels[v] for v in cut_v], "cut_vertices")
        expect(d["cut_edges"] == list(cut_e), "cut_edges")
    injection = d["edge_injection"]
    if "injection" in known:
        expect((injection is not None) == known["injection"], "edge injection existence")
    if injection is not None:
        expect(sorted(injection, key=int) == [str(i) for i in range(inst.m)], "injection keys")
        expect(len(set(injection.values())) == inst.m, "injection not injective")
        expect(
            all(int(label) - 1 in inst.edges[int(i)] for i, label in injection.items()),
            "injection leaves an edge",
        )
    expect(d["intersection_violation"] is None, "intersection_violation")


def check_check(inst: Instance, ref: Reference, rc: int, out: str) -> None:
    minimal = ref.is_minimal
    expect(minimal == inst.known.get("is_minimal", minimal), "is_minimal (theory)")
    expect(rc == (0 if minimal else 1), f"exit code {rc}")
    expect(out.strip() == ("minimal non-odd-transversal" if minimal else "not minimal"), "text")


def _check_bounds(rho: float, lam: float, n: int, m: int, k: int, d: dict) -> None:
    tol = REL_TOL * max(1.0, rho)
    bound1 = -rho + 2.0 * k / n ** (1.0 / k)
    bound2 = -(1.0 - 2.0 / m) * rho
    expect(_close(d["bound1"], bound1, rho) and _close(d["bound2"], bound2, rho), "bound1/bound2")
    expect(-rho - tol <= lam <= min(bound1, bound2) + tol, "lambda_min_upper outside bounds")


def check_spectra(inst: Instance, ref: Reference, rc: int, out: str) -> None:
    expect(rc == 0, f"exit code {rc}")
    d = json.loads(out)
    k = ref.uniform
    expect((d["n"], d["m"], d["k"]) == (inst.n, inst.m, k), "n/m/k")
    expect(d["converged"] is True, "not converged")
    expect(d["is_minimal"] == ref.is_minimal == inst.known["is_minimal"], "is_minimal")
    rho = d["rho"]
    if ref.regular is not None:
        expect(_close(rho, ref.regular, rho), f"rho {rho} != degree {ref.regular}")
    else:
        expect(min(ref.degrees) <= rho <= max(ref.degrees), "rho outside degree range")
    lam = d["lambda_min_upper"]
    tol = REL_TOL * max(1.0, rho)
    expect(d["lambda_min_applicable"] is True and lam is not None, "lambda_min missing")
    expect(_close(d["alpha"], rho + lam, rho) and _close(d["beta"], -lam / rho, 1.0), "alpha/beta")
    if ref.is_minimal:
        _check_bounds(rho, lam, inst.n, inst.m, k, d)
        expect(d["flip_identity_max_error"] <= FLIP_IDENTITY_MAX, "flip identity error")
    else:
        expect(-rho - tol <= lam <= rho, "lambda_min_upper outside [-rho, rho]")
        if ref.odd_transversal:
            expect(lam <= -rho + tol, "odd-bipartite input with lambda_min_upper above -rho")


def check_sweep_dreg(k: int, n_max: int, rc: int, out: str) -> None:
    expect(rc == 0, f"exit code {rc}")
    rows = json.loads(out)["rows"]
    odd = [n for n in range(k + 1, n_max + 1) if n % 2]
    expect([r["n"] for r in rows] == odd, "row set")
    for r in rows:
        g = math.gcd(r["n"], k)
        expect(r["gcd"] == g and r["is_minimal"] == (g == 1), f"n={r['n']} verdict")
        expect(r["rank"] == r["rank_expected"] == r["n"] - g and r["agrees"] is True, "rank")


def check_sweep_beta(k: int, lengths: list[int], rc: int, out: str) -> None:
    expect(rc == 0, f"exit code {rc}")
    rows = json.loads(out)["rows"]
    expect([r["m"] for r in rows] == lengths, "row set")
    for r in rows:
        n, m, rho, lam = r["n"], r["m"], r["rho"], r["lambda_min_upper"]
        expect(n == m * k // 2 and _close(rho, 2.0, rho), f"m={m}: n or rho")
        tol = REL_TOL * max(1.0, rho)
        bound = min(-rho + 2.0 * k / n ** (1.0 / k), -(1.0 - 2.0 / m) * rho)
        expect(-rho - tol <= lam <= bound + tol, f"m={m}: lambda_min_upper outside bounds")
        expect(_close(r["beta"], -lam / rho) and 0.0 < r["beta"] <= 1.0 + tol, f"m={m}: beta")
