"""Adjacency-tensor numerics for uniform hypergraphs.

The adjacency tensor of a k-uniform hypergraph acts on a vector x by

    (A x^{k-1})_v = sum over edges e containing v of prod_{u in e, u != v} x_u,
    A x^k        = sum over edges e of k * prod_{v in e} x_v,

the entry weight 1/(k-1)! cancelling against the (k-1)! orderings of each
edge.  The spectral radius of a connected hypergraph is computed by a
shifted power iteration with certified lower/upper brackets; the least
H-eigenvalue is *estimated from above* by projected gradient descent on
the unit k-norm sphere, warm-started from sign-flip vectors built out of
odd bipartitions of single-edge deletions.  Any feasible point is a valid
upper bound, so the estimates certify the closed-form bound checks; the
exact minimum is not claimed.  :func:`analyze_spectra` computes all of
these quantities in one pass per hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import transversal
from .hypergraph import Hypergraph, InvariantError

DEFAULT_BRACKET_TOL = 1e-10
DEFAULT_REPORT_TOL = 1e-8
DEFAULT_MAX_ITER = 100_000
_PGD_MAX_STEPS = 400
_ARMIJO_C = 1e-4


def _uniformity(hg: Hypergraph) -> int:
    k = hg.is_uniform()
    if k is None:
        raise ValueError("adjacency tensor requires a uniform hypergraph")
    return k


def _check_vector(hg: Hypergraph, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (hg.n,):
        raise ValueError(f"vector of length {hg.n} expected, got shape {x.shape}")
    return x


def apply(hg: Hypergraph, x: np.ndarray) -> np.ndarray:
    """Evaluate ``A x^{k-1}`` coordinate-wise.

    Per edge, the contribution to vertex v is the product of the other
    k-1 coordinates; prefix/suffix products avoid dividing by x_v, which
    may be zero.
    """
    k = _uniformity(hg)
    x = _check_vector(hg, x)
    out = np.zeros(hg.n)
    for e in hg.edges:
        vals = [x[v] for v in e]
        prefix = [1.0] * (k + 1)
        for i in range(k):
            prefix[i + 1] = prefix[i] * vals[i]
        suffix = 1.0
        for i in range(k - 1, -1, -1):
            out[e[i]] += prefix[i] * suffix
            suffix *= vals[i]
    return out


def rayleigh(hg: Hypergraph, x: np.ndarray) -> float:
    """Evaluate ``A x^k = sum_e k * prod_{v in e} x_v``."""
    k = _uniformity(hg)
    x = _check_vector(hg, x)
    total = 0.0
    for e in hg.edges:
        prod = 1.0
        for v in e:
            prod *= x[v]
        total += prod
    return float(k * total)


def _knorm(x: np.ndarray, k: int) -> float:
    return float(np.sum(np.abs(x) ** k) ** (1.0 / k))


@dataclass(frozen=True)
class PerronResult:
    """Spectral radius estimate with its positive unit-k-norm eigenvector."""

    rho: float
    vector: np.ndarray
    residual: float
    iterations: int
    converged: bool
    bracket: tuple[float, float]


def spectral_radius(
    hg: Hypergraph,
    tol: float = DEFAULT_BRACKET_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PerronResult:
    """Shifted power iteration for the largest H-eigenvalue.

    Iterates ``y = A x^{k-1} + x^{[k-1]}`` followed by the entrywise
    (k-1)-th root and k-norm renormalization; the unit shift rules out
    oscillation on periodic structures.  At every iterate the eigenvalue is
    bracketed by ``min_v y_v / x_v^{k-1} - 1`` and the matching max; the
    iteration stops when the bracket is narrower than ``tol`` and reports
    the bracket top, a certified upper estimate.  When ``max_iter`` is hit
    the best bracket is returned with ``converged=False``.
    """
    k = _uniformity(hg)
    if not hg.is_connected():
        raise ValueError("the iteration requires a connected hypergraph")
    x = np.full(hg.n, hg.n ** (-1.0 / k))
    lo, hi = -np.inf, np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ax = apply(hg, x)
        xk1 = x ** (k - 1)
        y = ax + xk1
        ratios = y / xk1
        lo = float(ratios.min()) - 1.0
        hi = float(ratios.max()) - 1.0
        if hi - lo < tol:
            residual = float(np.max(np.abs(ax - hi * xk1)))
            return PerronResult(hi, x, residual, iterations, True, (lo, hi))
        x = y ** (1.0 / (k - 1))
        x /= _knorm(x, k)
    ax = apply(hg, x)
    residual = float(np.max(np.abs(ax - hi * x ** (k - 1))))
    return PerronResult(hi, x, residual, iterations, False, (lo, hi))


def _sign_flip(x: np.ndarray, part: tuple[int, ...]) -> np.ndarray:
    """``x`` with the sign flipped on every coordinate outside ``part``."""
    y = -np.asarray(x, dtype=float)
    y[list(part)] *= -1.0
    return y


def _flip_across_deletion(hg: Hypergraph, edge_index: int, x: np.ndarray) -> np.ndarray:
    """Sign-flip ``x`` across an odd bipartition of the deletion ``G - e``.

    For a minimal hypergraph of even uniformity the deleted edge meets the
    flipped side in an even number of vertices: the part meets each of the
    other m - 1 edges (an even number of them) oddly and has an even degree
    sum, so it meets the deleted edge evenly, and so does the complement.
    """
    part = transversal.find_odd_transversal(hg.delete_edge(edge_index))
    if part is None:
        raise InvariantError(f"deleting edge {edge_index} leaves no odd transversal")
    inside = set(part)
    if sum(v not in inside for v in hg.edges[edge_index]) % 2:
        raise InvariantError(f"edge {edge_index} meets the flipped side oddly")
    return _sign_flip(x, part)


def flip_vector(
    hg: Hypergraph, edge_index: int, perron: PerronResult
) -> tuple[np.ndarray, float]:
    """The bound-construction vector for one edge of a minimal hypergraph.

    Deleting any edge of a minimal non-odd-transversal hypergraph leaves an
    odd-bipartite remainder; flipping the sign of the Perron vector on one
    side gives a feasible point whose value is exactly

        A y^k = -A x^k + 2k * prod_{v in e} x_v,

    because the deleted edge meets the flipped side in an even number of
    vertices (checked).  Returns ``(y, A y^k)``.
    """
    k = _uniformity(hg)
    if k % 2:
        raise ValueError("flip construction needs even uniformity")
    if not 0 <= edge_index < hg.m:
        raise ValueError(f"edge index {edge_index} out of range")
    if not transversal.classify(hg).is_minimal:
        raise ValueError("flip construction applies to minimal hypergraphs only")
    y = _flip_across_deletion(hg, edge_index, perron.vector)
    return y, rayleigh(hg, y)


def _project(x: np.ndarray, k: int) -> np.ndarray | None:
    nk = _knorm(x, k)
    if nk < 1e-30:
        return None
    return x / nk


def _descend(hg: Hypergraph, k: int, start: np.ndarray) -> tuple[float, np.ndarray]:
    """Projected gradient descent for ``A x^k`` on the unit k-norm sphere.

    The gradient of ``A x^k`` is ``k * A x^{k-1}``; steps are chosen by
    halving backtracking under an Armijo decrease test, projecting back to
    the sphere by renormalization.  Monotone, so the result never exceeds
    the start value.
    """
    x = _project(start, k)
    if x is None:
        raise ValueError("cannot start descent from the zero vector")
    value = rayleigh(hg, x)
    for _ in range(_PGD_MAX_STEPS):
        grad = k * apply(hg, x)
        gnorm2 = float(grad @ grad)
        if gnorm2 < 1e-28:
            break
        step = 1.0 / (1.0 + float(np.abs(grad).max()))
        improved = False
        while step > 1e-18:
            cand = _project(x - step * grad, k)
            if cand is not None:
                cand_value = rayleigh(hg, cand)
                if cand_value < value - _ARMIJO_C * step * gnorm2:
                    x, value = cand, cand_value
                    improved = True
                    break
            step *= 0.5
        if not improved:
            break
    return value, x


def _flip_starts(
    hg: Hypergraph, x: np.ndarray, report: transversal.ClassificationReport
) -> list[np.ndarray]:
    """Sign flips of ``x`` across odd bipartitions, the descent starts.

    One per single-edge deletion, in edge order, when the hypergraph is
    minimal; one across its own odd transversal when it has one.
    """
    if report.is_minimal:
        return [_flip_across_deletion(hg, i, x) for i in range(hg.m)]
    if report.witness is not None:
        return [_sign_flip(x, report.witness)]
    return []


def _least_value(
    hg: Hypergraph, k: int, starts: list[np.ndarray], restarts: int, seed: int
) -> tuple[float, np.ndarray]:
    """Descend from ``starts`` plus ``restarts`` seeded random starts; keep the least.

    Each random start has its own deterministic sub-seed, so the reported
    minimum does not depend on evaluation order.
    """
    starts = starts + [
        np.random.default_rng((seed, i)).standard_normal(hg.n) for i in range(restarts)
    ]
    if not starts:
        starts.append(np.ones(hg.n))
    best_value, best_x = np.inf, None
    for start in starts:
        value, x = _descend(hg, k, start)
        if value < best_value:
            best_value, best_x = value, x
    if best_x is None:
        raise InvariantError("no descent start reached a finite value")
    return float(best_value), best_x


def lambda_min_upper(
    hg: Hypergraph,
    restarts: int = 8,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """A certified upper bound on the least H-eigenvalue (even k only).

    Minimizes ``A x^k`` over the unit k-norm sphere from several starts:
    sign-flip vectors built from odd bipartitions (of every single-edge
    deletion when the hypergraph is minimal, or of the hypergraph itself
    when it is odd-transversal) plus seeded random starts.  Every returned
    value is attained by a feasible point, hence a true upper bound; it
    also can never drop below ``-rho`` (up to bracket error).
    """
    k = _uniformity(hg)
    if k % 2:
        raise ValueError("the least H-eigenvalue estimate needs even uniformity")
    if not hg.is_connected():
        raise ValueError("the estimate requires a connected hypergraph")
    starts = _flip_starts(hg, spectral_radius(hg).vector, transversal.classify(hg))
    return _least_value(hg, k, starts, restarts, seed)


@dataclass(frozen=True)
class SpectraReport:
    """The adjacency-tensor quantities of one connected uniform hypergraph.

    ``lambda_min_upper``, ``alpha`` and ``beta`` need even uniformity; the
    bounds and flip values also need a minimal hypergraph.  Every value
    derived from the Perron vector is None when the power iteration did not
    converge.
    """

    k: int
    perron: PerronResult
    classification: transversal.ClassificationReport
    lambda_min_upper: float | None = None
    alpha: float | None = None
    beta: float | None = None
    bound1: float | None = None
    bound2: float | None = None
    flip_value_min_edge: float | None = None
    flip_identity_max_error: float | None = None


def analyze_spectra(
    hg: Hypergraph,
    tol: float = DEFAULT_BRACKET_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    restarts: int = 8,
    seed: int = 0,
) -> SpectraReport:
    """Everything the least-H-eigenvalue bounds need, each computed once.

    One Perron solve, one classification and, for a minimal hypergraph of
    even uniformity, the m single-deletion sign flips, which serve both as
    descent starts for ``lambda_min_upper`` and for the flip values:

    - ``bound1 = -rho + 2k / n^{1/k}`` comes from flipping across the
      deletion of an edge through a small Perron coordinate, ``bound2 =
      -(1 - 2/m) * rho`` from deleting an edge of minimal Perron weight,
      whose flip value is ``flip_value_min_edge``;
    - ``flip_identity_max_error`` is the largest deviation over all edges
      of a flip value from ``-A x^k + 2k * prod_{v in e} x_v``;
    - ``alpha = rho + lambda_min_upper`` and ``beta = -lambda_min_upper /
      rho`` quantify the distance from odd-bipartiteness (alpha 0, beta 1
      exactly for odd-bipartite hypergraphs).

    For minimal input the estimates are checked against each other at
    ``DEFAULT_REPORT_TOL`` plus the width of the Perron bracket, since rho
    is known only to within it; a failed check raises ``InvariantError``.
    Non-uniform or disconnected input raises ``ValueError``.
    """
    k = _uniformity(hg)
    perron = spectral_radius(hg, tol=tol, max_iter=max_iter)
    report = transversal.classify(hg)
    if k % 2 or not perron.converged:
        return SpectraReport(k, perron, report)
    x, rho = perron.vector, perron.rho
    starts = _flip_starts(hg, x, report)
    lam, _ = _least_value(hg, k, starts, restarts, seed)
    alpha, beta = rho + lam, -lam / rho
    if not report.is_minimal:
        return SpectraReport(k, perron, report, lam, alpha, beta)

    weights = []
    for e in hg.edges:
        prod = 1.0
        for v in e:
            prod *= x[v]
        weights.append(prod)
    values = [rayleigh(hg, y) for y in starts]
    base = rayleigh(hg, x)
    flip_error = max(abs(value - (-base + 2.0 * k * w)) for value, w in zip(values, weights))
    bound1 = -rho + 2.0 * k / hg.n ** (1.0 / k)
    bound2 = -(1.0 - 2.0 / hg.m) * rho
    slack = DEFAULT_REPORT_TOL + (perron.bracket[1] - perron.bracket[0])
    if not (
        -rho - slack <= lam <= min(bound1, bound2) + slack
        and alpha >= -slack
        and 0.0 < beta <= 1.0 + slack
    ):
        raise InvariantError(
            f"inconsistent estimates: rho={rho!r} lambda_min_upper={lam!r} "
            f"bound1={bound1!r} bound2={bound2!r}"
        )
    flip_min = values[int(np.argmin(weights))]
    return SpectraReport(k, perron, report, lam, alpha, beta, bound1, bound2, flip_min, flip_error)


@dataclass(frozen=True)
class BoundReport:
    """Spectral quantities for one minimal non-odd-bipartite hypergraph."""

    rho: float
    bound1: float
    bound2: float
    flip_value_min_edge: float
    lambda_min_upper: float
    alpha: float
    beta: float


def bound_report(hg: Hypergraph, restarts: int = 8, seed: int = 0) -> BoundReport:
    """Both closed-form upper bounds on the least H-eigenvalue and the estimates.

    The values are those of :func:`analyze_spectra` at the default
    tolerance, including its consistency checks; input that is not minimal
    of even uniformity raises ``ValueError``, and a power iteration that
    does not converge raises ``RuntimeError``.
    """
    k = _uniformity(hg)
    if k % 2:
        raise ValueError("bound report needs even uniformity")
    spectra = analyze_spectra(hg, restarts=restarts, seed=seed)
    if not spectra.classification.is_minimal:
        raise ValueError("bound report applies to minimal hypergraphs only")
    if not spectra.perron.converged:
        raise RuntimeError("the power iteration did not converge")
    return BoundReport(
        spectra.perron.rho,
        spectra.bound1,
        spectra.bound2,
        spectra.flip_value_min_edge,
        spectra.lambda_min_upper,
        spectra.alpha,
        spectra.beta,
    )
