"""Adjacency-tensor numerics for uniform hypergraphs.

The adjacency tensor of a k-uniform hypergraph acts on a vector x by

    (A x^{k-1})_v = sum over edges e containing v of prod_{u in e, u != v} x_u,
    A x^k        = sum over edges e of k * prod_{v in e} x_v,

the entry weight 1/(k-1)! cancelling against the (k-1)! orderings of each
edge.  The spectral radius of a connected hypergraph is computed by a
shifted power iteration with certified lower/upper brackets; the least
H-eigenvalue is *estimated from above* by projected gradient descent on
the unit k-norm sphere, warm-started from sign-flip vectors built out of
odd bipartitions of single-edge deletions.  The starts descend in lockstep
as the rows of one array, each row repeating a lone descent's arithmetic
bit for bit, so batching changes no result.  Any feasible point is a valid
upper bound, so the estimates certify the closed-form bound checks; the
exact minimum is not claimed.  :func:`analyze_spectra` computes all of
these quantities in one pass per hypergraph; :func:`lambda_min_upper` and
:func:`bound_report` are checked reads of its report.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import transversal
from .hypergraph import Hypergraph, InvariantError

DEFAULT_BRACKET_TOL = 1e-10
DEFAULT_REPORT_TOL = 1e-8
DEFAULT_MAX_ITER = 100_000
_PGD_MAX_STEPS = 400
_BLOCK_ELEMENTS = 32768  # a descent block holds max(1, this // n) starts
_ARMIJO_C = 1e-4


def _check_vector(hg: Hypergraph, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (hg.n,):
        raise ValueError(f"vector of length {hg.n} expected, got shape {x.shape}")
    return x


@dataclass(eq=False)
class _Tensor:
    """The adjacency tensor of a k-uniform hypergraph, compiled once.

    ``edges`` is the (m, k) array of edge vertices.  The kernels take one
    vector or a stack of them (shape (S, n)), row by row.  They multiply
    and add in edge order, one factor at a time, exactly as a per-edge loop
    would: ``cumprod``, ``bincount`` and ``add.accumulate`` are sequential,
    whereas ``np.sum`` and ``np.prod`` along an axis may reorder.
    ``index`` holds the ``bincount`` indices of the widest stack applied so
    far; a narrower stack uses a prefix of it.
    """

    n: int
    k: int
    edges: np.ndarray
    index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.index = self.edges.ravel()

    @classmethod
    def of(cls, hg: Hypergraph) -> _Tensor:
        k = hg.is_uniform()
        if k is None:
            raise ValueError("adjacency tensor requires a uniform hypergraph")
        return cls(hg.n, k, np.array(hg.edges, dtype=np.intp))

    def products(self, x: np.ndarray) -> np.ndarray:
        """``prod_{v in e} x_v`` for every edge e (and every row of a stack)."""
        return functools.reduce(np.multiply, x[..., self.edges.T].swapaxes(0, -2))

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``A x^{k-1}`` by prefix/suffix products, never dividing by x_v (it may be 0).

        One ``bincount`` serves every row: row r's entries go to r * n + v.
        """
        vals = x[..., self.edges]
        before = np.ones_like(vals)
        after = np.ones_like(vals)
        np.cumprod(vals[..., :-1], axis=-1, out=before[..., 1:])
        np.cumprod(vals[..., :0:-1], axis=-1, out=after[..., -2::-1])
        rows = x.size // self.n
        entries = rows * self.edges.size
        if self.index.size < entries:
            self.index = np.add.outer(np.arange(rows) * self.n, self.edges.ravel()).ravel()
        out = np.bincount(self.index[:entries], (before * after).ravel(), x.size)
        return out.reshape(x.shape)

    def rayleigh(self, x: np.ndarray) -> float | np.ndarray:
        """``A x^k`` (per row); the ``+ 0.0`` gives a loop's +0.0 when every product is -0.0."""
        value = self.k * (np.add.accumulate(self.products(x), axis=-1)[..., -1] + 0.0)
        return float(value) if x.ndim == 1 else value


def apply(hg: Hypergraph, x: np.ndarray) -> np.ndarray:
    """Evaluate ``A x^{k-1}`` coordinate-wise."""
    return _Tensor.of(hg).apply(_check_vector(hg, x))


def rayleigh(hg: Hypergraph, x: np.ndarray) -> float:
    """Evaluate ``A x^k = sum_e k * prod_{v in e} x_v``."""
    return _Tensor.of(hg).rayleigh(_check_vector(hg, x))


def _knorms(rows: np.ndarray, k: int) -> np.ndarray:
    """The k-norm of every row: summed as ``np.sum`` sums one row, rooted as a Python float."""
    return np.array([s ** (1.0 / k) for s in np.add.reduce(np.abs(rows) ** k, axis=1).tolist()])


@dataclass(frozen=True)
class PerronResult:
    """Spectral radius estimate with its positive unit-k-norm eigenvector.

    The compiled tensor is kept for :func:`analyze_spectra`.
    """

    rho: float
    vector: np.ndarray
    residual: float
    iterations: int
    converged: bool
    bracket: tuple[float, float]
    _tensor: _Tensor | None = field(default=None, compare=False, repr=False)


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
    op = _Tensor.of(hg)
    k = op.k
    if not hg.is_connected():
        raise ValueError("the iteration requires a connected hypergraph")
    x = np.full(hg.n, hg.n ** (-1.0 / k))
    lo, hi = -np.inf, np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ax = op.apply(x)
        xk1 = x ** (k - 1)
        y = ax + xk1
        ratios = y / xk1
        lo = float(ratios.min()) - 1.0
        hi = float(ratios.max()) - 1.0
        if hi - lo < tol:
            residual = float(np.max(np.abs(ax - hi * xk1)))
            return PerronResult(hi, x, residual, iterations, True, (lo, hi), op)
        x = y ** (1.0 / (k - 1))
        x /= _knorms(x[None], k)[0]
    ax = op.apply(x)
    residual = float(np.max(np.abs(ax - hi * x ** (k - 1))))
    return PerronResult(hi, x, residual, iterations, False, (lo, hi), op)


def _sign_flip(x: np.ndarray, part: tuple[int, ...]) -> np.ndarray:
    """``x`` with the sign flipped on every coordinate outside ``part``."""
    y = -np.asarray(x, dtype=float)
    y[list(part)] *= -1.0
    return y


def flip_vector(
    hg: Hypergraph, edge_index: int, perron: PerronResult
) -> tuple[np.ndarray, float]:
    """The bound-construction vector for one edge of a minimal hypergraph.

    Deleting any edge of a minimal non-odd-transversal hypergraph leaves an
    odd-bipartite remainder; flipping the sign of the Perron vector on one
    side gives a feasible point whose value is exactly

        A y^k = -A x^k + 2k * prod_{v in e} x_v,

    because the deleted edge meets the flipped side in an even number of
    vertices (checked).  Returns ``(y, A y^k)``; minimality implies even k.
    """
    op = _Tensor.of(hg)
    x = _check_vector(hg, perron.vector)
    if not 0 <= edge_index < hg.m:
        raise ValueError(f"edge index {edge_index} out of range")
    report = transversal.classify(hg)
    if not report.is_minimal:
        raise ValueError("flip construction applies to minimal hypergraphs only")
    y = _flip_starts(hg, x, report)[edge_index]
    return y, op.rayleigh(y)


def _descend(op: _Tensor, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient descent for ``A x^k`` on the unit k-norm sphere, per row.

    The gradient of ``A x^k`` is ``k * A x^{k-1}``; steps are chosen by
    halving backtracking under an Armijo decrease test, projecting back to
    the sphere by renormalization.  Monotone, so no value exceeds its start.

    The rows of ``starts`` descend in lockstep: every round, each live row
    takes a gradient if it just moved, then tries one candidate step.  Each
    row repeats a lone descent's operations in the same order (``grad @
    grad`` stays a 1-D dot), so its value and point are the same bit for
    bit.  Live rows stay compacted; finished ones leave only in rounds
    where some row finishes.  Returns the values and points, row by row.
    """
    k = op.k
    norms = _knorms(starts, k)
    if np.any(norms < 1e-30):
        raise ValueError("cannot start descent from the zero vector")
    x = starts / norms[:, None]
    value = op.rayleigh(x)
    values, points = np.empty(len(x)), np.empty_like(x)
    live = np.arange(len(x))  # the start row of every live row
    moved = np.ones(len(x), dtype=bool)  # rows whose next gradient is due
    taken = np.zeros(len(x), dtype=int)  # gradients taken per row
    grad, gnorm2, step = np.empty_like(x), np.empty(len(x)), np.empty(len(x))
    while True:
        if moved.any():
            rows = slice(None) if moved.all() else np.flatnonzero(moved)
            g = k * op.apply(x[rows])
            grad[rows], gnorm2[rows] = g, [row @ row for row in g]
            taken[rows] += 1
            # A row past its last gradient, or at a zero gradient, stops here.
            step[rows] = np.where(
                (taken[rows] > _PGD_MAX_STEPS) | (gnorm2[rows] < 1e-28),
                0.0,
                1.0 / (1.0 + np.abs(g).max(axis=1)),
            )
        done = ~(step > 1e-18)
        if done.any():
            values[live[done]], points[live[done]] = value[done], x[done]
            keep = ~done
            if not keep.any():
                return values, points
            x, value, grad, gnorm2 = x[keep], value[keep], grad[keep], gnorm2[keep]
            step, live, taken = step[keep], live[keep], taken[keep]
        cand = x - step[:, None] * grad
        norms = _knorms(cand, k)
        cand /= np.maximum(norms, 1e-30)[:, None]
        cand_value = op.rayleigh(cand)
        moved = (norms >= 1e-30) & (cand_value < value - _ARMIJO_C * step * gnorm2)
        np.copyto(x, cand, where=moved[:, None])
        np.copyto(value, cand_value, where=moved)
        step *= 0.5


def _flip_starts(
    hg: Hypergraph, x: np.ndarray, report: transversal.ClassificationReport
) -> list[np.ndarray]:
    """Sign flips of ``x`` across odd bipartitions, the descent starts.

    One across its own odd transversal when the hypergraph has one; one
    per single-edge deletion, in edge order, when it is minimal.  Then, at
    even uniformity, each deleted edge meets both sides of its flip evenly
    (checked): the part meets the other m - 1 edges (an even number) oddly
    and has an even degree sum.
    """
    if report.witness is not None:
        return [_sign_flip(x, report.witness)]
    if not report.is_minimal:
        return []
    parts = transversal.deletion_transversals(report._factorization)
    for i, part in enumerate(parts):
        if part is None:
            raise InvariantError(f"deleting edge {i} leaves no odd transversal")
        if len(set(hg.edges[i]).difference(part)) % 2:
            raise InvariantError(f"edge {i} meets the flipped side oddly")
    return [_sign_flip(x, part) for part in parts]


def _least_value(
    op: _Tensor, starts: list[np.ndarray], restarts: int, seed: int
) -> tuple[float, np.ndarray]:
    """Descend from ``starts`` plus ``restarts`` seeded random starts; keep the least.

    The starts descend in lockstep (see :func:`_descend`), in blocks of
    ``max(1, _BLOCK_ELEMENTS // n)`` rows, so a block's arrays stay in
    cache.  Each random start has its own deterministic sub-seed and is
    drawn with its block, so the result depends neither on the evaluation
    order nor on the block size.  The least value wins, and on a tie the
    first start reaching it.
    """
    count = len(starts) + restarts
    if not count:
        starts, count = [np.ones(op.n)], 1
    rows = max(1, _BLOCK_ELEMENTS // op.n)
    best_value, best_x = np.inf, None
    for first in range(0, count, rows):
        block = [
            starts[i] if i < len(starts)
            else np.random.default_rng((seed, i - len(starts))).standard_normal(op.n)
            for i in range(first, min(first + rows, count))
        ]
        values, points = _descend(op, np.array(block, dtype=float))
        for value, x in zip(values.tolist(), points):
            if value < best_value:
                best_value, best_x = value, x
    if best_x is None:
        raise InvariantError("no descent start reached a finite value")
    return best_value, best_x.copy()


@dataclass(frozen=True)
class SpectraReport:
    """The adjacency-tensor quantities of one connected uniform hypergraph.

    ``lambda_min_upper``, the point ``lambda_min_point`` attaining it, ``alpha``
    and ``beta`` need even uniformity; the bounds and flip values also need a
    minimal hypergraph.  Every value derived from the Perron vector is None
    when the power iteration did not converge.
    """

    k: int
    perron: PerronResult
    classification: transversal.ClassificationReport
    lambda_min_upper: float | None = None
    lambda_min_point: np.ndarray | None = None
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
    perron = spectral_radius(hg, tol=tol, max_iter=max_iter)
    op = perron._tensor
    k = op.k
    report = transversal.classify(hg)
    if k % 2 or not perron.converged:
        return SpectraReport(k, perron, report)
    x, rho = perron.vector, perron.rho
    starts = _flip_starts(hg, x, report)
    lam, point = _least_value(op, starts, restarts, seed)
    alpha, beta = rho + lam, -lam / rho
    if not report.is_minimal:
        return SpectraReport(k, perron, report, lam, point, alpha, beta)

    weights = op.products(x)
    values = op.rayleigh(np.array(starts))
    base = op.rayleigh(x)
    flip_error = np.abs(np.subtract(values, -base + 2.0 * k * weights)).max()
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
    flip_min = float(values[int(np.argmin(weights))])
    return SpectraReport(
        k, perron, report, lam, point, alpha, beta, bound1, bound2, flip_min, flip_error
    )


def lambda_min_upper(hg: Hypergraph, restarts: int = 8, seed: int = 0) -> tuple[float, np.ndarray]:
    """A certified upper bound on the least H-eigenvalue and the point attaining it.

    The ``lambda_min_upper`` and ``lambda_min_point`` of :func:`analyze_spectra`
    at the default tolerance: a feasible value, hence a true upper bound, and
    never below ``-rho`` (up to bracket error).  Odd uniformity, or a power
    iteration that did not converge, raises ``ValueError``.
    """
    spectra = analyze_spectra(hg, restarts=restarts, seed=seed)
    if spectra.lambda_min_upper is None:
        raise ValueError("the estimate needs even uniformity and a converged power iteration")
    return spectra.lambda_min_upper, spectra.lambda_min_point


def bound_report(hg: Hypergraph, restarts: int = 8, seed: int = 0) -> SpectraReport:
    """The :func:`analyze_spectra` report of a minimal hypergraph.

    It is computed at the default tolerance, including the consistency
    checks, so every bound and estimate in it is set.  Input that is not
    minimal (odd-uniform input included) raises ``ValueError``, and a power
    iteration that does not converge raises ``RuntimeError``.
    """
    spectra = analyze_spectra(hg, restarts=restarts, seed=seed)
    if not spectra.classification.is_minimal:
        raise ValueError("bound report applies to minimal hypergraphs only")
    if not spectra.perron.converged:
        raise RuntimeError("the power iteration did not converge")
    return spectra
