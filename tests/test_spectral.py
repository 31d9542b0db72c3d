import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    descend_naive,
    edgewise_apply,
    edgewise_rayleigh,
    tensor_apply_naive,
    tensor_power_iteration_naive,
)
from support import minimal_uniform_fixtures, random_uniform_instance

from oddtrans import (
    analyze_spectra,
    bound_report,
    build,
    cayley,
    cycle_graph,
    fixtures,
    flip_vector,
    lambda_min_upper,
    power,
    projective_plane,
    simplex,
    spectral,
    spectral_radius,
)
from oddtrans.spectral import SpectraReport, apply, rayleigh

FIX = fixtures()
C3 = FIX["c3_pow42"]


# ------------------------------------------------------------------- apply


def test_apply_single_edge_products():
    hg = build(4, [(0, 1, 2, 3)])
    out = apply(hg, np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.allclose(out, [24.0, 12.0, 8.0, 6.0])


def test_apply_constant_vector_on_regular_hypergraph():
    for hg in (C3, projective_plane(3), simplex(4)):
        d = hg.is_regular()
        out = apply(hg, np.ones(hg.n))
        assert np.allclose(out, d)


def test_apply_matches_full_tensor_contraction():
    rng = np.random.default_rng(99)
    for hg in (C3, FIX["nonregular_9v"]):
        for _ in range(5):
            x = rng.standard_normal(hg.n)
            naive = tensor_apply_naive(list(hg.edges), hg.is_uniform(), list(x))
            assert np.allclose(apply(hg, x), naive, atol=1e-12)


def test_apply_rejects_non_uniform_input():
    with pytest.raises(ValueError):
        apply(FIX["genexm1"], np.ones(5))
    with pytest.raises(ValueError):
        apply(C3, np.ones(5))


# ---------------------------------------------------------------- rayleigh


def test_rayleigh_of_unit_constant_vector_is_degree():
    for hg in (C3, projective_plane(3), simplex(6)):
        k = hg.is_uniform()
        x = np.full(hg.n, hg.n ** (-1.0 / k))
        assert math.isclose(rayleigh(hg, x), hg.is_regular(), rel_tol=1e-12)


def test_rayleigh_of_zero_vector_is_zero():
    assert rayleigh(C3, np.zeros(6)) == 0.0


_COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_kernels_equal_edgewise_loops_bit_for_bit(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    hg = random_uniform_instance(rng, max_n=10, max_m=8, uniformities=(2, 3, 4, 5, 6))
    x = data.draw(st.lists(_COORDINATES, min_size=hg.n, max_size=hg.n))
    got, want = apply(hg, np.array(x)), np.array(edgewise_apply(list(hg.edges), hg.n, x))
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    got, want = rayleigh(hg, np.array(x)), edgewise_rayleigh(list(hg.edges), hg.is_uniform(), x)
    assert got == want
    assert math.copysign(1.0, got) == math.copysign(1.0, want)
    # A stack of S rows gives every row its 1-D result, sign bits of -0.0 included.
    op = spectral._Tensor.of(hg)
    more = [
        [rng.choice([0.0, -0.0, 1.0, -1.0, rng.uniform(-4.0, 4.0)]) for _ in x]
        for _ in range(rng.randrange(4))
    ]
    stack = np.array([x, *more])
    for kernel in (op.apply, op.products, op.rayleigh):
        rows = np.array([kernel(row) for row in stack])
        assert np.asarray(kernel(stack)).tobytes() == rows.tobytes()


def test_rayleigh_is_inner_product_with_apply():
    rng = random.Random(4)
    nprng = np.random.default_rng(4)
    for _ in range(25):
        hg = random_uniform_instance(rng)
        x = nprng.standard_normal(hg.n)
        assert abs(float(x @ apply(hg, x)) - rayleigh(hg, x)) < 1e-10


# ----------------------------------------------------------- power iteration


def test_spectral_radius_is_degree_for_regular_hypergraphs():
    for hg in (projective_plane(3), cayley(7, 4), simplex(4), C3):
        result = spectral_radius(hg)
        assert result.converged
        assert abs(result.rho - hg.is_regular()) < 1e-8
        assert result.residual < 1e-10
        assert np.all(result.vector > 0)


def test_spectral_radius_single_edge():
    hg = build(4, [(0, 1, 2, 3)])
    assert abs(spectral_radius(hg).rho - 1.0) < 1e-8


def test_triangle_power_radius_matches_naive_tensor_oracle():
    oracle = tensor_power_iteration_naive(list(C3.edges), 6, 4, tol=1e-12)
    assert abs(oracle - 2.0) < 1e-9  # frozen from the oracle run
    assert abs(spectral_radius(C3, tol=1e-12).rho - oracle) < 1e-6


def test_nonregular_fixture_converges_with_valid_bracket():
    hg = FIX["nonregular_9v"]
    tight = spectral_radius(hg, tol=1e-12)
    loose = spectral_radius(hg, tol=1e-2)
    assert tight.converged and loose.converged
    lo, hi = loose.bracket
    assert lo <= tight.rho <= hi
    assert hi - lo < 1e-2
    assert tight.bracket[1] - tight.bracket[0] < 1e-12


def test_spectral_radius_honours_iteration_cap():
    hg = FIX["nonregular_9v"]
    result = spectral_radius(hg, tol=1e-13, max_iter=3)
    assert not result.converged
    assert result.iterations == 3
    lo, hi = result.bracket
    assert lo <= spectral_radius(hg).rho <= hi


def test_spectral_radius_rejects_bad_inputs():
    with pytest.raises(ValueError):
        spectral_radius(FIX["genexm1"])  # not uniform
    with pytest.raises(ValueError):
        spectral_radius(build(8, [(0, 1, 2, 3), (4, 5, 6, 7)]))  # disconnected


# ------------------------------------------------------------- flip vectors


def test_flip_values_on_triangle_power():
    perron = spectral_radius(C3)
    base = rayleigh(C3, perron.vector)
    for i, e in enumerate(C3.edges):
        y, value = flip_vector(C3, i, perron)
        prod = float(np.prod(perron.vector[list(e)]))
        assert abs(value - (-base + 8.0 * prod)) < 1e-10


def test_flip_value_on_regular_fixture_hits_closed_form():
    hg = cayley(7, 4)
    perron = spectral_radius(hg)
    _, value = flip_vector(hg, 0, perron)
    d, k, n = 4, 4, 7
    assert abs(value - (-d + 2.0 * k / n)) < 1e-8


def test_min_weight_flip_beats_second_bound():
    for name, hg in minimal_uniform_fixtures().items():
        perron = spectral_radius(hg)
        k = hg.is_uniform()
        weights = [float(np.prod(perron.vector[list(e)])) for e in hg.edges]
        _, value = flip_vector(hg, int(np.argmin(weights)), perron)
        assert value <= -(1.0 - 2.0 / hg.m) * perron.rho + 1e-8, name


def test_flip_vector_rejects_non_minimal_hypergraphs():
    for hg in (power(cycle_graph(4), 4), build(3, [(0, 1, 2)])):  # odd k is never minimal
        perron = spectral_radius(hg)
        with pytest.raises(ValueError, match="minimal hypergraphs only"):
            flip_vector(hg, 0, perron)


def test_flip_vector_refuses_another_hypergraphs_perron_vector():
    c3, c5 = power(cycle_graph(3), 4), power(cycle_graph(5), 4)
    for hg, other in ((c3, c5), (c5, c3)):
        with pytest.raises(ValueError, match="vector of length"):
            flip_vector(hg, 0, spectral_radius(other))


# ------------------------------------------------------------- lambda upper


def test_odd_transversal_controls_reach_minus_rho():
    for hg in (power(cycle_graph(4), 4), build(4, [(0, 1, 2, 3)])):
        rho = spectral_radius(hg).rho
        value, vec = lambda_min_upper(hg, restarts=2)
        assert abs(value - (-rho)) < 1e-8
        assert abs(rayleigh(hg, vec) - value) < 1e-12


def test_triangle_power_upper_estimate_beats_bound():
    rho = spectral_radius(C3).rho
    value, _ = lambda_min_upper(C3, restarts=4)
    assert value <= -(1.0 - 2.0 / 3.0) * rho + 1e-8
    assert value >= -rho - 1e-8


def test_lambda_upper_rejects_odd_uniformity():
    hg = build(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        lambda_min_upper(hg)


def test_lambda_upper_refuses_an_unconverged_iteration(monkeypatch):
    hg = power([(0, 1), (1, 2), (2, 3)], 4)
    radius = spectral.spectral_radius
    monkeypatch.setattr(spectral, "spectral_radius", lambda hg, **kw: radius(hg, max_iter=3))
    assert not spectral.spectral_radius(hg).converged
    with pytest.raises(ValueError, match="converged power iteration"):
        lambda_min_upper(hg)


def test_lambda_upper_reads_the_spectra_report():
    for name, hg in minimal_uniform_fixtures().items():
        value, point = lambda_min_upper(hg, restarts=2, seed=5)
        report = analyze_spectra(hg, restarts=2, seed=5)
        assert value == report.lambda_min_upper, name
        assert np.array_equal(point, report.lambda_min_point), name
        assert rayleigh(hg, point) == value, name


def test_lambda_upper_is_deterministic_for_a_seed():
    a, _ = lambda_min_upper(C3, restarts=3, seed=9)
    b, _ = lambda_min_upper(C3, restarts=3, seed=9)
    assert a == b


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_lockstep_descent_equals_the_per_start_oracle_bit_for_bit(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    hg = random_uniform_instance(rng, max_n=10, max_m=10, uniformities=(2, 3, 4, 6))
    n, k = hg.n, hg.is_uniform()
    nprng = np.random.default_rng(rng.randrange(2**32))
    starts = [nprng.standard_normal(n) for _ in range(data.draw(st.integers(1, 3)))]
    starts.append(starts[data.draw(st.integers(0, len(starts) - 1))].copy())  # a duplicate
    # At even k a negated start descends to the negated point at the same value: a tie.
    starts.append(-starts[data.draw(st.integers(0, len(starts) - 1))])
    one_hot = np.zeros(n)
    one_hot[data.draw(st.integers(0, n - 1))] = 1.0
    starts.insert(data.draw(st.integers(0, len(starts))), one_hot)  # at k >= 3 its gradient is 0
    restarts, seed = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 3))
    rows = data.draw(st.sampled_from([1, 2, 3, None]))  # None: the default block size
    max_steps = data.draw(st.sampled_from([2, 400]))
    drawn = [np.random.default_rng((seed, i)).standard_normal(n) for i in range(restarts)]
    everything = starts + drawn
    # Descents that stop before max_steps at a nonzero gradient end when the ladder runs out.
    want = [descend_naive(list(hg.edges), n, k, list(x), max_steps) for x in everything]

    blocks = []
    descend = spectral._descend

    def recording(op, block):
        blocks.append(descend(op, block))
        return blocks[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "_descend", recording)
        patch.setattr(spectral, "_PGD_MAX_STEPS", max_steps)
        if rows is not None:
            patch.setattr(spectral, "_BLOCK_ELEMENTS", rows * n)
        value, point = spectral._least_value(spectral._Tensor.of(hg), starts, restarts, seed)

    assert len(blocks) == (1 if rows is None else -(-len(everything) // rows))
    got_values = np.concatenate([values for values, _ in blocks])
    got_points = np.concatenate([points for _, points in blocks])
    for (want_value, want_point), got_value, got_point in zip(
        want, got_values, got_points, strict=True
    ):
        assert np.float64(want_value).tobytes() == got_value.tobytes()
        assert np.array(want_point).tobytes() == got_point.tobytes()
    least_value, least_point = min(want, key=lambda pair: pair[0])  # min keeps the first on ties
    assert (value, point.tobytes()) == (least_value, np.array(least_point).tobytes())


# ------------------------------------------------------------- bound report


def test_bound_report_triangle_power_values():
    report = bound_report(C3)
    assert isinstance(report, SpectraReport)
    rho = report.perron.rho
    assert abs(rho - 2.0) < 1e-8
    assert abs(report.bound1 - (-2.0 + 8.0 / 6 ** 0.25)) < 1e-8
    assert abs(report.bound2 - (-2.0 / 3.0)) < 1e-8
    assert abs(report.flip_value_min_edge - report.bound2) < 1e-8  # regular case
    assert report.lambda_min_upper <= report.bound2 + 1e-8
    assert abs(report.alpha - (rho + report.lambda_min_upper)) < 1e-12
    assert abs(report.beta - (-report.lambda_min_upper / rho)) < 1e-12


def test_bound_report_cayley_window():
    report = bound_report(cayley(7, 4))
    assert abs(report.perron.rho - 4.0) < 1e-8
    assert abs(report.bound2 - (-(1.0 - 2.0 / 7.0) * 4.0)) < 1e-8


def test_beta_estimates_increase_along_odd_cycle_powers():
    betas = []
    for m in (3, 5, 7, 9, 11):
        hg = power(cycle_graph(m), 4)
        betas.append(bound_report(hg, restarts=4).beta)
    assert betas == sorted(betas)
    assert betas[-1] > 0.9


def test_second_bound_factor_increases_with_edge_count():
    factors = [1.0 - 2.0 / m for m in (3, 5, 7, 9, 11)]
    assert factors == sorted(factors)


def test_bound_report_rejects_non_minimal_input():
    for hg in (power(cycle_graph(4), 4), build(3, [(0, 1, 2)])):
        with pytest.raises(ValueError, match="minimal hypergraphs only"):
            bound_report(hg)


def test_invariant_checks_survive_optimized_mode():
    script = textwrap.dedent(
        """
        import sys
        from oddtrans import InvariantError, analyze_spectra, classify, fixtures, gf2, transversal
        if __debug__:
            sys.exit("not running under -O")

        def expect_invariant_error(call):
            try:
                call()
            except InvariantError as exc:
                print(exc)
            else:
                sys.exit("no InvariantError raised")

        hg = fixtures()["c3_pow42"]
        deletions = transversal.deletion_transversals
        # Forged deletion bipartitions: they meet every edge through vertex 0 oddly.
        transversal.deletion_transversals = lambda f: [(0,)] * f.matrix.rows
        expect_invariant_error(lambda: analyze_spectra(hg))
        transversal.deletion_transversals = deletions
        # A rank one short: the rank criterion then contradicts the deletions.
        rank = gf2.Factorization.rank
        gf2.Factorization.rank = property(lambda f: rank.fget(f) - 1)
        expect_invariant_error(lambda: classify(hg))
        gf2.Factorization.rank = rank
        # A corrupted factorization: its highest pivot row claims the wrong combo.
        f = gf2.Factorization(hg.incidence())
        low, (row, combo) = next(iter(f.pivots.items()))
        f.pivots[low] = (row, combo ^ 1)
        expect_invariant_error(lambda: f.solve(gf2.BitVector(hg.m, 0b011)))
        # A forged dependency: row 0 alone does not sum to zero.
        f = gf2.Factorization(hg.incidence())
        f.dependencies = (gf2.BitVector(hg.m, 0b001),)
        expect_invariant_error(lambda: f.solve(gf2.BitVector.ones(hg.m)))
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "meets the flipped side oddly" in result.stdout
    assert "single-edge deletions say minimal=True" in result.stdout
    assert "the solver produced a non-solution" in result.stdout
    assert "a recorded dependency does not sum to zero" in result.stdout


# ------------------------------------------------------------ derivatives


def test_gradient_matches_central_differences():
    rng = random.Random(17)
    nprng = np.random.default_rng(17)
    eps = 1e-4
    for _ in range(50):
        hg = random_uniform_instance(rng)
        k = hg.is_uniform()
        x = nprng.standard_normal(hg.n)
        h = nprng.standard_normal(hg.n)
        h /= np.linalg.norm(h)
        analytic = float(k * (apply(hg, x) @ h))
        numeric = (rayleigh(hg, x + eps * h) - rayleigh(hg, x - eps * h)) / (2 * eps)
        assert abs(analytic - numeric) <= 1e-5 * max(1.0, abs(analytic), abs(numeric))
