import math
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from oracles import tensor_apply_naive, tensor_power_iteration_naive
from support import minimal_uniform_fixtures, random_uniform_instance

from oddtrans import (
    bound_report,
    build,
    cayley,
    classify,
    cycle_graph,
    fixtures,
    flip_vector,
    lambda_min_upper,
    power,
    projective_plane,
    simplex,
    spectral_radius,
)
from oddtrans.spectral import apply, rayleigh

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
    hg = power(cycle_graph(4), 4)
    perron = spectral_radius(hg)
    with pytest.raises(ValueError, match="minimal"):
        flip_vector(hg, 0, perron)


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


def test_lambda_upper_is_deterministic_for_a_seed():
    a, _ = lambda_min_upper(C3, restarts=3, seed=9)
    b, _ = lambda_min_upper(C3, restarts=3, seed=9)
    assert a == b


# ------------------------------------------------------------- bound report


def test_bound_report_triangle_power_values():
    report = bound_report(C3)
    assert abs(report.rho - 2.0) < 1e-8
    assert abs(report.bound1 - (-2.0 + 8.0 / 6 ** 0.25)) < 1e-8
    assert abs(report.bound2 - (-2.0 / 3.0)) < 1e-8
    assert abs(report.flip_value_min_edge - report.bound2) < 1e-8  # regular case
    assert report.lambda_min_upper <= report.bound2 + 1e-8
    assert abs(report.alpha - (report.rho + report.lambda_min_upper)) < 1e-12
    assert abs(report.beta - (-report.lambda_min_upper / report.rho)) < 1e-12


def test_bound_report_cayley_window():
    report = bound_report(cayley(7, 4))
    assert abs(report.rho - 4.0) < 1e-8
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
    with pytest.raises(ValueError):
        bound_report(power(cycle_graph(4), 4))


def test_invariant_checks_survive_optimized_mode():
    script = textwrap.dedent(
        """
        import sys
        from oddtrans import InvariantError, analyze_spectra, fixtures, transversal
        if __debug__:
            sys.exit("not running under -O")
        # A forged deletion bipartition: it meets every edge through vertex 0 oddly.
        transversal.find_odd_transversal = lambda hg: (0,)
        try:
            analyze_spectra(fixtures()["c3_pow42"])
        except InvariantError as exc:
            print(exc)
            sys.exit(0)
        sys.exit("no InvariantError raised")
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
