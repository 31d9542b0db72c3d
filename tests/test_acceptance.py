"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance; every test
prints a single ``[acceptance] <name>: PASS|FAIL`` line on the terminal
(bypassing capture) before asserting.
"""

import math
import random
import time

import numpy as np

from oracles import (
    brute_odd_transversals,
    tensor_power_iteration_naive,
)
from support import (
    even_edged_minimal_fixtures,
    minimal_uniform_fixtures,
    random_connected_hypergraph,
    random_uniform_instance,
)

from oddtrans import (
    blowup,
    build,
    cayley,
    classify,
    cycle_graph,
    edge_injection,
    find_odd_transversal,
    fixtures,
    flip_vector,
    intersection_bound_check,
    lambda_min_upper,
    power,
    projective_plane,
    simplex,
    spectral_radius,
    two_regular_random,
)
from oddtrans.spectral import apply, rayleigh

FIX = fixtures()


def report(capsys, name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_01_oracle_equivalence(capsys):
    start = time.perf_counter()
    rng = random.Random(20260808)
    failures = 0
    for _ in range(500):
        hg = random_connected_hypergraph(rng, 12, 10)
        hits = brute_odd_transversals(list(hg.edges), hg.n)
        witness = find_odd_transversal(hg)
        if (witness is not None) != bool(hits):
            failures += 1
        if classify(hg).count != len(hits):
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "01 odd-transversal existence/count vs brute force (500 instances)",
        failures == 0 and elapsed < 10.0,
        f"{elapsed:.2f}s, {failures} discrepancies",
    )


def test_02_rank_criterion_equivalence(capsys):
    start = time.perf_counter()
    rng = random.Random(424242)
    failures = 0
    for _ in range(300):
        hg = random_connected_hypergraph(rng, 10, 9)
        rep = classify(hg, definitional=True)
        # degree-parity verdict: odd edge count, all degrees even, and no
        # proper non-empty edge subset with all-even degrees
        masks = hg.edge_masks()
        parity_ok = hg.m % 2 == 1 and all(d % 2 == 0 for d in hg.degrees())
        if parity_ok:
            for picked in range(1, (1 << hg.m) - 1):
                acc = 0
                for i in range(hg.m):
                    if (picked >> i) & 1:
                        acc ^= masks[i]
                if acc == 0:
                    parity_ok = False
                    break
        if not (rep.is_minimal == rep.definitional_minimal == parity_ok):
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        capsys,
        "02 rank criterion == single-deletion == degree-parity (300 instances)",
        failures == 0 and elapsed < 10.0,
        f"{elapsed:.2f}s, {failures} disagreements",
    )


def test_03_fixture_classification(capsys):
    targets = dict(FIX)
    targets["simplex4"] = simplex(4)
    targets["simplex6"] = simplex(6)
    ok = True
    details = []
    for name, hg in targets.items():
        rep = classify(hg)
        if not (rep.is_minimal and rep.connected and hg.cut_vertices() == ()):
            ok = False
            details.append(name)
    cut = FIX["cutedge_18v"].cut_edges()
    if len(cut) != 1 or FIX["cutedge_18v"].edges[cut[0]] != (0, 1, 9, 10):
        ok = False
        details.append("cut-edge report")
    report(
        capsys,
        "03 catalogue fixtures all classify minimal (exact)",
        ok,
        ", ".join(details) if details else f"{len(targets)} fixtures",
    )


def test_04_cayley_gcd_sweep(capsys):
    ok = True
    checked = 0
    for k in (4, 6):
        for n in range(k + 1, 22):
            if n % 2 == 0:
                continue
            rep = classify(cayley(n, k))
            g = math.gcd(k, n)
            if rep.is_minimal != (g == 1) or rep.rank != n - g:
                ok = False
            checked += 1
    report(capsys, "04 window-hypergraph gcd sweep (exact)", ok, f"{checked} points")


def test_05_projective_planes(capsys):
    ok = True
    for q in (3, 5):
        hg = projective_plane(q)  # point-pair axiom asserted inside
        rep = classify(hg)
        if not (rep.is_minimal and rep.rank == q * q + q):
            ok = False
        for a in range(hg.m):
            for b in range(a + 1, hg.m):
                if len(set(hg.edges[a]) & set(hg.edges[b])) != 1:
                    ok = False
    report(capsys, "05 projective planes q=3,5 minimal with rank q^2+q", ok)


def test_06_blowup_preserves_verdict_and_rank(capsys):
    ok = True
    for name, hg in FIX.items():
        base = classify(hg)
        for t in (2, 3):
            big = classify(blowup(hg, t))
            if big.is_minimal != base.is_minimal or big.rank != base.rank:
                ok = False
    report(capsys, "06 blow-ups t=2,3 preserve minimality and rank (exact)", ok)


def test_07_two_regular_construction_suite(capsys):
    ok = True
    produced = 0
    for k, m in ((4, 3), (4, 5), (4, 7), (6, 3)):
        for seed in range(100):
            hg = two_regular_random(k, m, seed)
            produced += 1
            if hg.is_uniform() != k or hg.is_regular() != 2:
                ok = False
            if len(set(hg.edges)) != m:
                ok = False
            if hg.is_connected() and m % 2 == 1 and not classify(hg).is_minimal:
                ok = False
    report(capsys, "07 seeded 2-regular construction suite", ok, f"{produced} outputs")


REGULAR_SPECTRAL_FIXTURES = {
    "pp3": projective_plane(3),
    "pp5": projective_plane(5),
    "cayley_7_4": cayley(7, 4),
    "cayley_9_6": cayley(9, 6),
    "simplex2": simplex(2),
    "simplex4": simplex(4),
    "simplex6": simplex(6),
    "five_edge_4u": FIX["five_edge_4u"],
    "square_6u6r": FIX["square_6u6r"],
    "sixreg_8u": FIX["sixreg_8u"],
    "cutedge_18v": FIX["cutedge_18v"],
    **{f"c{m}_pow42": power(cycle_graph(m), 4) for m in (3, 5, 7, 9, 11)},
}


def test_08_spectral_radius(capsys):
    start = time.perf_counter()
    ok = True
    details = []
    for name, hg in REGULAR_SPECTRAL_FIXTURES.items():
        d = hg.is_regular()
        result = spectral_radius(hg)
        if not result.converged or abs(result.rho - d) > 1e-8:
            ok = False
            details.append(f"{name}: rho={result.rho}")
    c3 = FIX["c3_pow42"]
    oracle_rho = tensor_power_iteration_naive(list(c3.edges), c3.n, 4, tol=1e-12)
    measured = spectral_radius(c3, tol=1e-12).rho
    if abs(measured - oracle_rho) > 1e-6:
        ok = False
        details.append(f"oracle {oracle_rho} vs {measured}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        ok = False
    report(
        capsys,
        "08 spectral radius equals degree; tight-tolerance oracle cross-check",
        ok,
        "; ".join(details) if details else f"{elapsed:.2f}s",
    )


def test_09_flip_identity(capsys):
    ok = True
    worst = 0.0
    for name, hg in minimal_uniform_fixtures().items():
        assert hg.n <= 20
        k = hg.is_uniform()
        perron = spectral_radius(hg)
        base = rayleigh(hg, perron.vector)
        for i, e in enumerate(hg.edges):
            y, value = flip_vector(hg, i, perron)  # checks |e ∩ flipped| even
            prod = float(np.prod(perron.vector[list(e)]))
            err = abs(value - (-base + 2.0 * k * prod))
            worst = max(worst, err)
            if err > 1e-10:
                ok = False
    report(capsys, "09 flip identity on every edge of every minimal fixture", ok,
           f"max |error| = {worst:.2e}")


def test_10_least_eigenvalue_bounds(capsys):
    ok = True
    details = []
    for name, hg in minimal_uniform_fixtures().items():
        k = hg.is_uniform()
        rho = spectral_radius(hg).rho
        lam, _ = lambda_min_upper(hg, restarts=4)
        bound1 = -rho + 2.0 * k / hg.n ** (1.0 / k)
        bound2 = -(1.0 - 2.0 / hg.m) * rho
        if not (lam <= bound2 + 1e-8 and lam <= bound1 + 1e-8 and lam >= -rho - 1e-8):
            ok = False
            details.append(name)
    for name, control in (
        ("power_c4", power(cycle_graph(4), 4)),
        ("single_edge", build(4, [(0, 1, 2, 3)])),
    ):
        rho = spectral_radius(control).rho
        lam, _ = lambda_min_upper(control, restarts=2)
        if abs(lam - (-rho)) > 1e-8:
            ok = False
            details.append(name)
    report(
        capsys,
        "10 least-eigenvalue upper bounds and odd-transversal controls",
        ok,
        ", ".join(details) if details else "all fixtures within tolerance",
    )


def test_11_even_edged_corollaries(capsys):
    ok = True
    details = []
    for name, hg in even_edged_minimal_fixtures().items():
        if hg.n < hg.m:
            ok = False
            details.append(f"{name}: n < m")
        injection = edge_injection(hg)
        if injection is None:
            ok = False
            details.append(f"{name}: no injection")
        elif hg.n == hg.m and sorted(injection.values()) != list(range(hg.n)):
            ok = False
            details.append(f"{name}: not a perfect matching")
        if intersection_bound_check(hg, min(3, hg.m - 1)) is not None:
            ok = False
            details.append(f"{name}: union-size violation")
    report(
        capsys,
        "11 even-edged corollaries: surplus, injections, union bound",
        ok,
        ", ".join(details) if details else "all even-edged fixtures",
    )


def test_12_gradient_and_inner_product_checks(capsys):
    rng = random.Random(17)
    nprng = np.random.default_rng(17)
    ok = True
    eps = 1e-4
    for _ in range(50):
        hg = random_uniform_instance(rng)
        k = hg.is_uniform()
        x = nprng.standard_normal(hg.n)
        h = nprng.standard_normal(hg.n)
        h /= np.linalg.norm(h)
        analytic = float(k * (apply(hg, x) @ h))
        numeric = (rayleigh(hg, x + eps * h) - rayleigh(hg, x - eps * h)) / (2 * eps)
        if abs(analytic - numeric) > 1e-5 * max(1.0, abs(analytic), abs(numeric)):
            ok = False
        if abs(float(x @ apply(hg, x)) - rayleigh(hg, x)) > 1e-10:
            ok = False
    report(capsys, "12 gradient and inner-product consistency (50 instances)", ok)
