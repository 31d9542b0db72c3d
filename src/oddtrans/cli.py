"""Command-line front end.

Subcommands: ``analyze`` (classification report for a hypergraph file),
``generate`` (write a family member in the text format), ``spectra``
(adjacency-tensor quantities), ``check`` (exit-code-only minimality
predicate: 0 minimal, 1 not, 2 error), and ``sweep`` (parameter tables).

JSON output is schema-stable: the same command always emits the same keys,
floats are serialized with 12 significant digits, and keys are sorted.

The commands do not catch errors.  :func:`main` alone turns an ``OSError``
or a ``ValueError`` (the package's type for rejected input) into an
``error: [<path>: ]<message>`` line on stderr and exit code 2.  An
``InvariantError`` is a defect and propagates.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import secrets
import sys
from pathlib import Path
from typing import Any, Sequence

from . import generators, hgio, transversal
from .hypergraph import Hypergraph

# ``analyze --max-t`` refuses a search over more edge subsets than this,
# about 7 s at 0.7 us per subset.
MAX_T_SUBSETS = 10**7


def nonnegative_int(text: str) -> int:
    """An argparse type: an integer that is at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def positive_float(text: str) -> float:
    """An argparse type: a finite number greater than 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text} is not a finite number > 0")
    return value


def _round_floats(obj: Any) -> Any:
    if isinstance(obj, float):
        return float(f"{obj:.12g}") if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _emit_json(payload: dict[str, Any]) -> None:
    print(json.dumps(_round_floats(payload), indent=2, sort_keys=True, allow_nan=False))


def _emit_text(payload: dict[str, Any]) -> None:
    for key, value in payload.items():
        if isinstance(value, bool):
            value = "yes" if value else "no"
        elif value is None:
            value = "none"
        elif isinstance(value, float):
            value = f"{value:.12g}"
        elif isinstance(value, (list, tuple)):
            value = " ".join(str(v) for v in value) if value else "(none)"
        print(f"{key}: {value}")


def cmd_analyze(args: argparse.Namespace) -> int:
    hg, labels = hgio.load(args.path)
    max_t = min(args.max_t, hg.m - 1) if args.max_t is not None else 0
    subsets = 0
    for t in range(1, max_t + 1):
        subsets += math.comb(hg.m, t)
        if subsets > MAX_T_SUBSETS:
            raise ValueError(
                f"--max-t {args.max_t} would visit at least {subsets:,} edge subsets,"
                f" more than the cap of {MAX_T_SUBSETS:,}"
            )
    report = transversal.classify(hg, definitional=True if args.definitional_check else None)
    injection = transversal.edge_injection(hg)
    payload: dict[str, Any] = {
        "command": "analyze",
        "path": args.path,
        "labels": list(labels),
        "n": hg.n,
        "m": hg.m,
        "uniform": hg.is_uniform(),
        "regular": hg.is_regular(),
        "degrees": hg.degrees(),
        "connected": report.connected,
        "cut_vertices": [labels[v] for v in hg.cut_vertices()],
        "cut_edges": list(hg.cut_edges()),
        "rank": report.rank,
        "m_odd": report.m_odd,
        "all_degrees_even": report.all_degrees_even,
        "is_odd_transversal": report.is_odd_transversal,
        "odd_transversal": (
            [labels[v] for v in report.witness] if report.witness is not None else None
        ),
        "odd_transversal_count": report.count,
        "is_minimal": report.is_minimal,
        "minimality_method": report.minimality_method,
        "edge_injection": (
            {str(e): labels[v] for e, v in sorted(injection.items())}
            if injection is not None
            else None
        ),
        "intersection_violation": None,
    }
    if max_t >= 1:
        violation = transversal.intersection_bound_check(hg, max_t)
        payload["intersection_violation"] = (
            list(violation) if violation is not None else None
        )
    if args.json:
        _emit_json(payload)
    else:
        verdict = (
            "minimal non-odd-transversal"
            if report.is_minimal
            else ("odd-transversal" if report.is_odd_transversal else "non-odd-transversal")
        )
        _emit_text(payload)
        print(f"verdict: {verdict}")
    return 0


def _generate_family(args: argparse.Namespace) -> tuple[Hypergraph, dict[str, Any]]:
    family = args.family
    if family == "cayley":
        hg = generators.cayley(args.n, args.k)
        params = {"n": args.n, "k": args.k}
    elif family == "power":
        if args.cycle is not None:
            base = generators.cycle_graph(args.cycle)
        elif args.graph is not None:
            base_hg, _ = hgio.load(args.graph)
            if base_hg.is_uniform() != 2:
                raise ValueError("base graph file must be 2-uniform")
            base = [tuple(e) for e in base_hg.edges]
        else:
            raise ValueError("power needs --cycle LENGTH or --graph FILE")
        hg = generators.power(base, args.k)
        params = {"k": args.k, "cycle": args.cycle, "graph": args.graph}
    elif family == "blowup":
        base_hg, _ = hgio.load(args.input)
        hg = generators.blowup(base_hg, args.t)
        params = {"input": args.input, "t": args.t}
    elif family == "pp":
        hg = generators.projective_plane(args.q)
        params = {"q": args.q}
    elif family == "tworeg":
        seed = args.seed if args.seed is not None else secrets.randbelow(2**31)
        if args.seed is None:
            print(f"seed: {seed}", file=sys.stderr)
        hg = generators.two_regular_random(args.k, args.m, seed)
        params = {"k": args.k, "m": args.m, "seed": seed}
    elif family == "simplex":
        hg = generators.simplex(args.k)
        params = {"k": args.k}
    else:
        catalogue = generators.fixtures()
        if args.name not in catalogue:
            raise ValueError(
                f"unknown fixture {args.name!r}; available: {', '.join(sorted(catalogue))}"
            )
        hg = catalogue[args.name]
        params = {"name": args.name}
    return hg, params


def cmd_generate(args: argparse.Namespace) -> int:
    hg, params = _generate_family(args)
    text = hgio.format_hypergraph(hg)
    given = {k: v for k, v in params.items() if v is not None}
    stats = {"n": hg.n, "m": hg.m, "uniform": hg.is_uniform(), "regular": hg.is_regular()}
    # cayley's n and tworeg's m equal the statistic they name, so each key is printed once.
    summary = " ".join(f"{k}={v}" for k, v in {"family": args.family, **given, **stats}.items())
    if args.out:
        Path(args.out).write_text(text)
        print(summary)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    return 0


def cmd_spectra(args: argparse.Namespace) -> int:
    from . import spectral

    given = {"tol": args.tol, "max_iter": args.max_iter}
    hg, _labels = hgio.load(args.path)
    result = spectral.analyze_spectra(
        hg,
        restarts=args.restarts,
        seed=args.seed,
        **{name: value for name, value in given.items() if value is not None},
    )
    perron = result.perron
    payload: dict[str, Any] = {
        "command": "spectra",
        "path": args.path,
        "n": hg.n,
        "m": hg.m,
        "k": result.k,
        "rho": perron.rho,
        "perron_residual": perron.residual,
        "iterations": perron.iterations,
        "converged": perron.converged,
        "is_minimal": result.classification.is_minimal,
        "lambda_min_applicable": result.k % 2 == 0,
        "lambda_min_upper": result.lambda_min_upper,
        "alpha": result.alpha,
        "beta": result.beta,
        "bound1": result.bound1,
        "bound2": result.bound2,
        "flip_value_min_edge": result.flip_value_min_edge,
        "flip_identity_max_error": result.flip_identity_max_error,
    }
    if args.json:
        _emit_json(payload)
    else:
        _emit_text(payload)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    hg, _labels = hgio.load(args.path)
    report = transversal.classify(hg)
    print("minimal non-odd-transversal" if report.is_minimal else "not minimal")
    return 0 if report.is_minimal else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    rows: list[dict[str, Any]] = []
    if args.name == "dreg-gcd":
        if args.k % 2 or args.k <= 2:
            raise ValueError("--k must be an even integer > 2")
        for n in range(args.k + 1, args.n_max + 1):
            if n % 2 == 0:
                continue
            hg = generators.cayley(n, args.k)
            report = transversal.classify(hg)
            g = math.gcd(args.k, n)
            rows.append(
                {
                    "n": n,
                    "gcd": g,
                    "is_minimal": report.is_minimal,
                    "rank": report.rank,
                    "rank_expected": n - g,
                    "agrees": report.is_minimal == (g == 1) and report.rank == n - g,
                }
            )
        columns = ["n", "gcd", "is_minimal", "rank", "rank_expected", "agrees"]
    else:
        from . import spectral

        try:
            m_list = [int(tok) for tok in args.m_list.split(",")]
        except ValueError:
            raise ValueError(f"bad --m-list {args.m_list!r}") from None
        members = [generators.power(generators.cycle_graph(m), args.k) for m in m_list]
        for m, hg in zip(m_list, members):
            result = spectral.analyze_spectra(hg, restarts=args.restarts, seed=args.seed)
            rows.append(
                {
                    "m": m,
                    "n": hg.n,
                    "rho": result.perron.rho,
                    "lambda_min_upper": result.lambda_min_upper,
                    "beta": result.beta,
                }
            )
        columns = ["m", "n", "rho", "lambda_min_upper", "beta"]
    if args.json:
        _emit_json({"command": "sweep", "name": args.name, "rows": rows})
    else:
        print("\t".join(columns))
        for row in rows:
            cells = []
            for col in columns:
                value = row[col]
                if isinstance(value, bool):
                    value = "yes" if value else "no"
                elif isinstance(value, float):
                    value = f"{value:.6f}"
                cells.append(str(value))
            print("\t".join(cells))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddtrans",
        description="Odd-transversal structure and adjacency-tensor bounds of hypergraphs.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_analyze = sub.add_parser("analyze", help="classify a hypergraph file")
    p_analyze.add_argument("path")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.add_argument(
        "--definitional-check",
        action="store_true",
        help="force the single-edge-deletion cross-check",
    )
    p_analyze.add_argument(
        "--max-t",
        type=nonnegative_int,
        default=None,
        help=(
            "also search edge subsets up to this size for union-size violations"
            f" (at most {MAX_T_SUBSETS:,} subsets)"
        ),
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_generate = sub.add_parser("generate", help="write a family member")
    gen_sub = p_generate.add_subparsers(dest="family", required=True)

    g_cayley = gen_sub.add_parser("cayley")
    g_cayley.add_argument("--n", type=int, required=True)
    g_cayley.add_argument("--k", type=int, required=True)

    g_power = gen_sub.add_parser("power")
    g_power.add_argument("--k", type=int, required=True)
    g_power.add_argument("--cycle", type=int, default=None, help="use a cycle of this length")
    g_power.add_argument("--graph", default=None, help="2-uniform hypergraph file as base graph")

    g_blowup = gen_sub.add_parser("blowup")
    g_blowup.add_argument("--input", required=True, help="hypergraph file to blow up")
    g_blowup.add_argument("--t", type=int, required=True)

    g_pp = gen_sub.add_parser("pp")
    g_pp.add_argument("--q", type=int, required=True)

    g_tworeg = gen_sub.add_parser("tworeg")
    g_tworeg.add_argument("--k", type=int, required=True)
    g_tworeg.add_argument("--m", type=int, required=True)
    g_tworeg.add_argument("--seed", type=int, default=None)

    g_simplex = gen_sub.add_parser("simplex")
    g_simplex.add_argument("--k", type=int, required=True)

    g_fixture = gen_sub.add_parser("fixture")
    g_fixture.add_argument("--name", required=True)

    for g in (g_cayley, g_power, g_blowup, g_pp, g_tworeg, g_simplex, g_fixture):
        g.add_argument("--out", default=None)
        g.set_defaults(func=cmd_generate)

    p_spectra = sub.add_parser("spectra", help="adjacency-tensor quantities")
    p_spectra.add_argument("path")
    p_spectra.add_argument("--json", action="store_true")
    p_spectra.add_argument("--tol", type=positive_float, default=None)
    p_spectra.add_argument("--max-iter", type=nonnegative_int, default=None)
    p_spectra.add_argument("--restarts", type=nonnegative_int, default=8)
    p_spectra.add_argument("--seed", type=nonnegative_int, default=0)
    p_spectra.set_defaults(func=cmd_spectra)

    p_check = sub.add_parser("check", help="exit 0 iff minimal non-odd-transversal")
    p_check.add_argument("path")
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="parameter sweep tables")
    p_sweep.add_argument("name", choices=["dreg-gcd", "beta-trend"])
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.add_argument("--k", type=int, default=4)
    p_sweep.add_argument("--n-max", type=int, default=21)
    p_sweep.add_argument("--m-list", default="3,5,7")
    p_sweep.add_argument("--restarts", type=nonnegative_int, default=4)
    p_sweep.add_argument("--seed", type=nonnegative_int, default=0)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        prefix = f"{args.path}: " if "path" in args else ""
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
