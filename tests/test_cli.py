import json
import os
import shlex
import shutil
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

import oddtrans
from oddtrans import (
    Hypergraph,
    InvariantError,
    classify,
    fixtures,
    gf2,
    parse_hypergraph,
    spectral,
    transversal,
)
from oddtrans import cli
from oddtrans.cli import main

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """Run a fresh interpreter on the package sources; returns its stdout."""
    result = subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


# ----------------------------------------------------------------- analyze


def test_analyze_minimal_fixture(capsys):
    code, out, _ = run(capsys, "analyze", FIXTURE_DIR / "genexm1.hg")
    assert code == 0
    assert "verdict: minimal non-odd-transversal" in out


def test_analyze_single_edge(capsys):
    code, out, _ = run(capsys, "analyze", FIXTURE_DIR / "single_edge.hg")
    assert code == 0
    assert "verdict: odd-transversal" in out
    assert "odd_transversal: 1" in out  # witness of size one, label '1'


def test_analyze_json_fields(capsys):
    code, out, _ = run(capsys, "analyze", FIXTURE_DIR / "c3_pow42.hg", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["odd_transversal_count"] == 0
    assert payload["is_minimal"] is True
    assert payload["labels"] == ["1", "2", "3", "4", "5", "6"]


def test_analyze_reports_cut_edge_labels(capsys):
    code, out, _ = run(capsys, "analyze", FIXTURE_DIR / "cutedge_18v.hg", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cut_edges"] == [4]
    assert payload["cut_vertices"] == []


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "no_such_file.hg")
    assert code == 2
    assert "error" in err


def test_analyze_reports_parse_error_with_line(capsys, tmp_path):
    bad = tmp_path / "bad.hg"
    bad.write_text("1 2\n2 1\n")
    code, _, err = run(capsys, "analyze", bad)
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("command", ["analyze", "check"])
def test_non_utf8_file_is_an_input_error(capsys, tmp_path, command):
    bad = tmp_path / "latin1.hg"
    bad.write_bytes(b"\xff\xfe 1 2\n")
    code, out, err = run(capsys, command, bad)
    assert code == 2
    assert out == ""
    assert "not UTF-8" in err


@pytest.mark.parametrize(
    "argv, most",
    [
        (("analyze", "--json"), 1),
        (("analyze", "--json", "--definitional-check"), 1),
        (("check",), 1),
        (("spectra", "--json"), 1),
    ],
)
def test_one_factorization_per_hypergraph(capsys, monkeypatch, argv, most):
    factorizations = []
    init = gf2.Factorization.__init__

    def counted(self, matrix):
        factorizations.append(matrix)
        init(self, matrix)

    monkeypatch.setattr(gf2.Factorization, "__init__", counted)
    code, _, _ = run(capsys, argv[0], FIXTURE_DIR / "c3_pow42.hg", *argv[1:])
    assert code == 0
    assert 1 <= len(factorizations) <= most


def test_analyze_intersection_flag(capsys):
    code, out, _ = run(
        capsys, "analyze", FIXTURE_DIR / "five_edge_4u.hg", "--json", "--max-t", "3"
    )
    assert code == 0
    assert json.loads(out)["intersection_violation"] is None


def test_analyze_refuses_an_intersection_search_over_the_cap(capsys, tmp_path):
    path = tmp_path / "tworeg.hg"
    run(capsys, "generate", "tworeg", "--k", "8", "--m", "401", "--seed", "3", "--out", path)
    code, out, err = run(capsys, "analyze", path, "--json", "--max-t", "4")
    assert code == 2
    assert out == ""
    # The count stops at t = 3: 401 + 80,200 + 10,666,600 subsets.
    assert "--max-t 4 would visit at least 10,747,201 edge subsets, more than the cap of" in err


def test_analyze_caps_the_intersection_search(capsys, monkeypatch):
    path = FIXTURE_DIR / "c3_pow42.hg"  # m = 3: --max-t 2 visits 3 + 3 subsets
    monkeypatch.setattr(cli, "MAX_T_SUBSETS", 6)
    code, out, _ = run(capsys, "analyze", path, "--json", "--max-t", "2")
    assert code == 0
    assert json.loads(out)["intersection_violation"] is None
    monkeypatch.setattr(cli, "MAX_T_SUBSETS", 5)
    code, out, err = run(capsys, "analyze", path, "--json", "--max-t", "5")
    assert (code, out) == (2, "")
    assert "--max-t 5 would visit at least 6 edge subsets, more than the cap of 5" in err


def test_analyze_refuses_a_huge_intersection_search_without_counting_it(capsys, tmp_path):
    path = tmp_path / "path.hg"  # m = 15,000: the full count has over 4,300 digits
    path.write_text("".join(f"{v} {v + 1}\n" for v in range(15_000)))
    code, out, err = run(capsys, "analyze", path, "--max-t", "15000")
    assert (code, out) == (2, "")
    assert err == (
        f"error: {path}: --max-t 15000 would visit at least 112,507,500 edge subsets,"
        " more than the cap of 10,000,000\n"
    )


# ---------------------------------------------------------------- generate


def test_generate_cayley_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "cayley.hg"
    code, out, _ = run(
        capsys, "generate", "cayley", "--n", "7", "--k", "4", "--out", out_path
    )
    assert code == 0
    assert out.splitlines()[0] == "family=cayley n=7 k=4 m=7 uniform=4 regular=4"
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 7
    hg, _ = parse_hypergraph(out_path.read_text())
    assert classify(hg).is_minimal


def test_generate_projective_plane_lines(capsys, tmp_path):
    out_path = tmp_path / "pp3.hg"
    code, _, _ = run(capsys, "generate", "pp", "--q", "3", "--out", out_path)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 13
    assert all(len(line.split()) == 4 for line in lines)


def test_generate_tworeg_is_seeded_and_2_regular(capsys, tmp_path):
    a, b = tmp_path / "a.hg", tmp_path / "b.hg"
    for path in (a, b):
        code, _, _ = run(
            capsys, "generate", "tworeg", "--k", "4", "--m", "5", "--seed", "1",
            "--out", path,
        )
        assert code == 0
    assert a.read_text() == b.read_text()
    hg, _ = parse_hypergraph(a.read_text())
    assert hg.m == 5
    assert hg.degrees() == [2] * hg.n


def test_generate_to_stdout(capsys):
    code, out, err = run(capsys, "generate", "simplex", "--k", "4")
    assert code == 0
    assert len(out.strip().splitlines()) == 5
    assert "family=simplex" in err


def test_generate_fixture_by_name(capsys, tmp_path):
    out_path = tmp_path / "sq.hg"
    code, _, _ = run(
        capsys, "generate", "fixture", "--name", "square_6u6r", "--out", out_path
    )
    assert code == 0
    hg, _ = parse_hypergraph(out_path.read_text())
    assert hg == fixtures()["square_6u6r"]


def test_generate_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "generate", "pp", "--q", "4")
    assert code == 2
    assert "odd prime" in err
    code, _, err = run(capsys, "generate", "fixture", "--name", "nope")
    assert code == 2
    code, out, err = run(capsys, "generate", "tworeg", "--k", "4", "--m", "1", "--seed", "0")
    assert (code, out) == (2, "")
    assert err == (
        "error: no admissible block partition after 10000 attempts"
        " (k=4, m=1 may be infeasible)\n"
    )


def test_generate_into_a_missing_directory_exits_2(capsys, tmp_path):
    out_path = tmp_path / "missing" / "x.hg"
    code, out, err = run(capsys, "generate", "cayley", "--n", "7", "--k", "4", "--out", out_path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(out_path) in err and "Traceback" not in err


def test_invariant_errors_propagate_out_of_main(capsys, monkeypatch):
    def broken(q):
        raise InvariantError("points 0 and 1 do not lie on exactly one line")

    monkeypatch.setattr(cli.generators, "projective_plane", broken)
    with pytest.raises(InvariantError, match="exactly one line"):
        main(["generate", "pp", "--q", "3"])
    assert capsys.readouterr().err == ""


def test_generate_blowup_from_file(capsys, tmp_path):
    out_path = tmp_path / "blown.hg"
    code, _, _ = run(
        capsys, "generate", "blowup",
        "--input", FIXTURE_DIR / "c3_pow42.hg", "--t", "2", "--out", out_path,
    )
    assert code == 0
    hg, _ = parse_hypergraph(out_path.read_text())
    assert (hg.n, hg.m, hg.is_uniform()) == (12, 3, 8)


@pytest.mark.parametrize(
    "argv",
    [
        ["cayley", "--n", "7", "--k", "4"],
        ["power", "--k", "4", "--cycle", "5"],
        ["power", "--k", "4", "--graph", "triangle.hg"],
        ["blowup", "--input", str(FIXTURE_DIR / "genexm1.hg"), "--t", "2"],
        ["pp", "--q", "3"],
        ["tworeg", "--k", "4", "--m", "21", "--seed", "3"],
        ["simplex", "--k", "4"],
        ["fixture", "--name", "genexm2"],
    ],
    ids=lambda argv: " ".join(argv[:3]),
)
def test_generate_summary_names_each_key_once(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "triangle.hg").write_text("1 2\n2 3\n3 1\n")
    code, out, err = run(capsys, "generate", *argv)
    assert code == 0
    hg, _ = parse_hypergraph(out)
    fields = [field.split("=", 1) for field in err.split()]
    summary = dict(fields)
    assert len(summary) == len(fields)
    assert list(summary)[0] == "family" and summary["family"] == argv[0]
    assert (summary["n"], summary["m"]) == (str(hg.n), str(hg.m))
    assert list(summary)[-2:] == ["uniform", "regular"]


# ----------------------------------------------------------------- spectra


def test_spectra_triangle_power(capsys):
    code, out, _ = run(capsys, "spectra", FIXTURE_DIR / "c3_pow42.hg", "--json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["rho"] - 2.0) < 1e-8
    assert abs(payload["bound2"] - (-2.0 / 3.0)) < 1e-6
    assert payload["lambda_min_upper"] <= payload["bound2"] + 1e-8
    assert payload["flip_identity_max_error"] < 1e-10
    assert payload["is_minimal"] is True


def test_spectra_odd_uniformity_skips_lambda(capsys, tmp_path):
    path = tmp_path / "k3.hg"
    path.write_text("1 2 3\n3 4 5\n1 4 5\n")
    code, out, _ = run(capsys, "spectra", path, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 3
    assert payload["rho"] > 0
    assert payload["lambda_min_applicable"] is False
    assert payload["lambda_min_upper"] is None


def test_spectra_rejects_non_uniform(capsys):
    code, _, err = run(capsys, "spectra", FIXTURE_DIR / "genexm1.hg")
    assert code == 2
    assert "uniform" in err


def test_spectra_text_output(capsys):
    code, out, _ = run(capsys, "spectra", FIXTURE_DIR / "single_edge.hg")
    assert code == 0
    assert "rho: 1" in out


def test_spectra_projective_plane_radius_is_degree(capsys, tmp_path):
    path = tmp_path / "pp3.hg"
    assert run(capsys, "generate", "pp", "--q", "3", "--out", path)[0] == 0
    code, out, _ = run(capsys, "spectra", path, "--json")
    assert code == 0
    assert abs(json.loads(out)["rho"] - 4.0) < 1e-8


def test_spectra_tolerance_reaches_the_bounds(capsys):
    code, out, _ = run(
        capsys, "spectra", FIXTURE_DIR / "nonregular_9v.hg", "--json", "--tol", "1e-3"
    )
    assert code == 0
    payload = json.loads(out)
    rho, m = payload["rho"], payload["m"]
    assert abs(payload["alpha"] - (rho + payload["lambda_min_upper"])) < 1e-10
    assert abs(payload["bound2"] - (-(1.0 - 2.0 / m) * rho)) < 1e-10


def test_spectra_without_convergence_reports_no_perron_values(capsys):
    path = FIXTURE_DIR / "nonregular_9v.hg"
    code, out, _ = run(capsys, "spectra", path, "--json", "--max-iter", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is False
    derived = [
        "lambda_min_upper", "alpha", "beta", "bound1", "bound2",
        "flip_value_min_edge", "flip_identity_max_error",
    ]
    assert {key: payload[key] for key in derived} == dict.fromkeys(derived)
    _, default_out, _ = run(capsys, "spectra", path, "--json")
    assert payload.keys() == json.loads(default_out).keys()


def test_spectra_solves_and_classifies_once(capsys, monkeypatch):
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(spectral, "spectral_radius")
    count(transversal, "classify")
    count(Hypergraph, "is_uniform")
    code, _, _ = run(capsys, "spectra", FIXTURE_DIR / "c3_pow42.hg", "--json")
    assert code == 0
    assert calls.pop("is_uniform") == 1  # one compiled tensor per op
    assert calls == {"spectral_radius": 1, "classify": 1}


# ------------------------------------------------------------------- check


def test_check_exit_codes(capsys, tmp_path):
    assert run(capsys, "check", FIXTURE_DIR / "genexm2.hg")[0] == 0
    assert run(capsys, "check", FIXTURE_DIR / "single_edge.hg")[0] == 1
    bad = tmp_path / "bad.hg"
    bad.write_text("1 1 2\n")
    assert run(capsys, "check", bad)[0] == 2


# ------------------------------------------------------------------- sweep


def test_sweep_gcd_table(capsys):
    code, out, _ = run(capsys, "sweep", "dreg-gcd", "--k", "6", "--n-max", "21", "--json")
    assert code == 0
    rows = json.loads(out)["rows"]
    verdicts = {row["n"]: row["is_minimal"] for row in rows}
    assert verdicts == {
        7: True, 9: False, 11: True, 13: True, 15: False, 17: True, 19: True, 21: False,
    }
    assert all(row["agrees"] for row in rows)


def test_sweep_beta_trend_increases(capsys):
    code, out, _ = run(
        capsys, "sweep", "beta-trend", "--k", "4", "--m-list", "3,5,7", "--json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    betas = [row["beta"] for row in rows]
    assert betas == sorted(betas)


@pytest.mark.parametrize("argv", [("--m-list", "2"), ("--k", "3")])
def test_sweep_beta_trend_bad_member_exits_2(capsys, argv):
    code, out, err = run(capsys, "sweep", "beta-trend", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_sweep_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "nonsense"])
    assert info.value.code == 2


def test_sweep_unknown_family_exits_2_through_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "beta-trend", "--family", "x"])
    assert info.value.code == 2
    assert "unrecognized arguments: --family x" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["spectra", "--tol", "nan"], "argument --tol: nan is not a finite number > 0"),
        (["spectra", "--tol", "-1"], "argument --tol: -1 is not a finite number > 0"),
        (["spectra", "--max-iter", "-3"], "argument --max-iter: -3 is negative"),
        (["spectra", "--restarts", "-2"], "argument --restarts: -2 is negative"),
        (["sweep", "beta-trend", "--restarts", "-2"], "argument --restarts: -2 is negative"),
        (["analyze", "--max-t", "-4"], "argument --max-t: -4 is negative"),
        (["spectra", "--seed", "-1"], "argument --seed: -1 is negative"),
        (["spectra", "--restarts", "0", "--seed", "-1"], "argument --seed: -1 is negative"),
        (["sweep", "beta-trend", "--seed", "-1"], "argument --seed: -1 is negative"),
    ],
    ids=[
        "tol-nan",
        "tol-negative",
        "max-iter",
        "spectra-restarts",
        "sweep-restarts",
        "max-t",
        "spectra-seed",
        "spectra-seed-without-restarts",
        "sweep-seed",
    ],
)
def test_bad_numeric_options_exit_2(capsys, argv, message):
    if argv[0] != "sweep":
        argv = argv + [str(FIXTURE_DIR / "c3_pow42.hg")]
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == ""
    assert message in captured.err


def test_zero_counts_are_accepted(capsys):
    path = FIXTURE_DIR / "c3_pow42.hg"
    assert run(capsys, "analyze", path, "--max-t", "0")[0] == 0
    assert run(capsys, "spectra", path, "--restarts", "0")[0] == 0


# ------------------------------------------------------------ process costs


def test_exact_commands_do_not_import_numpy(capsys):
    path = str(FIXTURE_DIR / "c3_pow42.hg")
    script = textwrap.dedent(
        f"""
        import sys
        from oddtrans.cli import main

        path = {path!r}
        main(["check", path])
        main(["analyze", path, "--json"])
        main(["generate", "cayley", "--n", "7", "--k", "4"])
        main(["sweep", "dreg-gcd", "--json"])
        if "numpy" in sys.modules:
            sys.exit("numpy was imported")
        print("--- spectra")
        main(["spectra", path, "--json"])
        """
    )
    out = run_python("-c", script)
    assert out.split("--- spectra\n")[1] == run(capsys, "spectra", path, "--json")[1]


def test_package_loads_spectral_names_on_first_use():
    namespace = {}
    exec("from oddtrans import *", namespace)
    assert set(oddtrans.__all__) <= namespace.keys()
    assert oddtrans.spectral_radius is oddtrans.spectral.spectral_radius
    assert {"spectral", "spectral_radius", "classify"} <= set(dir(oddtrans))
    with pytest.raises(AttributeError, match="no_such_name"):
        oddtrans.no_such_name


def test_parser_built_once_keeps_no_state_between_calls(capsys):
    path = str(FIXTURE_DIR / "nonregular_9v.hg")
    calls = [("spectra", path, "--tol", "1e-3"), ("spectra", path)]
    fresh = [run_python("-m", "oddtrans", *argv) for argv in calls]
    assert fresh[0] != fresh[1]
    assert [run(capsys, *argv)[1] for argv in calls] == fresh


# ------------------------------------------------------------ JSON contract


def test_json_keys_are_stable_and_floats_rounded(capsys):
    _, out1, _ = run(capsys, "spectra", FIXTURE_DIR / "nonregular_9v.hg", "--json")
    _, out2, _ = run(capsys, "spectra", FIXTURE_DIR / "nonregular_9v.hg", "--json")
    assert out1 == out2
    payload = json.loads(out1)
    rho = payload["rho"]
    assert rho == float(f"{rho:.12g}")


def test_json_is_strict_when_the_iteration_does_not_run(capsys):
    code, out, _ = run(
        capsys, "spectra", FIXTURE_DIR / "nonregular_9v.hg", "--json", "--max-iter", "0"
    )
    assert code == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    payload = json.loads(out, parse_constant=reject)
    assert payload["rho"] is None
    assert payload["converged"] is False


def test_shipped_fixture_files_match_catalogue(capsys):
    for name, hg in fixtures().items():
        text = (FIXTURE_DIR / f"{name}.hg").read_text()
        parsed, labels = parse_hypergraph(text)
        assert parsed == hg, name
        assert labels == tuple(str(v + 1) for v in range(hg.n)), name


# ------------------------------------------------------------------ README


README_COMMANDS = [
    line for line in README.read_text().splitlines() if line.startswith("oddtrans ")
]


def test_readme_lists_its_commands():
    assert len(README_COMMANDS) >= 10


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_runs(capsys, tmp_path, monkeypatch, line):
    shutil.copytree(FIXTURE_DIR, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *shlex.split(line, comments=True)[1:])
    assert code == 0
    assert out
