import json
from collections import Counter
from pathlib import Path

import pytest

from oddtrans import classify, fixtures, parse_hypergraph, spectral, transversal
from oddtrans.cli import main

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_analyze_intersection_flag(capsys):
    code, out, _ = run(
        capsys, "analyze", FIXTURE_DIR / "five_edge_4u.hg", "--json", "--max-t", "3"
    )
    assert code == 0
    assert json.loads(out)["intersection_violation"] is None


# ---------------------------------------------------------------- generate


def test_generate_cayley_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "cayley.hg"
    code, out, _ = run(
        capsys, "generate", "cayley", "--n", "7", "--k", "4", "--out", out_path
    )
    assert code == 0
    assert "n=7 m=7" in out
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


def test_generate_blowup_from_file(capsys, tmp_path):
    out_path = tmp_path / "blown.hg"
    code, _, _ = run(
        capsys, "generate", "blowup",
        "--input", FIXTURE_DIR / "c3_pow42.hg", "--t", "2", "--out", out_path,
    )
    assert code == 0
    hg, _ = parse_hypergraph(out_path.read_text())
    assert (hg.n, hg.m, hg.is_uniform()) == (12, 3, 8)


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
    code, _, _ = run(capsys, "spectra", FIXTURE_DIR / "c3_pow42.hg", "--json")
    assert code == 0
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
        capsys, "sweep", "beta-trend", "--family", "cm-pow", "--k", "4",
        "--m-list", "3,5,7", "--json",
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    betas = [row["beta"] for row in rows]
    assert betas == sorted(betas)


def test_sweep_unknown_name_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "nonsense"])
    assert info.value.code == 2


# ------------------------------------------------------------ JSON contract


def test_json_keys_are_stable_and_floats_rounded(capsys):
    _, out1, _ = run(capsys, "spectra", FIXTURE_DIR / "nonregular_9v.hg", "--json")
    _, out2, _ = run(capsys, "spectra", FIXTURE_DIR / "nonregular_9v.hg", "--json")
    assert out1 == out2
    payload = json.loads(out1)
    rho = payload["rho"]
    assert rho == float(f"{rho:.12g}")


def test_shipped_fixture_files_match_catalogue(capsys):
    for name, hg in fixtures().items():
        text = (FIXTURE_DIR / f"{name}.hg").read_text()
        parsed, labels = parse_hypergraph(text)
        assert parsed == hg, name
        assert labels == tuple(str(v + 1) for v in range(hg.n)), name
