import io
import json

import pytest

from sparseloglin import cli


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(args), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


HABERMAN_ARGS = ("--dataset", "haberman", "--formula", "freq ~ a*b + a*c + b*c")


class TestReports:
    def test_text_report_fields_in_order(self):
        code, out, err = run_cli(*HABERMAN_ARGS)
        assert code == 0, err
        markers = [
            "formula: freq ~ a*b + a*c + b*c",
            "model dimension: 7",
            "status: Optimal objective value 0",
            "iterations: 1",
            "face:",
            "face dimension: 6",
            "max log-likelihood: -1.772691",
            "coefficients:",
            "aliased",
            "residual df: 0",
            "bic:",
            "cbic:",
        ]
        pos = -1
        for m in markers:
            nxt = out.find(m, pos + 1)
            assert nxt > pos, f"marker {m!r} missing or out of order\n{out}"
            pos = nxt

    def test_json_matches_text_numbers(self):
        code, text_out, _ = run_cli(*HABERMAN_ARGS)
        assert code == 0
        code, json_out, _ = run_cli(*HABERMAN_ARGS, "--format", "json")
        assert code == 0
        rep = json.loads(json_out)
        assert rep["schema_version"] == 1
        assert rep["model_dimension"] == 7
        assert rep["face_dimension"] == 6
        assert rep["iterations"] == 1
        assert rep["mle_exists"] is False
        assert rep["residual_df"] == 0
        assert rep["max_loglik"] == pytest.approx(-1.772691, abs=1e-5)
        assert f"max log-likelihood: {rep['max_loglik']:.6f}" in text_out
        assert f"bic: {rep['bic']:.6f}" in text_out
        assert sum(c["aliased"] for c in rep["coefficients"]) == 1
        face = {tuple(r["levels"]): r["in_face"] for r in rep["face"]}
        assert face[("0", "0", "0")] == 0 and face[("1", "1", "1")] == 0
        fitted = {tuple(r["levels"]): r["fitted"] for r in rep["face"]}
        assert fitted[("0", "1", "0")] == pytest.approx(2.0, abs=1e-6)
        assert fitted[("0", "0", "0")] == 0.0

    def test_facial_only_skips_fit(self):
        code, out, _ = run_cli(*HABERMAN_ARGS, "--facial-only", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert "max_loglik" not in rep
        assert rep["face_dimension"] == 6

    def test_intercept_only_facial(self):
        code, out, _ = run_cli(
            "--dataset", "haberman", "--formula", "freq ~ 1", "--facial-only", "--format", "json"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["model_dimension"] == 1
        assert rep["face_dimension"] == 1
        assert rep["mle_exists"] is True
        assert all(r["in_face"] == 1 for r in rep["face"])

    def test_generator_notation_accepted(self):
        code, out, _ = run_cli(
            "--dataset", "example3x3x3", "--formula", "[ab][bc][ac]", "--format", "json"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["model_dimension"] == 19
        assert rep["face_dimension"] == 18

    def test_oracle_check_passes(self):
        code, out, _ = run_cli(*HABERMAN_ARGS, "--oracle-check", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["oracle_check"]["agrees"] is True
        assert rep["oracle_check"]["differing_cells"] == []

    def test_data_file_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y,n\n0,0,5\n0,1,3\n1,0,2\n1,1,0\n")
        code, out, _ = run_cli(
            "--data", str(path), "--formula", "n ~ x + y", "--format", "json"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["total"] == 10
        assert rep["model_dimension"] == 3

    def test_presolved_cells_reported(self):
        formula = "|ad|ae|be|ce|ef|acg|dg|fg|bdh|"
        code, out, err = run_cli("--dataset", "rochdale", "--formula", formula, "--facial-only", "--format", "json")
        assert code == 0, err
        rep = json.loads(out)
        assert rep["schema_version"] == 1
        assert len(rep["presolved"]) == 60
        off_face = [i for i, r in enumerate(rep["face"]) if r["in_face"] == 0]
        assert [p["cell"] for p in rep["presolved"]] == off_face
        for p in rep["presolved"]:
            assert p["levels"] == rep["face"][p["cell"]]["levels"]
            assert p["generator"] in (["a", "c", "g"], ["b", "d", "h"])
        code, text_out, _ = run_cli("--dataset", "rochdale", "--formula", formula, "--facial-only")
        assert code == 0
        assert "presolved: 60 zero cells in zero margins of a:c:g (32), b:d:h (28)\n" in text_out

    def test_no_presolved_cells_reported(self):
        code, out, _ = run_cli(*HABERMAN_ARGS, "--facial-only", "--format", "json")
        assert code == 0
        assert json.loads(out)["presolved"] == []
        assert json.loads(out)["span_closed"] == []
        code, out, _ = run_cli(*HABERMAN_ARGS, "--facial-only")
        assert "iterations: 1\npresolved: 0 zero cells\nspan closure: 0 zero cells\nface:" in out

    def test_span_closed_cells_reported(self):
        args = ("--dataset", "example3x3x3", "--formula", "[ab][bc][ac]", "--facial-only")
        code, out, err = run_cli(*args, "--format", "json")
        assert code == 0, err
        rep = json.loads(out)
        assert rep["iterations"] == 1
        assert rep["span_closed"] == [{"cell": 6, "levels": ["1", "3", "1"]}]
        assert rep["face"][6] == {"levels": ["1", "3", "1"], "count": 0, "in_face": 1}
        code, out, _ = run_cli(*args)
        assert "presolved: 0 zero cells\nspan closure: 1 zero cells\nface:" in out

    def test_dump_design(self):
        code, out, _ = run_cli(*HABERMAN_ARGS, "--dump-design")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t")[1] == "(Intercept)"
        assert len(lines) == 9
        assert lines[1].split("\t")[1:] == ["1", "0", "0", "0", "0", "0", "0"]


class TestExitCodes:
    def test_missing_file_is_data_error(self):
        code, _, err = run_cli("--data", "/no/such/file.csv", "--formula", "freq ~ a")
        assert code == cli.EXIT_DATA
        assert "error" in err

    def test_bad_formula(self):
        code, _, err = run_cli("--dataset", "haberman", "--formula", "freq ~ a**b")
        assert code == cli.EXIT_FORMULA

    @pytest.mark.parametrize("formula", ["[a b][c]", "|a,b|c|"])
    def test_generator_separator_is_formula_error(self, formula):
        code, out, err = run_cli("--dataset", "haberman", "--formula", formula)
        assert code == cli.EXIT_FORMULA
        assert out == ""
        assert "bad model" in err

    def test_unknown_dataset_rejected_by_parser(self, capsys):
        code, _out, err = run_cli("--dataset", "nope", "--formula", "freq ~ a")
        assert code == cli.EXIT_USAGE
        assert "nope" in err
        assert capsys.readouterr().err == ""

    def test_unknown_factor_is_data_error(self):
        code, _, err = run_cli("--dataset", "haberman", "--formula", "freq ~ a*q")
        assert code == cli.EXIT_DATA

    @pytest.mark.parametrize("flag", ["--tol-lp", "--tol-rank"])
    def test_tolerance_flags_are_gone(self, flag, capsys):
        # the LP and rank thresholds are the engine's constants
        code, out, err = run_cli(*HABERMAN_ARGS, "--facial-only", flag, "1e-8")
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert flag in err
        assert capsys.readouterr().err == ""

    def test_non_utf8_file_is_data_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run_cli("--data", str(path), "--formula", "freq ~ a")
        assert code == cli.EXIT_DATA
        assert out == ""
        assert "UTF-8" in err

    @pytest.mark.parametrize("k", [40, 63, 64])
    def test_table_over_budget_is_data_error(self, k, tmp_path):
        # two rows give every factor two levels, so the table has 2^k cells
        path = tmp_path / "t.csv"
        names = [f"f{i}" for i in range(k)]
        path.write_text(
            ",".join([*names, "freq"]) + "\n" + ",".join(["0"] * k + ["1"]) + "\n"
            + ",".join(["1"] * k + ["2"]) + "\n"
        )
        code, out, err = run_cli("--data", str(path), "--formula", f"freq ~ {names[0]}")
        assert code == cli.EXIT_DATA
        assert out == ""
        assert f"{2**k} cells" in err

    def test_all_zero_table_is_data_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b,freq\n0,0,0\n1,1,0\n")
        code, out, err = run_cli("--data", str(path), "--formula", "[ab]")
        assert code == cli.EXIT_DATA
        assert out == ""
        assert "all-zero table" in err
        assert "numerical" not in err

    def test_frequency_column_named_twice_is_data_error(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,freq,freq\n0,1,2\n1,3,4\n")
        code, out, err = run_cli("--data", str(path), "--formula", "[a]")
        assert code == cli.EXIT_DATA
        assert out == ""
        assert "must appear once" in err

    @pytest.mark.parametrize(
        "count, message",
        [
            ("99999999999999999999", "frequency 99999999999999999999 exceeds"),
            ("9223372036854775807", "total count 9223372036854775809 exceeds"),
        ],
        ids=["count", "total"],
    )
    def test_counts_beyond_int64_are_data_errors(self, count, message, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(f"a,b,freq\n0,0,{count}\n1,1,2\n")
        code, out, err = run_cli("--data", str(path), "--formula", "[a][b]")
        assert code == cli.EXIT_DATA
        assert out == ""
        assert message in err
        assert "numerical" not in err
