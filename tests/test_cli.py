"""End-to-end tests of the command-line interface (via ``main(argv)``)."""

import json

import numpy as np
import pytest

from cflow.cli import main
from cflow.matfile import write_matrix

from conftest import defective_case


@pytest.fixture()
def fixtures(tmp_path):
    paths = {}

    def save(name, a):
        p = tmp_path / f"{name}.json"
        with open(p, "w") as fh:
            write_matrix(np.asarray(a, dtype=np.complex128), fh)
        paths[name] = str(p)

    save("identity", np.eye(2))
    save("unipotent", [[1.0, 1.0], [0.0, 1.0]])
    save("diag23", np.diag([2.0, 3.0]))
    save("jordan2", [[5.0, 1.0], [0.0, 5.0]])
    save("singular", np.diag([1.0, 0.0]))
    rng = np.random.default_rng(19)
    save("random4", rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return paths


def _matrix_out(capsys):
    doc = json.loads(capsys.readouterr().out)
    n = doc["n"]
    return np.array(
        [[complex(*doc["entries"][i][j]) for j in range(n)] for i in range(n)]
    )


class TestPow:
    def test_unipotent_square_root(self, fixtures, capsys):
        assert main(["pow", fixtures["unipotent"], "--z", "0.5"]) == 0
        assert np.allclose(_matrix_out(capsys), [[1, 0.5], [0, 1]], atol=1e-12)

    def test_identity_any_exponent(self, fixtures, capsys):
        assert main(["pow", fixtures["identity"], "--z", "7.5"]) == 0
        assert np.allclose(_matrix_out(capsys), np.eye(2), atol=1e-13)

    def test_complex_exponent(self, fixtures, capsys):
        assert main(["pow", fixtures["diag23"], "--z", "1+1i"]) == 0
        expected = np.diag([2.0 ** (1 + 1j), 3.0 ** (1 + 1j)])
        assert np.allclose(_matrix_out(capsys), expected, atol=1e-12)

    def test_companion_method_agrees(self, fixtures, capsys):
        assert main(["pow", fixtures["random4"], "--z", "0.5", "--method", "companion"]) == 0
        comp = _matrix_out(capsys)
        assert main(["pow", fixtures["random4"], "--z", "0.5"]) == 0
        assert np.allclose(comp, _matrix_out(capsys), atol=1e-9)

    def test_explicit_relation(self, fixtures, capsys):
        assert main(["pow", fixtures["diag23"], "--z", "2", "--relation", "5,-6"]) == 0
        assert np.allclose(_matrix_out(capsys), np.diag([4.0, 9.0]), atol=1e-12)

    def test_singular_matrix_exit_3(self, fixtures):
        assert main(["pow", fixtures["singular"], "--z", "0.5"]) == 3

    def test_bad_relation_exit_5(self, fixtures):
        assert main(["pow", fixtures["diag23"], "--z", "1", "--relation", "1,1"]) == 5

    def test_bad_literal_exit_2(self, fixtures):
        assert main(["pow", fixtures["diag23"], "--z", "nope"]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["pow", str(tmp_path / "absent.json"), "--z", "1"]) == 2

    def test_overflowing_result_exit_6(self, fixtures, capsys):
        # 3^2000 overflows double precision: no Infinity in the output
        assert main(["pow", fixtures["diag23"], "--z", "2000"]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_overflowing_companion_exit_6(self, fixtures, capsys):
        assert main(["pow", fixtures["diag23"], "--z", "2000", "--method", "companion"]) == 6
        assert capsys.readouterr().out == ""

    def test_unknown_cluster_offset_exit_2(self, fixtures, capsys):
        assert main(["pow", fixtures["diag23"], "--z", "0.5", "--branch-offset", "5:1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_branch_offset(self, tmp_path, capsys):
        p = tmp_path / "four.json"
        with open(p, "w") as fh:
            write_matrix(np.array([[4.0]]), fh)
        assert main(["pow", str(p), "--z", "0.5", "--branch-offset", "0:1"]) == 0
        assert np.allclose(_matrix_out(capsys), [[-2.0]], atol=1e-12)


class TestAnalyze:
    def test_json_report(self, fixtures, capsys):
        assert main(["analyze", fixtures["diag23"], "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["degree"] == 2
        lambdas = [complex(*row["lambda"]) for row in report["spectrum"]]
        assert lambdas == pytest.approx([3.0, 2.0])
        assert report["relation_residual"] < 1e-12

    def test_defective_relation(self, fixtures, capsys):
        assert main(["analyze", fixtures["jordan2"], "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spectrum"][0]["multiplicity"] == 2

    def test_text_report_mentions_spectrum(self, fixtures, capsys):
        assert main(["analyze", fixtures["diag23"]]) == 0
        out = capsys.readouterr().out
        assert "relation degree: 2" in out
        assert "spectrum" in out


class TestVerify:
    def test_fixtures_pass(self, fixtures):
        for name in ("identity", "unipotent", "diag23", "jordan2", "random4"):
            assert main(["verify", fixtures[name]]) == 0

    def test_json_residuals(self, fixtures, capsys):
        assert main(["verify", fixtures["diag23"], "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert report["residuals"]["flow_axioms"] <= 1e-8
        assert report["residuals"]["integer_consistency"] <= 1e-8
        assert report["residuals"]["cross_agreement"] <= 1e-8

    def test_negative_samples_exit_2(self, fixtures, capsys):
        assert main(["verify", fixtures["diag23"], "--samples", "-3"]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_single_method(self, fixtures, capsys):
        assert main(["verify", fixtures["diag23"], "--method", "vandermonde", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "cross_agreement" not in report["residuals"]

    @pytest.mark.parametrize("method", ["companion", "both"])
    def test_companion_in_the_tier(self, tmp_path, capsys, method):
        # The companion route is the tier's representation; contracting its
        # mu against the double-precision powers gave flow_axioms 1.9e-8 here.
        p = tmp_path / "tier.json"
        with open(p, "w") as fh:
            write_matrix(defective_case(np.random.default_rng(0), 12).matrix, fh)
        assert main(["verify", str(p), "--method", method, "--json"]) == 0
        residuals = json.loads(capsys.readouterr().out)["residuals"]
        assert residuals["flow_axioms"] <= 1e-12


class TestFormula:
    def test_relation_at_one(self, capsys):
        assert main(["formula", "--relation", "5,-6", "--at", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        values = [complex(*v) for v in report["mu_at"]["values"]]
        assert values == pytest.approx([19.0, -30.0])

    def test_text_output_contains_value(self, capsys):
        assert main(["formula", "--relation", "5,-6", "--at", "1"]) == 0
        out = capsys.readouterr().out
        assert "19.0" in out and "30.0" in out

    def test_from_matrix(self, fixtures, capsys):
        assert main(["formula", fixtures["diag23"], "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["degree"] == 2

    def test_needs_source(self):
        assert main(["formula"]) == 2

    def test_zero_root_exit_3(self):
        # X^2 - X has the root zero
        assert main(["formula", "--relation", "1,0"]) == 3

    @pytest.mark.parametrize("name", ["unipotent", "jordan2", "diag23", "random4"])
    def test_same_table_as_analyze(self, fixtures, capsys, name):
        assert main(["formula", fixtures[name], "--json"]) == 0
        formula = json.loads(capsys.readouterr().out)
        assert main(["analyze", fixtures[name], "--json"]) == 0
        analyze = json.loads(capsys.readouterr().out)
        for key in ("spectrum", "basis", "coefficients", "condition_estimate"):
            assert formula[key] == analyze[key]
