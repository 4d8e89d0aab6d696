"""End-to-end tests of the command-line interface (via ``main(argv)``)."""

import json

import numpy as np
import pytest

import cflow
from cflow import build_flow, highprec, jordan_oracle, mu_functions
from cflow.cli import main
from cflow.matfile import parse_complex, read_matrix, write_matrix

from conftest import (
    LSTSQ_TRUNCATES_SCALES,
    defective_case,
    distinct_case,
    overflowing_builds,
    rel_err,
)


def _save(tmp_path, name, a) -> str:
    p = tmp_path / f"{name}.json"
    with open(p, "w") as fh:
        write_matrix(np.asarray(a, dtype=np.complex128), fh)
    return str(p)


def _tier_file(tmp_path) -> str:
    """The defective n=12 matrix of the mpmath tier's tests."""
    return _save(tmp_path, "tier", defective_case(np.random.default_rng(0), 12).matrix)


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

    @pytest.mark.filterwarnings("ignore::cflow.ConditioningWarning")
    def test_discovered_relation_in_the_tier(self, tmp_path, capsys):
        # the double-precision relation of this matrix has residual 6.1e-8,
        # so it must not be validated as a supplied one: build_flow discovers
        # it, and the tier solves for it afresh
        case = distinct_case(np.random.default_rng(0), 20)
        p = tmp_path / "distinct20.json"
        with open(p, "w") as fh:
            write_matrix(case.matrix, fh)
        assert main(["pow", str(p), "--z", "0.5+0.25i"]) == 0
        expected = jordan_oracle(case.blocks, case.transform, 0.5 + 0.25j)
        assert rel_err(_matrix_out(capsys), expected) <= 1e-10

    @pytest.mark.filterwarnings("ignore::cflow.ConditioningWarning")
    def test_wrong_discovered_relation_exit_5(self, tmp_path, capsys):
        # build_flow keeps this matrix outside the tier although its
        # double-precision relation has residual 17, and evaluating it is off
        # by a relative 5e3; the CLI checks such a relation like a supplied one
        p = tmp_path / "defective24.json"
        with open(p, "w") as fh:
            write_matrix(defective_case(np.random.default_rng(2), 24).matrix, fh)
        assert main(["pow", str(p), "--z", "0.5+0.25i"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: relation residual")

    def test_characteristic_fallback_failure_exit_5(self, tmp_path, capsys):
        # minimal_polynomial's rank decision is ambiguous on this matrix, and
        # the characteristic polynomial taken in its place fails its check;
        # the error names that relation, which no user supplied
        p = tmp_path / "distinct32.json"
        with open(p, "w") as fh:
            write_matrix(distinct_case(np.random.default_rng(0), 32).matrix, fh)
        assert main(["pow", str(p), "--z", "0.5"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: characteristic polynomial (minimal polynomial rank ambiguous): "
            "relation residual"
        )

    def test_root_finder_failure_exit_4(self, fixtures, capsys, monkeypatch):
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        assert main(["pow", fixtures["random4"], "--z", "0.5"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_schur_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        from scipy.linalg import lapack

        original = lapack.ztrsen
        monkeypatch.setattr(lapack, "ztrsen", lambda *a, **k: (*original(*a, **k)[:-1], 1))
        p = tmp_path / "tier.json"
        with open(p, "w") as fh:
            write_matrix(defective_case(np.random.default_rng(0), 12).matrix, fh)
        assert main(["pow", str(p), "--z", "0.5"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Schur reordering failed")

    def test_conditioning_warning_is_a_warning_line(self, fixtures, capsys):
        # the default display printed the library's source path and line
        assert main(["pow", fixtures["random4"], "--z", "0.5", "--tol-cond-warn", "1"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: generalized Vandermonde condition estimate")
        assert all(line.startswith("warning: ") for line in err.splitlines())
        assert ".py" not in err

    def test_tier_prints_no_vandermonde_line(self, tmp_path, capsys):
        # the tier evaluates the Schur covariants: the double-precision
        # table's estimate (1.2e14 here) says nothing about the result
        case = distinct_case(np.random.default_rng(0), 20)
        assert main(["pow", _save(tmp_path, "distinct20", case.matrix), "--z", "0.5"]) == 0
        captured = capsys.readouterr()
        assert "Vandermonde" not in captured.err
        doc = json.loads(captured.out)
        result = np.array([[complex(*v) for v in row] for row in doc["entries"]])
        assert rel_err(result, jordan_oracle(case.blocks, case.transform, 0.5)) <= 1e-12

    @pytest.mark.parametrize("command", [["pow", "--z", "0.5"], ["verify"], ["analyze"]])
    @pytest.mark.parametrize("name", sorted(overflowing_builds()))
    def test_overflowing_build_exit_6(self, tmp_path, capsys, command, name):
        # these finite, invertible inputs ended in a bare OverflowError
        path = _save(tmp_path, name, overflowing_builds()[name])
        assert main([command[0], path, *command[1:]]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: an intermediate of the build overflows" in captured.err

    @pytest.mark.parametrize(
        "matrix, z", [([[2.0, 1e160], [0.0, 3.0]], "0.5"), ([[2.0, 1e8], [0.0, 3.0]], "640")]
    )
    def test_numpy_warnings_are_not_shown(self, tmp_path, capsys, matrix, z):
        # numpy's overflow warnings named its operations ("overflow
        # encountered in dot") before the error that names the overflow
        assert main(["pow", _save(tmp_path, "large", matrix), "--z", z]) == 6
        err = capsys.readouterr().err
        assert "encountered in" not in err
        assert err.startswith("error: ")

    @pytest.mark.xfail(strict=True, reason=LSTSQ_TRUNCATES_SCALES)
    def test_large_entry_is_not_singular(self, tmp_path, capsys):
        # eigenvalues 2 and 3: the discovered relation has roots {0, 5}, and
        # its residual 6.0e-200 passes residual_tol because validate_relation
        # divides by |A|^p, so pow exits 3 as "not invertible"
        path = _save(tmp_path, "entry1e100", [[2.0, 1e100], [0.0, 3.0]])
        assert main(["pow", path, "--z", "0.5"]) == 0
        r2, r3 = 2.0**0.5, 3.0**0.5
        expected = np.array([[r2, 1e100 * (r3 - r2)], [0.0, r3]])
        assert rel_err(_matrix_out(capsys), expected) < 1e-12

    @pytest.mark.parametrize(
        "command, calls",
        [(["pow", "--z", "0.5"], 0), (["verify"], 0), (["analyze"], 1)],
    )
    def test_mpmath_runs_only_for_the_paper_form(
        self, tmp_path, capsys, monkeypatch, command, calls
    ):
        # pow and verify evaluate the Schur covariants and print nothing of
        # the paper's form, so its working-precision set-up never runs
        counted = []
        original = highprec._krylov_relation

        def counting(*args, **kwargs):
            counted.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(highprec, "_krylov_relation", counting)
        assert main([command[0], _tier_file(tmp_path), *command[1:]]) == 0
        assert len(counted) == calls

    @pytest.mark.filterwarnings("ignore::cflow.ConditioningWarning")
    def test_evaluation_warning_measures_the_evaluated_sum(self, tmp_path, capsys):
        # the paper's table times the Schur basis values read 2.6e12 here,
        # for a result within 5e-15 of the oracle
        case = distinct_case(np.random.default_rng(0), 20)
        p = _save(tmp_path, "distinct20", case.matrix)
        assert main(["pow", p, "--z", "3i"]) == 0
        captured = capsys.readouterr()
        assert "warning: evaluation condition estimate" not in captured.err
        doc = json.loads(captured.out)
        result = np.array([[complex(*v) for v in row] for row in doc["entries"]])
        assert rel_err(result, jordan_oracle(case.blocks, case.transform, 3j)) <= 1e-12
        assert main(["pow", p, "--z", "3i", "--tol-cond-warn", "1e-3"]) == 0
        assert "warning: evaluation condition estimate" in capsys.readouterr().err

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


    @pytest.mark.filterwarnings("ignore::cflow.ConditioningWarning")
    def test_tier_report_is_one_relation(self, tmp_path, capsys):
        # The double-precision relation of this matrix has residual 13; the
        # tier solves for the relation afresh, and the report must give the
        # relation, spectrum and table the covariants were built from.
        p = tmp_path / "defective24.json"
        with open(p, "w") as fh:
            write_matrix(defective_case(np.random.default_rng(0), 24).matrix, fh)
        assert main(["analyze", str(p), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["relation_residual"] < 1e-6
        asc = [1.0] + [-parse_complex(c) for c in report["relation"]]  # X^p first
        columns = []
        for row in report["spectrum"]:
            lam, log = complex(*row["lambda"]), complex(*row["log"])
            scale = np.polyval(np.abs(asc), abs(lam))
            assert abs(np.polyval(asc, lam)) <= 1e-10 * scale
            for j in range(row["multiplicity"]):
                # f(z) = binom(z, j) lam^(z - j) at z = -1, ..., -p
                zs = -np.arange(1, report["degree"] + 1)
                binom = np.prod([zs - i for i in range(j)], axis=0) / np.prod(range(1, j + 1))
                columns.append(binom * np.exp((zs - j) * log))
        b = np.array(columns)  # b[k, i] = f_k(-(i + 1))
        e = np.array([[complex(*v) for v in r] for r in report["coefficients"]])
        bound = 1e-12 * np.max(np.abs(e)) * np.max(np.abs(b)) * report["degree"]
        assert np.max(np.abs(e @ b - np.eye(report["degree"]))) <= bound


    @pytest.mark.parametrize("command", [["analyze", "--json"], ["pow", "--z", "0.5"]])
    def test_discovered_relation_validated_by_no_second_pass(
        self, fixtures, capsys, monkeypatch, command
    ):
        # the residual of a discovered relation is its discovery's own
        calls = []
        original = cflow.annihilator.validate_relation

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for module in vars(cflow).values():
            if getattr(module, "validate_relation", None) is original:
                monkeypatch.setattr(module, "validate_relation", counted)
        assert main([command[0], fixtures["random4"], *command[1:]]) == 0
        assert calls == []


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

    @pytest.mark.filterwarnings("ignore::cflow.ConditioningWarning")
    def test_same_form_as_analyze_in_the_tier(self, tmp_path, capsys):
        # formula printed the double-precision relation the tier discards
        p = tmp_path / "tier.json"
        with open(p, "w") as fh:
            write_matrix(defective_case(np.random.default_rng(0), 12).matrix, fh)
        assert main(["formula", str(p), "--json"]) == 0
        formula = json.loads(capsys.readouterr().out)
        assert main(["analyze", str(p), "--json"]) == 0
        analyze = json.loads(capsys.readouterr().out)
        for key in ("relation", "spectrum", "basis", "coefficients", "condition_estimate"):
            assert formula[key] == analyze[key]

    @pytest.mark.filterwarnings("ignore::cflow.ConditioningWarning")
    def test_wrong_discovered_relation_exit_5(self, tmp_path, capsys):
        p = tmp_path / "defective24.json"
        with open(p, "w") as fh:
            write_matrix(defective_case(np.random.default_rng(2), 24).matrix, fh)
        assert main(["formula", str(p), "--json"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: relation residual")

    @pytest.mark.filterwarnings("ignore::cflow.ConditioningWarning")
    @pytest.mark.parametrize("at", ["0.5+0.3i", "-1.7"])
    def test_mu_at_is_the_library_mu(self, fixtures, tmp_path, capsys, at):
        # formula --at multiplied the double-rounded table by double-precision
        # basis values, which is not the mu the library computes
        for path in (fixtures["random4"], _tier_file(tmp_path)):
            assert main(["formula", path, "--at", at, "--json"]) == 0
            values = json.loads(capsys.readouterr().out)["mu_at"]["values"]
            mu = mu_functions(build_flow(read_matrix(path)), parse_complex(at))
            assert [complex(*v) for v in values] == list(mu)

    @pytest.mark.parametrize("name", ["unipotent", "jordan2", "diag23", "random4"])
    def test_same_table_as_analyze(self, fixtures, capsys, name):
        assert main(["formula", fixtures[name], "--json"]) == 0
        formula = json.loads(capsys.readouterr().out)
        assert main(["analyze", fixtures[name], "--json"]) == 0
        analyze = json.loads(capsys.readouterr().out)
        for key in ("spectrum", "basis", "coefficients", "condition_estimate"):
            assert formula[key] == analyze[key]
