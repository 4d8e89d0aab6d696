"""End-to-end tests of the command-line interface (via ``main(argv)``)."""

import cmath
import json
import re

import mpmath as mp
import numpy as np
import pytest

import cflow
from cflow import (
    AnnihilatorPolynomial,
    basis,
    build_flow,
    cli,
    evaluate_flow,
    flow,
    highprec,
    jordan_oracle,
)
from cflow.cli import main
from cflow.matfile import format_complex, parse_complex, parse_relation, read_matrix, write_matrix

from conftest import (
    CENTRE_AT_ZERO_SCALE,
    defective_case,
    distinct_case,
    eigen_oracle,
    first_suite_case,
    overflowing_builds,
    overflowing_oracle,
    rel_err,
    triangular_flow,
)
from lemmas import negative_powers


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
    return _matrix_out_of(capsys.readouterr().out)


def _matrix_out_of(text: str):
    doc = json.loads(text)
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
        # --method companion is the paper's sum over the negative powers, an
        # independent construction of the same flow
        assert main(["pow", fixtures["random4"], "--z", "0.5", "--method", "companion"]) == 0
        comp = _matrix_out(capsys)
        assert main(["pow", fixtures["random4"], "--z", "0.5"]) == 0
        assert np.allclose(comp, _matrix_out(capsys), atol=1e-9)
        a = read_matrix(fixtures["random4"])
        rep = build_flow(a)
        assert np.array_equal(comp, rep.paper.power(0.5))
        # the same sum in double precision
        paper = np.tensordot(rep.paper.mu(0.5), np.array(negative_powers(a, rep.paper.degree)), 1)
        assert rel_err(comp, paper) < 1e-12

    def test_explicit_relation(self, fixtures, capsys):
        assert main(["pow", fixtures["diag23"], "--z", "2", "--relation", "5,-6"]) == 0
        assert np.allclose(_matrix_out(capsys), np.diag([4.0, 9.0]), atol=1e-12)

    def test_singular_matrix_exit_3(self, fixtures):
        assert main(["pow", fixtures["singular"], "--z", "0.5"]) == 3

    def test_bad_relation_exit_5(self, fixtures):
        assert main(["pow", fixtures["diag23"], "--z", "1", "--relation", "1,1"]) == 5

    def test_bad_literal_exit_2(self, fixtures, capsys):
        # every i was mapped to j, so inf, -inf and infinity could not be parsed
        for z, message in [
            ("nope", "cannot parse"),
            ("inf", "is not finite"),
            ("-inf", "is not finite"),
            ("infinity", "is not finite"),
            ("nan", "is not finite"),
            ("1e400", "is not finite"),
        ]:
            assert main(["pow", fixtures["diag23"], f"--z={z}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["pow", str(tmp_path / "absent.json"), "--z", "1"]) == 2

    def test_overflowing_result_exit_6(self, fixtures, capsys):
        # 3^2000 overflows double precision: no Infinity in the output
        assert main(["pow", fixtures["diag23"], "--z", "2000"]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "a",
        [[[-1.0]], [[-1.0, 1.0], [0.0, -1.0]], -np.eye(2)],
        ids=["minus-one", "minus-one-jordan", "minus-identity"],
    )
    @pytest.mark.parametrize(
        "z",
        [
            "1e308",
            "-1e308",
            "6e307",
            "1e17",
            pytest.param("1e17 --method companion", id="1e17-companion"),
            pytest.param("1e308 --method companion", id="1e308-companion"),
            pytest.param("0.5 --branch-offset 0:1152921504606846976", id="0.5-winding-2^60"),
        ],
    )
    def test_infinite_phase_exit_6(self, tmp_path, capsys, a, z):
        # z * log(-1) has an infinite imaginary part: cmath.exp's ValueError
        # was a traceback and exit 1.  At 1e17, or with the winding number
        # 2^60, the phase keeps no digit: pow exited 0 with a wrong answer
        z, *options = z.split()
        assert main(["pow", _save(tmp_path, "negative", a), f"--z={z}", *options]) == 6
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error:") and len(captured.err.splitlines()) == 1

    def test_modulus_beyond_the_largest_double_exit_0(self, fixtures, capsys):
        # 3^z is finite here; forming the bound of the sum raised OverflowError
        assert main(["pow", fixtures["diag23"], "--z", "646.2227+0.7149i"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        re, im = json.loads(captured.out)["entries"][1][1]
        assert 1e308 < re < np.inf and 1e308 < im < np.inf

    def test_condition_warning_beyond_the_largest_double(self, fixtures, capsys, monkeypatch):
        # the condition estimate was NaN there, so no level could warn
        monkeypatch.setattr(cli, "_COND_WARN", 0.5)
        assert main(["pow", fixtures["diag23"], "--z", "646.2227+0.7149i"]) == 0
        assert "warning: evaluation condition estimate" in capsys.readouterr().err

    def test_subnormal_result_exit_0(self, fixtures, capsys):
        # the condition estimate's scale factor overflowed: a traceback of
        # "OverflowError: math range error" and exit 1
        assert main(["pow", fixtures["diag23"], "--z=-1070"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        expected = evaluate_flow(build_flow(np.diag([2.0, 3.0])), -1070.0)
        doc = json.loads(captured.out)
        assert np.array_equal([[complex(*v) for v in row] for row in doc["entries"]], expected)

    @pytest.mark.parametrize("z", ["-1+2i", "-i"])
    def test_exponent_with_a_leading_dash(self, fixtures, capsys, z):
        # argparse took the value for an option: exit 2, "expected one argument"
        assert main(["pow", fixtures["diag23"], "--z", z]) == 0
        expected = evaluate_flow(build_flow(np.diag([2.0, 3.0])), parse_complex(z))
        assert np.array_equal(_matrix_out(capsys), expected)

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

    def test_wrong_discovered_relation_exit_5(self, fixtures, capsys, wrong_discovered_relation):
        # outside the tier, a discovered relation is checked like a supplied
        # one, and pow evaluates the Schur flow
        assert main(["analyze", fixtures["random4"]]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: relation residual")
        assert main(["pow", fixtures["random4"], "--z", "0.5+0.25i"]) == 0
        expected = eigen_oracle(read_matrix(fixtures["random4"]), 0.5 + 0.25j)
        assert rel_err(_matrix_out(capsys), expected) < 1e-12

    def test_characteristic_fallback_failure_exit_5(self, tmp_path, capsys):
        # minimal_polynomial's rank decision is ambiguous on this matrix, and
        # the characteristic polynomial taken in its place fails its check;
        # the error names that relation, which no user supplied
        # (in the paper's form: pow evaluates the Schur flow)
        case = distinct_case(np.random.default_rng(0), 32)
        p = _save(tmp_path, "distinct32", case.matrix)
        assert main(["analyze", p]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: characteristic polynomial (minimal polynomial rank ambiguous): "
            "relation residual"
        )
        assert main(["pow", p, "--z", "0.5"]) == 0
        assert rel_err(_matrix_out(capsys), jordan_oracle(case.blocks, case.transform, 0.5)) < 1e-12

    def test_root_finder_failure_exit_4(self, fixtures, capsys, monkeypatch):
        # the relation's roots are the paper's form's; pow needs none
        expected = eigen_oracle(read_matrix(fixtures["random4"]), 0.5)

        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        assert main(["analyze", fixtures["random4"]]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert main(["pow", fixtures["random4"], "--z", "0.5"]) == 0
        assert rel_err(_matrix_out(capsys), expected) < 1e-13

    def test_schur_failure_exit_4(self, tmp_path, capsys, monkeypatch):
        lapack = flow._lapack()
        original = lapack.ztrsen
        monkeypatch.setattr(lapack, "ztrsen", lambda *a, **k: (*original(*a, **k)[:-1], 1))
        p = tmp_path / "tier.json"
        with open(p, "w") as fh:
            write_matrix(defective_case(np.random.default_rng(0), 12).matrix, fh)
        assert main(["pow", str(p), "--z", "0.5"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Schur reordering failed")

    def test_conditioning_warning_is_a_warning_line(self, fixtures, capsys, monkeypatch):
        # the default display printed the library's source path and line; the
        # Vandermonde table is the paper's form's, which pow does not build
        monkeypatch.setattr(basis, "_COND_WARN", 1.0)
        monkeypatch.setattr(cli, "_COND_WARN", 1.0)
        assert main(["analyze", fixtures["random4"]]) == 0
        err = capsys.readouterr().err
        assert err.startswith("warning: generalized Vandermonde condition estimate")
        assert all(line.startswith("warning: ") for line in err.splitlines())
        assert ".py" not in err
        assert main(["pow", fixtures["random4"], "--z", "0.5"]) == 0
        captured = capsys.readouterr()
        assert "Vandermonde" not in captured.err
        expected = eigen_oracle(read_matrix(fixtures["random4"]), 0.5)
        doc = json.loads(captured.out)
        result = np.array([[complex(*v) for v in row] for row in doc["entries"]])
        assert rel_err(result, expected) < 1e-13

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
        # these finite, invertible inputs ended in a bare OverflowError; only
        # their paper's form overflows now, and pow evaluates the Schur flow
        path = _save(tmp_path, name, overflowing_builds()[name])
        if command[0] == "pow":
            assert main([command[0], path, *command[1:]]) == 0
            assert rel_err(_matrix_out(capsys), overflowing_oracle(name, 0.5)) < 1e-13
            return
        assert main([command[0], path, *command[1:]]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: an intermediate of the build overflows" in captured.err

    @pytest.mark.parametrize(
        "matrix, z", [([[2.0, 1e160], [0.0, 3.0]], "0.5"), ([[2.0, 1e8], [0.0, 3.0]], "640")]
    )
    def test_numpy_warnings_are_not_shown(self, tmp_path, capsys, matrix, z):
        # numpy's overflow warnings named its operations ("overflow
        # encountered in dot") before the error that names the overflow; the
        # build of [[2, 1e160], [0, 3]] overflows in its paper's form only
        path = _save(tmp_path, "large", matrix)
        large_build = matrix[0][1] == 1e160
        assert main(["analyze", path] if large_build else ["pow", path, "--z", z]) == 6
        err = capsys.readouterr().err
        assert "encountered in" not in err
        assert err.startswith("error: ")
        if large_build:
            assert main(["pow", path, "--z", z]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            doc = json.loads(captured.out)
            result = np.array([[complex(*v) for v in row] for row in doc["entries"]])
            assert rel_err(result, triangular_flow(1e160, 0.5)) < 1e-14

    def test_centre_at_zero_exit_4(self, tmp_path, capsys):
        # a polished cluster centre of the relation landed on 0: cmath.log
        # raised "math domain error", and pow printed a traceback and exited
        # 1; the paper's form still fails, and pow evaluates the Schur flow
        case, s = first_suite_case(), CENTRE_AT_ZERO_SCALE
        path = _save(tmp_path, "small", case.matrix * s)
        assert main(["analyze", path]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert "singular" not in captured.err
        assert main(["pow", path, "--z", "0.5"]) == 0
        expected = s**0.5 * jordan_oracle(case.blocks, case.transform, 0.5)
        assert rel_err(_matrix_out(capsys), expected) < 1e-12

    def test_large_entry_is_not_singular(self, tmp_path, capsys):
        # eigenvalues 2 and 3: the discovered relation has roots {0, 5}, and
        # its residual 6.0e-200 passes 1e-9 because validate_relation
        # divides by |A|^p, so pow exits 3 as "not invertible"
        path = _save(tmp_path, "entry1e100", [[2.0, 1e100], [0.0, 3.0]])
        assert main(["pow", path, "--z", "0.5"]) == 0
        r2, r3 = 2.0**0.5, 3.0**0.5
        expected = np.array([[r2, 1e100 * (r3 - r2)], [0.0, r3]])
        assert rel_err(_matrix_out(capsys), expected) < 1e-12

    def test_graded_entry_below_the_verify_limit(self, tmp_path, capsys):
        # the matrix that verify calls singular (TestVerify)
        path = _save(tmp_path, "entry1e11", [[2.0, 1e11], [0.0, 3.0]])
        assert main(["pow", path, "--z", "0.5+0.25i"]) == 0
        assert rel_err(_matrix_out(capsys), triangular_flow(1e11, 0.5 + 0.25j)) < 1e-14

    @pytest.mark.parametrize(
        "command, calls",
        [
            (["pow", "--z", "0.5"], 0),
            (["verify", "--method", "vandermonde"], 0),
            (["analyze"], 1),
            (["verify"], 1),
        ],
    )
    def test_mpmath_runs_only_for_the_paper_form(
        self, tmp_path, capsys, monkeypatch, command, calls
    ):
        # pow and verify evaluate the Schur covariants, so the paper's
        # working-precision set-up runs only for what reads it: analyze, and
        # the cross agreement of verify --method both
        counted = []
        original = highprec._krylov_relation

        def counting(*args, **kwargs):
            counted.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(highprec, "_krylov_relation", counting)
        assert main([command[0], _tier_file(tmp_path), *command[1:]]) == 0
        assert len(counted) == calls

    @pytest.mark.filterwarnings("ignore::cflow.ConditioningWarning")
    def test_evaluation_warning_measures_the_evaluated_sum(self, tmp_path, capsys, monkeypatch):
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
        monkeypatch.setattr(cli, "_COND_WARN", 1e-3)
        assert main(["pow", p, "--z", "3i"]) == 0
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


class TestInputChecks:
    """Malformed input: exit 2 and one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"entries": [[[1, 0]]]}, "expected an object with 'n' and 'entries'"),
            ({"n": 0, "entries": []}, "'n' must be a positive integer"),
            ({"n": 2, "entries": [[[1, 0], [0, 0]], [[1, 0]]]}, "row 1 does not have 2 entries"),
            # a JSON boolean is a Python int: "n": true ended in a TypeError
            # traceback (exit 1), and [2, false] was read as 2+0j
            ({"n": True, "entries": [[[1, 0]]]}, "'n' must be a positive integer"),
            ({"n": 1, "entries": [[[True, 0]]]}, "entry (0,0) is not a [re, im] pair"),
            ({"n": 1, "entries": [[[2, False]]]}, "entry (0,0) is not a [re, im] pair"),
            # complex() of an integer beyond double range raised OverflowError
            ({"n": 1, "entries": [[[10**400, 0]]]}, "entry (0,0) exceeds double range"),
        ],
    )
    def test_malformed_matrix_document(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["pow", str(path), "--z", "0.5"]) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert captured.out == "" and len(errors) == 1 and message in errors[0]
        assert captured.err.startswith("error:") and "Traceback" not in captured.err

    @pytest.mark.parametrize("relation", [",5,-6", "5,,-6", "5, ,-6", "5,-6,", ""])
    def test_empty_relation_field(self, fixtures, capsys, relation):
        # an empty field was dropped: "5,,-6" was read as the relation 5,-6,
        # and an empty --relation as none, so the relation was discovered
        assert main(["pow", fixtures["diag23"], "--z", "0.5", f"--relation={relation}"]) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert captured.out == "" and len(errors) == 1 and "empty field" in errors[0]
        assert "Traceback" not in captured.err

    # a K beyond double range: 2*pi*i*K raised OverflowError, a traceback and exit 1
    @pytest.mark.parametrize(
        "offset", ["1", "a:b", "0:1:2", "0:1" + "0" * 400], ids=["1", "a:b", "0:1:2", "0:1e400"]
    )
    def test_malformed_branch_offset(self, fixtures, capsys, offset):
        assert main(["pow", fixtures["diag23"], "--z", "0.5", "--branch-offset", offset]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad --branch-offset") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["pow", "analyze", "verify", "formula"])
    @pytest.mark.parametrize(
        "option", ["--tol-root", "--tol-cluster", "--tol-residual", "--tol-rank", "--tol-cond-warn"]
    )
    def test_removed_tolerance_exit_2(self, fixtures, capsys, command, option):
        # every threshold is a constant: no option sets one
        source = {"pow": [fixtures["diag23"], "--z", "0.5"], "formula": ["--relation", "5,-6"]}
        assert main([command, *source.get(command, [fixtures["diag23"]]), option, "1e-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err and option in captured.err
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1

    def test_pow_has_no_json_option(self, fixtures, capsys):
        # pow prints a matrix document either way: --json was accepted and
        # changed nothing
        assert main(["pow", fixtures["diag23"], "--z", "0.5", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err and "--json" in captured.err
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1

    def test_formula_has_no_skip_zero_option(self, capsys):
        # formula prints every term of every mu_i: --skip-zero elided the zero
        # ones, and no caller passed it
        assert main(["formula", "--relation", "5,-6", "--skip-zero"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err and "--skip-zero" in captured.err
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1

    @pytest.mark.parametrize("command", ["pow", "analyze", "verify", "formula"])
    @pytest.mark.parametrize(
        "option, value", [("--tol-rank", "0"), ("--tol-rank", "nan"), ("--tol-cond-warn", "nan")]
    )
    def test_non_positive_tolerance_exit_2(self, fixtures, capsys, command, option, value):
        # a value the removed options rejected, given in the --option=value
        # form, is still a usage error and not a traceback
        source = {"pow": [fixtures["diag23"], "--z", "0.5"], "formula": ["--relation", "5,-6"]}
        argv = [command, *source.get(command, [fixtures["diag23"]]), f"{option}={value}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err and option in captured.err
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1

    @pytest.mark.parametrize(
        "command, method", [("pow", "both"), ("verify", "companion")], ids=["pow", "verify"]
    )
    def test_method_without_a_computation_of_its_own_exit_2(
        self, fixtures, capsys, command, method
    ):
        # pow --method both ran what --method vandermonde runs, and verify
        # --method companion the same
        z = ["--z", "0.5"] if command == "pow" else []
        assert main([command, fixtures["diag23"], *z, "--method", method]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert f"--method: invalid choice: '{method}'" in captured.err


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
        for name in ("diag23", "random4"):
            assert main(["verify", fixtures[name], "--json", "--samples", "3"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["pass"] is True
            assert report["residuals"]["flow_axioms"] <= 1e-8
            assert report["residuals"]["integer_consistency"] <= 1e-8
            # the gap between the Schur flow and the paper's sum at three
            # fixed exponents
            a = read_matrix(fixtures[name])
            rep = build_flow(a)
            negs = np.array(negative_powers(a, rep.paper.degree))
            gaps = []
            for z in (0.5, -1.5 + 1j, 2.5j):
                value = evaluate_flow(rep, z)
                paper = rep.paper.power(z)
                assert rel_err(paper, np.tensordot(rep.paper.mu(z), negs, 1)) < 1e-12
                gaps.append(np.max(np.abs(paper - value)) / max(1.0, np.max(np.abs(value))))
            assert report["residuals"]["cross_agreement"] == max(gaps)
            assert 0.0 < max(gaps) <= 1e-12

    @pytest.mark.parametrize(
        "method", [[], ["--method", "vandermonde"]], ids=["both", "vandermonde"]
    )
    def test_graded_entry_passes(self, tmp_path, capsys, method):
        # verify exited 3 with "pivot 2.000e+00 at or below rank tolerance"
        # while the inverse thresholded pivots on max|A|; pow got it right
        path = _save(tmp_path, "entry1e11", [[2.0, 1e11], [0.0, 3.0]])
        assert main(["verify", path, "--json", *method]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_overflowing_paper_form_passes_vandermonde(self, tmp_path, capsys):
        # power_int's inverse called this matrix singular (exit 3); the
        # paper's form overflows, so the default verify and analyze exit 6
        path = _save(tmp_path, "overflowing", [[2.0, 1e160], [0.0, 3.0]])
        assert main(["verify", path, "--method", "vandermonde", "--json"]) == 0
        residuals = json.loads(capsys.readouterr().out)["residuals"]
        assert residuals["flow_axioms"] <= 1e-14 and residuals["integer_consistency"] <= 1e-14
        assert main(["verify", path]) == 6
        assert main(["analyze", path]) == 6
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-12, CENTRE_AT_ZERO_SCALE, 1e6])
    def test_scaled_suite_case_passes(self, tmp_path, capsys, scale):
        # the paper's form of each raises (exit 3, 4 and 3); verify --method
        # vandermonde, which builds no paper's form, checks the Schur flow alone
        path = _save(tmp_path, "scaled", first_suite_case().matrix * scale)
        assert main(["pow", path, "--z", "0.5"]) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert main(["verify", path, "--method", "vandermonde", "--json"]) == 0
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("make", [distinct_case, defective_case], ids=["distinct", "defective"])
    def test_vandermonde_passes_at_n48(self, tmp_path, capsys, make):
        # the paper's form of each is beyond double precision (exit 5), and
        # flow_axioms read that form's negative-power chain
        path = _save(tmp_path, "n48", make(np.random.default_rng(48), 48).matrix)
        assert main(["verify", path, "--method", "vandermonde", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_negative_samples_exit_2(self, fixtures, capsys):
        # at 0, verify passed without checking the group law
        for samples in ("0", "-3"):
            assert main(["verify", fixtures["diag23"], "--samples", samples]) == 2
            assert "--samples" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--samples", "--z-radius"])
    def test_malformed_number_exit_2(self, fixtures, capsys, option):
        # argparse named the private parser: "invalid _count value: 'abc'"
        assert main(["verify", fixtures["diag23"], option, "abc"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"{option}: must be" in errors[0]

    @pytest.mark.parametrize("radius", ["0", "-1", "nan", "inf", "1e400"])
    def test_bad_z_radius_exit_2(self, fixtures, capsys, radius):
        # 0 and -1 passed on exponents drawn from a point or a reflected
        # square; nan, inf and 1e400 drew non-finite exponents and exited 6
        assert main(["verify", fixtures["diag23"], f"--z-radius={radius}", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "--z-radius" in errors[0]

    def test_single_method(self, fixtures, capsys):
        assert main(["verify", fixtures["diag23"], "--method", "vandermonde", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "cross_agreement" not in report["residuals"]

    @pytest.mark.parametrize("method", ["vandermonde", "both"])
    def test_companion_in_the_tier(self, tmp_path, capsys, method):
        # The companion route is the tier's representation; contracting its
        # mu against the double-precision powers gave flow_axioms 1.9e-8 here.
        p = tmp_path / "tier.json"
        with open(p, "w") as fh:
            write_matrix(defective_case(np.random.default_rng(0), 12).matrix, fh)
        assert main(["verify", str(p), "--method", method, "--json"]) == 0
        captured = capsys.readouterr()
        residuals = json.loads(captured.out)["residuals"]
        assert residuals["flow_axioms"] <= 1e-12
        # the paper's sum in the tier against the Schur flow: reported,
        # outside the pass decision, with the cancellation that spoils it
        if method == "both":
            assert 0.0 < residuals["cross_agreement"] <= 1e-6
            assert "warning: the paper's sum cancels by about" in captured.err
        else:
            assert "cross_agreement" not in residuals
            assert captured.err == ""

    def test_companion_pow_warns_in_the_tier(self, tmp_path, capsys):
        # mu is exact to working precision, the chain is not: the sum is off
        # by about 1e-9 here, beyond the Schur flow's 1e-14, and says so
        case = defective_case(np.random.default_rng(0), 12)
        path = _save(tmp_path, "tier", case.matrix)
        truth = jordan_oracle(case.blocks, case.transform, 0.5)
        assert main(["pow", path, "--z", "0.5", "--method", "companion"]) == 0
        captured = capsys.readouterr()
        assert "warning: the paper's sum cancels by about" in captured.err
        assert 1e-12 < rel_err(_matrix_out_of(captured.out), truth) <= 1e-6
        assert main(["pow", path, "--z", "0.5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert rel_err(_matrix_out_of(captured.out), truth) <= 1e-12


class TestFormula:
    def test_relation_at_one(self, capsys):
        assert main(["formula", "--relation", "5,-6", "--at", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        values = [complex(*v) for v in report["mu_at"]["values"]]
        assert values == pytest.approx([19.0, -30.0])

    @pytest.mark.parametrize("option", ["--relation", "--rel"])
    def test_relation_with_a_leading_dash(self, capsys, option):
        # argparse took "-1.5,2" for an option: exit 2
        assert main(["formula", option, "-1.5,2", "--at", "1", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["relation"] == ["-1.5", "2.0"]
        # A = (c_1^2 + c_0) A^-1 + c_1 c_0 A^-2
        assert [complex(*v) for v in report["mu_at"]["values"]] == pytest.approx([4.25, -3.0])

    def test_at_with_a_leading_dash(self, capsys):
        assert main(["formula", "--relation", "5,-6", "--at", "-0.5-1i", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mu_at"]["z"] == "-0.5-1i"
        mu = build_flow(np.diag([2.0, 3.0]), parse_relation("5,-6")).paper.mu(-0.5 - 1j)
        assert [complex(*v) for v in report["mu_at"]["values"]] == list(mu)

    @pytest.mark.parametrize(
        "relation, offset", [("5,-6", "0:1"), ("5,-6", "1:-2"), ("4,-4", "0:1")]
    )
    def test_printed_terms_are_the_mu_at_values_under_a_branch_offset(
        self, capsys, relation, offset
    ):
        # a shifted cluster's term printed its principal power "(3.0)^z":
        # evaluated at 0.5, the printed mu_1 read 9.93, and mu(0.5) -21.25
        argv = ["formula", "--relation", relation, "--branch-offset", offset, "--at", "0.5"]
        assert main([*argv, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        names = {"exp": cmath.exp, "g_1": lambda z: z, "z": 0.5}
        printed = [
            sum(eval(re.sub(r"(\d)i\b", r"\1j", t).replace("^", "**"), names) for t in terms)
            for terms in report["mu_terms"]
        ]
        mu = [complex(*v) for v in report["mu_at"]["values"]]
        assert printed == pytest.approx(mu, rel=1e-12)
        assert any("exp(" in text for text in report["basis"])

    @pytest.mark.filterwarnings("ignore::cflow.ConditioningWarning")
    def test_relation_in_the_tier_is_reported_as_given(self, tmp_path, capsys):
        # the companion build's tier refined the relation against a rounded
        # balanced matrix, and 8 of the 12 printed coefficients differed
        q = build_flow(defective_case(np.random.default_rng(0), 12).matrix).relation
        relation = ",".join(format_complex(c) for c in q.coeffs[::-1])
        assert main(["formula", f"--relation={relation}", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["relation"] == relation.split(",")

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

    def test_wrong_discovered_relation_exit_5(self, fixtures, capsys, wrong_discovered_relation):
        assert main(["formula", fixtures["random4"], "--json"]) == 5
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
            mu = build_flow(read_matrix(path)).paper.mu(parse_complex(at))
            assert [complex(*v) for v in values] == list(mu)

    @pytest.mark.parametrize("at", ["0.5+0.3i", "-1.7"])
    @pytest.mark.parametrize("name", ["random4", "diag23", "jordan2"])
    def test_relation_mu_at_is_the_library_mu(self, fixtures, capsys, name, at):
        # formula --relation --at kept a double-precision mu of its own; the
        # library's is that of any matrix the relation annihilates
        a = read_matrix(fixtures[name])
        coeffs = build_flow(a).relation.coeffs
        relation = ",".join(format_complex(c) for c in coeffs[::-1])
        assert main(["formula", f"--relation={relation}", "--at", at, "--json"]) == 0
        values = json.loads(capsys.readouterr().out)["mu_at"]["values"]
        mu = build_flow(a, parse_relation(relation)).paper.mu(parse_complex(at))
        assert [complex(*v) for v in values] == list(mu)

    def test_relation_overflowing_mu_exit_6(self, capsys):
        # the double-precision mu wrote Infinity and NaN into the JSON
        assert main(["formula", "--relation", "5,-6", "--at", "645.5", "--json"]) == 6
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: mu is not finite")

    @staticmethod
    def _relation_at_1e_6(m: int) -> str:
        q = AnnihilatorPolynomial.from_roots([1e-6] * m)
        return ",".join(format_complex(c) for c in q.coeffs[::-1])

    def test_relation_singular_tier_table_exit_3(self, capsys):
        relation = self._relation_at_1e_6(18)
        assert main(["formula", f"--relation={relation}", "--at", "0.5", "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: generalized Vandermonde matrix is numerically")
        assert "at working precision" in captured.err

    def test_relation_singular_extended_table_exit_3(self, capsys):
        # at multiplicity 20 the extended-precision table's pivot test raises
        relation = self._relation_at_1e_6(20)
        assert main(["formula", f"--relation={relation}", "--at", "0.5", "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: generalized Vandermonde matrix is numerically singular;")

    @pytest.mark.xfail(
        strict=True,
        reason="the tier inverts its unequilibrated table, and mpmath's LU tolerance "
        "is relative to the table's norm, so it calls this table singular (ROADMAP item 3)",
    )
    def test_relation_at_a_sixfold_small_root(self, capsys):
        # (X - 1e-6)^6: x^z = sum_i mu_i x^(-i) near x = 1e-6, so with
        # y = 1/x, sum_i mu_i y^(i-1) is the Taylor polynomial of y^(-z-1)
        # about 1e6, expanded at 80 digits
        relation = self._relation_at_1e_6(6)
        assert main(["formula", f"--relation={relation}", "--at", "0.5", "--json"]) == 0
        values = json.loads(capsys.readouterr().out)["mu_at"]["values"]
        with mp.workdps(80):
            y0, e = mp.mpf(10) ** 6, mp.mpf(-1.5)
            ref = [mp.mpf(0)] * 6
            for k in range(6):
                ck = mp.binomial(e, k) * y0 ** (e - k)
                for t in range(k + 1):
                    ref[t] += ck * mp.binomial(k, t) * (-y0) ** (k - t)
            ref = np.array([complex(v) for v in ref])
        got = np.array([complex(*v) for v in values])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-13

    @pytest.mark.parametrize("name", ["unipotent", "jordan2", "diag23", "random4"])
    def test_same_table_as_analyze(self, fixtures, capsys, name):
        assert main(["formula", fixtures[name], "--json"]) == 0
        formula = json.loads(capsys.readouterr().out)
        assert main(["analyze", fixtures[name], "--json"]) == 0
        analyze = json.loads(capsys.readouterr().out)
        for key in ("spectrum", "basis", "coefficients", "condition_estimate"):
            assert formula[key] == analyze[key]
