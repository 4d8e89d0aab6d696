"""Command-line front end: ``pow``, ``analyze``, ``verify`` and ``formula``.

The commands keep no relation logic: a matrix's representation, with its
relation discovered or the ``--relation`` given, checked and measured, is
:func:`cflow.flow.build_flow`'s.  ``analyze`` and ``formula MATRIX`` report
the paper's form of that representation, and ``formula --relation`` that of
the relation's companion construction (:class:`cflow.flow.CompanionFlow`),
at working precision in the mpmath tier.  ``pow --method companion``, and
``verify --method both`` for its ``cross_agreement`` at three fixed
exponents (outside the pass decision), evaluate the paper's sum
(:meth:`cflow.flow.PaperForm.power`) instead of the Schur covariants.

Exit codes: 0 ok, 1 verification failed, 2 parse or usage error (including a
branch offset that names no branch), 3 singular matrix or zero
eigenvalue, 4 root finding failed (the Schur form, or the paper's eigenvalue
iteration on the companion matrix), 5 relation invalid, 6 result not finite
(``A^z`` overflows at the requested exponent) or without a digit (a phase
``Im((z-j) log lambda)`` reaches ``2^45``).  cflow's warnings are printed to
standard error as ``warning:`` lines; numpy's own are not shown.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import warnings

import numpy as np

from .errors import (
    CFlowError,
    ConditioningWarning,
    MatrixParseError,
    NonConvergence,
    NonFiniteEntry,
    RelationInvalid,
    SingularMatrix,
    UnknownCluster,
    ZeroEigenvalue,
)
from .flow import CompanionFlow, FlowRepresentation, build_flow, check_flow_axioms, evaluate_flow
from .matfile import (
    format_complex,
    parse_complex,
    parse_relation,
    read_matrix,
    write_matrix,
)
from .numeric import _COND_WARN, max_norm, power_int

RESIDUAL_LIMIT = 1e-8  # shared pass/fail threshold for all verify categories
_CROSS_ZS = (0.5, -1.5 + 1j, 2.5j)  # where verify --method both compares the constructions

# The exit code of each error, first match wins (see the module docstring).
_EXIT_CODES = (
    ((MatrixParseError, UnknownCluster), 2),
    ((SingularMatrix, ZeroEigenvalue), 3),
    (NonConvergence, 4),
    (RelationInvalid, 5),
    (NonFiniteEntry, 6),
    (CFlowError, 3),  # anything else operational
)


# Options whose values may start with "-": an exponent "-1+2i" or "-i", a
# relation "-1.5,2".  argparse reads such a separate token as an option.
_DASH_VALUE_OPTIONS = ("--z", "--at", "--relation")


def _attach_dash_values(argv: list) -> list:
    """``--z -1+2i`` as ``--z=-1+2i``, which argparse reads as a value; the
    abbreviations argparse accepts (``--rel``) too."""
    out = []
    for arg in argv:
        prev = out[-1] if out else ""
        takes_value = len(prev) > 2 and any(o.startswith(prev) for o in _DASH_VALUE_OPTIONS)
        if takes_value and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def _add_common(sub):
    """The options of every command: a given relation and branch offsets."""
    sub.add_argument("--relation", default=None, help="coefficients c_{p-1},...,c_0")
    sub.add_argument(
        "--branch-offset",
        action="append",
        default=[],
        metavar="IDX:K",
        help="add 2*pi*i*K to the branch log of cluster IDX (repeatable)",
    )


def _rule(rule: str, convert, accept):
    """An option type: ``convert`` the text and ``accept`` the value, or a
    usage error stating ``rule`` (argparse names the type on a ValueError)."""
    def parse(text: str):
        try:
            if accept(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")

    return parse


_count = _rule("an integer of at least 1", int, lambda v: v >= 1)
_radius = _rule("finite and strictly positive", float, lambda v: 0.0 < v < math.inf)


def _branch_offsets(args) -> dict:
    offsets = {}
    for item in args.branch_offset:
        try:
            idx, k = map(int, item.split(":"))
            offsets[idx] = k
            float(k)  # OverflowError: no winding number beyond double range
        except (ValueError, OverflowError) as exc:
            raise MatrixParseError(f"bad --branch-offset {item!r}, expected IDX:K") from exc
    return offsets


def _build(args, a) -> FlowRepresentation:
    """:func:`build_flow` of ``a`` with the ``--relation`` given, if any."""
    q = parse_relation(args.relation) if args.relation is not None else None
    return build_flow(a, q, _branch_offsets(args))


def _term_text(cluster, j: int) -> str:
    """``g_j(z) lambda^(z-j)``, or ``g_j(z) exp((z-j) log)`` off the principal branch."""
    exponent = "z" if j == 0 else f"(z-{j})"
    power = f"({format_complex(cluster.value)})^{exponent}"
    if cluster.winding:
        power = f"exp({exponent}*({format_complex(cluster.log)}))"
    return power if j == 0 else f"g_{j}(z)*{power}"


def _spectrum_rows(spectrum):
    return [
        {
            "index": i,
            "lambda": [c.value.real, c.value.imag],
            "multiplicity": c.multiplicity,
            "log": [(log := complex(c.log)).real, log.imag],  # an mpc in the mpmath tier
        }
        for i, c in enumerate(spectrum.clusters)
    ]


def _print_report(report: dict, as_json: bool, out) -> None:
    if as_json:
        json.dump(report, out)
        out.write("\n")
        return
    p = report["degree"]
    c_desc = report["relation"]
    print(f"relation degree: {p}", file=out)
    print("relation coefficients (c_{p-1},...,c_0): " + ", ".join(c_desc), file=out)
    if "relation_residual" in report:
        print(f"relation residual: {report['relation_residual']:.3e}", file=out)
    print("spectrum (descending |lambda|, ascending arg):", file=out)
    for row in report["spectrum"]:
        lam = complex(*row["lambda"])
        log = complex(*row["log"])
        print(
            f"  [{row['index']}] lambda={format_complex(lam)} "
            f"multiplicity={row['multiplicity']} log={format_complex(log)}",
            file=out,
        )
    print("basis ordering:", file=out)
    for k, text in enumerate(report["basis"]):
        print(f"  f_{k + 1}(z) = {text}", file=out)
    print("coefficient table e_ij (mu_i(z) = sum_j e_ij * f_j(z)):", file=out)
    for i, row in enumerate(report["coefficients"]):
        rendered = ", ".join(format_complex(complex(re, im)) for re, im in row)
        print(f"  mu_{i + 1}: [{rendered}]", file=out)
    print(f"vandermonde condition estimate: {report['condition_estimate']:.3e}", file=out)
    if "mu_terms" in report:
        print("coefficient functions:", file=out)
        for i, terms in enumerate(report["mu_terms"]):
            print(f"  mu_{i + 1}(z) = " + " + ".join(terms), file=out)
    if "mu_at" in report:
        values = ", ".join(format_complex(complex(re, im)) for re, im in report["mu_at"]["values"])
        print(f"mu({report['mu_at']['z']}) = ({values})", file=out)


def _representation_report(form) -> dict:
    """A paper's form's relation, spectrum, basis and coefficient table."""
    spectrum = form.spectrum
    return {
        "degree": form.relation.degree,
        "relation": [format_complex(c) for c in form.relation.coeffs[::-1]],
        "spectrum": _spectrum_rows(spectrum),
        "basis": [_term_text(spectrum.clusters[ci], j) for ci, j in spectrum.terms],
        "coefficients": [
            [[v.real, v.imag] for v in row] for row in np.asarray(form.coeffs.e)
        ],
        "condition_estimate": form.coeffs.condition_estimate,
    }


def cmd_pow(args) -> int:
    a = read_matrix(args.matrix)
    z = parse_complex(args.z)
    rep = _build(args, a)
    if args.method == "companion":
        result = rep.paper.power(z)
    else:
        result = evaluate_flow(rep, z)
        cond = rep.evaluation_condition(z)
        if cond > _COND_WARN:
            print(f"warning: evaluation condition estimate {cond:.3e}", file=sys.stderr)
    write_matrix(result, sys.stdout)
    return 0


def cmd_analyze(args) -> int:
    paper = _build(args, read_matrix(args.matrix)).paper
    form = paper.high_precision or paper
    report = _representation_report(form)
    report["relation_residual"] = form.relation_residual
    _print_report(report, args.json, sys.stdout)
    return 0


def cmd_formula(args) -> int:
    if args.matrix:
        paper = _build(args, read_matrix(args.matrix)).paper
    elif args.relation is not None:
        q = parse_relation(args.relation)
        paper = CompanionFlow(q, _branch_offsets(args)).representation
    else:
        raise MatrixParseError("formula needs --relation or a matrix file")
    form = paper.high_precision or paper
    report = _representation_report(form)
    report["mu_terms"] = []
    for row in np.asarray(form.coeffs.e):  # mu_i(z) = sum_j e_ij f_j(z)
        terms = zip(row, report["basis"])
        text = [f"({format_complex(e)})*{f}" for e, f in terms if e or not args.skip_zero]
        report["mu_terms"].append(text or ["0"])
    if args.at is not None:
        mu = paper.mu(parse_complex(args.at))
        report["mu_at"] = {"z": args.at, "values": [[v.real, v.imag] for v in mu]}
    _print_report(report, args.json, sys.stdout)
    return 0


def cmd_verify(args) -> int:
    a = read_matrix(args.matrix)
    rep = _build(args, a)

    # exponents uniform on the square inscribed in |z| <= z_radius
    rng, half = random.Random(args.seed), args.z_radius / math.sqrt(2)
    parts = [half * rng.uniform(-1, 1) for _ in range(4 * args.samples)]
    zs = [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]
    pairs = list(zip(zs[::2], zs[1::2]))

    # the paper's sums first: --method both exits with that form's own errors
    sums = {z: rep.paper.power(z) for z in _CROSS_ZS} if args.method == "both" else {}
    results = {"flow_axioms": check_flow_axioms(rep, a, pairs).max_residual}
    integer_max = 0.0
    for k in range(-3, 6):
        target = power_int(a, k)
        denom = max(1.0, max_norm(target))
        integer_max = max(integer_max, max_norm(evaluate_flow(rep, k) - target) / denom)
    results["integer_consistency"] = integer_max

    ok = all(v <= RESIDUAL_LIMIT for v in results.values())
    if sums:
        flows = {z: evaluate_flow(rep, z) for z in sums}
        gaps = [max_norm(sums[z] - f) / max(1.0, max_norm(f)) for z, f in flows.items()]
        results["cross_agreement"] = max(gaps)
    if args.json:
        json.dump({"residuals": results, "pass": ok}, sys.stdout)
        sys.stdout.write("\n")
    else:
        for key, value in results.items():
            print(f"{key}: max residual {value:.3e}")
        print("verify: PASS" if ok else "verify: FAIL")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cflow",
        description="Compute one-parameter flows A^z of invertible complex matrices.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("pow", help="compute A^z and print it as a matrix document")
    sp.add_argument("matrix", help="matrix file (JSON document)")
    sp.add_argument("--z", required=True, help="exponent, a complex literal")
    sp.add_argument("--method", choices=["vandermonde", "companion"], default="vandermonde")
    _add_common(sp)
    sp.set_defaults(func=cmd_pow)

    sp = subs.add_parser("analyze", help="report the flow representation")
    sp.add_argument("matrix")
    _add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = subs.add_parser("verify", help="check the flow axioms and integer powers")
    sp.add_argument("matrix")
    sp.add_argument("--method", choices=["vandermonde", "both"], default="both")
    sp.add_argument("--samples", type=_count, default=20)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--z-radius", type=_radius, default=3.0)
    _add_common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = subs.add_parser("formula", help="emit the coefficient functions mu_i(z)")
    sp.add_argument("matrix", nargs="?", default=None)
    sp.add_argument("--at", default=None, help="also evaluate mu at this z")
    sp.add_argument("--skip-zero", action="store_true", help="elide zero coefficients")
    _add_common(sp)
    sp.set_defaults(func=cmd_formula)

    for sp in map(subs.choices.get, ("analyze", "verify", "formula")):  # pow always prints JSON
        sp.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A cflow warning as the CLI's own ``warning:`` line, without the source
    location the default display adds.  Other warnings, such as numpy's
    ``overflow encountered in dot``, name an operation, not the input, and
    are not shown."""
    if issubclass(category, ConditioningWarning):
        print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except CFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))


if __name__ == "__main__":
    sys.exit(main())
