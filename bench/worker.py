"""Run one benchmark workload in this (fresh, single-threaded) process.

Invoked by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  Prints one JSON object with the scaled samples and counters; the
summary statistics are computed by ``run.py``.

The load is a closed loop: each call starts after the previous one returns.
A *pass* runs every in-process operation of the workload once, on inputs
fixed by the seed.  Passes repeat while the next one is expected to end
within the time given to them (at least one pass always runs).  Operations
are timed in CPU time and scaled to the reference speed of ``clock.py``.
Results are checked after they are timed, against Jordan-oracle references
computed before the timed loop (many_z checks every tenth exponent against
the oracle and the rest for finiteness).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cflow
import cflow.cli
import cflow.highprec  # the mpmath tier's lazy import is done before timing
from cflow.errors import ConditioningWarning

import clock
import cold
import inputs
from spans import Tracer

FAIL_TOL = 1e-7  # relative error above which a result counts as failed
# The test suite covers n <= 8.  A silent wrong answer there (a result
# returned as valid that is non-finite or misses FAIL_TOL) makes a run
# incorrect; beyond it the supported envelope is not defined yet, so wrong
# answers are counted as failures only.  An operation that signals failure
# (raises, exits non-zero) is always just a counted failure.
ENVELOPE_DIM = 8
MANY_Z_CHECK_EVERY = 10  # many_z checks this sample of its z grid against the oracle
# A many_z matrix in the mpmath tier (about one n=8 matrix in twenty-five)
# takes 10 to 25 ms per exponent, so it is evaluated at every fiftieth
# exponent only, all of them checked against the oracle.  Otherwise one such
# matrix would take 10 to 25 s, and a run would hold a single pass.
TIER_Z_STEP = 50
# Ladder latencies are sampled from n >= 16, where every seed enters the
# mpmath tier.  At n = 12 about half the matrices enter it (a build of 10 ms
# or 300 ms), which would make a median over all sizes bimodal across seeds;
# the n = 12 matrices still run and are checked.
LADDER_TIMED_MIN_N = 16
# Share of the run spent on passes; the rest goes to cold command lines.
PASS_SHARE = 0.6
MIN_COLD_SAMPLES = 6  # cold pow (and verify) calls per run, at the least
UNIPOTENT = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128)
UNIPOTENT_ROOT = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=np.complex128)
KINDS = ("build", "eval", "companion", "block", "cli_pow", "cli_verify")


class ReferenceUnavailable(RuntimeError):
    """A reference value could not be computed; the run is invalid."""


def rel_err(x: np.ndarray, ref: np.ndarray) -> float:
    """Max-norm error relative to ``max(1, |ref|)``."""
    return float(np.max(np.abs(x - ref))) / max(1.0, float(np.max(np.abs(ref))))


def format_z(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


@dataclass
class Item:
    """One matrix of a workload, with its exponents and their references."""

    label: str
    matrix: np.ndarray
    zs: list
    refs: dict  # index into zs -> reference A^z
    stratum: tuple  # (n, whether it has a Jordan block of size > 1)
    companion_z: int | None = None  # index of the z the companion route is timed at
    timed: bool = True  # whether build and evaluation latencies are sampled
    tier_step: int = 1  # exponent stride when the representation is in the mpmath tier


@dataclass
class Record:
    # kind -> scaled seconds, one entry per operation per pass (or command-line call)
    samples: dict = field(default_factory=lambda: {k: [] for k in KINDS})
    raw: dict = field(default_factory=lambda: {k: [] for k in KINDS})  # unscaled CPU seconds
    strata: dict = field(default_factory=lambda: {k: [] for k in KINDS})  # Item.stratum of each sample
    block_zs: list = field(default_factory=list)  # exponents of each "block" sample
    passes: int = 0
    traced_passes: int = 0
    pass_s: list = field(default_factory=list)  # scaled operation time of each pass
    pass_traced: list = field(default_factory=list)
    rss_first_pass_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong_in_envelope: int = 0
    err_max: float = 0.0
    checks_passed: int = 0
    failures: list = field(default_factory=list)
    warnings: int = 0
    high_precision_dps: list = field(default_factory=list)
    builds_seen: int = 0

    def ok(self) -> None:
        self.attempted += 1

    def failure(self, label: str, dim: int, why: str, silent: bool) -> None:
        """Count one failed operation; ``silent`` when it returned as valid."""
        self.attempted += 1
        self.failed += 1
        if silent and dim <= ENVELOPE_DIM:
            self.wrong_in_envelope += 1
        if len(self.failures) < 20 and not any(f.startswith(label + ":") for f in self.failures):
            self.failures.append(f"{label}: {why}")

    def returned(self, label: str, dim: int, value, ref=None) -> None:
        """Count one operation that returned ``value``, checked against ``ref``."""
        if not np.all(np.isfinite(value)):
            self.failure(label, dim, "non-finite result", silent=True)
            return
        if ref is not None:
            err = rel_err(value, ref)
            if err > FAIL_TOL:
                self.failure(label, dim, f"relative error {err:.2e} against the reference", silent=True)
                return
            self.err_max = max(self.err_max, err)
            self.checks_passed += 1
        self.ok()

    def add_pass(self, timings: list, traced: bool) -> None:
        """File one pass's flushed ``((kind, key, stratum), scaled, raw)``
        timings; those without a stratum count in the pass time only.

        A block is one matrix's build with its evaluations."""
        blocks = {}
        for (kind, key, stratum), scaled, raw in timings:
            if stratum is None:
                continue
            self.samples[kind].append(scaled)
            self.raw[kind].append(raw)
            self.strata[kind].append(stratum)
            if kind in ("build", "eval"):
                block = blocks.setdefault(key, [0.0, 0, stratum])
                block[0] += scaled
                block[1] += kind == "eval"
        for seconds, zs, stratum in blocks.values():
            self.samples["block"].append(seconds)
            self.block_zs.append(zs)
            self.strata["block"].append(stratum)
        self.pass_s.append(sum(scaled for _, scaled, _ in timings))
        self.pass_traced.append(traced)
        self.passes += 1
        self.traced_passes += traced


def oracle(case: inputs.Case, z: complex) -> np.ndarray:
    try:
        ref = cflow.jordan_oracle(list(case.blocks), case.transform, z)
    except Exception as exc:  # any failure here invalidates the whole run
        raise ReferenceUnavailable(f"jordan_oracle failed for {case.label} at z={z}: {exc!r}") from exc
    if not np.all(np.isfinite(ref)):
        raise ReferenceUnavailable(f"jordan_oracle is not finite for {case.label} at z={z}")
    return ref


def make_item(
    case: inputs.Case,
    zs: list,
    check_every: int = 1,
    companion: bool = True,
    timed: bool = True,
    tier_step: int = 1,
) -> Item:
    refs = {i: oracle(case, z) for i, z in enumerate(zs) if i % check_every == 0}
    stratum = (case.matrix.shape[0], max(size for _, size in case.blocks) > 1)
    return Item(case.label, case.matrix, zs, refs, stratum, 0 if companion else None, timed, tier_step)


# --- workload inputs --------------------------------------------------------


def suite_items(seed: int, smoke: bool) -> list:
    cases = inputs.suite_cases(seed, 3 if smoke else inputs.SUITE_BATCHES * inputs.SUITE_SIZE)
    zrng = np.random.default_rng([seed, 1])
    return [make_item(c, inputs.suite_zs(zrng)) for c in cases]


def many_z_items(seed: int, smoke: bool) -> list:
    cases = inputs.many_z_cases(seed, 1 if smoke else inputs.MANY_Z_MATRICES)
    zrng = np.random.default_rng([seed, 2])
    count = 50 if smoke else inputs.MANY_Z_COUNT
    return [
        make_item(c, inputs.z_grid(zrng, count), MANY_Z_CHECK_EVERY, tier_step=TIER_Z_STEP)
        for c in cases
    ]


def ladder_items(seed: int, smoke: bool) -> list:
    sizes = inputs.LADDER_SIZES[:1] if smoke else inputs.LADDER_SIZES
    zrng = np.random.default_rng([seed, 3])
    smallest = min(sizes)
    items = []
    for c in inputs.ladder_cases(seed, sizes):
        n = c.matrix.shape[0]
        zs = inputs.suite_zs(zrng, inputs.LADDER_Z_COUNT)
        # The companion route runs at the smallest size only: at n >= 16 it
        # takes seconds per call in the mpmath tier.
        timed = smoke or n >= LADDER_TIMED_MIN_N
        items.append(make_item(c, zs, companion=n == smallest, timed=timed))
    return items


def cli_items(seed: int, smoke: bool) -> list:
    """n=8 suite matrices, the first ``CLI_MATRICES`` of which the command
    line runs on, then the unipotent ``[[1, 1], [0, 1]]`` (run and checked,
    not timed), then the rest of the matrices timed in process."""
    files = 1 if smoke else inputs.CLI_MATRICES
    cases = inputs.many_z_cases(seed, files if smoke else inputs.CLI_IN_PROCESS)
    zrng = np.random.default_rng([seed, 4])
    items = [make_item(c, inputs.suite_zs(zrng)) for c in cases]
    return items[:files] + [unipotent_item()] + items[files:]


def unipotent_item() -> Item:
    return Item("cli unipotent n=2", UNIPOTENT, [0.5], {0: UNIPOTENT_ROOT}, (2, True), 0, timed=False)


ITEMS = {"suite": suite_items, "many_z": many_z_items, "ladder": ladder_items, "cli": cli_items}


# --- in-process operations --------------------------------------------------


def run_item(key: int, item: Item, rec: Record, clk: clock.Clock) -> None:
    """Build once, evaluate the exponents, and time the companion route once."""
    dim = item.matrix.shape[0]
    t = clk.start()
    try:
        rep = cflow.build_flow(item.matrix)
    except Exception as exc:  # a failed build is a counted failure, not a crash
        rec.failure(f"{item.label} build", dim, f"raised {exc!r}", silent=False)
        for _ in item.zs:
            rec.failure(f"{item.label} evaluate", dim, "no representation", silent=False)
        return
    stratum = item.stratum if item.timed else None
    clk.stop(("build", key, stratum), t)
    step = item.tier_step if rep.high_precision is not None else 1
    evals = {}
    for i in range(0, len(item.zs), step):
        t = clk.start()
        try:
            evals[i] = cflow.evaluate_flow(rep, item.zs[i])
        except Exception as exc:
            evals[i] = exc
        clk.stop(("eval", key, stratum), t)
    rec.ok()
    rec.builds_seen += 1
    if rep.high_precision is not None:
        rec.high_precision_dps.append(rep.high_precision.dps)
    for i, value in evals.items():
        label = f"{item.label} evaluate"
        if isinstance(value, Exception):
            rec.failure(label, dim, f"raised {value!r}", silent=False)
        else:
            rec.returned(label, dim, value, item.refs.get(i))
    if item.companion_z is None:
        return
    z = item.zs[item.companion_z]
    t = clk.start()
    try:
        value = cflow.evaluate_companion_flow(item.matrix, rep.relation, z)
    except Exception as exc:
        rec.failure(f"{item.label} companion", dim, f"raised {exc!r}", silent=False)
        return
    clk.stop(("companion", key, item.stratum), t)
    rec.returned(f"{item.label} companion", dim, value, item.refs[item.companion_z])


def run_pass(items: list, rec: Record, clk: clock.Clock, warm_cli: list, tracer=None) -> None:
    """One pass; with ``tracer`` installed for its duration when given."""
    with tracer or contextlib.nullcontext(), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ConditioningWarning)
        for key, item in enumerate(items):
            run_item(key, item, rec, clk)
        for call in warm_cli:
            t = clk.start()
            call.run_warm(rec)
            clk.stop(("warm_cli", None, None), t)
    rec.warnings += sum(issubclass(w.category, ConditioningWarning) for w in caught)
    rec.add_pass(clk.flush(), tracer is not None)
    if rec.passes == 1:
        # Peak memory of the workload itself, before the sample lists grow
        # with the number of passes.
        rec.rss_first_pass_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(items: list, rec: Record, clk, seconds: float, warm_cli: list, tracer=None) -> None:
    """Passes while the next is expected to end by the deadline.

    With ``tracer``, passes alternate untraced and traced in pairs, in the
    order untraced-traced, traced-untraced, and so on, and end on a whole
    pair, so each pair's ratio sees the same host state."""
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        start = time.perf_counter()
        traced = tracer is not None and n % 4 in (1, 2)
        run_pass(items, rec, clk, warm_cli, tracer if traced else None)
        n += 1
        if tracer is not None and n % 2:
            continue
        if time.perf_counter() + (time.perf_counter() - start) > deadline:
            return


# --- the command line -------------------------------------------------------


@dataclass
class CliCall:
    """One ``cflow`` command line with the check of its output."""

    kind: str  # "pow" or "verify"
    label: str
    args: list
    dim: int
    ref: np.ndarray | None = None

    def check(self, rec: Record, code: int, out: str) -> None:
        label = f"{self.label} {self.kind}"
        if code != 0:
            rec.failure(label, self.dim, f"exit code {code}", silent=False)
            return
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            rec.failure(label, self.dim, f"invalid JSON: {exc}", silent=True)
            return
        if self.kind == "pow":
            try:
                value = np.array(
                    [[complex(re, im) for re, im in row] for row in doc["entries"]],
                    dtype=np.complex128,
                )
            except (KeyError, TypeError, ValueError) as exc:
                rec.failure(label, self.dim, f"malformed matrix document: {exc!r}", silent=True)
                return
            if value.shape != self.ref.shape:
                rec.failure(label, self.dim, f"shape {value.shape}, not {self.ref.shape}", silent=True)
                return
            rec.returned(label, self.dim, value, self.ref)
            return
        residuals = list(doc.get("residuals", {}).values()) if isinstance(doc, dict) else []
        if not residuals or doc.get("pass") is not True:
            rec.failure(label, self.dim, f"verify reported {doc!r}", silent=True)
        elif not all(isinstance(r, float) and r <= FAIL_TOL for r in residuals):
            rec.failure(label, self.dim, f"residuals {residuals} above {FAIL_TOL:g}", silent=True)
        else:
            rec.ok()

    def run_cold(self, rec: Record, root: Path) -> None:
        """A fresh ``python -m cflow``, timed from inside by ``cold.py``."""
        proc = subprocess.run(
            [sys.executable, cold.__file__, "cli", *self.args],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
        )
        scaled, raw = cold.parse(proc.stderr)
        rec.samples[f"cli_{self.kind}"].append(scaled)
        rec.raw[f"cli_{self.kind}"].append(raw)
        self.check(rec, proc.returncode, proc.stdout)

    def run_warm(self, rec: Record) -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cflow.cli.main(self.args)
        self.check(rec, code, out.getvalue())


def run_cold_rounds(calls: list, rec: Record, root: Path, seconds: float) -> None:
    """Rounds of every cold call while the next is expected to end in time,
    and until each kind of call has ``MIN_COLD_SAMPLES`` samples."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        for call in calls:
            call.run_cold(rec, root)
        enough = len(rec.samples["cli_pow"]) >= MIN_COLD_SAMPLES
        if enough and time.perf_counter() + (time.perf_counter() - start) > deadline:
            return


def write_matrix(path: Path, a: np.ndarray) -> None:
    """Matrix file in the documented format, written without ``cflow.matfile``
    so that a fault in the program's writer cannot hide one in its reader."""
    entries = [[[float(v.real), float(v.imag)] for v in row] for row in a]
    path.write_text(json.dumps({"n": a.shape[0], "entries": entries}) + "\n")


def cli_calls(items: list, workdir: Path) -> list:
    """``pow`` at the first exponent and ``verify`` on each item up to the
    unipotent one."""
    end = next(k for k, item in enumerate(items) if item.matrix is UNIPOTENT)
    calls = []
    for k, item in enumerate(items[: end + 1]):
        path = workdir / f"matrix{k}.json"
        write_matrix(path, item.matrix)
        dim = item.matrix.shape[0]
        calls.append(
            CliCall("pow", item.label, ["pow", str(path), f"--z={format_z(item.zs[0])}"], dim, item.refs[0])
        )
        calls.append(CliCall("verify", item.label, ["verify", str(path), "--json"], dim))
    return calls


# --- main -------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(ITEMS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest inputs")
    parser.add_argument("--root", type=Path, required=True, help="checkout root")
    args = parser.parse_args()

    try:
        items = ITEMS[args.workload](args.seed, args.smoke)
    except ReferenceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    workdir = args.root / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, items, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, items: list, workdir: Path) -> int:
    is_cli = args.workload == "cli"
    # Every workload reports the cold command-line metrics.  The in-process
    # workloads measure them on the unipotent matrix only: a seed's n=8
    # matrix can be in the mpmath tier, where verify takes five times as
    # long, and a median over two files would follow it.
    calls = cli_calls(items if is_cli else [unipotent_item()], workdir)
    # Warm in-process command lines run only in the traced run of the cli
    # workload, where they give the matfile and cli layers their spans.
    warm_cli = calls if is_cli and args.trace else []
    rec = Record()
    clk = clock.Clock()
    result = {}
    if args.trace:
        tracer = Tracer()
        run_passes(items, rec, clk, args.seconds, warm_cli, tracer)
        # Spans are timed in wall time; they are scaled like the operations,
        # by the run's median slowness.
        scale = 1.0 / statistics.median(clk.calibrations)
        result["spans"] = {
            name: {"calls": s.calls, "total_s": s.total_s * scale, "self_s": s.self_s * scale}
            for name, s in tracer.stats.items()
        }
    else:
        run_passes(items, rec, clk, PASS_SHARE * args.seconds, warm_cli)
        run_cold_rounds(calls, rec, args.root, (1 - PASS_SHARE) * args.seconds)
    result.update(rec.__dict__)
    result["slowness"] = statistics.median(clk.calibrations)
    result["inputs"] = {
        "matrices": len(items),
        "exponents": sum(len(it.zs) for it in items),
        "checked_against_oracle": sum(len(it.refs) for it in items),
        "largest_n": max(it.matrix.shape[0] for it in items),
    }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
