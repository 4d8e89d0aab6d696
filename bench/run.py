"""cflow benchmark: one workload, one run, one JSON result line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload suite --seed 0 --seconds 10 --trace 0

The program is imported from the checkout's ``src`` in fresh child
processes; nothing is installed.  Set-up (``setup_s``) is the median CPU
time of a fresh interpreter that imports ``cflow``.  The workload then runs in one
worker process with BLAS and OpenMP pinned to one thread; the worker runs
the command-line children one at a time, so at most two of our processes
compute at once.  With ``--trace 0`` the last line of standard output
carries the end-to-end metrics; with ``--trace 1`` the per-layer metrics of
a traced run.  The line before it holds the details: sample counts,
ungated latencies, unscaled CPU times, accuracy, failures, versions and
``nproc``.

Times are CPU times scaled to a reference speed of the host (see
``clock.py``): the machines this runs on change speed by up to half within
seconds, and the scaling takes that out.  Latencies and rates are medians
over every operation of every pass.

``failed`` counts operations that raised, exited non-zero, returned
non-finite values or missed the reference by more than 1e-7.  ``correct``
is false when a result returned as valid was wrong for a matrix of the
tested size range (n <= 8); failures beyond it are counted, not judged.
A reference that cannot be computed aborts the run with a non-zero exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import cold

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER_TIMEOUT_S = 165
SETUP_IMPORTS = 7  # timed fresh imports; the median is setup_s
IMPORTTIME_RUNS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
VERSIONS = (
    "import json, sys, numpy, scipy, mpmath; "
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__, "
    "'scipy': scipy.__version__, 'mpmath': mpmath.__version__}))"
)
WORKLOADS = ("suite", "many_z", "ladder", "cli")
# Functions whose per-call self time and per-pass call count are reported.
SPAN_METRICS = {
    "annihilator.minimal_polynomial": ("ms", True),
    "annihilator.find_roots": ("ms", True),
    "annihilator.cluster_roots": ("ms", False),
    "annihilator.validate_relation": ("ms", False),
    "basis.vandermonde_matrix": ("ms", False),
    "basis.invert_vandermonde": ("ms", False),
    "basis.eval_basis_extended": ("us", True),
    "numeric.extended_inverse": ("ms", False),
    "numeric.lu_factor": ("ms", False),
    "flow.build_flow": ("ms", False),
    "flow.evaluate_flow": ("us", False),
    "flow.CompanionFlow.mu": ("us", False),
    "highprec.HighPrecisionFlow.init": ("ms", False),
    "highprec.HighPrecisionFlow.evaluate": ("ms", False),
    "highprec.HighPrecisionFlow.mu_mp": ("ms", False),
    "highprec.HighPrecisionFlow.contract_mu": ("ms", False),
    "highprec.HighPrecisionFlow.companion_mu_mp": ("ms", False),
    "matfile.read_matrix": ("ms", False),
    "matfile.matrix_document": ("ms", False),
    "cli.main": ("ms", False),
}
SCALE = {"ms": 1e3, "us": 1e6}
P90_MIN_SAMPLES = 100  # a p90 needs ten samples beyond it


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list, timeout: float, env: dict) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the group and wait."""
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def measure_setup(env: dict) -> list:
    """Scaled CPU times of fresh interpreters that ``import cflow``, timed by
    ``cold.py``, after one untimed warm-up."""
    times = []
    for i in range(SETUP_IMPORTS + 1):
        proc = run_child([sys.executable, cold.__file__, "import"], 60, env)
        if proc.returncode != 0:
            raise RuntimeError(f"import cflow failed:\n{proc.stderr}")
        if i:
            times.append(cold.parse(proc.stderr)[0])
    return times


def measure_import_breakdown(env: dict) -> dict:
    """Import cost of numpy and scipy (cumulative, as pulled in by ``import
    cflow``) and of cflow's own modules (self time), from ``python -X
    importtime``; medians over a few fresh interpreters."""
    runs = {"numpy": [], "scipy": [], "cflow": []}
    line = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (.*)$")
    for _ in range(IMPORTTIME_RUNS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import cflow"], 60, env)
        if proc.returncode != 0:
            raise RuntimeError(f"import cflow failed:\n{proc.stderr}")
        rows = []  # (package, depth, self_s, cumulative_s)
        for text in proc.stderr.splitlines():
            m = line.match(text)
            if m:
                name = m.group(3)
                depth = len(name) - len(name.lstrip())
                top = name.strip().split(".")[0]
                rows.append((top, depth, int(m.group(1)) * 1e-6, int(m.group(2)) * 1e-6))
        runs["cflow"].append(sum(own for top, _, own, _ in rows if top == "cflow"))
        for package in ("numpy", "scipy"):
            mine = [(depth, cum) for top, depth, _, cum in rows if top == package]
            outer = min(depth for depth, _ in mine)
            runs[package].append(sum(cum for depth, cum in mine if depth == outer))
    return {key: statistics.median(values) for key, values in runs.items()}


def end_to_end(result: dict, setup: list) -> dict:
    s = result["samples"]
    strata = result["strata"]
    # Rates are medians over blocks (one block: a build and its exponents),
    # so one slow matrix moves them no more than it moves a median latency.
    blocks = list(zip(s["block"], result["block_zs"]))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "build_ms.p50": (balanced_median(s["build"], strata["build"], 1e3), "ms"),
        "eval_us.p50": (balanced_median(s["eval"], strata["eval"], 1e6), "us"),
        "flows_per_s": (balanced_median([1.0 / t for t, _ in blocks], strata["block"]), "1/s"),
        "zs_per_s": (balanced_median([zs / t for t, zs in blocks], strata["block"]), "1/s"),
        "cli_pow_s.p50": (median(s["cli_pow"]), "s"),
        "cli_verify_s.p50": (median(s["cli_verify"]), "s"),
        "rss_peak_mb": (result["rss_first_pass_mb"], "MB"),
    }


def median(values: list, scale: float = 1.0) -> float | None:
    return statistics.median(values) * scale if values else None


def balanced_median(values: list, strata: list, scale: float = 1.0) -> float | None:
    """Weighted median in which every dimension ``n`` weighs the same and,
    within one, distinct-spectrum and defective matrices weigh the same.

    That is the suite generator's own mix (``n`` uniform, a Jordan block
    with probability one half), so the figure does not follow how many
    matrices of each kind a seed happened to draw.  ``strata`` holds each
    sample's ``(n, defective)``.
    """
    if not values:
        return None
    strata = [tuple(k) for k in strata]
    count = Counter(strata)
    kinds = Counter(n for n, _ in count)  # stratum kinds present per n
    weights = [1.0 / (len(kinds) * kinds[k[0]] * count[k]) for k in strata]
    pairs = sorted(zip(values, weights))
    half = sum(weights) / 2
    total = 0.0
    for i, (value, weight) in enumerate(pairs):
        total += weight
        if math.isclose(total, half) and i + 1 < len(pairs):
            # Half the weight on each side, as with an even count of samples.
            return (value + pairs[i + 1][0]) / 2 * scale
        if total >= half:
            return value * scale


def p90(values: list, scale: float) -> float | None:
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[8] * scale


def ungated(s: dict) -> dict:
    """Latencies reported with the details but not as metrics: across seeds
    the 90th percentiles, and the companion route on the ladder (in the
    mpmath tier for some seeds only), measure which matrices were drawn more
    than the program."""
    return {
        "build_ms.p90": p90(s["build"], 1e3),
        "eval_us.p90": p90(s["eval"], 1e6),
        "companion_ms.p50": median(s["companion"], 1e3),
    }


def per_layer(result: dict, imports: dict) -> dict:
    passes = result["traced_passes"]
    spans = result["spans"]
    metrics = {}
    for name, (unit, with_calls) in SPAN_METRICS.items():
        span = spans.get(name, {"calls": 0, "self_s": 0.0})
        per_call = span["self_s"] / span["calls"] if span["calls"] else 0.0
        metrics[f"{name}.self_{unit}"] = (per_call * SCALE[unit], unit)
        if with_calls:
            metrics[f"{name}.calls"] = (span["calls"] / passes, "calls/pass")
    init = spans.get("flow.CompanionFlow.init", {"calls": 0, "total_s": 0.0})
    metrics["flow.CompanionFlow.init_ms"] = (
        init["total_s"] / init["calls"] * 1e3 if init["calls"] else 0.0,
        "ms",
    )
    metrics["basis.conditioning_warnings"] = (result["warnings"] / result["passes"], "count/pass")
    dps = result["high_precision_dps"]
    metrics["flow.high_precision.share"] = (
        len(dps) / result["builds_seen"] if result["builds_seen"] else 0.0,
        "fraction",
    )
    metrics["flow.high_precision.dps_mean"] = (float(statistics.mean(dps)) if dps else 0.0, "digits")
    metrics["import.numpy_s"] = (imports["numpy"], "s")
    metrics["import.scipy_s"] = (imports["scipy"], "s")
    metrics["import.cflow_self_s"] = (imports["cflow"], "s")
    # Passes alternate untraced and traced in pairs; the median of the
    # pairs' ratios leaves out what changed between pairs.
    times = list(zip(result["pass_s"], result["pass_traced"]))
    ratios = []
    for (a, a_traced), (b, _) in zip(times[::2], times[1::2]):
        ratios.append(a / b if a_traced else b / a)
    metrics["trace.overhead"] = (statistics.median(ratios) - 1.0, "fraction")
    metrics["err_max"] = (result["err_max"], "1")
    metrics["fail_frac"] = (result["failed"] / result["attempted"], "fraction")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest inputs (self-test)")
    args = parser.parse_args()

    if not (ROOT / "src" / "cflow" / "__init__.py").is_file():
        print(f"error: no cflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = child_env()
    started = time.perf_counter()
    try:
        setup = measure_setup(env)
        imports = measure_import_breakdown(env) if args.trace else None
        versions = json.loads(run_child([sys.executable, "-c", VERSIONS], 60, env).stdout)
        worker = run_child(
            [
                sys.executable,
                str(BENCH / "worker.py"),
                f"--workload={args.workload}",
                f"--seed={args.seed}",
                f"--seconds={args.seconds}",
                f"--trace={args.trace}",
                f"--root={ROOT}",
                *(["--smoke"] if args.smoke else []),
            ],
            WORKER_TIMEOUT_S,
            env,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stderr.write(worker.stderr)
    if worker.returncode != 0:
        print(f"error: worker exited with code {worker.returncode}", file=sys.stderr)
        return 1
    result = json.loads(worker.stdout)
    samples = result["samples"]
    metrics = per_layer(result, imports) if args.trace else end_to_end(result, setup)
    missing = [name for name, (value, _) in metrics.items() if value is None]
    if missing:
        print(f"error: no samples for {', '.join(missing)}", file=sys.stderr)
        return 1
    correct = result["wrong_in_envelope"] == 0
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "versions": versions,
        "wall_s": time.perf_counter() - started,
        "passes": result["passes"],
        "samples": {k: len(v) for k, v in samples.items()},
        "ungated": ungated(samples),
        "setup_samples_s": setup,
        "unscaled_cpu": {
            "build_ms.p50": median(result["raw"]["build"], 1e3),
            "eval_us.p50": median(result["raw"]["eval"], 1e6),
            "cli_pow_s.p50": median(result["raw"]["cli_pow"]),
            "cli_verify_s.p50": median(result["raw"]["cli_verify"]),
        },
        "slowness": result["slowness"],
        "err_max": result["err_max"],
        "checks_passed": result["checks_passed"],
        "fail_frac": result["failed"] / max(1, result["attempted"]),
        "failures": result["failures"],
        "inputs": result["inputs"],
    }
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
