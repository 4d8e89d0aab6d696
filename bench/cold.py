"""One fresh interpreter, timed from inside: ``import cflow`` or one command line.

    python3 bench/cold.py import
    python3 bench/cold.py cli pow matrix.json --z=0.5

``cli`` runs ``cflow`` as ``python -m cflow`` does, through ``runpy``, and
exits with its exit code.  Around the work the interpreter times a fixed
Python loop three times before and three times after, and its last line of
standard error is ``cold-cpu: <scaled> <raw>``.  Raw is this process's CPU
time, from its start (interpreter start-up included) to the end of the
work, less the loops; scaled is raw times ``PYTHON_REF_S`` over the loops'
median.  A fresh interpreter mostly runs Python bytecode, and on a shared
host its speed follows that of the loop run in the same process far more
closely than that of a loop run by its parent (see ``clock.py``).
"""

import runpy
import sys
import time

# The loop's time on a quiet 2-vCPU x86-64 virtual machine (Python 3.11).
PYTHON_REF_S = 1.5e-3
LOOPS = 3


def python_loop() -> None:
    s = 0
    for i in range(20000):
        s += i * i % 7


def loop_times() -> list:
    times = []
    for _ in range(LOOPS):
        start = time.process_time()
        python_loop()
        times.append(time.process_time() - start)
    return times


def parse(stderr: str) -> tuple:
    """``(scaled, raw)`` CPU seconds from the last timing line in ``stderr``."""
    for line in reversed(stderr.splitlines()):
        if line.startswith("cold-cpu: "):
            scaled, raw = line.split()[1:]
            return float(scaled), float(raw)
    raise RuntimeError(f"no timing from a cold interpreter:\n{stderr[-2000:]}")


def main() -> int:
    del sys.path[0]  # the benchmark's directory: import only what the program would
    what, args = sys.argv[1], sys.argv[2:]
    loops = loop_times()
    code = 0
    try:
        if what == "import":
            import cflow  # noqa: F401
        else:
            sys.argv = ["cflow", *args]
            try:
                runpy.run_module("cflow", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    finally:
        raw = time.process_time() - sum(loops)
        loops = sorted(loops + loop_times())
        speed = (loops[LOOPS - 1] + loops[LOOPS]) / 2
        sys.stdout.flush()
        sys.stderr.write(f"\ncold-cpu: {raw * PYTHON_REF_S / speed!r} {raw!r}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
