"""Entry point of the dlagraph benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It starts bench/worker.py in a fresh
interpreter that imports the checkout's src/dlagraph, with BLAS and OpenMP
pinned to one thread (the executor is single-threaded by contract), waits
for it, and relays its output. The last line printed is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Exits 2 without a result
when the checkout has no src/dlagraph.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("static-catalog", "toy-train", "toy-gradcheck")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MAX_SECONDS = 60
# The timed loops stop after loop_limit_s(seconds) in any case, even when
# the tail percentile has too few samples beyond it yet; the worker says so.
# Set-up, set-up samples and the traced set-up get SETUP_ALLOWANCE_S on
# top. At MAX_SECONDS the worker's limit stays under 180 s.
SETUP_ALLOWANCE_S = 45


def loop_limit_s(seconds: float) -> float:
    return seconds + max(seconds, 30.0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one dlagraph benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error("--seconds must be in (0, %d]" % MAX_SECONDS)
    timeout = loop_limit_s(args.seconds) + SETUP_ALLOWANCE_S

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "dlagraph", "__init__.py")):
        print("bench: no src/dlagraph under %s; run from the root of a checkout"
              % os.getcwd(), file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print("bench: worker did not finish within %.0f s" % timeout, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("bench: worker exited with %d" % proc.returncode, file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
