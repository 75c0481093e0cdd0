"""One benchmark run of one workload, in its own process (see run.py).

Set-up is import (timed from the first line of this file) plus graph
build, init_params, data and one warm-up pass per case. The timed loop
runs whole rounds over the cases until ``--seconds`` have passed and the
tail percentile has at least ten samples beyond it, or until
run.loop_limit_s(seconds). Every op's observed output is compared with
refs.json.

The host's speed drifts over tens of seconds, so one set-up at the start
would see the host at another speed than the loop does. ``setup_s`` is
therefore the median import time plus the median set-up time of
SETUP_SAMPLES samples taken at even points of the untraced loop (their
time is not counted as loop time); each import sample is a fresh
interpreter that runs this file's imports and exits.

The host's speed also differs from run to run. Every HOST_SAMPLE_EVERY_S
of loop time the loop times hostspeed's reference work, off its clock,
and the end-to-end times are scaled by hostspeed.REFERENCE_NS over that
work's mean time in the run. The record line keeps the unscaled values.

With ``--trace 1`` the loop runs twice for half the time each: untraced,
then with the tracer's wrappers installed, after one traced set-up. The
last line printed is the result object; the line before it records the
environment and the sample counts.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from run import loop_limit_s  # noqa: E402

IMPORT_S = time.perf_counter() - START

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
HOST_SAMPLE_EVERY_S = 0.25
IMPORT_TIME_ARG = "--import-time"
# Fixed per workload so the metric means the same thing on every commit;
# runs are extended until at least ten samples lie beyond it.
TAIL_PERCENTILE = {"static-catalog": 95, "toy-train": 95, "toy-gradcheck": 90}


class Phase:
    """What one timed loop saw."""

    def __init__(self, n_cases: int):
        self.latencies_ns: list[int] = []
        self.case_latencies_ns: list[list[int]] = [[] for _ in range(n_cases)]
        self.busy_ns = 0
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.cut_short = False
        self.reference_ns: list[int] = []

    def throughput(self) -> float:
        return self.work / (self.busy_ns / 1e9)

    def host_scale(self) -> float:
        """Reference time over this loop's mean time of hostspeed's
        reference work: below 1 when the host ran slower than the
        reference host, so scaled times are lower than measured ones."""
        return hostspeed.REFERENCE_NS / statistics.fmean(self.reference_ns)


class SetupSampler:
    """Takes set-up samples at even points of a timed loop of ``seconds``."""

    def __init__(self, wl, seconds: float, first_setup_s: float):
        self.wl = wl
        self.every = seconds / SETUP_SAMPLES
        self.import_s = [IMPORT_S]
        self.setup_s = [first_setup_s]

    def __call__(self, elapsed: float) -> None:
        if len(self.setup_s) >= SETUP_SAMPLES or elapsed < len(self.setup_s) * self.every:
            return
        child = subprocess.run([sys.executable, os.path.abspath(__file__), IMPORT_TIME_ARG],
                               stdout=subprocess.PIPE, text=True, check=True)
        self.import_s.append(float(child.stdout))
        t0 = time.perf_counter()
        state = self.wl.setup()
        self.setup_s.append(time.perf_counter() - t0)
        self.wl.close(state)

    def value(self) -> float:
        return statistics.median(self.import_s) + statistics.median(self.setup_s)


def _fail(message: str, phase: Phase) -> None:
    phase.failed += 1
    if phase.failed <= 3:
        print("bench: op %d failed: %s" % (phase.attempted, message), file=sys.stderr)


def measure(wl, state, refs, seed: int, seconds: float, stop_after: float,
            min_ops: int, tracer=None, between_rounds=None) -> Phase:
    """Run whole rounds until ``seconds`` have passed and ``min_ops`` ops
    were timed, or until ``stop_after`` seconds, whichever comes first.
    ``between_rounds(elapsed)`` runs after each round, off the clock, as
    does a timing of hostspeed's reference work before the first op and
    then before the first op after each HOST_SAMPLE_EVERY_S."""
    phase = Phase(len(wl.case_names))
    ops = wl.schedule(seed)
    started = time.perf_counter()
    while True:
        for _ in wl.case_names:
            paused = time.perf_counter()
            if paused - started >= len(phase.reference_ns) * HOST_SAMPLE_EVERY_S:
                phase.reference_ns.append(hostspeed.sample())
                started += time.perf_counter() - paused
            item = next(ops)
            case = wl.case_names[item[0]]
            prepared = wl.prepare(state, item)
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter_ns()
            try:
                result = wl.run_op(state, item, prepared)
                error = None
            except Exception:  # an op that raises is a failed op; keep measuring
                error = traceback.format_exc()
            dt = time.perf_counter_ns() - t0
            if tracer is not None:
                tracer.active = False
                tracer.fold((phase.attempted, case))
            phase.attempted += 1
            phase.latencies_ns.append(dt)
            phase.case_latencies_ns[item[0]].append(dt)
            phase.busy_ns += dt
            if error is None:
                try:
                    observed = wl.observe(state, item, result)
                except Exception:  # unreadable output is a failed op as well
                    error = traceback.format_exc()
            if error is None and observed != refs[case][item[1]]:
                error = "%s variant %d: observed %s" % (case, item[1], observed)
            if error is not None:
                _fail(error, phase)
                continue
            phase.work += wl.work(result)
        if between_rounds is not None:
            paused = time.perf_counter()
            between_rounds(paused - started)
            started += time.perf_counter() - paused
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and phase.attempted >= min_ops:
            return phase
        if elapsed >= stop_after:
            phase.cut_short = phase.attempted < min_ops
            if phase.cut_short:
                print("bench: loop stopped at its %.0f-s limit after %d of %d ops; "
                      "the tail has fewer than ten samples beyond it"
                      % (stop_after, phase.attempted, min_ops), file=sys.stderr)
            return phase


def _ms(ns) -> float:
    return float(ns) / 1e6


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _min_ops(percentile: float) -> int:
    return math.ceil(10 / (1 - percentile / 100.0))


def _git_commit(root: str):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def _source_digest(package_dir: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(package_dir):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, package_dir).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root: str) -> dict:
    import dlagraph
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(os.path.dirname(dlagraph.__file__)),
    }


def per_layer_metrics(wl, untraced: Phase, traced: Phase, loop_totals: dict,
                      setup_totals: dict) -> dict:
    n = traced.attempted
    metrics = {}
    for label in tracing.TARGETS:
        calls, self_ns, _ = loop_totals[label]
        metrics[label + ".calls_per_op"] = _metric(calls / n, "count")
        metrics[label + ".self_ms_per_op"] = _metric(_ms(self_ns) / n, "ms")

    def work(*labels):
        return sum(loop_totals[label][2] for label in labels)

    conv = ("numerics.ops.conv_apply", "numerics.ops.conv_apply_adjoint",
            "numerics.ops.conv_weight_grad")
    conv_fmas = work(*conv)
    conv_s = sum(loop_totals[label][1] for label in conv) / 1e9
    forwards = loop_totals["numerics.executor.forward"][0]
    metrics.update({
        "graphdoc.bytes_per_op": _metric(
            work("graphdoc.serialize", "graphdoc.parse") / n, "B"),
        "ir.nodes_per_op": _metric(work("ir.topo_order", "ir.validate") / n, "count"),
        "numerics.ops.conv_fmas_per_op": _metric(conv_fmas / n, "count"),
        "numerics.ops.conv_gfma_per_s": _metric(
            conv_fmas / conv_s / 1e9 if conv_s else 0.0, "GFMA/s"),
        "numerics.ops.im2col_mb_per_op": _metric(
            work("numerics.ops._im2col", "numerics.ops._col2im") / 1e6 / n, "MB"),
        "numerics.tape_mb": _metric(
            work("numerics.executor.forward") / 1e6 / forwards if forwards else 0.0, "MB"),
    })
    for name in workloads.ALL_CASES:
        samples = (untraced.case_latencies_ns[wl.case_names.index(name)]
                   if name in wl.case_names else [])
        metrics["case.%s.latency_ms.p50" % name] = _metric(
            _ms(statistics.median(samples)) if samples else 0.0, "ms")
    for layer in tracing.LAYERS:
        self_ns = sum(total[1] for label, total in setup_totals.items()
                      if tracing.layer_of(label) == layer)
        metrics["setup.%s.self_ms" % layer] = _metric(_ms(self_ns), "ms")
    # Each half's throughput at the reference host speed, so that a drift
    # of the host between the halves is not read as tracing cost.
    base = untraced.throughput() / untraced.host_scale()
    metrics["trace_overhead"] = _metric(
        traced.throughput() / traced.host_scale() / base if base else 0.0, "ratio")
    return metrics


def untraced_run(wl, state, refs, args, first_setup_s: float, record: dict):
    percentile = TAIL_PERCENTILE[wl.name]
    sampler = SetupSampler(wl, args.seconds, first_setup_s)
    phase = measure(wl, state, refs, args.seed, args.seconds, args.stop_after,
                    _min_ops(percentile), between_rounds=sampler)
    lat = phase.latencies_ns
    unscaled = {
        "setup_s": sampler.value(),
        "latency_ms.p50": _ms(statistics.median(lat)),
        "latency_ms.tail": _ms(np.percentile(lat, percentile)),
        "throughput_per_s": phase.throughput(),
    }
    scale = phase.host_scale()
    metrics = {
        "setup_s": _metric(unscaled["setup_s"] * scale, "s"),
        "latency_ms.p50": _metric(unscaled["latency_ms.p50"] * scale, "ms"),
        "latency_ms.tail": _metric(unscaled["latency_ms.tail"] * scale, "ms"),
        "throughput_per_s": _metric(unscaled["throughput_per_s"] / scale, "1/s"),
        "ok_ratio": _metric((phase.attempted - phase.failed) / phase.attempted, "ratio"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record.update({"samples": len(lat), "tail_percentile": percentile,
                   "import_s": sampler.import_s, "setup_samples_s": sampler.setup_s,
                   "cut_short": phase.cut_short, "unscaled": unscaled,
                   "host_scale": scale, "reference_ns": phase.reference_ns,
                   "fail_ratio": phase.failed / phase.attempted})
    return [phase], metrics


def traced_run(wl, state, refs, args, out_dir: str, record: dict):
    """Untraced half, then a traced set-up and the traced half."""
    try:
        untraced = measure(wl, state, refs, args.seed, args.seconds / 2,
                           args.stop_after / 2, 0)
    finally:
        wl.close(state)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        state = wl.setup()
        tracer.active = False
        tracer.fold(("setup", None))
        setup_totals = {k: list(v) for k, v in tracer.totals.items()}
        tracer.reset()
        try:
            traced = measure(wl, state, refs, args.seed, args.seconds / 2,
                             args.stop_after / 2, 0, tracer)
        finally:
            wl.close(state)
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics = per_layer_metrics(wl, untraced, traced, tracer.totals, setup_totals)
    unused = sorted(label for label in wl.uses
                    if not tracer.totals[label][0] and not setup_totals[label][0])
    # Both halves compare every op with the same references, so their
    # outputs agree exactly when neither half has a failed op.
    same = traced.failed == 0 == untraced.failed
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, "trace-%s-seed%d.json" % (wl.name, args.seed))
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                   "ops": [{"op": tag, "spans": [s[:3] + s[4:5] for s in spans]}
                           for tag, spans in tracer.kept]}, fh)
    record.update({
        "samples": {"untraced": len(untraced.latencies_ns),
                    "traced": len(traced.latencies_ns)},
        "wrapper_self_check": {"unused": unused, "digests_equal": same},
        "spans_file": os.path.relpath(spans_path, os.getcwd()),
    })
    return [untraced, traced], metrics, not unused and same


def main() -> int:
    if sys.argv[1:] == [IMPORT_TIME_ARG]:
        print(repr(IMPORT_S))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.stop_after = loop_limit_s(args.seconds)

    root = os.getcwd()
    out_dir = os.path.join(root, ".bench_out")
    wl = workloads.make(args.workload, os.path.join(out_dir, "tmp"))
    with open(os.path.join(HERE, "refs.json")) as fh:
        stored = json.load(fh)
    refs = stored[wl.name]
    host = workloads.host()

    t0 = time.perf_counter()
    state = wl.setup()
    setup_s = time.perf_counter() - t0

    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "work_unit": wl.work_unit, "cases": list(wl.case_names),
              "environment": environment(root), "host": host,
              "host_matches_refs": host == stored["host"]}
    if args.trace:
        phases, metrics, checks_pass = traced_run(wl, state, refs, args, out_dir, record)
    else:
        try:
            phases, metrics = untraced_run(wl, state, refs, args, setup_s, record)
        finally:
            wl.close(state)
        checks_pass = True
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    if failed and host != stored["host"]:
        print("bench: refs.json was recorded on another host (%s); float bits can "
              "differ with the CPU and BLAS kernel" % stored["host"], file=sys.stderr)

    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and checks_pass, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
