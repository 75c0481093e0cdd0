"""Check that the benchmark is steady across runs and across sets of runs.

    python3 bench/steadiness.py        (from the root of a checkout)

For every workload in BENCHMARK.json it makes SETS sets of RUNS untraced
runs of run_seconds each, each run with another seed (set k uses seeds
k*RUNS+1 .. k*RUNS+RUNS). Per set and end-to-end metric it records the
median, the quartiles and the spread (quartile distance over median).
Across sets it records how much worse each later median is than the
first, as a share of the first. It also keeps each run's record line
(import and set-up samples, sample counts, host). The summary is written
to bench/steadiness.json.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10
SETS = 2
OUT = os.path.join(HERE, "steadiness.json")


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def run_set(name: str, seeds: list[int], seconds: int) -> tuple[dict, bool]:
    runs, records, walls, ok = [], [], [], True
    for seed in seeds:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        walls.append(time.perf_counter() - started)
        lines = proc.stdout.splitlines()
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        runs.append(result["metrics"])
        records.append(record)
    metrics = {m: summarize([r[m]["value"] for r in runs]) for m in runs[0]}
    return {"seeds": seeds, "wall_s": walls, "metrics": metrics, "records": records}, ok


def main() -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    summary = {"machine": {"python": platform.python_version(), "cpus": os.cpu_count()},
               "seconds": seconds, "runs": RUNS, "workloads": {}}
    ok = True
    for workload in spec["workloads"]:
        name = workload["name"]
        sets = []
        for k in range(SETS):
            one_set, set_ok = run_set(name, list(range(k * RUNS + 1, (k + 1) * RUNS + 1)),
                                      seconds)
            ok = ok and set_ok
            sets.append(one_set)
        drift = {}
        for m in spec["end_to_end"]:
            metric = m["name"]
            first = sets[0]["metrics"][metric]["median"]
            sign = 1 if m["better"] == "lower" else -1
            drift[metric] = [sign * (s["metrics"][metric]["median"] - first) / first
                             for s in sets[1:]]
            spreads = [s["metrics"][metric]["spread"] for s in sets]
            print("%-14s %-17s median %10.4f  spreads %s  drift %s  bound %.2f"
                  % (name, metric, first, " ".join("%.3f" % x for x in spreads),
                     " ".join("%+.3f" % x for x in drift[metric]), m["bound"]), flush=True)
        summary["workloads"][name] = {"sets": sets, "worse_than_first_set": drift}
        with open(OUT, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
