"""Paired benchmark runs of two versions of the repository.

    python3 tools/bench_pairs.py --label NAME [--parent REV] [--change REV|WORKTREE]
        [--workload W ...] [--pairs 10] [--seconds 30] [--scratch DIR]

Run from the root of a checkout. Each side is written out under the scratch
directory: a commit with ``git archive``, and ``WORKTREE`` (the default
change) as the checkout's tracked and untracked, non-ignored files. Then
``bench/run.py`` runs each workload once per side per pair, in one process
at a time, so both sides see the host at nearly the same moments; the side
that goes first alternates from pair to pair, and pair i runs both sides
with seed i. Each side runs its own ``bench/run.py``.

The result, ``BENCH_<label>.json`` in the current directory, is rewritten
after every pair. Per workload and side it holds the median and quartiles
of every end-to-end metric that ``BENCHMARK.json`` declares, scaled and
unscaled (``bench/NOTES.md`` explains the host-speed scale; metrics that
are not timings are the same in both), the lowest ``ok_ratio``, every
run's values, and per metric the number of pairs the change won, on scaled
values (``wins``) and on unscaled ones (``wins_unscaled``). Beside the wins,
on scaled values, stand the change's median gain in the metric's better
direction (``median_gain``) and the parent's quartile spread, q3 - q1
(``parent_spread``): a claimed gain should exceed that spread. After the
pairs, one ``--trace 1`` run per side and workload, at seed 0, adds the
per-layer metrics and the tracer's ``wrapper_self_check`` under the
workload's ``traced`` key.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

WORKTREE = "WORKTREE"
SCHEMA = 1
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(("git",) + args, check=True, stdout=subprocess.PIPE,
                          text=True).stdout


def write_side(rev: str, dest: str) -> dict:
    """Write one version's files to ``dest``; returns what names it."""
    os.makedirs(dest)
    head = git("rev-parse", "HEAD").strip()
    if rev == WORKTREE:
        names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, names.split("\0")):
            if os.path.isfile(name):
                os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
                shutil.copy2(name, os.path.join(dest, name))
        dirty = bool(git("status", "--porcelain").strip())
        return {"rev": rev, "commit": head, "uncommitted_changes": dirty}
    commit = git("rev-parse", "--verify", rev + "^{commit}").strip()
    archive = subprocess.Popen(["git", "archive", commit], stdout=subprocess.PIPE)
    with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if archive.wait() != 0:
        raise SystemExit("git archive %s failed" % commit)
    return {"rev": rev, "commit": commit, "uncommitted_changes": False}


def run_lines(root: str, workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, dict]:
    """One ``bench/run.py`` run in ``root``: its record and result lines."""
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit("bench/run.py exited with %d in %s" % (proc.returncode, root))
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(record_line)["record"], json.loads(result_line)


def run_traced(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 1`` run: its per-layer metrics and wrapper self-check."""
    record, result = run_lines(root, workload, seed, seconds, 1)
    return {"seed": seed, "correct": result["correct"],
            "wrapper_self_check": record["wrapper_self_check"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def run_bench(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ``bench/run.py`` run in ``root``, summarized."""
    record, result = run_lines(root, workload, seed, seconds, 0)
    scaled = {k: v["value"] for k, v in result["metrics"].items()}
    return {"seed": seed, "scaled": scaled, "unscaled": {**scaled, **record["unscaled"]},
            "host_scale": record["host_scale"], "host": record["host"],
            "host_matches_refs": record["host_matches_refs"],
            "source_sha256": record["environment"]["source_sha256"]}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per side: quartiles of each metric, scaled and unscaled; per metric:
    the pairs in which the change beat the parent, on scaled values
    (``wins``) and on unscaled ones (``wins_unscaled``), and on scaled
    values the change's median gain in the better direction
    (``median_gain``) and the parent's q3 - q1 (``parent_spread``)."""
    out = {}
    for side in SIDES:
        side_runs = runs[side]
        out[side] = {
            "host_matches_refs": all(r["host_matches_refs"] for r in side_runs),
            "source_sha256": sorted({r["source_sha256"] for r in side_runs}),
            "ok_ratio": min(r["scaled"]["ok_ratio"] for r in side_runs),
            "metrics": {m["name"]: {kind: quartiles([r[kind][m["name"]] for r in side_runs])
                                    for kind in ("scaled", "unscaled")} for m in metrics},
            "runs": side_runs,
        }
    for key, kind in (("wins", "scaled"), ("wins_unscaled", "unscaled")):
        wins = {}
        for m in metrics:
            sign = 1 if m["better"] == "higher" else -1
            wins[m["name"]] = sum(sign * (c[kind][m["name"]] - p[kind][m["name"]]) > 0
                                  for p, c in zip(runs["parent"], runs["change"]))
        out[key] = wins
    gains, spreads = {}, {}
    for m in metrics:
        sign = 1 if m["better"] == "higher" else -1
        parent, change = (out[side]["metrics"][m["name"]]["scaled"] for side in SIDES)
        gains[m["name"]] = sign * (change["median"] - parent["median"])
        spreads[m["name"]] = parent["q3"] - parent["q1"]
    out["median_gain"], out["parent_spread"] = gains, spreads
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", default=WORKTREE)
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--scratch", default=None,
                        help="where both sides are written (default: a new temp dir)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    scratch = args.scratch or tempfile.mkdtemp(prefix="bench-pairs-")
    roots = {side: os.path.join(scratch, side) for side in SIDES}
    commits = {side: write_side(rev, roots[side])
               for side, rev in (("parent", args.parent), ("change", args.change))}
    out_path = "BENCH_%s.json" % args.label
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    started = time.time()

    def write(doc: dict) -> None:
        with open(out_path + ".tmp", "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(out_path + ".tmp", out_path)

    try:
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    run = run_bench(roots[side], workload, pair, seconds)
                    host = run.pop("host")
                    runs[workload][side].append(run)
                print("pair %d/%d %s done after %.0f s" % (pair + 1, args.pairs, workload,
                                                          time.time() - started),
                      file=sys.stderr, flush=True)
            doc = {
                "schema": SCHEMA, "label": args.label, "seconds": seconds,
                "pairs": pair + 1, "host": host, "commits": commits,
                "workloads": {w: summarize(runs[w], bench["end_to_end"]) for w in workloads},
            }
            write(doc)
        # per-layer data: one traced run per side and workload, at seed 0
        for workload in workloads:
            doc["workloads"][workload]["traced"] = {
                side: run_traced(roots[side], workload, 0, seconds) for side in SIDES}
            write(doc)
    finally:
        if args.scratch is None:
            shutil.rmtree(scratch, ignore_errors=True)
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
