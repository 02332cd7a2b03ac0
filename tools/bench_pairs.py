"""Alternating parent/change benchmark pairs, written as one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent REV --change REV --seed N \\
        --pairs P --out BENCH_N.json

REV is anything ``git archive`` takes: a commit, or the tree of the staged
index (``git write-tree``) for a change not yet committed.  Each side is
exported from git into a temporary directory under ./.bench_build/, and
pair i runs ``perfbench/run.py --trace 0`` once on each side for every
workload in BENCHMARK.json, at its ``run_seconds``, the parent first when
i is even and the change first when it is odd.  Run from the root of a
checkout; the benchmark files themselves come from each exported side, as
they do when the benchmark is run on a commit.

Per workload and end-to-end metric the file records both sides' runs, their
min / quartiles / median / max, and how many pairs the change won (ties
count for neither side); per side, whether every run was correct and its
failed / attempted operations.  It also records the seed, both revisions
with their ``src`` trees, and each side's ``environment`` line.

Beside the workloads, as a record that no bound applies to, ``figure``
holds the same summary of each side's default 101x101
``entflow figure nonreciprocity``, run once per side in every pair, after
the pair's workloads and in the pair's order: the whole process's wall
time, interpreter start and import included, and its peak RSS from
``os.wait4``, with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
FIGURE = ("figure", "nonreciprocity")
FIGURE_METRICS = {"wall_s": "s", "peak_rss_mb": "MB"}


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, into: Path) -> Path:
    """The files of ``rev`` extracted under ``into``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark run: its result line and environment line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    env = next(line for line in lines if line.startswith("environment "))
    return {"environment": json.loads(env.split(" ", 1)[1]), **json.loads(lines[-1])}


def run_figure(checkout: Path) -> dict:
    """Wall time and peak RSS of one ``entflow FIGURE`` process of
    ``checkout``, run in a temporary directory that takes its output."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(dir=checkout) as cwd:
        log = Path(cwd) / "stderr"
        with open(log, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "entflow.cli", *FIGURE], cwd=cwd,
                                    env=env, stdout=subprocess.DEVNULL, stderr=stderr)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise subprocess.CalledProcessError(proc.returncode, proc.args,
                                                stderr=log.read_text())
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}


def _quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(parent: list, change: list, better: str) -> dict:
    """Both sides' values of one metric, paired run by run."""
    sign = 1.0 if better == "higher" else -1.0
    out = {"better": better}
    for side, values in zip(SIDES, (parent, change)):
        q1, q3 = _quartiles(values)
        out[side] = {"runs": values, "min": min(values), "q1": q1,
                     "median": statistics.median(values), "q3": q3, "max": max(values)}
    out["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    out["pairs"] = len(parent)
    return out


def figure_record(runs: dict) -> dict:
    """Per metric of ``run_figure``, the pair summary of both sides' runs
    (``runs[side]`` lists one ``run_figure`` result per pair)."""
    out = {"command": ["entflow", *FIGURE]}
    for name, unit in FIGURE_METRICS.items():
        values = [[r[name] for r in runs[side]] for side in SIDES]
        out[name] = {"unit": unit, **summarize(*values, "lower")}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    revs = dict(zip(SIDES, (args.parent, args.change)))
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pairs-", dir=ROOT / ".bench_build"))
    try:
        dirs = {side: export(rev, work / side) for side, rev in revs.items()}
        runs = {w: {side: [] for side in SIDES} for w in workloads}
        figure_runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in workloads:
                for side in order:
                    result = run_once(dirs[side], w, args.seed, seconds)
                    runs[w][side].append(result)
                    print(f"pair {i} {w} {side} {json.dumps(result['metrics'])}",
                          file=sys.stderr)
            for side in order:
                figure_runs[side].append(run_figure(dirs[side]))
                print(f"pair {i} figure {side} {json.dumps(figure_runs[side][-1])}",
                      file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "order": "pair i runs the parent first when i is even, the change first when odd",
        "revisions": {side: {"rev": _git("rev-parse", rev), "src_tree": _git("rev-parse", f"{rev}:src")}
                      for side, rev in revs.items()},
        "environment": {side: runs[workloads[0]][side][0]["environment"] for side in SIDES},
        "workloads": {},
    }
    for w in workloads:
        entry = {side: {"correct": all(r["correct"] for r in runs[w][side]),
                        "failed": sum(r["failed"] for r in runs[w][side]),
                        "attempted": sum(r["attempted"] for r in runs[w][side])}
                 for side in SIDES}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [[r["metrics"][name]["value"] for r in runs[w][side]] for side in SIDES]
            entry[name] = {"unit": metric["unit"], **summarize(*values, metric["better"])}
        out["workloads"][w] = entry
    out["figure"] = figure_record(figure_runs)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
