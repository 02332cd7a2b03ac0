"""entflow benchmark: figure grids, long chains and relaxation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  The run makes its inputs from the seed, runs whole rounds of the
workload until S seconds have passed, checks every output against
oracle.py and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (points_per_s, setup_s,
peak_rss_mb); with --trace 1 the run alternates untraced and traced rounds
and reports per-layer calls and self times per round, the eigendecompositions
thrown away, and the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread in this process and in every child.  With OpenBLAS's
# default of one thread per core, a solve stalls whenever another tenant of
# the shared 2-core box holds the second core: M=10 points then ran up to 13x
# slower for a minute at a time, while single-threaded processes kept their
# speed.  Set before numpy is first imported, which reads it once.
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run(argv, cwd) -> tuple:
    """Run one child to its end; returns (exit code, stdout, wall seconds
    from spawn to exit)."""
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=cwd, env=program_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, proc.stdout, wall


def _cli(args) -> list:
    return [sys.executable, "-m", "entflow.cli", *args]


def _timed_cli(args, record: Path, traced: bool) -> tuple:
    """Run an entflow command under launch.py; returns (exit code, stdout,
    in-process wall seconds of the command)."""
    code, stdout, wall = _run(
        [sys.executable, str(BENCH / "launch.py"), str(record),
         "traced" if traced else "timed", *args], record.parent)
    if record.exists():
        wall = json.loads(record.read_text())["wall"]
    return code, stdout, wall


class Round:
    """One round of a workload: its operations, outputs and the wall time of
    each of its timed parts (a process, or the whole round in-process)."""

    def __init__(self, ops: int, walls: tuple, outputs, traced: bool):
        self.ops, self.walls, self.outputs, self.traced = ops, walls, outputs, traced
        self.wall = sum(walls)


class Figures:
    """figures-m10: each figure table from its own `entflow figure` process."""

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.inp = inputs.figures_m10(seed)
        self.config = work / "chain.cfg"
        self.config.write_text(inputs.config_text(self.inp["base"]))
        self.points = {name: inputs.figure_points(self.inp, name) for name in inputs.FIGURES}
        self.known_faults = [None] * sum(len(p) for p in self.points.values())

    def setup_argv(self) -> list:
        return _cli(["figure", "depth", "--config", str(self.config), "--grid", "1x1",
                     "--range", "0:0,0:0", "--out", str(self.work / "setup.csv")])

    def batch(self, index: int, spans_dir) -> list:
        out_dir = (spans_dir or self.work) / f"round{index}"
        out_dir.mkdir()
        outputs, walls = {}, []
        for name in inputs.FIGURES:
            csv_path = out_dir / f"{name}.csv"
            code, _, seconds = _timed_cli(
                ["figure", name, "--config", str(self.config), "--grid", self.inp["grid"],
                 "--range", self.inp["range"], "--out", str(csv_path)],
                out_dir / f"{name}.record.json", spans_dir is not None)
            walls.append(seconds)
            manifest = csv_path.with_name(csv_path.name + ".manifest.json")
            outputs[name] = (
                code,
                csv_path.read_bytes() if csv_path.exists() else b"",
                manifest.read_bytes() if manifest.exists() else b"",
            )
        return [Round(len(self.known_faults), tuple(walls), outputs, spans_dir is not None)]

    def references(self) -> dict:
        base = self.inp["base"]
        points = {p for pts in self.points.values() for p in pts}
        return {
            (d, r, j): oracle.point_reference(dict(base, r=r, j=j, direction=d))
            for d, r, j in points
        }

    def check(self, outputs, refs) -> list:
        failures = []
        for name in inputs.FIGURES:
            code, csv_bytes, manifest = outputs[name]
            points = self.points[name]
            if code != 0:
                failures += [[("exit", f"exit code {code}")] for _ in points]
                continue
            failures += checks.check_figure(
                name, csv_bytes, manifest, points, self.inp["base"], refs,
                self.inp["r_values"], self.inp["j_values"])
        return failures


class Chains:
    """chains-long: `entflow point --config FILE` on warm chains up to M=30."""

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.ops = inputs.chains_long(seed)
        self.configs = []
        for k, c in enumerate(self.ops):
            path = work / f"point{k}.cfg"
            path.write_text(inputs.config_text(c))
            self.configs.append(path)
        self.known_faults = [c.get("known_fault") for c in self.ops]

    def setup_argv(self) -> list:
        return _cli(["point", "--config", str(self.configs[0])])

    def batch(self, index: int, spans_dir) -> list:
        out_dir = (spans_dir or self.work) / f"round{index}"
        out_dir.mkdir()
        outputs, walls = [], []
        for k, path in enumerate(self.configs):
            code, stdout, seconds = _timed_cli(
                ["point", "--config", str(path)], out_dir / f"point{k}.record.json",
                spans_dir is not None)
            walls.append(seconds)
            outputs.append((code, stdout))
        return [Round(len(self.ops), tuple(walls), tuple(outputs), spans_dir is not None)]

    def references(self) -> list:
        return [oracle.point_reference(c) for c in self.ops]

    def check(self, outputs, refs) -> list:
        return [checks.check_point(c, code, stdout, ref)
                for c, (code, stdout), ref in zip(self.ops, outputs, refs)]


class Relax:
    """relax-m10: evolve_covariance from seeded states over a ladder of times."""

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.inp = inputs.relax_m10(seed)
        self.inputs_path = work / "relax.json"
        self.states_path = work / "states.npy"
        self.inputs_path.write_text(json.dumps(
            {"chains": self.inp["chains"], "times": [float(t) for t in self.inp["times"]]}))
        np.save(self.states_path, self.inp["states"])
        self.ops = len(self.inp["chains"]) * len(self.inp["states"]) * len(self.inp["times"])
        self.known_faults = [None] * self.ops

    def _worker(self, *args) -> list:
        return [sys.executable, str(BENCH / "relax_worker.py"),
                str(self.inputs_path), str(self.states_path), *map(str, args)]

    def setup_argv(self) -> list:
        return self._worker("--first")

    def batch(self, index: int, spans_dir) -> list:
        """One round in a fresh worker: the speed of a process varies by up
        to 20% on the shared reference box, so each round samples another."""
        out = self.work / f"round{index}.npz"
        extra = [] if spans_dir is None else [spans_dir / f"round{index}.record.json"]
        code, _, wall = _run(self._worker(out, *extra), self.work)
        if code != 0:
            return [Round(self.ops, (wall,), None, spans_dir is not None)]
        with np.load(out) as data:
            return [Round(self.ops, (float(data["wall"]),), data["outputs"],
                          spans_dir is not None)]

    def references(self) -> np.ndarray:
        ref = []
        for c in self.inp["chains"]:
            ladder = oracle.evolve_ladder(
                oracle.drift(c), oracle.noise(c), self.inp["states"], self.inp["times"])
            ref.append(np.moveaxis(ladder, 0, 1))  # (state, time, dim, dim)
        return np.stack(ref)

    def check(self, outputs, refs) -> list:
        if outputs is None:
            return [[("exit", "worker failed")] for _ in range(self.ops)]
        return checks.check_evolution(outputs, refs)


WORKLOADS = {"figures-m10": Figures, "chains-long": Chains, "relax-m10": Relax}


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS bundled with numpy."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if threads is not None and config is not None:
            threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
            return {"openblas_threads": threads(), "openblas": config().decode().strip()}
    return {"openblas_threads": None, "openblas": None}


def environment() -> dict:
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        **_openblas(),
    }


def _median_rate(rounds) -> float:
    """Operations of a round over its median wall time, the median taken
    part by part across rounds so that a burst of load on the shared
    machine during one process moves only that process's sample."""
    parts = zip(*(r.walls for r in rounds))
    return rounds[0].ops / sum(statistics.median(walls) for walls in parts)


def _layer_metrics(spans_dir: Path, traced_rounds, untraced_rounds) -> dict:
    summary = tracer.summarize(sorted(spans_dir.glob("**/*.record.json")))
    n = len(traced_rounds)
    metrics = {}
    for name in tracer.NAMES:
        metrics[f"{name}.calls"] = {"value": summary["calls"][name] / n, "unit": "count"}
        metrics[f"{name}.self_ms"] = {"value": summary["self_ns"][name] / n / 1e6, "unit": "ms"}
    metrics["lyapunov.eigenbasis_discarded"] = {
        "value": summary["eigenbasis_discarded"] / n, "unit": "count"}
    overhead = (statistics.median(r.wall for r in traced_rounds)
                - statistics.median(r.wall for r in untraced_rounds))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    bench = WORKLOADS[workload](seed, work)
    spans_dir = work / "spans"
    spans_dir.mkdir()

    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            code, _, wall = _run(bench.setup_argv(), work)
            if code != 0:
                raise RuntimeError(f"set-up operation exited {code}")
            setups.append(wall)

    rounds = []
    start = time.perf_counter()
    index = 0
    while True:
        rounds += bench.batch(index, None)
        print(f"round {index} walls {[round(w, 3) for w in rounds[-1].walls]}", file=sys.stderr)
        index += 1
        if trace:
            rounds += bench.batch(index, spans_dir)
            index += 1
        if time.perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    refs = bench.references()
    attempted = failed = 0
    correct = True
    known = {}
    for r in rounds:
        key = repr(r.outputs) if not isinstance(r.outputs, np.ndarray) else r.outputs.tobytes()
        if key not in known:
            known[key] = bench.check(r.outputs, refs)
        attempted += r.ops
        for op, found in zip(bench.known_faults, known[key]):
            if not found:
                continue
            failed += 1
            names = {check for check, _ in found}
            if op is None or names != {op}:
                correct = False
                for check, message in found:
                    print(f"check failed: {check}: {message}", file=sys.stderr)

    if trace:
        traced = [r for r in rounds if r.traced]
        untraced = [r for r in rounds if not r.traced]
        metrics = _layer_metrics(spans_dir, traced, untraced)
    else:
        metrics = {
            "points_per_s": {"value": _median_rate(rounds), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "entflow" / "__init__.py").is_file():
        print(f"no entflow sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    print("environment " + json.dumps(environment(), sort_keys=True))
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=WORK_ROOT))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
