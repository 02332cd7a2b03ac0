"""Show that every output check rejects a deliberately corrupted output.

    python3 perfbench/check_checks.py

Runs the program once on small inputs (figure tables on a 3x6 grid, two
warm 6-node points, evolution on a 4-node chain), confirms that the
genuine outputs pass, then corrupts one output at a time and confirms that
the named check rejects it.  Prints one line per corruption and exits 1
if a genuine output fails or a corruption goes unnoticed.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import inputs
import oracle
from run import BENCH, WORK_ROOT, program_env


def _cli(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "entflow.cli", *args], cwd=cwd,
                          env=program_env(), capture_output=True, text=True, check=False)


def _replace_cell(csv_bytes: bytes, row: int, col: int, value: str) -> bytes:
    lines = csv_bytes.decode().split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines).encode()


def _rehash(manifest: bytes, name: str, csv_bytes: bytes) -> bytes:
    """The manifest with the digest of the corrupted CSV, so that only the
    value checks can catch the corruption."""
    data = json.loads(manifest)
    data["outputs"][f"{name}.csv"] = hashlib.sha256(csv_bytes).hexdigest()
    return json.dumps(data).encode()


def figure_cases(work: Path) -> list:
    base = inputs.chain(10, 0.0, 0.0, "forward", [0.0] * 11, [0.0] * 9)
    grid = {"r_values": np.linspace(0.0, 0.9, 3), "j_values": np.linspace(0.0, 1.0, 6)}
    cfg = work / "chain.cfg"
    cfg.write_text(inputs.config_text(base))
    tables = {}
    for name in inputs.FIGURES:
        out = work / f"{name}.csv"
        proc = _cli(["figure", name, "--config", str(cfg), "--grid", "3x6",
                     "--range", "0:0.9,0:1", "--out", str(out)], work)
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr)
        tables[name] = (out.read_bytes(), Path(str(out) + ".manifest.json").read_bytes())
    points = {name: inputs.figure_points(grid, name) for name in inputs.FIGURES}
    refs = {p: oracle.point_reference(dict(base, r=p[1], j=p[2], direction=p[0]))
            for pts in points.values() for p in pts}

    def run_check(name, csv_bytes, manifest):
        failures = checks.check_figure(name, csv_bytes, manifest, points[name], base, refs,
                                       grid["r_values"], grid["j_values"])
        return {check for found in failures for check, _ in found}

    def row_of(name, pred):
        return next(i for i, p in enumerate(points[name]) if pred(p, refs[p]))

    stable_row = row_of("stability", lambda p, ref: ref["stable"] and p[1] > 0)
    unstable_nr = row_of("nonreciprocity", lambda p, ref: not ref["stable"])
    fwd = row_of("nonreciprocity", lambda p, ref: ref["stable"] and p[0] == "forward" and p[1] > 0)
    bwd = row_of("nonreciprocity", lambda p, ref: ref["stable"] and p[0] == "backward" and p[1] > 0)
    vac = row_of("nonreciprocity", lambda p, ref: p[1] == 0.0)
    deep = row_of("depth", lambda p, ref: ref["stable"] and p[1] > 0)
    vac_depth = row_of("depth", lambda p, ref: p[1] == 0.0 and p[2] > 0)
    occ = row_of("occupation", lambda p, ref: ref["stable"] and oracle.m_max(ref["en"]) > 0)

    def value(name, row, col):
        return float(tables[name][0].decode().split("\n")[row + 1].split(",")[col])

    edits = [
        ("stable", "stability", stable_row, 2, "false"),
        ("abscissa", "stability", stable_row, 4, repr(value("stability", stable_row, 4) + 1e-6)),
        ("physical", "stability", stable_row, 3, "false"),
        ("empty", "nonreciprocity", unstable_nr, 3, "0.5"),
        ("log_negativity", "nonreciprocity", fwd, 3, repr(value("nonreciprocity", fwd, 3) + 1e-7)),
        ("one_way", "nonreciprocity", bwd, 3, "2e-10"),
        ("vacuum", "nonreciprocity", vac, 3, "1e-12"),
        ("m_max", "depth", deep, 2, str(int(value("depth", deep, 2)) + 1)),
        ("vacuum", "depth", vac_depth, 2, "1"),
        ("nbar", "occupation", occ, 2, repr(value("occupation", occ, 2) + 1e-7)),
    ]
    cases = [("genuine " + name, set(), run_check(name, *tables[name])) for name in inputs.FIGURES]
    for check, name, row, col, text in edits:
        csv_bytes = _replace_cell(tables[name][0], row, col, text)
        manifest = _rehash(tables[name][1], name, csv_bytes)
        cases.append((f"{name} row {row} col {col} -> {text}", {check},
                      run_check(name, csv_bytes, manifest)))
    csv_bytes, manifest = tables["depth"]
    cases.append(("depth CSV edited, manifest kept", {"sha256"},
                  run_check("depth", csv_bytes.replace(b"\n0,0,0\n", b"\n0,0,00\n"), manifest)))
    grid_moved = json.loads(manifest)
    grid_moved["grid"]["j_values"][1] += 1e-3
    cases.append(("manifest grid moved", {"format"},
                  run_check("depth", csv_bytes, json.dumps(grid_moved).encode())))
    return cases


def point_cases(work: Path) -> list:
    rng = np.random.default_rng(7)
    cases = []
    for direction in inputs.DIRECTIONS:
        c = inputs.chain(6, 0.1, 0.5, direction, rng.uniform(0.001, 0.01, 7),
                         rng.uniform(0.001, 0.01, 5))
        cfg = work / f"{direction}.cfg"
        cfg.write_text(inputs.config_text(c))
        proc = _cli(["point", "--config", str(cfg)], work)
        ref = oracle.point_reference(c)
        fields = checks.parse_point_output(proc.stdout)

        def run_check(text, code=proc.returncode):
            return {check for check, _ in checks.check_point(c, code, text, ref)}

        def edit(key, text):
            return proc.stdout.replace(f"{key}={fields[key]}", f"{key}={text}")

        cases.append((f"genuine point {direction}", set(), run_check(proc.stdout)))
        cases.append((f"{direction} exit 3", {"exit"}, run_check(proc.stdout, 3)))
        absc = float(fields["spectral_abscissa"])
        cases.append((f"{direction} abscissa + 1e-6", {"abscissa"},
                      run_check(edit("spectral_abscissa", repr(absc + 1e-6)))))
        cases.append((f"{direction} stable=false", {"stable"},
                      run_check(edit("stable", "false"))))
        cases.append((f"{direction} physical=false", {"physical"},
                      run_check(edit("physical", "false"))))
        near = float(fields["log_negativity_0_2"])
        cases.append((f"{direction} E_N(0,2) + 1e-6", {"log_negativity"},
                      run_check(edit("log_negativity_0_2", repr(near + 1e-6)))))
        if direction == "forward":
            m_max = int(fields["m_max"])
            cases.append(("forward m_max + 1", {"m_max"},
                          run_check(edit("m_max", str(m_max + 1)))))
            nbar = float(fields["nbar_at_mmax"])
            cases.append(("forward nbar + 1e-7", {"nbar"},
                          run_check(edit("nbar_at_mmax", repr(nbar + 1e-7)))))
        else:
            cases.append(("backward E_N(0,M-1) = 2e-10", {"one_way"},
                          run_check(edit("log_negativity_0_5", "2e-10"))))
    return cases


def evolution_cases(work: Path) -> list:
    rng = np.random.default_rng(11)
    c = inputs.chain(4, 0.1, 0.5, "forward", rng.uniform(0.0, 0.02, 5), rng.uniform(0.0, 0.02, 3))
    states = inputs.physical_state(rng, 5)[None]
    times = [0.5, 64.0, 4096.0]
    (work / "relax.json").write_text(json.dumps({"chains": [c], "times": times}))
    np.save(work / "states.npy", states)
    proc = subprocess.run([sys.executable, str(BENCH / "relax_worker.py"), "relax.json",
                           "states.npy", "out.npz"], cwd=work, env=program_env(),
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    with np.load(work / "out.npz") as data:
        outputs = data["outputs"]
    ref = oracle.evolve_ladder(oracle.drift(c), oracle.noise(c), states, times)
    ref = np.moveaxis(ref, 0, 1)[None]

    def run_check(out):
        return {check for found in checks.check_evolution(out, ref) for check, _ in found}

    shifted = outputs.copy()
    shifted[0, 0, 1, 0, 1] += 1e-7
    shifted[0, 0, 1, 1, 0] += 1e-7
    skewed = outputs.copy()
    skewed[0, 0, 2, 0, 1] += 1e-14
    return [
        ("genuine evolution", set(), run_check(outputs)),
        ("V(64) entry + 1e-7", {"evolution"}, run_check(shifted)),
        ("V(4096) made asymmetric by 1e-14", {"evolution"}, run_check(skewed)),
    ]


def main() -> int:
    WORK_ROOT.mkdir(exist_ok=True)
    ok = True
    with tempfile.TemporaryDirectory(prefix="check-checks-", dir=WORK_ROOT) as tmp:
        work = Path(tmp)
        for label, expected, found in figure_cases(work) + point_cases(work) + evolution_cases(work):
            passed = found == expected if not expected else expected <= found
            ok &= passed
            verdict = ("passes" if not found else "rejected by " + ",".join(sorted(found)))
            print(f"{'ok  ' if passed else 'FAIL'} {label}: {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
