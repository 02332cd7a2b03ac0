"""Checks of the program's outputs against oracle.py and known properties.

Each check function returns, for every operation it covers, a list of
failures; a failure is a (check name, message) pair and an empty list means
the operation passed.  The checks:

    exit            the command ran and exited 0
    format          header, row count, grid values, manifest fields
    sha256          the CSV's SHA-256 matches its manifest
    stable          stable flag against the block classification
    abscissa        spectral abscissa against the block classification
    physical        every stable cell is physical, unstable cells are not
    empty           a cell is empty exactly where the point is unstable
    log_negativity  E_N against the oracle's steady state
    m_max           deepest entangled node against the oracle's E_N
    nbar            occupation of that node against the oracle
    one_way         backward E_N(0, M-1) <= 1e-10
    vacuum          r = 0 with cold baths: E_N = 0 and m_max = 0 exactly
    evolution       evolved covariance against the stepped Van Loan recurrence
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

import oracle

# E_N and occupations agreed with the oracle to ~1.2e-12 (absolute) over a
# 21x21 grid of the 10-node chain in both directions.
EN_ATOL = 1e-10
NBAR_ATOL = 1e-10
VALUE_RTOL = 1e-9
# Half-width of the band around EN_THRESHOLD inside which the program and
# the oracle may classify a node differently.
THRESHOLD_BAND = 1e-11
EVOLUTION_RTOL = 1e-9

_COLUMNS = {
    "nonreciprocity": ["r_over_omega", "j_over_omega", "direction", "log_negativity"],
    "depth": ["r_over_omega", "j_over_omega", "m_max"],
    "occupation": ["r_over_omega", "j_over_omega", "nbar"],
    "stability": ["r_over_omega", "j_over_omega", "stable", "physical", "spectral_abscissa"],
}


def _close(value: float, ref: float, atol: float, rtol: float = 0.0) -> bool:
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


def stability_ambiguous(ref: dict) -> bool:
    """The exact abscissa sits within tolerance of the stability margin."""
    return abs(ref["abscissa"] + oracle.STABILITY_MARGIN) <= ref["abscissa_tol"]


def admissible_m_max(ref: dict) -> set:
    """Every m_max the independent E_N allows within THRESHOLD_BAND of the
    entanglement threshold.

    m is admissible when node m may be entangled (E_N > threshold - band, or
    m = 0) and no deeper node must be (E_N <= threshold + band).
    """
    en = ref["en"]
    allowed = set()
    for m in range(len(en) + 1):
        head = m == 0 or en[m - 1] > oracle.EN_THRESHOLD - THRESHOLD_BAND
        tail = all(value <= oracle.EN_THRESHOLD + THRESHOLD_BAND for value in en[m:])
        if head and tail:
            allowed.add(m)
    return allowed


def _check_stable(stable: bool, ref: dict) -> list:
    if stable != ref["stable"] and not stability_ambiguous(ref):
        return [("stable", f"stable={stable}, block classification says {ref['stable']}")]
    return []


def _check_abscissa(value: float, ref: dict) -> list:
    if not _close(value, ref["abscissa"], ref["abscissa_tol"]):
        return [(
            "abscissa",
            f"spectral_abscissa={value!r}, exact {ref['abscissa']!r} "
            f"(off by {abs(value - ref['abscissa']):.3e} > tol {ref['abscissa_tol']:.3e})",
        )]
    return []


def _check_en(value: float, ref: dict, node: int) -> list:
    expected = ref["en"][node - 1]
    if not _close(value, expected, EN_ATOL, VALUE_RTOL):
        return [("log_negativity", f"E_N(0,{node})={value!r}, independent {expected!r}")]
    return []


def _check_m_max(m_max: int, ref: dict) -> list:
    if m_max not in admissible_m_max(ref):
        return [("m_max", f"m_max={m_max}, independent {oracle.m_max(ref['en'])}")]
    return []


def _check_nbar(nbar, m_max: int, ref: dict) -> list:
    """nbar of node m_max, or None when no node is entangled."""
    if m_max == 0:
        return [] if nbar is None else [("nbar", f"nbar={nbar!r} with m_max=0")]
    expected = ref["occupation"][m_max]
    if nbar is None or not _close(nbar, expected, NBAR_ATOL, VALUE_RTOL):
        return [("nbar", f"nbar={nbar!r} at m_max={m_max}, independent {expected!r}")]
    return []


def _parse_float(text: str):
    return None if text == "" else float(text)


def _flag(text: str) -> bool:
    return {"true": True, "false": False}[text]


def _cold(c: dict) -> bool:
    return not any(c["nbar_local"]) and not any(c["nbar_common"])


def check_figure(name: str, csv_bytes: bytes, manifest_bytes: bytes, points: list,
                 base: dict, refs: dict, r_values, j_values) -> list:
    """Failures per row of one figure table.

    ``points`` lists the (direction, r, j) of every expected row and
    ``refs`` maps each of them to oracle.point_reference.  A table-wide
    fault (format, manifest) is charged to every row.
    """
    rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
    table = []
    try:
        manifest = json.loads(manifest_bytes)
        digest = manifest["outputs"][f"{name}.csv"]
        manifest_ok = (
            manifest["figure"] == name
            and manifest["grid"]["r_values"] == [float(x) for x in r_values]
            and manifest["grid"]["j_values"] == [float(x) for x in j_values]
        )
    except (ValueError, KeyError, TypeError) as exc:
        table.append(("format", f"unreadable manifest: {exc}"))
        digest, manifest_ok = None, True
    if not manifest_ok:
        table.append(("format", "manifest figure name or grid differs from the inputs"))
    if digest is not None and digest != hashlib.sha256(csv_bytes).hexdigest():
        table.append(("sha256", "CSV SHA-256 differs from the manifest"))
    if not rows or rows[0] != _COLUMNS[name] or len(rows) != len(points) + 1:
        table.append(("format", f"header or row count wrong ({len(rows)} lines)"))
        return [list(table) for _ in points]

    failures = []
    for row, point in zip(rows[1:], points):
        found = list(table)
        direction, r, j = point
        ref = refs[point]
        try:
            if float(row[0]) != r or float(row[1]) != j:
                found.append(("format", f"row {row[:2]} is not grid point ({r!r}, {j!r})"))
            found += _check_row(name, row, point, ref, base)
        except (ValueError, IndexError, KeyError) as exc:
            found.append(("format", f"unparsable row {row}: {exc!r}"))
        failures.append(found)
    return failures


def _check_row(name: str, row: list, point: tuple, ref: dict, base: dict) -> list:
    direction, r, j = point
    found = []
    vacuum = r == 0.0 and _cold(base)
    if name == "stability":
        stable, physical = _flag(row[2]), _flag(row[3])
        found += _check_stable(stable, ref)
        found += _check_abscissa(float(row[4]), ref)
        if physical != stable:
            found.append(("physical", f"stable={stable} but physical={physical}"))
        return found

    value = _parse_float(row[-1])
    if value is None:
        if ref["stable"] and not stability_ambiguous(ref):
            if name != "occupation":
                found.append(("empty", "stable point has no value"))
            elif 0 not in admissible_m_max(ref):
                found.append(("nbar", "no nbar although a node is entangled"))
        return found
    if not ref["stable"]:
        if not stability_ambiguous(ref):
            found.append(("empty", f"unstable point has value {value!r}"))
        return found

    if name == "nonreciprocity":
        if row[2] != direction:
            found.append(("format", f"direction {row[2]} where {direction} expected"))
        node = 2 if direction == "forward" else base["M"] - 1
        found += _check_en(value, ref, node)
        if direction == "backward" and value > oracle.EN_THRESHOLD:
            found.append(("one_way", f"backward E_N(0,{node})={value!r} > 1e-10"))
        if vacuum and value != 0.0:
            found.append(("vacuum", f"r=0 cold chain has E_N={value!r}"))
    elif name == "depth":
        m_max = int(row[2])
        found += _check_m_max(m_max, ref)
        if vacuum and m_max != 0:
            found.append(("vacuum", f"r=0 cold chain has m_max={m_max}"))
    else:
        allowed = sorted(admissible_m_max(ref) - {0})
        if not any(_close(value, ref["occupation"][m], NBAR_ATOL, VALUE_RTOL) for m in allowed):
            found.append(("nbar", f"nbar={value!r}, independent "
                                  f"{[ref['occupation'][m] for m in allowed]!r}"))
    return found


def parse_point_output(stdout: str) -> dict:
    """key=value pairs of `entflow point` (the first line holds several)."""
    fields = {}
    for line in stdout.split("\n"):
        for token in line.split():
            key, sep, value = token.partition("=")
            if sep:
                fields[key] = value
    return fields


def check_point(c: dict, returncode: int, stdout: str, ref: dict) -> list:
    """Failures of one `entflow point` operation."""
    if returncode != 0:
        return [("exit", f"exit code {returncode}")]
    m = c["M"]
    try:
        f = parse_point_output(stdout)
        found = []
        if (int(f["M"]) != m or f["direction"] != c["direction"]
                or float(f["r_over_omega"]) != c["r"] or float(f["j_over_omega"]) != c["j"]):
            found.append(("format", "echoed operating point differs from the input"))
        stable = _flag(f["stable"])
        found += _check_stable(stable, ref)
        found += _check_abscissa(float(f["spectral_abscissa"]), ref)
        if not ref["stable"]:
            return found
        if f["physical"] != "true":
            found.append(("physical", "stable point is not physical"))
        near, far = "log_negativity_0_2", f"log_negativity_0_{m - 1}"
        found += _check_en(float(f[near]), ref, 2)
        found += _check_en(float(f[far]), ref, m - 1)
        if c["direction"] == "backward":
            if float(f[far]) > oracle.EN_THRESHOLD:
                found.append(("one_way", f"backward {far}={f[far]} > 1e-10"))
            if "m_max" in f:
                found.append(("format", "backward point reports m_max"))
            return found
        m_max = int(f["m_max"])
        found += _check_m_max(m_max, ref)
        nbar = float(f["nbar_at_mmax"]) if "nbar_at_mmax" in f else None
        found += _check_nbar(nbar, m_max, ref)
        return found
    except (KeyError, ValueError) as exc:
        return [("format", f"unparsable point output: {exc!r}")]


def check_evolution(outputs: np.ndarray, reference: np.ndarray) -> list:
    """Failures per evolved covariance; both arrays stack (..., dim, dim)."""
    out = outputs.reshape((-1,) + outputs.shape[-2:])
    ref = reference.reshape(out.shape)
    failures = []
    for v, expected in zip(out, ref):
        scale = max(1.0, float(np.abs(expected).max()))
        err = float(np.abs(v - expected).max()) if np.isfinite(v).all() else math.inf
        found = []
        if not err <= EVOLUTION_RTOL * scale:
            found.append(("evolution", f"max|V - V_ref| = {err:.3e} > {EVOLUTION_RTOL * scale:.3e}"))
        if not np.array_equal(v, v.T):
            found.append(("evolution", "evolved covariance is not symmetric"))
        failures.append(found)
    return failures
