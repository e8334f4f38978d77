"""Workloads of the gse benchmark and the checks on their outputs.

A workload turns a seed into the steps of one pass.  A step is one call
of the program: a ``gse`` command, or one oracle-map process.  Each step's
output is checked on its own: header, row count, row order, coordinates,
finite and non-negative values, and the identities the CSV promises.  A
pass on the reference inputs is also compared with ``reference.json``.

Why these workloads:

- ``readme-cli``: the README's documented commands.  Interpreter start and
  imports dominate them, so this is where start-up and option resolution
  show; kernel changes barely move it.  N is fixed at 10^6 in its sweeps.
- ``grid-dense``: one large grid.  Kernels and row formatting do most of
  the work, and N changes from row to row, so a cache keyed on the
  operating point helps here and not in ``readme-cli``.
- ``oracle-map``: 735 dense exact-diagonalization solves.  It is the only
  workload that drives ``oracle``, and it uses ``fermionic`` differently
  (small j, n_exc = 2 sectors, ``transition_strength``).
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

CSV_HEADER = ("model,detuning,g,N,rate_p,rate_m,rate_sum,flux_p,flux_m,"
              "flux_sum,weight_p,weight_m,tot_p,tot_m,tot_sum")
ORACLE_HEADER = ("g,detuning,N,cutoff,sum_rule_residual,label,omega_exact,"
                 "omega_pt,strength_exact,strength_pt,rel_error")
# the CLI sorts rows by model name
MODELS = ("fermionic", "full", "pert")
SUMS = (("rate_sum", "rate_p", "rate_m"), ("flux_sum", "flux_p", "flux_m"),
        ("tot_sum", "tot_p", "tot_m"))
FIRST_CUTOFF = 12
SUM_RULE_TOL = 1e-10

# A sum column may differ from the sum of its parts by a few ulps.
IDENTITY_TOL = 1e-14
# Coordinates echoed by the CLI against the ones the benchmark asked for.
COORD_TOL = 1e-12
# Against the reference: far above a few-ulp change, far below 1e-6.
REF_TOL = 1e-9
SAMPLE_ROWS = 8


@dataclass
class Checked:
    """What one step's check found."""

    problems: list[str] = field(default_factory=list)
    records: int = 0
    counts: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Step:
    """One call of the program and the check on its output.

    ``kind`` is ``cli`` (a ``gse`` command) or ``oracle_map``.  The check
    reads ``output``, a file written in the work directory, or standard
    output when ``output`` is None.  ``also`` lists further files the step
    must leave non-empty.
    """

    name: str
    kind: str
    args: tuple[str, ...]
    check: Callable[[str], Checked]
    output: str | None = None
    also: tuple[str, ...] = ()
    env: tuple[tuple[str, str], ...] = ()


# ---------------------------------------------------------------------------
# generic CSV checks
# ---------------------------------------------------------------------------

def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0.0 else 0.0


def _split(text: str) -> tuple[str, list[list[str]]]:
    lines = text.splitlines()
    if not lines:
        return "", []
    return lines[0], [line.split(",") for line in lines[1:]]


def _numbers(row: list[str], start: int, problems: list[str],
             where: str) -> list[float] | None:
    try:
        values = [float(v) for v in row[start:]]
    except ValueError:
        problems.append(f"{where}: unparsable value")
        return None
    if not all(math.isfinite(v) and v >= 0.0 for v in values):
        problems.append(f"{where}: value not finite and non-negative")
        return None
    return values


def check_sweep_csv(text: str, expect: list[tuple[str, float, float, int]]
                    ) -> Checked:
    """A sweep/grid CSV with exactly the rows ``expect`` lists, in order.

    ``expect`` holds (model, detuning, g, N) per row.
    """
    out = Checked()
    header, rows = _split(text)
    if header != CSV_HEADER:
        out.problems.append(f"header {header!r}")
        return out
    if len(rows) != len(expect):
        out.problems.append(f"{len(rows)} rows, expected {len(expect)}")
        return out
    names = CSV_HEADER.split(",")
    for i, (row, (model, det, g, n)) in enumerate(zip(rows, expect)):
        where = f"row {i + 1}"
        if len(row) != len(names):
            out.problems.append(f"{where}: {len(row)} fields")
            continue
        if (row[0] != model or row[3] != str(n)
                or abs(float(row[1]) - det) > COORD_TOL
                or not _close(float(row[2]), g, COORD_TOL)):
            out.problems.append(f"{where}: coordinates {row[:4]}, expected "
                                f"{[model, det, g, n]}")
            continue
        values = _numbers(row, 4, out.problems, where)
        if values is None:
            continue
        value = dict(zip(names[4:], values))
        for total, plus, minus in SUMS:
            if not _close(value[total], value[plus] + value[minus],
                          IDENTITY_TOL):
                out.problems.append(f"{where}: {total} != {plus} + {minus}")
    out.records = len(rows)
    return out


def check_spectrum_csv(text: str, points: int) -> Checked:
    out = Checked()
    header, rows = _split(text)
    if header != "omega,intensity":
        out.problems.append(f"header {header!r}")
        return out
    if len(rows) != points:
        out.problems.append(f"{len(rows)} rows, expected {points}")
        return out
    previous = -math.inf
    for i, row in enumerate(rows):
        values = _numbers(row, 0, out.problems, f"row {i + 1}")
        if values is None:
            continue
        if len(values) != 2 or values[0] <= previous:
            out.problems.append(f"row {i + 1}: omega not increasing")
        previous = values[0]
    out.records = len(rows)
    return out


# ---------------------------------------------------------------------------
# readme-cli
# ---------------------------------------------------------------------------

_FLOAT = r"([-+0-9.eE]+|nan|inf)"


def check_compare_stdout(text: str, tolerance: float) -> Checked:
    out = Checked()
    pairs = re.findall(rf"^(\w+) vs (\w+): max {_FLOAT} mean {_FLOAT}$",
                       text, re.M)
    verdict = re.findall(rf"^max deviation {_FLOAT} within tolerance {_FLOAT}$",
                         text, re.M)
    if len(pairs) != 3 or len(verdict) != 1:
        out.problems.append("compare output lacks its 3 pair lines and verdict")
        return out
    worst = float(verdict[0][0])
    devs = [float(v) for pair in pairs for v in pair[2:]]
    if not all(math.isfinite(v) and 0.0 <= v <= worst for v in devs):
        out.problems.append("pair deviations outside [0, max deviation]")
    if not worst <= tolerance:
        out.problems.append(f"max deviation {worst} above {tolerance}")
    return out


def check_oracle_stdout(text: str, n_values: list[int]) -> Checked:
    """The ``gse oracle`` report: one block per N, each within budget."""
    out = Checked()
    heads = re.findall(rf"^N=(\d+) cutoff=(\d+) g=\S+ E0_exact=\S+ "
                       rf"sum_rule_residual={_FLOAT}$", text, re.M)
    verdicts = re.findall(rf"^max single-polariton rel error {_FLOAT} "
                          rf"\(budget {_FLOAT}\) (ok|FAILED)$", text, re.M)
    if [int(h[0]) for h in heads] != n_values or len(verdicts) != len(n_values):
        out.problems.append(f"oracle output lacks blocks for N={n_values}")
        return out
    for (n, cutoff, residual), (error, budget, verdict) in zip(heads, verdicts):
        if not float(residual) <= SUM_RULE_TOL:
            out.problems.append(f"N={n}: sum rule residual {residual}")
        if verdict != "ok":
            out.problems.append(f"N={n}: rel error {error} over budget {budget}")
    out.counts = {
        "oracle.escalations": sum((int(h[1]) - FIRST_CUTOFF) // 4 for h in heads),
        "oracle.budget_misses": sum(v[2] != "ok" for v in verdicts)}
    out.records = len(n_values)
    return out


def _arange(start: float, step: float, count: int) -> list[float]:
    return [start + step * i for i in range(count)]


def _sweep_rows(detunings, g: float, n: int, models=MODELS):
    return [(m, d, g, n) for m in models for d in detunings]


def readme_steps(rng: random.Random | None) -> list[Step]:
    """The README's six examples and a two-thread default sweep.

    The seed does not apply: the documented commands are fixed.
    """
    sweep = _sweep_rows(_arange(-0.5, 0.01, 101), 0.05, 1_000_000)
    point = _sweep_rows([0.2], 0.1, 1_000_000, models=("full",))
    grid = [(m, 0.0, 3e-3 * math.sqrt(n), n)
            for m in MODELS for n in (100, 1000, 10000)]
    return [
        Step("sweep", "cli", ("sweep", "--out", "sweep.csv"),
             lambda text: check_sweep_csv(text, sweep), output="sweep.csv"),
        Step("point", "cli",
             ("sweep", "--model", "full", "--detuning", "0.2", "--g", "0.1",
              "--emit-gnuplot", "--out", "point.csv"),
             lambda text: check_sweep_csv(text, point), output="point.csv",
             also=("point.csv.gp",)),
        Step("grid", "cli",
             ("grid", "--chi", "3e-3", "--n-range", "100:10000:3:log",
              "--out", "grid.csv"),
             lambda text: check_sweep_csv(text, grid), output="grid.csv"),
        Step("compare", "cli", ("compare", "--g", "0.05", "--tolerance", "0.3"),
             lambda text: check_compare_stdout(text, 0.3)),
        Step("oracle", "cli",
             ("oracle", "--n-range", "2:4:3", "--g", "0.02",
              "--detuning", "-0.2"),
             lambda text: check_oracle_stdout(text, [2, 3, 4])),
        Step("spectrum", "cli",
             ("spectrum", "--model", "full", "--g", "0.1", "--gamma-cav",
              "0.05", "--out", "spectrum.csv"),
             lambda text: check_spectrum_csv(text, 2001),
             output="spectrum.csv"),
        Step("sweep-threads", "cli", ("sweep",),
             lambda text: check_sweep_csv(text, sweep), output="sweep.csv",
             env=(("GSE_NUM_THREADS", "2"),)),
    ]


# ---------------------------------------------------------------------------
# grid-dense
# ---------------------------------------------------------------------------

GRID_CHI = 3e-3
GRID_N_COUNT = 50
GRID_STEP = 0.01
GRID_DETUNINGS = 101


def grid_steps(rng: random.Random | None) -> list[Step]:
    """One 15,150-row grid; the seed moves the detuning start within one
    step and each N bound within 5%, never the number of rows."""
    n_lo, n_hi, start = 100, 10000, -0.5
    if rng is not None:
        n_lo = round(n_lo * (1 + rng.uniform(-0.05, 0.05)))
        n_hi = round(n_hi * (1 + rng.uniform(-0.05, 0.05)))
        start = round(start + rng.randrange(100) * 1e-4, 4)
    stop = round(start + GRID_STEP * (GRID_DETUNINGS - 1), 4)
    n_values = sorted({int(n) for n in
                       np.rint(np.geomspace(n_lo, n_hi, GRID_N_COUNT))})
    detunings = _arange(start, GRID_STEP, GRID_DETUNINGS)
    expect = [(m, d, GRID_CHI * math.sqrt(n), n)
              for m in MODELS for d in detunings for n in n_values]
    args = ("grid", "--n-range", f"{n_lo}:{n_hi}:{GRID_N_COUNT}:log",
            "--detuning", f"{start!r}:{stop!r}:{GRID_STEP!r}",
            "--out", "grid.csv")
    return [Step("grid", "cli", args,
                 lambda text: check_sweep_csv(text, expect), output="grid.csv")]


# ---------------------------------------------------------------------------
# oracle-map
# ---------------------------------------------------------------------------

ORACLE_G = (0.02, 0.05, 0.1, 0.2, 0.3)
ORACLE_N = range(2, 9)
_SINGLE = ("-", "+")


def oracle_labels(n: int) -> tuple[str, ...]:
    """Labels of the transitions ``compare_with_oracle`` reports at N;
    the final sector of N = 2 has too few spin states for '++'."""
    return ("G", "-", "+", "--", "+-") + (("++",) if n >= 3 else ())


def check_oracle_csv(text: str, gs: list[float], detunings: list[float],
                     n_values) -> Checked:
    """Rows in g, detuning, N, label order; sum rule and rel_error hold.

    Counts the solves whose single-polariton error misses the CLI's
    budget of 10 g^2, and the photon-cutoff escalations.
    """
    out = Checked()
    header, rows = _split(text)
    if header != ORACLE_HEADER:
        out.problems.append(f"header {header!r}")
        return out
    expect = [(g, d, n, label) for g in gs for d in detunings for n in n_values
              for label in oracle_labels(n)]
    if len(rows) != len(expect):
        out.problems.append(f"{len(rows)} rows, expected {len(expect)}")
        return out
    worst: dict[tuple, float] = {}
    cutoffs: dict[tuple, int] = {}
    for i, (row, (g, d, n, label)) in enumerate(zip(rows, expect)):
        where = f"row {i + 1}"
        if (len(row) != 11 or float(row[0]) != g or float(row[1]) != d
                or row[2] != str(n) or row[5] != label):
            out.problems.append(f"{where}: coordinates {row[:6]}, expected "
                                f"{[g, d, n, label]}")
            continue
        values = _numbers([row[3], row[4]] + row[6:], 0, out.problems, where)
        if values is None:
            continue
        cutoff, residual, _, _, exact, approx, rel = values
        if cutoff < FIRST_CUTOFF or (cutoff - FIRST_CUTOFF) % 4:
            out.problems.append(f"{where}: photon cutoff {row[3]}")
        if residual > SUM_RULE_TOL:
            out.problems.append(f"{where}: sum rule residual {residual}")
        if abs(rel - _rel(approx, exact)) > IDENTITY_TOL * max(rel, 1e-300):
            out.problems.append(f"{where}: rel_error does not match strengths")
        point = (g, d, n)
        cutoffs[point] = int(cutoff)
        if label in _SINGLE:
            worst[point] = max(worst.get(point, 0.0), rel)
    out.records = len(cutoffs)
    out.counts = {
        "oracle.escalations": sum((c - FIRST_CUTOFF) // 4
                                  for c in cutoffs.values()),
        "oracle.budget_misses": sum(err > 10.0 * p[0] ** 2
                                    for p, err in worst.items())}
    return out


def oracle_steps(rng: random.Random | None) -> list[Step]:
    """735 solves; the seed moves each g by under 10% and each detuning by
    under half a step, never the number of solves."""
    gs = list(ORACLE_G)
    detunings = [round(-0.5 + 0.05 * i, 6) for i in range(21)]
    if rng is not None:
        gs = [round(g * (1 + rng.uniform(-0.1, 0.1)), 6) for g in gs]
        detunings = [round(d + rng.uniform(-0.024, 0.024), 6)
                     for d in detunings]
    args = ("--g=" + ",".join(map(repr, gs)),
            "--detuning=" + ",".join(map(repr, detunings)),
            "--n", f"{ORACLE_N[0]}:{ORACLE_N[-1]}", "--out", "oracle.csv")
    return [Step("oracle-map", "oracle_map", args,
                 lambda text: check_oracle_csv(text, gs, detunings, ORACLE_N),
                 output="oracle.csv")]


# Each makes the steps of one pass from a seeded generator; None gives the
# reference inputs.
WORKLOADS: dict[str, Callable[[random.Random | None], list[Step]]] = {
    "readme-cli": readme_steps,
    "grid-dense": grid_steps,
    "oracle-map": oracle_steps,
}


# ---------------------------------------------------------------------------
# reference digests
# ---------------------------------------------------------------------------

def _sample_indices(rows: int) -> list[int]:
    if rows <= SAMPLE_ROWS:
        return list(range(rows))
    return sorted({round(i * (rows - 1) / (SAMPLE_ROWS - 1))
                   for i in range(SAMPLE_ROWS)})


def digest(text: str, csv: bool) -> dict:
    """Compact fingerprint of one output.

    For a CSV: per numeric column the ``math.fsum`` total, the total of
    absolute values, the fsum of log|x| over non-zero values (a relative
    change of one value moves it by that change, whatever the value's
    size) and the count of zeros; plus a fixed sample of rows verbatim.
    """
    out = {"sha256": hashlib.sha256(text.encode()).hexdigest()}
    if not csv:
        return out
    header, rows = _split(text)
    columns = {}
    for j, name in enumerate(header.split(",")):
        try:
            values = [float(row[j]) for row in rows]
        except (ValueError, IndexError):
            continue
        nonzero = [abs(v) for v in values if v != 0.0]
        columns[name] = {
            "sum": math.fsum(values),
            "abs_sum": math.fsum(nonzero),
            "log_sum": math.fsum(math.log(v) for v in nonzero),
            "zeros": len(values) - len(nonzero)}
    lines = text.splitlines()
    out.update(header=header, rows=len(rows), columns=columns,
               samples={str(i): lines[i + 1] for i in _sample_indices(len(rows))})
    return out


def compare_digest(text: str, ref: dict) -> tuple[list[str], bool, float]:
    """(problems, bytes identical, largest relative error) against ``ref``."""
    now = digest(text, "columns" in ref)
    if now["sha256"] == ref["sha256"]:
        return [], True, 0.0
    if "columns" not in ref:
        # printed reports round their numbers: only the bytes are compared
        return [], False, 0.0
    if now["header"] != ref["header"] or now["rows"] != ref["rows"]:
        return [f"{now['rows']} rows, reference has {ref['rows']}"], False, math.inf
    errors = {}
    for name, want in ref["columns"].items():
        got = now["columns"].get(name)
        if got is None or got["zeros"] != want["zeros"]:
            errors[f"column {name} zeros"] = math.inf
            continue
        scale = max(want["abs_sum"], got["abs_sum"])
        errors[f"column {name} sum"] = (abs(got["sum"] - want["sum"]) / scale
                                        if scale > 0.0 else 0.0)
        errors[f"column {name} log-sum"] = abs(got["log_sum"] - want["log_sum"])
    lines = text.splitlines()
    for index, want in ref["samples"].items():
        got = lines[int(index) + 1].split(",")
        for j, expected in enumerate(want.split(",")):
            try:
                err = _rel(float(got[j]), float(expected))
            except (ValueError, IndexError):
                err = 0.0 if got[j:j + 1] == [expected] else math.inf
            errors[f"row {int(index) + 1} field {j + 1}"] = err
    worst = max(errors.values(), default=0.0)
    problems = [f"{where}: relative error {err:.3g} against the reference"
                for where, err in errors.items() if not err <= REF_TOL]
    return problems, False, worst
