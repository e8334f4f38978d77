"""Acceptance gate: one test (and one printed verdict line) per criterion.

Each test exercises the stated tolerance exactly; run with -v (or -rA to
see the printed detail lines) to get the per-criterion report.
"""

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from gse.bosonic_full import (
    ETA,
    double_polariton_rate_full,
    hbar_kernel,
    hopfield_modes,
    lambda_pm,
    single_polariton_rate_full,
)
from gse.bosonic_pert import jc_basis, perturbative_betas, single_polariton_rate_pert
from gse.cli import main as cli_main
from gse.emission import sweep_record
from gse.fermionic import (
    dressed_ground_state,
    dressed_sector_states,
    fermionic_rate_arrays,
    gse_rate_closed_form,
    gse_rate_pipeline,
    transition_rate_fermionic,
)
from gse.oracle import compare_with_oracle
from gse.params import params_for_coupling

N_THERMO = 10**6


def verdict(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_identity_suite():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(10_000):
        omega_c = rng.uniform(0.5, 1.5)
        g = 0.5 * math.sqrt(omega_c) * rng.uniform(1e-3, 0.95)
        b = jc_basis(1.0, omega_c, g)
        worst = max(
            worst,
            abs(b.alpha_a_plus**2 + b.alpha_b_plus**2 - 1.0),
            abs(b.alpha_a_minus**2 + b.alpha_b_minus**2 - 1.0),
            abs(b.alpha_a_minus * b.alpha_b_plus
                - b.alpha_b_minus * b.alpha_a_plus + 1.0),
            abs(b.alpha_a_plus * b.alpha_a_minus
                + b.alpha_b_plus * b.alpha_b_minus),
        )
        p = hopfield_modes(1.0, omega_c, g).p_matrix
        worst = max(worst, float(np.max(np.abs(p @ ETA @ p.T - ETA))))
    verdict(1, "polariton identity suite", worst <= 1e-10,
            f"max violation {worst:.3e} on 10^4 stable points, budget 1e-10")


def test_criterion_02_eigenfrequency_formula():
    worst = 0.0
    for omega_c in np.linspace(0.5, 1.5, 50):
        for frac in np.linspace(0.0, 0.95, 50):
            g = 0.5 * math.sqrt(omega_c) * frac
            lp, lm = lambda_pm(1.0, omega_c, g)
            eig = np.linalg.eigvals(hbar_kernel(1.0, omega_c, g))
            positive = np.sort(eig.real[eig.real > 1e-12])
            worst = max(worst, abs(positive[-1] - lp), abs(positive[0] - lm))
    verdict(2, "analytic eigenfrequencies vs 4x4 eigensolve", worst <= 1e-10,
            f"max |analytic - numeric| {worst:.3e} on 50x50 grid, budget 1e-10")


def test_criterion_03_weak_coupling_universality():
    worst = 0.0
    for g in (1e-3, 1e-2):
        target = g**2 / 8
        p = params_for_coupling(1.0, g, N_THERMO)
        basis = jc_basis(1.0, 1.0, g)
        rates = {
            "pert": single_polariton_rate_pert(basis, perturbative_betas(basis, g)),
            "full": single_polariton_rate_full(p),
            "fermionic": fermionic_rate_arrays(p)[2:4],  # rate_+, rate_-
        }
        for pair in rates.values():
            for rate in pair:
                worst = max(worst, abs(rate - target) / target / (5 * g))
    verdict(3, "resonant rate g^2/8 across models", worst <= 1.0,
            f"worst deviation {worst:.3f} of the 5 g/omega_0 budget")


def _branch_rel(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def test_criterion_04_detuning_sweep_agreement():
    detunings = np.arange(-0.5, 0.5 + 1e-12, 0.01)
    worst_any, worst_band = 0.0, 0.0
    flux = {"pert": [], "full": [], "fermionic": []}
    for det in detunings:
        p = params_for_coupling(1.0 + det, 0.05, N_THERMO)
        records = {m: sweep_record(p, m) for m in flux}
        for m in flux:
            flux[m].append(records[m].gse_flux)
        rel = max(_branch_rel(records["pert"].rate_plus, records["full"].rate_plus),
                  _branch_rel(records["pert"].rate_minus, records["full"].rate_minus))
        worst_any = max(worst_any, rel)
        if abs(det) <= 0.1 + 1e-12:
            worst_band = max(worst_band, rel)
    peaks_centered = all(
        abs(detunings[int(np.argmax(values))]) <= 0.01 + 1e-12
        for values in flux.values())
    ok = worst_any <= 0.25 and worst_band <= 0.05 and peaks_centered
    verdict(4, "perturbative vs exact bosonic sweep", ok,
            f"pointwise {worst_any:.3f} (<=0.25), near-resonance "
            f"{worst_band:.3f} (<=0.05), flux peaks at zero detuning: "
            f"{peaks_centered}")


def test_criterion_05_branch_monotonicity():
    # Emission moves from the lower to the upper branch as the cavity is
    # tuned up: the upper share rises and the lower rate falls. The upper
    # rate itself is the rising share times a falling total (counter-
    # rotating denominator omega_0 + omega_c), so it peaks inside the
    # window (near +0.25 at g = 0.1); see gse_rate_closed_form.
    detunings = np.arange(-0.5, 0.5 + 1e-12, 0.01)
    ok = True
    failures, ranges = [], []
    for model in ("pert", "full", "fermionic"):
        plus, minus = [], []
        for det in detunings:
            r = sweep_record(params_for_coupling(1.0 + det, 0.1, N_THERMO), model)
            plus.append(r.rate_plus)
            minus.append(r.rate_minus)
        plus, minus = np.asarray(plus), np.asarray(minus)
        share = plus / (plus + minus)
        slack = 1e-12 * minus.max()
        share_falls = np.flatnonzero(np.diff(share) < -1e-12)
        lower_rises = np.flatnonzero(np.diff(minus) > slack)
        ok = ok and share_falls.size == 0 and lower_rises.size == 0
        for steps, what in ((share_falls, "upper share falls"),
                            (lower_rises, "lower rate rises")):
            if steps.size:
                first, last = detunings[steps[0] + 1], detunings[steps[-1] + 1]
                failures.append(f"{model}: {what} at {steps.size} steps, "
                                f"det={first:+.2f}..{last:+.2f}")
        ranges.append(f"{model}: share {share[0]:.3f}->{share[-1]:.3f}, "
                      f"upper rate peaks at det="
                      f"{detunings[int(np.argmax(plus))]:+.2f}")
    detail = "; ".join(failures) if failures else (
        "upper share non-decreasing and lower rate non-increasing at "
        "g = 0.1; " + "; ".join(ranges))
    verdict(5, "emission moves from lower to upper branch", bool(ok), detail)


def test_criterion_06_scaling_laws():
    # quadratic law in the collective coupling at fixed detuning ratio
    gs = np.geomspace(1e-3, 0.02, 7)
    rates = []
    for g in gs:
        basis = jc_basis(1.0, 1.0 - g, g)  # x = Delta/g = 1
        pair = single_polariton_rate_pert(basis, perturbative_betas(basis, g))
        rates.append(pair[0] + pair[1])
    slope_g = np.polyfit(np.log(gs), np.log(rates), 1)[0]

    # doubles-to-singles ratio falls off as 1/N at fixed g_N
    ns = np.geomspace(100, 100_000, 5)
    ratios = []
    for n in ns:
        p = params_for_coupling(0.9, 0.05, int(round(n)))
        doubles = sum(double_polariton_rate_full(p, pair)
                      for pair in ("++", "--", "+-"))
        singles = sum(single_polariton_rate_full(p))
        ratios.append(doubles / singles)
    slope_n = np.polyfit(np.log(ns), np.log(ratios), 1)[0]

    ok = abs(slope_g - 2.0) <= 0.02 and abs(slope_n + 1.0) <= 0.05
    verdict(6, "scaling exponents", ok,
            f"d ln rate/d ln g = {slope_g:.4f} (2 +- 0.02), "
            f"d ln (doubles/singles)/d ln N = {slope_n:.4f} (-1 +- 0.05)")


def test_criterion_07_exact_diagonalization_oracle():
    start = time.monotonic()
    g = 0.02
    worst_rel, worst_sum = 0.0, 0.0
    for n in (2, 3, 4):
        report = compare_with_oracle(params_for_coupling(0.8, g, n))
        worst_rel = max(worst_rel, report.max_single_rel_error)
        worst_sum = max(worst_sum, report.sum_rule_residual)
    elapsed = time.monotonic() - start
    ok = worst_rel <= 10 * g**2 and worst_sum <= 1e-10 and elapsed <= 120
    verdict(7, "oracle certification", ok,
            f"max single-polariton rel {worst_rel:.3e} (<= {10 * g**2:.1e}), "
            f"sum rule {worst_sum:.1e} (<= 1e-10), {elapsed:.1f}s (<= 120s)")


def test_criterion_08_gating():
    p = params_for_coupling(1.0, 0.05, 10)
    ground = dressed_ground_state(p)
    leaks = []
    for state in (*dressed_sector_states(p, 11, 5.5, 1),
                  dressed_sector_states(p, 11, 4.5, 0)[0]):
        for lead in "LR":
            leaks.append(transition_rate_fermionic(ground, state, lead, "in", p))
    injection_zero = all(leak == 0.0 for leak in leaks)

    p0 = params_for_coupling(1.0, 0.0, 7)
    g0 = dressed_ground_state(p0)
    f0 = dressed_sector_states(p0, 6, 3.0, 0)[0]
    dark = sum(transition_rate_fermionic(g0, f0, lead, "out", p0)
               for lead in "LR")
    dark_exact = abs(dark - 7.0) <= 1e-12

    verdict(8, "chemical-potential gating", injection_zero and dark_exact,
            f"excited-sector injection exactly zero: {injection_zero}, "
            f"|dark - N| = {abs(dark - 7.0):.1e} (<= 1e-12)")


def test_criterion_09_closed_form_equivalence():
    worst = 0.0
    for omega_c in np.linspace(0.55, 1.45, 13):
        for frac in np.linspace(0.02, 0.95, 13):
            g = 0.5 * math.sqrt(omega_c) * frac
            p = params_for_coupling(omega_c, g, N_THERMO)
            for branch in "+-":
                closed = gse_rate_closed_form(p, branch)
                pipe = gse_rate_pipeline(1.0, omega_c, g, branch)
                worst = max(worst, abs(pipe - closed) / max(closed, 1e-300))
    verdict(9, "closed form vs golden-rule pipeline", worst <= 1e-10,
            f"max relative gap {worst:.3e} over the stable grid, budget 1e-10")


def test_criterion_10_csv_determinism(tmp_path, child_env):
    runner = CliRunner()
    args = ["sweep", "--g", "0.05", "--n", "1000000",
            "--detuning", "-0.5:0.5:0.05"]
    outputs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        result = runner.invoke(cli_main, args + ["--out", str(path)])
        assert result.exit_code == 0, result.output
        outputs.append(path.read_bytes())
    path = tmp_path / "c.csv"
    child = subprocess.run([sys.executable, "-m", "gse.cli", *args, "--out",
                            str(path)], env=child_env(OPENBLAS_NUM_THREADS="2"),
                           check=True, stderr=subprocess.PIPE)
    # no numpy warning reaches a fresh process's stderr either
    assert child.stderr == b"", child.stderr.decode()
    outputs.append(path.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    verdict(10, "byte-identical sweep output", identical,
            f"3 runs (in process x2, a fresh process with 2 OpenBLAS "
            f"threads) produced {len(set(outputs))} distinct byte streams")
