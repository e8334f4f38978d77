"""Exact-diagonalization map over (g, detuning, N), written as one CSV.

The oracle-map workload runs this file as a fresh Python process, with
``src`` on ``PYTHONPATH``:

    python3 perfbench/oracle_map.py --g 0.02,0.05 --detuning -0.2,0.0 \
        --n 2:8 --out oracle.csv

It calls the public ``params_for_coupling`` and ``compare_with_oracle``
once per grid point, in the order g, detuning, N, and writes one row per
labelled transition of each report.  The traced run imports it and calls
``main`` in process.
"""

from __future__ import annotations

import argparse

from gse import compare_with_oracle, params_for_coupling

HEADER = ("g,detuning,N,cutoff,sum_rule_residual,label,omega_exact,omega_pt,"
          "strength_exact,strength_pt,rel_error")
PHOTON_CUTOFF = 12


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",")]


def _n_values(text: str) -> list[int]:
    first, last = text.split(":")
    return list(range(int(first), int(last) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--g", required=True, type=_floats)
    parser.add_argument("--detuning", required=True, type=_floats)
    parser.add_argument("--n", required=True, type=_n_values)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    lines = [HEADER]
    for g in args.g:
        for detuning in args.detuning:
            for n in args.n:
                params = params_for_coupling(1.0 + detuning, g, n)
                report = compare_with_oracle(params, photon_cutoff=PHOTON_CUTOFF)
                for row in report.rows:
                    lines.append(",".join([
                        "%.17g" % g, "%.17g" % detuning, str(n),
                        str(report.photon_cutoff),
                        "%.17g" % report.sum_rule_residual, row.label,
                        "%.17g" % row.omega_exact, "%.17g" % row.omega_pt,
                        "%.17g" % row.strength_exact, "%.17g" % row.strength_pt,
                        "%.17g" % row.rel_error]))
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
