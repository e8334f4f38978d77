"""Command line driver.

Five subcommands cover the workflows behind the figures: ``sweep``
(detuning scans at fixed coupling), ``grid`` (detuning x electron
number at fixed per-site coupling), ``compare`` (cross-model deviation
report), ``oracle`` (exact-diagonalization certification of the
fermionic pipeline) and ``spectrum`` (emission lineshape at one
operating point).

Exit codes: 0 success, 2 configuration problems, 3 physics problems
(unstable parameter regions, offending values echoed), 4 compare
deviations beyond tolerance, 5 oracle failures.

Values in a ``--config`` file (INI syntax, any section names) supply
defaults; explicit flags win.  Each command evaluates every model once
over arrays of all its operating points, in one thread.
``GSE_NUM_THREADS`` must be an integer if set; it does not change the
work or the output.
"""

from __future__ import annotations

import configparser
import functools
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from .emission import (
    MODELS,
    SweepRecord,
    emission_spectrum,
    sweep_record,
    sweep_records,
)
from .errors import ConfigurationError, CutoffNotConverged, GseError, Unstable
from .oracle import compare_with_oracle
from .params import SystemParams, dicke_params, params_for_coupling

CSV_HEADER = ("model,detuning,g,N,rate_p,rate_m,rate_sum,flux_p,flux_m,"
              "flux_sum,weight_p,weight_m,tot_p,tot_m,tot_sum")

_CSV_ROW = "%s,%.17g,%.17g,%d" + ",%.17g" * 11


def _fmt(value: float) -> str:
    return "%.17g" % value


def _load_config(path: str | None) -> dict[str, str]:
    """Flatten an INI file into one key -> string mapping."""
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file {path}: {exc}") from exc
    flat: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser[section].items():
            flat[key.replace("-", "_")] = value
    return flat


class Settings:
    """Flag / config-file / default resolution, flags winning."""

    def __init__(self, config_path: str | None):
        self.file = _load_config(config_path)

    def pick(self, key: str, flag_value, default, cast):
        if flag_value is not None:
            return flag_value
        raw = self.file.get(key)
        if raw is None:
            return default
        try:
            if cast is bool:
                return raw.strip().lower() in ("1", "true", "yes", "on")
            return cast(raw)
        except ValueError as exc:
            raise ConfigurationError(f"bad config value {key} = {raw!r}") from exc

    def flag(self, key: str, flag_value: bool) -> bool:
        return bool(flag_value) or self.pick(key, None, False, bool)


def _guarded(fn):
    """Map library exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except Unstable as exc:
            click.echo(f"physics error: {exc}", err=True)
            for key, value in sorted(exc.params.items()):
                click.echo(f"  {key} = {value}", err=True)
            sys.exit(3)
        except CutoffNotConverged as exc:
            click.echo(f"oracle failure: {exc}", err=True)
            sys.exit(5)
        except ConfigurationError as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(2)
        except GseError as exc:
            click.echo(f"physics error: {exc}", err=True)
            sys.exit(3)

    return wrapper


def _parse_float_range(spec: str, what: str) -> np.ndarray:
    """'start:stop:step' inclusive of both ends; a bare float is a
    single-point range."""
    text = spec.strip()
    if ":" not in text:
        try:
            return np.array([float(text)])
        except ValueError:
            raise ConfigurationError(f"bad {what} value {spec!r}") from None
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigurationError(f"{what} range must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigurationError(f"bad {what} range {spec!r}") from None
    if step <= 0.0 or stop < start:
        raise ConfigurationError(f"empty {what} range {spec!r}")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(count)


def _parse_n_range(spec: str) -> list[int]:
    """'start:stop:count[:lin|log]' -> deduplicated integer samples."""
    parts = spec.strip().split(":")
    if len(parts) not in (3, 4):
        raise ConfigurationError(
            f"N range must be start:stop:count[:lin|log], got {spec!r}")
    try:
        start, stop, count = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigurationError(f"bad N range {spec!r}") from None
    mode = parts[3] if len(parts) == 4 else "lin"
    if start < 1 or stop < start or count < 1:
        raise ConfigurationError(f"empty N range {spec!r}")
    if mode == "log":
        samples = np.geomspace(start, stop, count)
    elif mode == "lin":
        samples = np.linspace(start, stop, count)
    else:
        raise ConfigurationError(f"N range mode must be lin or log, got {mode!r}")
    values: list[int] = []
    for sample in np.rint(samples).astype(int):
        if not values or sample != values[-1]:
            values.append(int(sample))
    return values


def _resolve_models(name: str) -> tuple[str, ...]:
    if name == "all":
        return MODELS
    if name in MODELS:
        return (name,)
    raise ConfigurationError(
        f"model must be one of {', '.join(MODELS)} or all, got {name!r}")


def _resolve_coupling(g: float | None, chi: float | None,
                      n: int, default_g: float) -> float:
    """Collective coupling g_N from either --g or --chi (exclusive)."""
    if g is not None and chi is not None:
        raise ConfigurationError("give either --g or --chi, not both")
    if chi is not None:
        return chi * math.sqrt(n)
    if g is not None:
        return g
    return default_g


def _check_thread_count() -> None:
    raw = os.environ.get("GSE_NUM_THREADS", "")
    if raw:
        try:
            int(raw)
        except ValueError:
            raise ConfigurationError(
                f"GSE_NUM_THREADS must be an integer, got {raw!r}") from None


def _operating_points(coords: list[tuple[float, float, int]], overrides: dict,
                      raw: bool) -> list[tuple[SystemParams, float, float]]:
    """(params, detuning label, g label) for each (detuning, g_N, N),
    sorted by (detuning, N).

    Every point is built and validated before any is evaluated, and
    all unstable points are reported together.
    """
    points, unstable = [], []
    for det, g_n, n in coords:
        try:
            points.append((_point_params(det, g_n, n, overrides, raw), det, g_n))
        except Unstable as exc:
            details = ", ".join(f"{key}={value}"
                                for key, value in sorted(exc.params.items()))
            unstable.append(f"  detuning={det} N={n}: {exc} ({details})")
    if unstable:
        raise Unstable(f"{len(unstable)} of {len(coords)} operating points "
                       f"unstable:\n" + "\n".join(unstable))
    points.sort(key=lambda point: (point[1], point[0].n_electrons))
    return points


def _evaluate(models: tuple[str, ...],
              points: list[tuple[SystemParams, float, float]],
              ) -> list[SweepRecord]:
    """Every model at every point, in (model, detuning, N) order."""
    _check_thread_count()
    params = [point[0] for point in points]
    detunings = [point[1] for point in points]
    g_labels = [point[2] for point in points]
    records: list[SweepRecord] = []
    for model in sorted(models):
        records.extend(sweep_records(params, model, detunings=detunings,
                                     g_over_omega0=g_labels))
    return records


def _format_record(record: SweepRecord) -> str:
    return _CSV_ROW % (
        record.model, record.detuning, record.g_over_omega0,
        record.n_electrons, record.rate_plus, record.rate_minus,
        record.gse_rate, record.flux_plus, record.flux_minus,
        record.gse_flux, record.weight_plus, record.weight_minus,
        record.tot_plus, record.tot_minus, record.tot_rate)


def _write_records(path: str, records: list[SweepRecord]) -> None:
    lines = [CSV_HEADER]
    lines.extend(_format_record(r) for r in records)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_gnuplot(out: str, models: tuple[str, ...]) -> None:
    plots = ", ".join(
        f"csv using 2:(strcol(1) eq '{m}' ? $7 : 1/0) with lines title '{m}'"
        for m in models)
    script = (
        f"csv = '{out}'\n"
        "set datafile separator ','\n"
        "set xlabel 'detuning (omega_c - omega_0)/omega_0'\n"
        "set ylabel 'emission rate (units of Gamma_el)'\n"
        "set key top right\n"
        f"plot {plots}\n")
    Path(out + ".gp").write_text(script, encoding="utf-8")


def _system_overrides(settings: Settings, mu_l, mu_r, gamma_cav,
                      gamma_dark_plus, gamma_dark_minus, omega2_ref,
                      n_sites) -> dict:
    overrides = {}
    for key, flag in (("mu_l", mu_l), ("mu_r", mu_r),
                      ("gamma_cav", gamma_cav),
                      ("gamma_dark_plus", gamma_dark_plus),
                      ("gamma_dark_minus", gamma_dark_minus)):
        value = settings.pick(key, flag, None, float)
        if value is not None:
            overrides[key] = value
    value = settings.pick("omega2_ref", omega2_ref, None, float)
    if value is not None:
        overrides["omega_2_ref"] = value
    value = settings.pick("n_sites", n_sites, None, int)
    if value is not None:
        overrides["n_sites_total"] = value
    return overrides


def _point_params(detuning: float, g_n: float, n: int, overrides: dict,
                  raw: bool) -> SystemParams:
    params = params_for_coupling(1.0 + detuning, g_n, n, **overrides)
    return params if raw else dicke_params(params)


def shared_options(fn):
    options = [
        click.option("--config", type=str, default=None,
                     help="INI file supplying defaults for any flag."),
        click.option("--omega2-ref", type=float, default=None,
                     help="Doubly occupied site reference frequency."),
        click.option("--mu-l", type=float, default=None,
                     help="Left lead chemical potential."),
        click.option("--mu-r", type=float, default=None,
                     help="Right lead chemical potential."),
        click.option("--gamma-cav", type=float, default=None,
                     help="Cavity loss rate."),
        click.option("--gamma-dark-plus", type=float, default=None,
                     help="Non-radiative decay of the upper branch."),
        click.option("--gamma-dark-minus", type=float, default=None,
                     help="Non-radiative decay of the lower branch."),
        click.option("--n-sites", type=int, default=None,
                     help="Total site count (defaults to max(2N, N+1))."),
        click.option("--raw-dicke", is_flag=True, default=False,
                     help="Skip the diamagnetic renormalization of the "
                          "cavity frequency and coupling."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


@click.group()
@click.version_option(package_name="gse")
def main() -> None:
    """Ground-state electroluminescence rates, fluxes and spectra."""


@main.command()
@click.option("--model", type=str, default=None,
              help="pert, full, fermionic or all (default all).")
@click.option("--g", type=float, default=None,
              help="Collective coupling g_N / omega_0 (default 0.05).")
@click.option("--chi", type=float, default=None,
              help="Per-site coupling; g_N = chi * sqrt(N).")
@click.option("--n", type=int, default=None,
              help="Electron number (default 1000000).")
@click.option("--detuning", type=str, default=None,
              help="start:stop:step range or a single value "
                   "(default -0.5:0.5:0.01).")
@click.option("--out", type=str, default=None,
              help="Output CSV path (default sweep.csv).")
@click.option("--emit-gnuplot", is_flag=True, default=False,
              help="Also write a gnuplot script next to the CSV.")
@shared_options
@_guarded
def sweep(model, g, chi, n, detuning, out, emit_gnuplot, config, **system) -> None:
    """Detuning sweep at fixed coupling, one CSV row per model point."""
    settings = Settings(config)
    models = _resolve_models(settings.pick("model", model, "all", str))
    n_el = settings.pick("n", n, 1_000_000, int)
    g_n = _resolve_coupling(settings.pick("g", g, None, float),
                            settings.pick("chi", chi, None, float),
                            n_el, default_g=0.05)
    detunings = _parse_float_range(
        settings.pick("detuning", detuning, "-0.5:0.5:0.01", str), "detuning")
    out_path = settings.pick("out", out, "sweep.csv", str)
    raw = settings.flag("raw_dicke", system.pop("raw_dicke"))
    overrides = _system_overrides(settings, **system)

    points = _operating_points([(float(det), g_n, n_el) for det in detunings],
                               overrides, raw)
    records = _evaluate(models, points)
    _write_records(out_path, records)
    if settings.flag("emit_gnuplot", emit_gnuplot):
        _write_gnuplot(out_path, models)
    click.echo(f"wrote {len(records)} rows to {out_path}")


@main.command()
@click.option("--model", type=str, default=None,
              help="pert, full, fermionic or all (default all).")
@click.option("--chi", type=float, default=None,
              help="Fixed per-site coupling (default 3e-3).")
@click.option("--n-range", type=str, default=None,
              help="start:stop:count[:lin|log] electron numbers "
                   "(default 100:10000:3:log).")
@click.option("--detuning", type=str, default=None,
              help="start:stop:step range or single value (default 0).")
@click.option("--out", type=str, default=None,
              help="Output CSV path (default grid.csv).")
@click.option("--emit-gnuplot", is_flag=True, default=False,
              help="Also write a gnuplot script next to the CSV.")
@shared_options
@_guarded
def grid(model, chi, n_range, detuning, out, emit_gnuplot, config, **system) -> None:
    """Detuning x electron-number grid at fixed per-site coupling."""
    settings = Settings(config)
    models = _resolve_models(settings.pick("model", model, "all", str))
    chi_val = settings.pick("chi", chi, 3e-3, float)
    n_values = _parse_n_range(
        settings.pick("n_range", n_range, "100:10000:3:log", str))
    detunings = _parse_float_range(
        settings.pick("detuning", detuning, "0", str), "detuning")
    out_path = settings.pick("out", out, "grid.csv", str)
    raw = settings.flag("raw_dicke", system.pop("raw_dicke"))
    overrides = _system_overrides(settings, **system)

    points = _operating_points([(float(det), chi_val * math.sqrt(n_el), n_el)
                                for det in detunings for n_el in n_values],
                               overrides, raw)
    records = _evaluate(models, points)
    _write_records(out_path, records)
    if settings.flag("emit_gnuplot", emit_gnuplot):
        _write_gnuplot(out_path, models)
    click.echo(f"wrote {len(records)} rows to {out_path}")


def _pair_deviation(a: SweepRecord, b: SweepRecord) -> float:
    dev = 0.0
    for x, y in ((a.rate_plus, b.rate_plus), (a.rate_minus, b.rate_minus)):
        scale = max(abs(x), abs(y))
        if scale > 0.0:
            dev = max(dev, abs(x - y) / scale)
    return dev


@main.command()
@click.option("--model", type=str, default=None,
              help="Models to compare, all by default.")
@click.option("--g", type=float, default=None,
              help="Collective coupling g_N / omega_0 (default 0.05).")
@click.option("--chi", type=float, default=None,
              help="Per-site coupling; g_N = chi * sqrt(N).")
@click.option("--n", type=int, default=None,
              help="Electron number (default 1000000).")
@click.option("--detuning", type=str, default=None,
              help="start:stop:step range (default -0.5:0.5:0.01).")
@click.option("--tolerance", type=float, default=None,
              help="Maximum allowed relative deviation "
                   "(default 5 * g / omega_0).")
@click.option("--out", type=str, default=None,
              help="Optional CSV dump of the compared rows.")
@shared_options
@_guarded
def compare(model, g, chi, n, detuning, tolerance, out, config, **system) -> None:
    """Pairwise branch-rate deviations between models.

    Exits 4 when any pair exceeds the tolerance."""
    settings = Settings(config)
    models = _resolve_models(settings.pick("model", model, "all", str))
    if len(models) < 2:
        raise ConfigurationError("compare needs at least two models")
    n_el = settings.pick("n", n, 1_000_000, int)
    g_n = _resolve_coupling(settings.pick("g", g, None, float),
                            settings.pick("chi", chi, None, float),
                            n_el, default_g=0.05)
    detunings = _parse_float_range(
        settings.pick("detuning", detuning, "-0.5:0.5:0.01", str), "detuning")
    tol = settings.pick("tolerance", tolerance, 5.0 * g_n, float)
    if tol < 0.0:
        raise ConfigurationError("tolerance must be non-negative")
    out_path = settings.pick("out", out, None, str)
    raw = settings.flag("raw_dicke", system.pop("raw_dicke"))
    overrides = _system_overrides(settings, **system)

    points = _operating_points([(float(det), g_n, n_el) for det in detunings],
                               overrides, raw)
    records = _evaluate(models, points)
    if out_path is not None:
        _write_records(out_path, records)

    by_model = {m: sorted((r for r in records if r.model == m),
                          key=lambda r: r.detuning) for m in models}
    worst = 0.0
    for i, first in enumerate(models):
        for second in models[i + 1:]:
            devs = [_pair_deviation(a, b) for a, b
                    in zip(by_model[first], by_model[second])]
            pair_max = max(devs)
            pair_mean = sum(devs) / len(devs)
            worst = max(worst, pair_max)
            click.echo(f"{first} vs {second}: max {pair_max:.6e} "
                       f"mean {pair_mean:.6e}")
    if worst > tol:
        click.echo(f"deviation {worst:.6e} exceeds tolerance {tol:.6e}",
                   err=True)
        sys.exit(4)
    click.echo(f"max deviation {worst:.6e} within tolerance {tol:.6e}")


@main.command()
@click.option("--n", type=int, default=None,
              help="Single electron number (2..8).")
@click.option("--n-range", type=str, default=None,
              help="start:stop:count[:lin|log] electron numbers "
                   "(default 2:4:3).")
@click.option("--g", type=float, default=None,
              help="Collective coupling g_N / omega_0 (default 0.02).")
@click.option("--detuning", type=str, default=None,
              help="Single detuning value (default -0.2).")
@click.option("--photon-cutoff", type=int, default=None,
              help="Starting photon cutoff (default 12, escalates by 4).")
@shared_options
@_guarded
def oracle(n, n_range, g, detuning, photon_cutoff, config, **system) -> None:
    """Exact diagonalization versus the perturbative fermionic pipeline.

    Prints removal strengths N|M|^2 for every labelled final state and
    exits 5 when a single-polariton strength misses the exact value by
    more than 10 (g/omega_0)^2 or the completeness sum is violated."""
    settings = Settings(config)
    if n is not None and n_range is not None:
        raise ConfigurationError("give either --n or --n-range, not both")
    if n is not None:
        n_values = [n]
    elif n_range is not None:
        n_values = _parse_n_range(n_range)
    else:
        n_file = settings.pick("n", None, None, int)
        if n_file is not None:
            n_values = [n_file]
        else:
            n_values = _parse_n_range(settings.pick("n_range", None, "2:4:3", str))
    g_n = settings.pick("g", g, 0.02, float)
    det_spec = settings.pick("detuning", detuning, "-0.2", str)
    detunings = _parse_float_range(det_spec, "detuning")
    if len(detunings) != 1:
        raise ConfigurationError("oracle takes a single detuning value")
    cutoff = settings.pick("photon_cutoff", photon_cutoff, 12, int)
    system.pop("raw_dicke")
    overrides = _system_overrides(settings, **system)

    budget = 10.0 * g_n * g_n
    failed = False
    for n_el in n_values:
        params = params_for_coupling(1.0 + float(detunings[0]), g_n, n_el,
                                     **overrides)
        report = compare_with_oracle(params, photon_cutoff=cutoff)
        click.echo(f"N={report.n_electrons} cutoff={report.photon_cutoff} "
                   f"g={_fmt(report.coupling)} "
                   f"E0_exact={_fmt(report.ground_energy_exact)} "
                   f"sum_rule_residual={report.sum_rule_residual:.3e}")
        click.echo("label  omega_exact      omega_pt         strength_exact"
                   "   strength_pt      rel_error")
        for row in report.rows:
            click.echo(f"{row.label:>5s}  {row.omega_exact:<15.9g}  "
                       f"{row.omega_pt:<15.9g}  {row.strength_exact:<15.9e}  "
                       f"{row.strength_pt:<15.9e}  {row.rel_error:.3e}")
        ok = (report.max_single_rel_error <= budget
              and report.sum_rule_residual <= 1e-10)
        click.echo(f"max single-polariton rel error "
                   f"{report.max_single_rel_error:.3e} "
                   f"(budget {budget:.3e}) {'ok' if ok else 'FAILED'}")
        failed = failed or not ok
    if failed:
        click.echo("oracle comparison failed", err=True)
        sys.exit(5)


@main.command()
@click.option("--model", type=str, default=None,
              help="pert, full or fermionic (default full).")
@click.option("--g", type=float, default=None,
              help="Collective coupling g_N / omega_0 (default 0.05).")
@click.option("--chi", type=float, default=None,
              help="Per-site coupling; g_N = chi * sqrt(N).")
@click.option("--n", type=int, default=None,
              help="Electron number (default 1000000).")
@click.option("--detuning", type=str, default=None,
              help="Single detuning value (default 0).")
@click.option("--points", type=int, default=None,
              help="Frequency samples (default 2001).")
@click.option("--out", type=str, default=None,
              help="Output CSV path (default spectrum.csv).")
@click.option("--emit-gnuplot", is_flag=True, default=False,
              help="Also write a gnuplot script next to the CSV.")
@shared_options
@_guarded
def spectrum(model, g, chi, n, detuning, points, out, emit_gnuplot,
             config, **system) -> None:
    """Two-Lorentzian emission spectrum at one operating point."""
    settings = Settings(config)
    model_name = settings.pick("model", model, "full", str)
    if model_name not in MODELS:
        raise ConfigurationError(
            f"model must be one of {', '.join(MODELS)}, got {model_name!r}")
    n_el = settings.pick("n", n, 1_000_000, int)
    g_n = _resolve_coupling(settings.pick("g", g, None, float),
                            settings.pick("chi", chi, None, float),
                            n_el, default_g=0.05)
    detunings = _parse_float_range(
        settings.pick("detuning", detuning, "0", str), "detuning")
    if len(detunings) != 1:
        raise ConfigurationError("spectrum takes a single detuning value")
    n_points = settings.pick("points", points, 2001, int)
    if n_points < 2:
        raise ConfigurationError("points must be at least 2")
    out_path = settings.pick("out", out, "spectrum.csv", str)
    raw = settings.flag("raw_dicke", system.pop("raw_dicke"))
    overrides = _system_overrides(settings, **system)

    params = _point_params(float(detunings[0]), g_n, n_el, overrides, raw)
    record = sweep_record(params, model_name, detuning=float(detunings[0]),
                          g_over_omega0=g_n)
    span = 10.0 * params.gamma_cav
    grid_points = np.linspace(record.omega_minus - span,
                              record.omega_plus + span, n_points)
    intensity = emission_spectrum(record, params.gamma_cav, grid_points)

    lines = ["omega,intensity"]
    lines.extend(f"{_fmt(w)},{_fmt(s)}" for w, s in zip(grid_points, intensity))
    Path(out_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if settings.flag("emit_gnuplot", emit_gnuplot):
        script = (
            f"csv = '{out_path}'\n"
            "set datafile separator ','\n"
            "set xlabel 'frequency (units of omega_0)'\n"
            "set ylabel 'intensity'\n"
            f"plot csv using 1:2 with lines title '{model_name}'\n")
        Path(out_path + ".gp").write_text(script, encoding="utf-8")
    click.echo(f"wrote {n_points} samples to {out_path}")


if __name__ == "__main__":
    main()
