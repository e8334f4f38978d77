"""Command line driver.

Five subcommands cover the workflows behind the figures: ``sweep``
(detuning scans at fixed coupling), ``grid`` (detuning x electron
number at fixed per-site coupling), ``compare`` (deviation report over
the pairs of all three models), ``oracle`` (exact-diagonalization
certification of the fermionic pipeline) and ``spectrum`` (emission
lineshape at one operating point).

Exit codes: 0 success, 2 configuration problems, 3 physics problems
(unstable parameter regions, offending values echoed), 4 compare
deviations beyond tolerance, 5 oracle failures.

Every option is declared once, in ``_OPTIONS``; a command names the
options it takes and their defaults.  Each value comes from its flag if
given, else from the ``--config`` file (INI syntax, any section names,
keys spelled like the flags; booleans 1/yes/true/on or 0/no/false/off),
else from the command's default.  Every option a command takes reaches
its output.  Of the exclusive pairs ``--g``/``--chi`` and ``--n``/
``--n-range`` a command uses the member from the higher of those
sources; both members as flags, or both in the config file, is an error.
Each command builds all its operating points (every detuning with every
electron number) as one ``ParamStack``, validated and renormalized over
arrays by ``params.stack_for_coupling``, then evaluates each model over
that stack one slice of ``params.chunks`` at a time
(``emission.sweep_chunks``) and formats each chunk's CSV rows straight
from its columns, streaming them to a temporary file that replaces --out
after the last row.  Memory thus holds the stack and one chunk, not every
model's columns.  All of it runs in one thread.

A call loads only what it runs: ``gse.oracle`` loads when the ``oracle``
command runs, and ``configparser`` when a ``--config`` file is read.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import stat
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import click
import numpy as np

from . import __version__
from .emission import MODELS, emission_spectrum, sweep_chunks, sweep_record
from .errors import ConfigurationError, CutoffNotConverged, GseError, Unstable
from .params import (MAX_CUTOFF, MAX_N, PHOTON_CUTOFF_STEP, ParamStack,
                     chunks, stack_for_coupling)

CSV_HEADER = ("model,detuning,g,N,rate_p,rate_m,rate_sum,flux_p,flux_m,"
              "flux_sum,weight_p,weight_m,tot_p,tot_m,tot_sum")

_CSV_ROW = "%s,%.17g,%.17g,%d" + ",%.17g" * 11

# The ``sweep_columns`` that fill the 11 value fields of a CSV row.
_CSV_VALUES = ("rate_plus", "rate_minus", "gse_rate", "flux_plus",
               "flux_minus", "gse_flux", "weight_plus", "weight_minus",
               "tot_plus", "tot_minus", "tot_rate")

# Most operating points (detunings x electron numbers) or spectrum
# samples one command takes.  Time and memory grow in proportion, so
# larger requests are refused, counted from the range arithmetic before
# anything is allocated.
MAX_POINTS = 10**6


def _fmt(value: float) -> str:
    return "%.17g" % value


def _load_config(path: str | None) -> dict[str, str]:
    """Flatten an INI file into one key -> string mapping."""
    if path is None:
        return {}
    import configparser

    parser = configparser.ConfigParser()
    flat: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
        for section in parser.sections():  # values interpolate here
            for key, value in parser[section].items():
                flat[key.replace("-", "_")] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file {path}: {exc}") from exc
    return flat


@dataclass(frozen=True)
class _Option:
    """One option.  Its config-file key is its name in ``_OPTIONS``; its
    flag is that name with '-' for '_'.  ``field`` names the
    ``SystemParams`` field a system option overrides."""

    type: type
    help: str
    field: str | None = None


_OPTIONS = {
    "model": _Option(str, "pert, full or fermionic, or all where the "
                          "command takes several"),
    "g": _Option(float, "Collective coupling g_N / omega_0"),
    "chi": _Option(float, "Per-site coupling; g_N = chi * sqrt(N)"),
    "n": _Option(int, "Electron number"),
    "n_range": _Option(str, "start:stop:count[:lin|log] electron numbers"),
    "detuning": _Option(str, "start:stop:step range or a single value"),
    "tolerance": _Option(float, "Maximum allowed relative deviation "
                                "(default 5 * g / omega_0)"),
    "photon_cutoff": _Option(int, "Starting photon cutoff (at most "
                                  f"{MAX_CUTOFF}, escalates by "
                                  f"{PHOTON_CUTOFF_STEP})"),
    "points": _Option(int, "Frequency samples"),
    "out": _Option(str, "Output CSV path"),
    "emit_gnuplot": _Option(bool, "Also write a gnuplot script next to "
                                  "the CSV"),
    "omega2_ref": _Option(float, "Doubly occupied site reference frequency",
                          "omega_2_ref"),
    "mu_l": _Option(float, "Left lead chemical potential", "mu_l"),
    "mu_r": _Option(float, "Right lead chemical potential", "mu_r"),
    "gamma_cav": _Option(float, "Cavity loss rate", "gamma_cav"),
    "gamma_dark_plus": _Option(float, "Non-radiative decay of the upper "
                                      "branch", "gamma_dark_plus"),
    "gamma_dark_minus": _Option(float, "Non-radiative decay of the lower "
                                       "branch", "gamma_dark_minus"),
    "raw_dicke": _Option(bool, "Skip the diamagnetic renormalization of "
                               "the cavity frequency and coupling"),
}

# A command taking both members of a pair uses one of them.
_EXCLUSIVE = (("g", "chi"), ("n", "n_range"))

# The system settings of every command but ``oracle``; None leaves the
# ``SystemParams`` default.  The oracle's exact Hamiltonian has no loss or
# diamagnetic term, and the strengths it compares are not gated by the
# leads, so it takes none of them.
_RENORMALIZED = dict(omega2_ref=None, mu_l=None, mu_r=None, gamma_cav=None,
                     gamma_dark_plus=None, gamma_dark_minus=None,
                     raw_dicke=False)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _from_config(key: str, raw: str):
    kind = _OPTIONS[key].type
    try:
        if kind is bool:
            import configparser

            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return kind(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigurationError(f"bad config value {key} = {raw!r}") from exc


def _resolve(flags: dict, config: dict[str, str],
             defaults: dict) -> SimpleNamespace:
    """Every option's value: its flag if given, else its config-file
    value, else the command's default.

    Options the command does not take resolve to None.  Of an exclusive
    pair, the member from the higher source is kept and the other set to
    None; both from flags or both from the config file is an error, as
    is an electron number below 1 or above ``MAX_N``.  ``overrides``
    holds the system options that resolved to a value, keyed by
    ``SystemParams`` field.
    """
    values = dict.fromkeys(_OPTIONS)
    rank = {}
    for key, default in defaults.items():
        if flags[key] is not None:
            values[key], rank[key] = flags[key], 2
        elif key in config:
            values[key], rank[key] = _from_config(key, config[key]), 1
        else:
            values[key], rank[key] = default, 0
    for first, second in _EXCLUSIVE:
        if first not in rank or second not in rank:
            continue
        if rank[first] == rank[second] > 0:
            where = " in the config file" if rank[first] == 1 else ""
            raise ConfigurationError(f"give either {_flag(first)} or "
                                     f"{_flag(second)}{where}, not both")
        if rank[first] != rank[second]:
            values[first if rank[first] < rank[second] else second] = None
    if values["n"] is not None and not 1 <= values["n"] <= MAX_N:
        raise ConfigurationError(
            f"N must be at least 1 and at most 2**53, got {values['n']}")
    overrides = {_OPTIONS[key].field: value for key, value in values.items()
                 if _OPTIONS[key].field and value is not None}
    return SimpleNamespace(overrides=overrides, **values)


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


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Ground-state electroluminescence rates, fluxes and spectra."""


def _command(**defaults):
    """Register a subcommand taking the options named in ``defaults``,
    with those defaults.  The function receives the resolved values as
    one namespace (see ``_resolve``)."""

    def decorate(fn):
        @functools.wraps(fn)
        def run(config, **flags):
            fn(_resolve(flags, _load_config(config), defaults))

        run = _guarded(run)
        for key, default in reversed(defaults.items()):
            option = _OPTIONS[key]
            note = ("" if default is None or option.type is bool
                    else f" (default {default})")
            run = click.option(_flag(key), type=option.type,
                               is_flag=option.type is bool, default=None,
                               help=f"{option.help}{note}.")(run)
        run = click.option("--config", type=str, default=None,
                           help="INI file supplying defaults for any "
                                "flag.")(run)
        return main.command()(run)

    return decorate


def _parse_float_range(spec: str, what: str) -> np.ndarray:
    """'start:stop:step' inclusive of both ends; a bare float is a
    single-point range.  A step too small to move a sample to the next
    float is refused, as it would repeat operating points."""
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
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigurationError(f"{what} range must be finite, got {spec!r}")
    if step <= 0.0 or stop < start:
        raise ConfigurationError(f"empty {what} range {spec!r}")
    # count = floor(span) + 1 stays within MAX_POINTS exactly when
    # span < MAX_POINTS; an overflowing span is inf and fails too
    span = (stop - start) / step + 1e-9
    if not span < MAX_POINTS:
        raise ConfigurationError(
            f"{what} range {spec!r} has more than {MAX_POINTS} points")
    count = int(math.floor(span)) + 1
    samples = start + step * np.arange(count)
    repeated = np.flatnonzero(samples[1:] == samples[:-1])
    if repeated.size:
        raise ConfigurationError(
            f"{what} range {spec!r} repeats the sample "
            f"{samples[repeated[0]].item()!r}: its step is below the float "
            f"resolution there")
    return samples


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
    if stop > MAX_N:
        raise ConfigurationError(f"N range {spec!r} ends above 2**53")
    if count > MAX_POINTS:
        raise ConfigurationError(
            f"N range {spec!r} has more than {MAX_POINTS} points")
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


def _single_detuning(opts: SimpleNamespace, command: str) -> np.ndarray:
    detunings = _parse_float_range(opts.detuning, "detuning")
    if len(detunings) != 1:
        raise ConfigurationError(f"{command} takes a single detuning value")
    return detunings


def _resolve_models(name: str) -> tuple[str, ...]:
    if name == "all":
        return MODELS
    if name in MODELS:
        return (name,)
    raise ConfigurationError(
        f"model must be one of {', '.join(MODELS)} or all, got {name!r}")


def _coupling(opts: SimpleNamespace, n):
    """Collective coupling g_N at each electron number of ``n``: --g, or
    --chi scaled to N."""
    if opts.g is not None:
        return np.full(np.shape(n), opts.g)
    with np.errstate(over="ignore"):  # an infinite g_N is rejected later
        return opts.chi * np.sqrt(n)


def _operating_points(opts: SimpleNamespace, detunings: np.ndarray,
                      raw: bool) -> tuple[ParamStack, tuple[np.ndarray, ...]]:
    """The stack of every detuning with every electron number (--n, else
    --n-range), in (detuning, N) order: both ranges ascend.  Also the
    points' CSV coordinates, the requested bare values, as the three
    arrays detuning, g_N and N.

    Every point is built and validated, one slice of ``params.chunks``
    at a time, before any is evaluated.  The errors are those of the
    scalar ``params_for_coupling`` and ``dicke_params`` calls, through which
    ``stack_for_coupling`` replays the failing points: the first invalid
    point wins, else all unstable points are reported together, counted
    over the whole grid.  With ``raw`` the diamagnetic renormalization is
    skipped.
    """
    n_values = ([opts.n] if opts.n is not None
                else _parse_n_range(opts.n_range))
    if len(detunings) * len(n_values) > MAX_POINTS:
        raise ConfigurationError(
            f"{len(detunings)} detunings x {len(n_values)} electron numbers "
            f"exceed {MAX_POINTS} operating points")
    n = np.tile(np.array(n_values, dtype=np.int64), len(detunings))
    detuning = np.repeat(detunings, len(n_values))
    g_n = _coupling(opts, n)
    points = stack_for_coupling(detuning, g_n, n, raw=raw, **opts.overrides)
    return points, (detuning, g_n, n)


def _csv_rows(chunks, coordinates: tuple[np.ndarray, ...]):
    """One CSV row per point of each (model, slice, columns) chunk."""
    detuning, g_n, n = coordinates
    for model, where, columns in chunks:
        table = np.stack([columns[name] for name in _CSV_VALUES], axis=-1)
        for det, g, n_i, row in zip(detuning[where].tolist(),
                                    g_n[where].tolist(), n[where].tolist(),
                                    table.tolist()):
            yield _CSV_ROW % (model, det, g, n_i, *row)


_RATE_AXES = ("set xlabel 'detuning (omega_c - omega_0)/omega_0'",
              "set ylabel 'emission rate (units of Gamma_el)'",
              "set key top right")
_SPECTRUM_AXES = ("set xlabel 'frequency (units of omega_0)'",
                  "set ylabel 'intensity'")


def _open_output(path: str, temporaries: dict):
    """A text handle that writes ``path`` as ``open(path, "w")`` would.

    A missing path or a writable regular file is left as it is: the
    handle writes a new temporary file beside it (beside a symlink's
    target, so the link stays), recorded in ``temporaries`` as temporary
    -> (target, mode to give it).  Its mode is that of the file it
    replaces, or 0o666 less the umask.  Anything else, such as a FIFO, a
    device or a read-only file, any path under /dev or /proc (/dev/stdout
    may alias a regular file), and a path beside which no temporary file
    can be made, is opened in place, with the errors of ``open``.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if ((mode is None or (stat.S_ISREG(mode) and os.access(path, os.W_OK)))
            and os.path.basename(path)
            and not os.path.abspath(path).startswith(("/dev/", "/proc/"))):
        target = os.path.realpath(path)
        temporary = f"{target}.{os.urandom(4).hex()}.tmp"
        try:  # the umask applies to 0o666, as for a file open() creates
            fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                         0o666)
        except OSError:  # e.g. a directory that is not writable itself
            pass
        else:
            temporaries[temporary] = target, mode
            return open(fd, "w", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


@contextlib.contextmanager
def _outputs(paths: list[str]):
    """One text handle per path (``_open_output``).  Once the block ends
    the files are closed, and only then is each temporary file moved over
    its target, the CSV's first.  The moves are separate steps: should
    the script's fail after the CSV's, the new CSV stays beside the old
    script.  On any error every temporary file left is removed, leaving
    its target as it was."""
    handles, temporaries = [], {}
    try:
        for path in paths:
            handles.append(_open_output(path, temporaries))
        yield handles
        for handle in handles:
            handle.close()
        for temporary, (target, mode) in list(temporaries.items()):
            if mode is not None:
                os.chmod(temporary, stat.S_IMODE(mode))
            os.replace(temporary, target)
            del temporaries[temporary]
    finally:
        for handle in handles:
            with contextlib.suppress(OSError):  # the error under way wins
                handle.close()
        for temporary in temporaries:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temporary)


def _write_csv(path: str, header: str, rows, plot=None) -> None:
    """Write the CSV, streaming ``rows`` (consumed once) to the file as
    they come; ``plot`` = (axis settings, curves) also writes a gnuplot
    script of it to ``path + '.gp'``.

    Both files are opened before the first row is drawn and land
    together after the last (``_outputs``), so an error on the way, in
    the rows or in the writing, leaves each file as it was.  An
    ``OSError`` exits 2 once the rest of the rows are drawn, so that an
    error of theirs still comes first.
    """
    paths = [path] if plot is None else [path, path + ".gp"]
    try:
        with _outputs(paths) as handles:
            handles[0].write(header + "\n")
            handles[0].writelines(row + "\n" for row in rows)
            if plot is not None:
                axes, curves = plot
                script = [f"csv = '{path}'", "set datafile separator ','",
                          *axes, "plot " + ", ".join(curves)]
                handles[1].write("\n".join(script) + "\n")
    except OSError as exc:
        for _ in rows:
            pass
        raise ConfigurationError(f"cannot write output file: {exc}") from exc


def _rate_columns(opts: SimpleNamespace, models: tuple[str, ...],
                  kept: tuple[str, ...] = (),
                  ) -> tuple[dict[str, dict[str, np.ndarray]], int]:
    """Evaluate ``models`` over the operating points of ``opts`` and
    write them to --out, if set, in (model, detuning, N) order.

    Every point is validated first (``_operating_points``); then each
    model, in sorted order, is evaluated and written one slice of
    ``params.chunks`` at a time, so the first model to fail raises.
    Returns, per model, the ``sweep_columns`` named in ``kept`` over all
    points, and the number of rows.
    """
    detunings = _parse_float_range(opts.detuning, "detuning")
    points, coordinates = _operating_points(opts, detunings, opts.raw_dicke)
    columns = {model: {name: np.empty(len(points)) for name in kept}
               for model in sorted(models)}

    def evaluated():
        for model, whole in columns.items():
            for where, values in sweep_chunks(points, model):
                for name, column in whole.items():
                    column[where] = values[name]
                yield model, where, values

    if opts.out is None:
        for _ in evaluated():
            pass
    else:
        curves = [f"csv using 2:(strcol(1) eq '{m}' ? $7 : 1/0) "
                  f"with lines title '{m}'" for m in models]
        _write_csv(opts.out, CSV_HEADER, _csv_rows(evaluated(), coordinates),
                   (_RATE_AXES, curves) if opts.emit_gnuplot else None)
    return columns, len(models) * len(points)


@_command(model="all", g=0.05, chi=None, n=1_000_000,
          detuning="-0.5:0.5:0.01", out="sweep.csv", emit_gnuplot=False,
          **_RENORMALIZED)
def sweep(opts: SimpleNamespace) -> None:
    """Detuning sweep at fixed coupling, one CSV row per model point."""
    _, rows = _rate_columns(opts, _resolve_models(opts.model))
    click.echo(f"wrote {rows} rows to {opts.out}")


@_command(model="all", chi=3e-3, n_range="100:10000:3:log", detuning="0",
          out="grid.csv", emit_gnuplot=False, **_RENORMALIZED)
def grid(opts: SimpleNamespace) -> None:
    """Detuning x electron-number grid at fixed per-site coupling."""
    _, rows = _rate_columns(opts, _resolve_models(opts.model))
    click.echo(f"wrote {rows} rows to {opts.out}")


_COMPARED = ("rate_plus", "rate_minus")


def _deviations(a: dict[str, np.ndarray], b: dict[str, np.ndarray]):
    """Per point, the larger relative deviation between two models'
    branch rates, as floats computed one slice of ``params.chunks`` at a
    time; a branch where both rates are 0 counts as 0."""
    for where in chunks(len(a["rate_plus"])):
        dev = np.zeros(len(a["rate_plus"][where]))
        for name in _COMPARED:
            x, y = a[name][where], b[name][where]
            scale = np.maximum(abs(x), abs(y))
            with np.errstate(invalid="ignore"):
                dev = np.where(scale > 0.0,
                               np.maximum(dev, abs(x - y) / scale), dev)
        yield from dev.tolist()


@_command(g=0.05, chi=None, n=1_000_000, detuning="-0.5:0.5:0.01",
          tolerance=None, out=None, **_RENORMALIZED)
def compare(opts: SimpleNamespace) -> None:
    """Pairwise branch-rate deviations between all three models.

    Exits 4 when any pair exceeds the tolerance; --out also writes the
    compared rows."""
    tol = opts.tolerance
    if tol is None:
        tol = 5.0 * float(_coupling(opts, opts.n))
    elif not 0.0 <= tol < math.inf:
        raise ConfigurationError(
            f"tolerance must be finite and non-negative, got {tol!r}")
    columns, _ = _rate_columns(opts, MODELS, _COMPARED)
    count = len(columns[MODELS[0]]["rate_plus"])
    worst = 0.0
    for i, first in enumerate(MODELS):
        for second in MODELS[i + 1:]:
            # one max() and one sum() over all deviations, as over a list
            # of them, so every Python version rounds the mean as before
            pair = columns[first], columns[second]
            pair_max = max(_deviations(*pair))
            pair_mean = sum(_deviations(*pair)) / count
            worst = max(worst, pair_max)
            click.echo(f"{first} vs {second}: max {pair_max:.6e} "
                       f"mean {pair_mean:.6e}")
    if worst > tol:
        click.echo(f"deviation {worst:.6e} exceeds tolerance {tol:.6e}",
                   err=True)
        sys.exit(4)
    click.echo(f"max deviation {worst:.6e} within tolerance {tol:.6e}")


@_command(n=None, n_range="2:4:3", g=0.02, detuning="-0.2",
          photon_cutoff=12)
def oracle(opts: SimpleNamespace) -> None:
    """Exact diagonalization versus the perturbative fermionic pipeline.

    Prints removal strengths N|M|^2 for every labelled final state and
    exits 5 when a single-polariton strength misses the exact value by
    more than 10 (g/omega_0)^2 or the completeness sum is violated.  The
    exact Hamiltonian has no diamagnetic term, so the operating points
    are not renormalized, and E0_exact is at the default dot level.
    Every point's sector is checked before any is solved, and every
    report is built before any is printed."""
    from .oracle import TruncatedHilbertSpace, compare_with_oracle

    stack, _ = _operating_points(opts, _single_detuning(opts, "oracle"),
                                 raw=True)
    points = stack.params()
    for params in points:  # the electron cap, checked before any solve
        TruncatedHilbertSpace(params.n_electrons, opts.photon_cutoff)
    reports = [compare_with_oracle(params, photon_cutoff=opts.photon_cutoff)
               for params in points]
    budget = 10.0 * opts.g * opts.g
    failed = False
    for report in reports:
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


@_command(model="full", g=0.05, chi=None, n=1_000_000, detuning="0",
          points=2001, out="spectrum.csv", emit_gnuplot=False,
          **_RENORMALIZED)
def spectrum(opts: SimpleNamespace) -> None:
    """Two-Lorentzian emission spectrum at one operating point."""
    if opts.model not in MODELS:
        raise ConfigurationError(
            f"model must be one of {', '.join(MODELS)}, got {opts.model!r}")
    detunings = _single_detuning(opts, "spectrum")
    if opts.points < 2:
        raise ConfigurationError("points must be at least 2")
    if opts.points > MAX_POINTS:
        raise ConfigurationError(f"points must be at most {MAX_POINTS}")
    stack, _ = _operating_points(opts, detunings, opts.raw_dicke)
    [params] = stack.params()
    record = sweep_record(params, opts.model)
    span = 10.0 * params.gamma_cav
    # a span beyond float range makes a grid emission_spectrum rejects
    with np.errstate(over="ignore", invalid="ignore"):
        grid_points = np.linspace(record.omega_minus - span,
                                  record.omega_plus + span, opts.points)
    intensity = emission_spectrum(record, params.gamma_cav, grid_points)

    curves = [f"csv using 1:2 with lines title '{opts.model}'"]
    _write_csv(opts.out, "omega,intensity",
               (f"{_fmt(w)},{_fmt(s)}" for w, s in zip(grid_points, intensity)),
               (_SPECTRUM_AXES, curves) if opts.emit_gnuplot else None)
    click.echo(f"wrote {opts.points} samples to {opts.out}")


if __name__ == "__main__":
    main()
