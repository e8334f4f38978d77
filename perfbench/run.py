"""gse benchmark: end-to-end timings with output checks, and layer traces.

Run from the root of a checkout (``gse`` need not be installed; ``src`` is
put on ``PYTHONPATH``):

    python3 perfbench/run.py --workload grid-dense --seed 1 --seconds 30 --trace 0

Each workload runs as a closed loop with one client: one program call at
a time, each starting after the previous one exits.  ``--trace 0`` times
passes of child processes and prints the end-to-end metrics; ``--trace 1``
runs the passes in process with the tracer installed and prints the
per-layer metrics.  Each timed call of the program runs at the same time
as the same call of ``control/gse``, a fixed copy of the package, both on
one CPU, and each time metric is the program's CPU time over the
control's, summed over the run, in seconds of the control's reference
time (``CONTROL_SECONDS``): the host's speed changes by tens of percent
from second to second, and the ratio cancels it.  Both modes first run
one untimed pass on the reference inputs and compare its outputs with
``reference.json``, and both check every output.  The last line of
standard output is one JSON object.

    python3 perfbench/run.py --quick            # every workload once, traced
    python3 perfbench/run.py --write-reference  # rewrite reference.json
"""

from __future__ import annotations

import os

# One BLAS thread, here and in every child; set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import importlib
import io
import json
import math
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONTROL = HERE / "control"
REFERENCE = HERE / "reference.json"
SCRATCH = HERE / ".work"

# Every child runs on one CPU, the first this process may use.  A program
# call and the control's run there at the same time, so the kernel slices
# the CPU between them and both see the host at the same speed.
CHILD_CPUS = sorted(os.sched_getaffinity(0))[:1]
CLI_BOOT = "import sys; from gse.cli import main; sys.argv[0] = 'gse'; main()"
STEP_TIMEOUT_S = 150
MIN_PAIRS = 3
STARTUP_SAMPLES = 5
# CPU times of the control on the 2-vCPU host of the README's baseline:
# one `import gse.cli`, and one pass of each workload.  They set the scale
# of the time metrics, which read as the program's CPU time on a host at
# the speed the control had there.
CONTROL_SECONDS = {"setup_s": 0.19, "readme-cli": 1.58, "grid-dense": 2.98,
                   "oracle-map": 3.28}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Counted on the reference pass, so they repeat for every seed.
REFERENCE_COUNTS = ("oracle.escalations", "oracle.budget_misses")


@dataclass
class Call:
    """One finished program call."""

    wall: float
    code: int
    stdout: str
    cpu: float = 0.0
    rss_kb: int = 0
    text: str | None = None
    """The step's output, read as soon as it exits."""
    missing: tuple[str, ...] = ()
    """Files of ``Step.also`` that it left missing or empty."""


@dataclass
class Pass:
    calls: list[Call]
    records: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    texts: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.calls)


def child_env(src: Path = SRC) -> dict[str, str]:
    """Environment of every child: the package under ``src`` importable,
    bytecode cached as for an installed package, no worker threads unless
    a step asks."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for key in ("GSE_NUM_THREADS", "PYTHONDONTWRITEBYTECODE"):
        env.pop(key, None)
    return env


Job = tuple[list[str], Path, dict[str, str]]
"""A child process to run: argv, working directory, environment."""


def step_job(step: workloads.Step, cwd: Path, src: Path) -> Job:
    if step.kind == "cli":
        argv = [sys.executable, "-c", CLI_BOOT, *step.args]
    else:
        argv = [sys.executable, str(HERE / "oracle_map.py"), *step.args]
    return argv, cwd, dict(child_env(src), **dict(step.env))


def import_job(cwd: Path, src: Path) -> Job:
    return [sys.executable, "-c", "import gse.cli"], cwd, child_env(src)


class Children:
    """Runs steps as child processes, started through ``launcher.py``."""

    def __init__(self, work: Path):
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, start_new_session=True)

    def spawn(self, *jobs: Job) -> list[Call]:
        """Runs the jobs at once, on ``CHILD_CPUS``, and waits for all."""
        outs = [(self.work / f"stdout{i}", self.work / f"stderr{i}")
                for i in range(len(jobs))]
        request = {"children": [{"argv": argv, "cwd": str(cwd), "env": env,
                                 "stdout": str(out), "stderr": str(err)}
                                for (argv, cwd, env), (out, err)
                                in zip(jobs, outs)],
                   "cpus": CHILD_CPUS, "timeout": STEP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process died")
        return [Call(res["wall"], res["code"],
                     out.read_text(encoding="utf-8", errors="replace"),
                     res["cpu"], res["rss_kb"])
                for res, (out, _) in zip(json.loads(reply), outs)]

    def call(self, step: workloads.Step, cwd: Path) -> Call:
        return self.spawn(step_job(step, cwd, SRC))[0]

    def close(self, kill: bool = False) -> None:
        if kill:
            # the launcher leads its own process group, with any child
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
        else:
            self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class InProcess:
    """Runs steps inside this interpreter, for the traced run."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        self.cli = importlib.import_module("gse.cli")
        self.oracle_map = importlib.import_module("oracle_map")
        self.tracer = tracing.Tracer(tracing.targets(
            self.cli, importlib.import_module("gse.emission"),
            importlib.import_module("gse.bosonic_full"),
            importlib.import_module("gse.oracle"),
            importlib.import_module("numpy.linalg"), self.oracle_map))
        self.traced = False

    def call(self, step: workloads.Step, cwd: Path) -> Call:
        saved_env = {key: os.environ.get(key) for key, _ in step.env}
        os.environ.update(step.env)
        saved_cwd = os.getcwd()
        os.chdir(cwd)
        out = io.StringIO()
        span = (self.tracer.span(step.name, "cli" if step.kind == "cli"
                                 else "oracle_map")
                if self.traced else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()), span:
                if step.kind == "cli":
                    self.cli.main.main(list(step.args), standalone_mode=False)
                else:
                    self.oracle_map.main(list(step.args))
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        finally:
            wall = time.perf_counter() - start
            os.chdir(saved_cwd)
            for key, value in saved_env.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        return Call(wall, code, out.getvalue())

    def traced_pass(self, steps: list[workloads.Step], work: Path
                    ) -> tuple[Pass, list[tracing.Span]]:
        self.tracer.spans = []
        self.tracer.install()
        self.traced = True
        try:
            run = run_pass(steps, work, self)
        finally:
            self.traced = False
            self.tracer.uninstall()
        spans, self.tracer.spans = self.tracer.spans, []
        return run, spans


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def collect(call: Call, step: workloads.Step, out_dir: Path) -> Call:
    """Reads the step's output now: a later step may write the same file."""
    with contextlib.suppress(OSError, UnicodeDecodeError):
        call.text = ((out_dir / step.output).read_text(encoding="utf-8")
                     if step.output else call.stdout)
    call.missing = tuple(
        name for name in step.also if not (out_dir / name).is_file()
        or (out_dir / name).stat().st_size == 0)
    return call


def run_pass(steps: list[workloads.Step], work: Path,
             runner: Children | InProcess) -> Pass:
    """One pass: every step in order, then every output checked."""
    out_dir = fresh_dir(work / "out")
    return judge(steps, [collect(runner.call(step, out_dir), step, out_dir)
                         for step in steps])


def run_pair(steps: list[workloads.Step], work: Path, children: Children,
             control_first: bool) -> tuple[Pass, Pass]:
    """A pass of the program and a pass of the control: each step runs on
    both sides at once, each side writing its own directory.  Both passes
    are checked."""
    out = {SRC: fresh_dir(work / "out"), CONTROL: fresh_dir(work / "control")}
    calls: dict[Path, list[Call]] = {SRC: [], CONTROL: []}
    order = (CONTROL, SRC) if control_first else (SRC, CONTROL)
    for step in steps:
        pair = children.spawn(*(step_job(step, out[src], src) for src in order))
        for src, call in zip(order, pair):
            calls[src].append(collect(call, step, out[src]))
    return judge(steps, calls[SRC]), judge(steps, calls[CONTROL])


def judge(steps: list[workloads.Step], calls: list[Call]) -> Pass:
    result = Pass(calls)
    written: dict[str, str] = {}
    for step, call in zip(steps, calls):
        problems = [f"{name} missing or empty" for name in call.missing]
        text = call.text
        if call.code != 0:
            problems.append(f"exit code {call.code}")
        elif text is None:
            problems.append("output missing or unreadable")
        else:
            try:
                checked = step.check(text)
            except (ValueError, IndexError) as exc:
                checked = workloads.Checked([f"malformed output: {exc}"])
            problems += checked.problems
            result.records += checked.records
            for key, value in checked.counts.items():
                result.counts[key] = result.counts.get(key, 0) + value
        if step.output and text is not None:
            # a file written again in the same pass must not change
            if written.setdefault(step.output, text) != text:
                problems.append(f"{step.output} differs from its first write")
        if text is not None:
            result.texts[step.name] = text
        if problems:
            result.failed += 1
            result.problems += [f"{step.name}: {p}" for p in problems[:5]]
    return result


def against_reference(name: str, ref_pass: Pass) -> dict[str, float]:
    """Compare a reference pass with ``reference.json``; problems count as
    failures of the pass."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[name]
    compared = identical = 0
    worst = 0.0
    failing = set()
    for step_name, ref in reference.items():
        text = ref_pass.texts.get(step_name)
        if text is None:
            continue
        problems, same, err = workloads.compare_digest(text, ref)
        compared += 1
        identical += same
        worst = max(worst, err)
        if problems:
            failing.add(step_name)
            ref_pass.problems += [f"{step_name}: {p}" for p in problems[:5]]
    ref_pass.failed += len(failing)
    return {"check.ref_outputs": compared, "check.bytes_identical": identical,
            "check.ref_rel_err_max": worst}


def reference_pass(name: str, work: Path, children: Children
                   ) -> tuple[Pass, dict[str, float]]:
    """The untimed warm-up pass, on the reference inputs."""
    run = run_pass(workloads.WORKLOADS[name](None), work, children)
    return run, against_reference(name, run)


def startup_breakdown(children: Children) -> dict[str, float]:
    """Median import times from ``python -X importtime``."""
    samples: dict[str, list[float]] = {}
    for _ in range(STARTUP_SAMPLES):
        children.spawn(([sys.executable, "-X", "importtime", "-c",
                         "import gse.cli"], children.work, child_env()))
        total = numpy_s = click_s = gse_s = 0.0
        for line in (children.work / "stderr0").read_text().splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                self_us = float(parts[0].split(":")[1])
                cumulative_us = float(parts[1])
            except ValueError:
                continue  # the column header
            module = parts[2].strip()
            total += self_us
            numpy_s += cumulative_us if module == "numpy" else 0.0
            click_s += cumulative_us if module == "click" else 0.0
            gse_s += self_us if module.split(".")[0] == "gse" else 0.0
        for key, value in (("startup.import_s", total),
                           ("startup.numpy_s", numpy_s),
                           ("startup.click_s", click_s),
                           ("startup.gse_self_s", gse_s)):
            samples.setdefault(key, []).append(value / 1e6)
    return {key: statistics.median(values) for key, values in samples.items()}


def metadata(children: Children) -> dict:
    probe = ("import json, sys, importlib.metadata as m, numpy\n"
             "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
             "print(json.dumps({'python': sys.version.split()[0],"
             " 'numpy': numpy.__version__,"
             " 'blas': f\"{blas.get('name')} {blas.get('version')}\","
             " 'click': m.version('click')}))")
    call, = children.spawn(([sys.executable, "-c", probe], children.work,
                            child_env()))
    meta = json.loads(call.stdout) if call.code == 0 else {}
    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    meta.update(nproc=len(os.sched_getaffinity(0)), child_cpus=CHILD_CPUS,
                cpu=cpu_model,
                machine=platform.machine(),
                OPENBLAS_NUM_THREADS=os.environ["OPENBLAS_NUM_THREADS"],
                clock="time.perf_counter (monotonic)")
    return meta


def measure(name: str, seed: int, seconds: float, children: Children) -> dict:
    """End-to-end metrics: pairs of program and control passes, each
    followed by a pair of imports, until time is up.  Which side starts
    first alternates from pair to pair."""
    reference, ref_stats = reference_pass(name, children.work, children)
    children.spawn(import_job(children.work, CONTROL))  # writes its bytecode
    steps = workloads.WORKLOADS[name](random.Random(seed))
    passes: dict[Path, list[Pass]] = {SRC: [], CONTROL: []}
    setups: dict[Path, list[float]] = {SRC: [], CONTROL: []}
    start = time.monotonic()
    while True:
        control_first = len(passes[SRC]) % 2 == 1
        program, control = run_pair(steps, children.work, children,
                                    control_first)
        passes[SRC].append(program)
        passes[CONTROL].append(control)
        order = (CONTROL, SRC) if control_first else (SRC, CONTROL)
        imports = children.spawn(*(import_job(children.work, src)
                                   for src in order))
        for src, call in zip(order, imports):
            setups[src].append(call.cpu)
        # stop at the pair boundary nearest to the end of the run
        elapsed = time.monotonic() - start
        per_pair = elapsed / len(passes[SRC])
        if len(passes[SRC]) >= MIN_PAIRS and elapsed + per_pair / 2 > seconds:
            break
    samples = {side: {"setup_s": setups[side],
                      "cpu_s": [sum(c.cpu for c in p.calls)
                                for p in passes[side]]}
               for side in (SRC, CONTROL)}
    scale = {"setup_s": CONTROL_SECONDS["setup_s"],
             "cpu_s": CONTROL_SECONDS[name]}
    values = {key: math.fsum(samples[SRC][key])
              / math.fsum(samples[CONTROL][key]) * scale[key]
              for key in scale}
    values["rows_per_s"] = (statistics.median(p.records for p in passes[SRC])
                            / values["cpu_s"])
    values["peak_rss_mb"] = max(c.rss_kb for p in passes[SRC]
                                for c in p.calls) * 1024 / 1e6
    all_passes = [reference] + passes[SRC] + passes[CONTROL]
    report(name, seed, all_passes, ref_stats,
           "the program's, then the control's")
    print(f"  the warm-up pass alone: wall {reference.wall:.4g} s, CPU "
          f"{sum(c.cpu for c in reference.calls):.4g} s (raw, not metrics)")
    print("  CPU time, program and control: medians (quartiles), the ratio"
          " of the run's sums, the metric")
    for key in scale:
        quoted = []
        for side in (SRC, CONTROL):
            q1, q2, q3 = statistics.quantiles(samples[side][key], n=4)
            quoted.append(f"{q2:.4g} ({q1:.4g}..{q3:.4g})")
        ratio = values[key] / scale[key]
        print(f"  {key:<11} {quoted[0]} / {quoted[1]} s  n={len(samples[SRC][key])}"
              f"  ratio {ratio:.4f}  -> {values[key]:.6g} s")
        print("    pair by pair: " + " ".join(
            f"{a / b:.3f}" for a, b in zip(samples[SRC][key],
                                           samples[CONTROL][key])))
    print(f"  {'rows_per_s':<11} {values['rows_per_s']:.6g} 1/s")
    print(f"  {'peak_rss_mb':<11} {values['peak_rss_mb']:.6g} MB  (largest of "
          f"{sum(len(p.calls) for p in passes[SRC])} program children)")
    return result(all_passes, {k: (values[k], u)
                               for k, u in END_TO_END_UNITS.items()})


def trace(name: str, seed: int, seconds: float, children: Children) -> dict:
    """Per-layer metrics: traced passes in process, alternating with
    untraced ones so the tracing overhead is measured alongside."""
    reference, ref_stats = reference_pass(name, children.work, children)
    startup = startup_breakdown(children)
    inproc = InProcess()
    if inproc.tracer.missing:
        print("not wrapped (name not found): " + ", ".join(inproc.tracer.missing))
    steps = workloads.WORKLOADS[name](random.Random(seed))
    cli_steps = steps[0].kind == "cli"
    passes: list[Pass] = []
    plain: list[float] = []
    traced: list[float] = []
    layer_values: dict[str, list[float]] = {}
    entered: set[str] = set()
    spans: list[tracing.Span] = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or not traced:
        run = run_pass(steps, children.work, inproc)
        plain.append(run.wall)
        passes.append(run)
        run, spans = inproc.traced_pass(steps, children.work)
        traced.append(run.wall)
        passes.append(run)
        layers, seen = tracing.layer_metrics(
            spans, run.records if cli_steps else 0)
        entered |= seen
        for key, value in layers.items():
            layer_values.setdefault(key, []).append(value)
    values = {key: (statistics.median_low(v) if PER_LAYER_UNITS[key] == "count"
                    else statistics.median(v))
              for key, v in layer_values.items()}
    values.update(startup)
    values.update(ref_stats)
    for key in REFERENCE_COUNTS:
        values[key] = reference.counts.get(key, 0)
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.untraced_wall_s"] = statistics.median(plain)
    values["trace.overhead_s"] = (values["trace.wall_s"]
                                  - values["trace.untraced_wall_s"])
    all_passes = [reference] + passes
    report(name, seed, all_passes, ref_stats,
           "untraced and traced in turn")
    print("  last traced pass, by self time: function, calls, total s, self s")
    for func, calls, total, own in tracing.function_table(spans)[:12]:
        print(f"    {func:<40} {calls:>7} {total:>10.4f} {own:>10.4f}")
    for key, unit in PER_LAYER_UNITS.items():
        layer = key.rsplit("_", 1)[0] if key == "emission.spectrum_s" \
            else key.split(".")[0]
        note = "" if (layer not in tracing.LAYERS or layer in entered
                      or key in REFERENCE_COUNTS) else "  (not entered)"
        print(f"  {key:<36} {values[key]:.6g} {unit}{note}")
    return result(all_passes, {k: (values[k], u)
                               for k, u in PER_LAYER_UNITS.items()})


def report(name: str, seed: int, passes: list[Pass], ref_stats: dict,
           rest: str) -> None:
    attempted = sum(len(p.calls) for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {name} seed {seed}: {len(passes)} passes (the first on "
          f"the reference inputs, then {rest}), {attempted} calls, fail_ratio "
          f"{failed / attempted:.6g}; reference: "
          f"{ref_stats['check.bytes_identical']}/{ref_stats['check.ref_outputs']}"
          f" outputs byte-identical, largest relative error "
          f"{ref_stats['check.ref_rel_err_max']:.3g}")
    for problem in [p for run in passes for p in run.problems][:20]:
        print(f"  FAILED {problem}")


def result(passes: list[Pass], metrics: dict[str, tuple[float, str]]) -> dict:
    attempted = sum(len(p.calls) for p in passes)
    failed = sum(p.failed for p in passes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def write_reference(children: Children) -> int:
    reference = {}
    for name, make_steps in workloads.WORKLOADS.items():
        steps = make_steps(None)
        run = run_pass(steps, children.work, children)
        if run.failed:
            print("\n".join(run.problems), file=sys.stderr)
            return 1
        reference[name] = {
            step.name: workloads.digest(
                run.texts[step.name],
                bool(step.output and step.output.endswith(".csv")))
            for step in steps}
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


def quick(children: Children) -> dict:
    """Every workload once, traced; the exact per-row counts must hold."""
    expected = {"fermionic.eigh_per_row": 7,
                "bosonic_full.hopfield_modes_per_row": 2}
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        res = trace(name, 0, 0.0, children)
        out["attempted"] += res["attempted"]
        out["failed"] += res["failed"]
        out["correct"] &= res["correct"]
        for key, metric in res["metrics"].items():
            out["metrics"][f"{name}/{key}"] = metric
        if name != "oracle-map":
            for key, want in expected.items():
                if res["metrics"][key]["value"] != want:
                    print(f"FAILED {name}: {key} = "
                          f"{res['metrics'][key]['value']}, expected {want}")
                    out["correct"] = False
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="gse benchmark", epilog="see perfbench/README.md")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run every workload once, traced, and check "
                             "the exact per-row counts")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json from the reference inputs")
    args = parser.parse_args(argv)
    if not (args.workload or args.quick or args.write_reference):
        parser.error("give --workload, --quick or --write-reference")
    if not (SRC / "gse" / "cli.py").is_file():
        print(f"error: no gse sources under {SRC}", file=sys.stderr)
        return 2

    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    children = Children(work)
    finished = False
    try:
        if args.write_reference:
            code = write_reference(children)
            finished = True
            return code
        print("meta " + json.dumps(metadata(children), sort_keys=True))
        if args.quick:
            res = quick(children)
        elif args.trace:
            res = trace(args.workload, args.seed, args.seconds, children)
        else:
            res = measure(args.workload, args.seed, args.seconds, children)
        finished = True
    finally:
        children.close(kill=not finished)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    print(json.dumps(res))
    return 0 if not args.quick or res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
