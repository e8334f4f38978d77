"""Span tracer that times the package's layers from outside.

``Tracer.install`` replaces public functions under the names their
callers look up (``gse.cli.sweep_record``, ``numpy.linalg.eigh``, ...)
with wrappers that record a span: function, layer, start, end, parent and
an optional detail.  Spans stay in memory; ``layer_metrics`` turns one
pass's spans into the per-layer metrics.  A name that a later refactor
removes is skipped and listed in ``Tracer.missing``; its layer then reads
as not entered instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import threading
from time import perf_counter


class Span:
    __slots__ = ("func", "layer", "parent", "detail", "start", "end")

    def __init__(self, func, layer, parent, detail=None):
        self.func, self.layer, self.parent, self.detail = func, layer, parent, detail
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _model(args, kwargs):
    return kwargs.get("model", args[1] if len(args) > 1 else None)


def _dim(args, kwargs):
    return len(args[0]) if args else None


def targets(cli, emission, bosonic_full, oracle, linalg, oracle_map):
    """(owner, attribute, layer, detail) for every wrapped name."""
    return [
        (cli, "params_for_coupling", "params", None),
        (cli, "dicke_params", "params", None),
        (cli, "sweep_record", "emission", _model),
        (cli, "emission_spectrum", "emission.spectrum", None),
        (cli, "compare_with_oracle", "oracle", None),
        (emission, "jc_basis", "bosonic_pert", None),
        (emission, "perturbative_betas", "bosonic_pert", None),
        (emission, "single_polariton_rate_pert", "bosonic_pert", None),
        (emission, "photon_weight_pert", "bosonic_pert", None),
        (emission, "hopfield_modes", "bosonic_full", None),
        (emission, "single_polariton_rate_full", "bosonic_full", None),
        (emission, "photon_weight_full", "bosonic_full", None),
        (bosonic_full, "hopfield_modes", "bosonic_full", None),
        (emission, "fermionic_rates", "fermionic", None),
        (oracle, "dressed_ground_state", "fermionic", None),
        (oracle, "dressed_sector_states", "fermionic", None),
        (oracle, "transition_strength", "fermionic", None),
        (oracle_map, "params_for_coupling", "params", None),
        (oracle_map, "compare_with_oracle", "oracle", None),
        (linalg, "eigh", "eigh", _dim),
    ]


class Tracer:
    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.spans: list[Span] = []
        self.missing = sorted({f"{owner.__name__}.{attr}"
                               for owner, attr, _, _ in wrapped
                               if not callable(getattr(owner, attr, None))})
        self._local = threading.local()
        self._root: Span | None = None
        self._saved: list[tuple] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, func, layer, detail):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # a pool worker starts with an empty stack: its parent is the
            # command that started the pool
            span = Span(func, layer, stack[-1] if stack else self._root,
                        detail(args, kwargs) if detail else None)
            self.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
        return wrapper

    def install(self) -> None:
        for owner, attr, layer, detail in self.wrapped:
            fn = getattr(owner, attr, None)
            if callable(fn):
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(
                    fn, f"{owner.__name__}.{attr}", layer, detail))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    @contextlib.contextmanager
    def span(self, func: str, layer: str):
        """A span around the benchmark's own call into the program."""
        span = Span(func, layer, None)
        self.spans.append(span)
        self._root = span
        self._stack().append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack().pop()
            self._root = None


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the part of ``span`` that its children's union covers."""
    total, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _self_times(spans: list[Span]) -> list[float]:
    """Each span's time minus the part its child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    return [span.duration - _covered(span, children.get(id(span), []))
            for span in spans]


def function_table(spans: list[Span]) -> list[tuple[str, int, float, float]]:
    """(function, calls, total s, self s) per function, most self time first."""
    table: dict[str, list] = {}
    for span, own in zip(spans, _self_times(spans)):
        row = table.setdefault(span.func, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += span.duration
        row[2] += own
    return sorted(((func, *row) for func, row in table.items()),
                  key=lambda row: -row[3])


def _owner(span: Span) -> Span | None:
    """Nearest ancestor that is not an eigh call."""
    parent = span.parent
    while parent is not None and parent.layer == "eigh":
        parent = parent.parent
    return parent


LAYERS = ("cli", "params", "emission", "emission.spectrum", "bosonic_pert",
          "bosonic_full", "fermionic", "oracle")


def layer_metrics(spans: list[Span], cli_rows: int) -> tuple[dict, set]:
    """Per-layer metrics of one traced pass, and the set of layers entered.

    Self time is a span's time minus the part its child spans cover; eigh
    calls are children too, reported as ``<layer>.eigh_s``.  A tier's
    ``us_per_row`` is the time of its spans called from ``sweep_record``,
    eigh included, per row of that model.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    row_time = dict.fromkeys(LAYERS, 0.0)
    rows = {"pert": 0, "full": 0, "fermionic": 0}
    eigh_s = {"fermionic": 0.0, "oracle": 0.0}
    row_eigh = hopfield = oracle_dim = 0
    oracle_total = 0.0
    for span, own in zip(spans, _self_times(spans)):
        if span.layer == "eigh":
            owner = _owner(span)
            if owner is not None and owner.layer in eigh_s:
                eigh_s[owner.layer] += span.duration
                row_eigh += owner.func == "gse.emission.fermionic_rates"
                if owner.layer == "oracle":
                    oracle_dim = max(oracle_dim, span.detail or 0)
            continue
        if span.layer not in self_s:
            continue
        self_s[span.layer] += own
        calls[span.layer] += 1
        if span.parent is not None and span.parent.layer == "emission":
            row_time[span.layer] += span.duration
        if span.layer == "emission" and span.detail in rows:
            rows[span.detail] += 1
        if span.layer == "oracle":
            oracle_total += span.duration
        hopfield += span.func.endswith(".hopfield_modes")

    def per(value, count, scale):
        return value / count * scale if count else 0.0

    metrics = {
        "cli.self_s": self_s["cli"],
        "cli.self_us_per_row": per(self_s["cli"], cli_rows, 1e6),
        "cli.rows": cli_rows,
        "params.calls": calls["params"],
        "params.self_s": self_s["params"],
        "params.us_per_call": per(self_s["params"], calls["params"], 1e6),
        "emission.calls": calls["emission"],
        "emission.self_s": self_s["emission"],
        "emission.spectrum_s": self_s["emission.spectrum"],
        "oracle.solves": calls["oracle"],
        "oracle.self_s": self_s["oracle"],
        "oracle.ms_per_solve": per(oracle_total, calls["oracle"], 1e3),
        "oracle.eigh_s": eigh_s["oracle"],
        "oracle.max_dim": oracle_dim,
    }
    for layer, model in (("bosonic_pert", "pert"), ("bosonic_full", "full"),
                         ("fermionic", "fermionic")):
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.us_per_row"] = per(row_time[layer], rows[model], 1e6)
    metrics["bosonic_full.hopfield_modes_per_row"] = per(hopfield, rows["full"], 1)
    metrics["fermionic.eigh_per_row"] = per(row_eigh, rows["fermionic"], 1)
    metrics["fermionic.eigh_s"] = eigh_s["fermionic"]
    entered = {layer for layer in LAYERS if calls[layer]}
    return metrics, entered
