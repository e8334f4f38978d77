import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gse.bosonic_full import lambda_pm
from gse.emission import MODELS, sweep_record
from gse.errors import ConfigurationError, GseError, Unstable
from gse.params import (
    CHUNK_POINTS,
    MAX_N,
    ParamStack,
    SystemParams,
    collective_coupling,
    dicke_params,
    params_for_coupling,
    _valid,
    stack_for_coupling,
)


def make(**kw):
    base = dict(omega_c=1.0, chi=1e-3, n_electrons=100, n_sites_total=200)
    base.update(kw)
    return SystemParams(**base)


def test_defaults_are_valid():
    p = make()
    assert p.omega_0 == 1.0
    assert p.detuning == 0.0
    assert p.omega_1 == pytest.approx(4.0)


def test_detuning_property():
    assert make(omega_c=0.8).detuning == pytest.approx(-0.2)
    assert make(omega_c=1.3).detuning == pytest.approx(0.3)


_POSITIVE = "omega_0 and omega_c must be positive"
_DARK = "dark conversion rates must be >= 0"
_GATING = "gating requires mu_l < mu_r < omega_2_ref"
_WHOLE = "n_electrons and n_sites_total must be whole numbers, got "

# (overrides of ``make``, the exact ConfigurationError message)
REJECTED = [
    (dict(omega_c=-1.0), _POSITIVE),
    (dict(omega_c=0.0), _POSITIVE),
    (dict(chi=-1e-3), "chi must be non-negative"),
    (dict(n_electrons=0),
     "need 1 <= n_electrons <= n_sites_total, got 0/200"),
    (dict(n_electrons=300),  # exceeds n_sites_total
     "need 1 <= n_electrons <= n_sites_total, got 300/200"),
    (dict(gamma_dark_minus=-1e-3), _DARK),
    (dict(gamma_el=0.0), "gamma_el must be positive"),
    (dict(gamma_cav=5e-4),  # below 10*gamma_el
     "gamma_cav must dominate electron tunneling (gamma_cav >= 10*gamma_el)"),
    (dict(mu_l=5.0), _GATING),  # violates mu_l < mu_r
    (dict(omega_2_ref=4.0), _GATING),  # violates mu_r < omega_2_ref
    (dict(chi=0.0, n_electrons=MAX_N + 1,  # beyond float64 integers
          n_sites_total=MAX_N + 2),
     f"n_electrons must be at most 2**53, got {MAX_N + 1}"),
    (dict(omega_0=0.0), _POSITIVE),
    (dict(gamma_dark_plus=-1e-3), _DARK),
    (dict(n_electrons=2.5), _WHOLE + "2.5/200"),
    (dict(n_sites_total=200.5), _WHOLE + "100/200.5"),
    (dict(n_sites_total=math.inf), _WHOLE + "100/inf"),
    (dict(n_sites_total=10**400),  # beyond float range
     f"n_sites_total must be within float range, got {10**400}"),
    # too many digits for Python to print: the message gives the size
    (dict(n_sites_total=10**5000),
     "n_sites_total must be within float range, got about 10**5000"),
    (dict(n_electrons=-10**5000),
     "need 1 <= n_electrons <= n_sites_total, got about -10**5000/200"),
    # exact ints that overflow a float
    (dict(omega_c=10**400), f"omega_c must be finite, got {10**400}"),
    (dict(omega_2_ref=10**400), f"omega_2_ref must be finite, got {10**400}"),
    (dict(gamma_cav=10**400), f"gamma_cav must be finite, got {10**400}"),
]


@pytest.mark.parametrize("kw, message", REJECTED,
                         ids=[f"kw{i}" for i in range(len(REJECTED))])
def test_validation_rejects(kw, message):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        make(**kw)


def test_counts_must_be_whole_numbers():
    with pytest.raises(ConfigurationError,
                       match=f"^{re.escape(_WHOLE)}2.5/5.0$"):
        params_for_coupling(1.0, 0.05, 2.5)
    assert make(n_electrons=4.0, n_sites_total=np.float64(8)).n_electrons == 4
    # the stack mask keeps the same rule
    stack = ParamStack.of([make(), make()])
    stack.n_electrons = np.array([100.0, 100.5])
    stack.n_sites_total = np.array([200.0, 200.0])
    assert _valid(stack).tolist() == [True, False]
    stack.n_electrons = np.array([100.0, 100.0])
    stack.n_sites_total = np.array([np.inf, 200.25])
    assert _valid(stack).tolist() == [False, False]


@pytest.mark.parametrize("n", [10**400, math.nan, math.inf,
                               np.float64(math.nan), np.float64(math.inf)])
def test_whole_number_rule_is_quiet_where_range_rules_reject(n):
    # warnings are errors here; the count's own range rule speaks first
    with pytest.raises(ConfigurationError) as exc:
        make(chi=0.0, n_electrons=n, n_sites_total=n)
    assert "whole" not in str(exc.value)


def test_electron_number_limit_is_inclusive():
    # 2**53 is the largest N a float64 column of ParamStack holds exactly
    assert float(MAX_N) == MAX_N and float(MAX_N + 1) != MAX_N + 1
    p = make(chi=0.0, n_electrons=MAX_N, n_sites_total=MAX_N)
    assert p.n_electrons == MAX_N


def test_counts_beyond_float_range_are_configuration_errors():
    # checked before the square root, which overflows
    with pytest.raises(ConfigurationError,
                       match=f"^n_electrons must be at most 2\\*\\*53, got "
                             f"{10**400}$"):
        params_for_coupling(1.0, 0.05, 10**400)
    # a site count float64 holds still works in every tier
    p = make(n_electrons=2, n_sites_total=10**20)
    for model in MODELS:
        assert sweep_record(p, model).rate_minus > 0.0


@pytest.mark.parametrize("build, field", [
    (lambda: params_for_coupling(10**400, 0.05, 4), "omega_c"),
    (lambda: params_for_coupling(1.0, 10**400, 4), "g_n"),
    (lambda: params_for_coupling(10**400, 10**400, 4), "omega_c"),
    (lambda: stack_for_coupling([10**400], [0.05], [4]), "omega_c"),
    (lambda: stack_for_coupling([0.0, 0.1], [0.9, 10**400], [4, 4]), "g_n"),
    (lambda: stack_for_coupling([0.0], [0.05], [10**400]), "n_electrons"),
    (lambda: stack_for_coupling([0.0], [0.05], [10**19]), "n_electrons"),
], ids=["coupling-omega_c", "coupling-g_n", "coupling-both", "stack-omega_c",
        "stack-after-unstable", "stack-n", "stack-n-above-int64"])
def test_numbers_beyond_float_range_are_configuration_errors(build, field):
    # each int is exact but overflows a float; the error names its input
    # (a stack's as its point's scalar call does, past an unstable point),
    # as SystemParams does (test_validation_rejects)
    with pytest.raises(ConfigurationError, match=f"^{field} must be "):
        build()


@pytest.mark.parametrize("n, message", [
    (10**5000, "n_electrons must be at most 2**53, got about 10**5000"),
    (-10**5000, "need n_electrons >= 1, got about -10**5000"),
], ids=["many", "negative"])
def test_counts_too_long_to_print_are_configuration_errors(n, message):
    # Python refuses to write an int of more than 4,300 digits in decimal,
    # so the message gives its size
    with pytest.raises(ConfigurationError) as error:
        params_for_coupling(1.0, 0.05, n)
    assert str(error.value) == message


def test_instability_raises_with_parameters():
    with pytest.raises(Unstable) as exc:
        make(chi=0.06)  # g_N = 0.6 >= 0.5
    assert exc.value.params["n_electrons"] == 100


def test_unstable_threshold_scales_with_omega_c():
    make(omega_c=2.0, chi=0.06)  # bound sqrt(2)/2 ~ 0.707, fine
    with pytest.raises(Unstable):
        make(omega_c=0.25, chi=0.03)  # bound 0.25, g_N = 0.3


@pytest.mark.parametrize("omega_c, g", [
    (0.7015463661686019, 0.4187918236333542),
    (1.1742365971831072, 0.5418109903792805),
    (1.6830850267032698, 0.6486688343645141),
    (1.0, 0.5),
    (1.0, math.nextafter(0.5, 0.0)),
])
def test_params_and_full_tier_share_one_stability_bound(omega_c, g):
    # rounding at the bound: the first three points satisfy 4 g^2 <
    # omega_0 omega_c in floating point but not g < sqrt(omega_0 omega_c)/2
    try:
        make(omega_c=omega_c, chi=g, n_electrons=1, n_sites_total=2)
        params_ok = True
    except Unstable:
        params_ok = False
    try:
        lambda_pm(1.0, omega_c, g)
        tier_ok = True
    except Unstable:
        tier_ok = False
    assert params_ok == tier_ok


def test_collective_coupling():
    p = make(chi=2e-3, n_electrons=400, n_sites_total=800)
    assert collective_coupling(p) == pytest.approx(0.04, rel=1e-15)


def test_params_for_coupling_roundtrip():
    p = params_for_coupling(0.9, 0.05, 12345)
    assert collective_coupling(p) == pytest.approx(0.05, rel=1e-12)
    assert p.n_sites_total == 2 * 12345


def test_replace_keeps_validation():
    p = make()
    with pytest.raises(Unstable):
        p.replace(chi=0.08)


def test_renormalization_zero_coupling_is_identity():
    p = make(chi=0.0)
    assert dicke_params(p) == p


def test_renormalization_direction():
    # the A^2 term stiffens the cavity and softens the coupling
    p = make(chi=4e-3)
    tilde = dicke_params(p)
    assert tilde.omega_c > p.omega_c
    assert tilde.chi < p.chi


def test_renormalization_consistency():
    # the squeeze acts once on the frequency (e^{2 lambda}) and once on
    # the quadrature the coupling multiplies (e^{-lambda}), with lambda
    # in closed form
    p = make(chi=4e-3, omega_c=1.2)
    d = p.n_electrons * p.chi**2 / p.omega_0
    lam = 0.5 * math.atanh(d / (p.omega_c + 2 * d))
    tilde = dicke_params(p)
    assert tilde.omega_c == pytest.approx(p.omega_c * math.exp(2 * lam))
    assert tilde.chi == pytest.approx(p.chi * math.exp(-lam))


def test_dicke_params_raw_passthrough():
    p = make(chi=4e-3)
    assert dicke_params(p, raw=True) is p
    tilde = dicke_params(p)
    assert tilde.omega_c > p.omega_c
    assert tilde.chi < p.chi
    assert tilde.n_electrons == p.n_electrons


@settings(max_examples=100, deadline=None)
@given(
    omega_c=st.floats(0.5, 1.5),
    g_n=st.floats(0.0, 0.3),
    n=st.integers(2, 10**7),
)
def test_valid_points_construct(omega_c, g_n, n):
    if g_n >= 0.98 * math.sqrt(omega_c) / 2:
        return
    p = params_for_coupling(omega_c, g_n, n)
    assert collective_coupling(p) == pytest.approx(g_n, rel=1e-9, abs=1e-12)
    # squeezing never destabilizes a stable point
    dicke_params(p)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", [
    "omega_c", "chi", "omega_0", "gamma_el", "gamma_cav", "gamma_dark_plus",
    "gamma_dark_minus", "mu_l", "mu_r", "omega_2_ref"])
def test_non_finite_fields_rejected(field, value):
    with pytest.raises(ConfigurationError,
                       match=f"^{field} must be finite, got {value!r}$"):
        make(**{field: value})


_SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])


@pytest.mark.filterwarnings("ignore:counter-rotating amplitude")
@settings(max_examples=150, deadline=None)
@given(
    omega_c=st.one_of(st.floats(-0.5, 3.0), _SPECIAL),
    g_n=st.one_of(st.floats(-0.1, 1.0), _SPECIAL),
    n=st.integers(1, 10**9),
    gamma_cav=st.one_of(st.floats(1e-4, 1.0), _SPECIAL),
    gamma_dark=st.one_of(st.floats(0.0, 1.0), _SPECIAL),
    raw=st.booleans(),
)
# a subnormal coupling: Delta / g overflows to the intended inf in `pert`
@example(omega_c=2.0, g_n=2.225073858507e-311, n=1, gamma_cav=1.0,
         gamma_dark=0.0, raw=False)
def test_every_input_gives_finite_records_or_gse_error(omega_c, g_n, n,
                                                       gamma_cav, gamma_dark,
                                                       raw):
    try:
        params = dicke_params(params_for_coupling(
            omega_c, g_n, n, gamma_cav=gamma_cav, gamma_dark_plus=gamma_dark),
            raw=raw)
        records = [sweep_record(params, model) for model in MODELS]
    except GseError:
        return
    for record in records:
        for name in ("omega_plus", "omega_minus", "rate_plus", "rate_minus",
                     "weight_plus", "weight_minus", "tot_plus", "tot_minus"):
            value = getattr(record, name)
            assert math.isfinite(value) and value >= 0.0, (name, value)
        assert math.isfinite(record.detuning)


def test_overflowing_full_modes_are_a_configuration_error():
    # the mode vectors overflow to inf here, and their photon weight is
    # inf - inf; the tier reports it, without a RuntimeWarning
    params = params_for_coupling(2.0205090485142492e-162,
                                 2.0205090485142492e-162, 5_100_802)
    with pytest.raises(ConfigurationError, match="non-finite"):
        sweep_record(params, "full")


def _point_by_point(detuning, g_n, n_electrons, raw, **overrides):
    """The reference for ``stack_for_coupling``: one params_for_coupling
    and dicke_params call per point, every unstable point reported."""
    points, unstable = [], []
    for det, g, n in zip(detuning, g_n, n_electrons):
        try:
            points.append(dicke_params(
                params_for_coupling(1.0 + det, g, n, **overrides), raw))
        except Unstable as exc:
            details = ", ".join(f"{key}={value}"
                                for key, value in sorted(exc.params.items()))
            unstable.append(f"  detuning={det} N={n}: {exc} ({details})")
    if unstable:
        raise Unstable(f"{len(unstable)} of {len(points) + len(unstable)} "
                       f"operating points unstable:\n" + "\n".join(unstable))
    return ParamStack.of(points)


def _outcome(build, *args, **kwargs):
    try:
        stack = build(*args, **kwargs)
    except GseError as exc:
        return type(exc), str(exc)
    return {name: column.tolist() for name, column in vars(stack).items()}


_EDGES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -1.0, 1e308,
                          1e-320])


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(st.tuples(
        st.one_of(st.floats(-1.5, 1.5), _EDGES),
        st.one_of(st.floats(0.0, 1.0), st.floats(-0.1, 1e3), _EDGES),
        st.one_of(st.integers(1, 10**4), st.integers(-1, MAX_N + 2))),
        min_size=1, max_size=6),
    raw=st.booleans(),
    overrides=st.sampled_from([{}, {"mu_l": 5.0}, {"gamma_cav": 1e-9},
                               {"gamma_dark_plus": 0.01, "mu_l": 2.0,
                                "omega_2_ref": 6.0},
                               {"gamma_cav": math.inf}]),
    chunk=st.sampled_from([1, 2, 4, CHUNK_POINTS]),
)
@example(points=[(0.0, 0.3, 100), (-1.5, 0.6, 100), (0.0, 0.6, 100)],
         raw=False, overrides={}, chunk=CHUNK_POINTS)
@example(points=[(0.0, 0.6, 100), (0.0, 1e305, MAX_N)], raw=True,
         overrides={}, chunk=CHUNK_POINTS)
# unstable points in the first chunk, the invalid one in the second
@example(points=[(0.0, 0.6, 100), (0.0, 0.6, 100), (-1.5, 0.3, 100)],
         raw=False, overrides={}, chunk=2)
# a fractional count, alone and after an unstable point
@example(points=[(0.0, 0.05, 2.5)], raw=False, overrides={},
         chunk=CHUNK_POINTS)
@example(points=[(0.0, 0.6, 100.0), (0.0, 0.05, 2.5)], raw=True,
         overrides={}, chunk=CHUNK_POINTS)
def test_stack_equals_point_by_point_calls(points, raw, overrides, chunk):
    # values bit for bit; errors by type and message, the first invalid
    # point winning over any number of unstable ones, whatever the chunk
    detuning, g_n, n = (list(column) for column in zip(*points))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("gse.params.CHUNK_POINTS", chunk)
        stacked = _outcome(stack_for_coupling, detuning, g_n, n, raw=raw,
                           **overrides)
    assert stacked == _outcome(_point_by_point, detuning, g_n, n, raw,
                               **overrides)


def test_stack_replays_only_failing_points(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return params_for_coupling(*args, **kwargs)

    monkeypatch.setattr("gse.params.params_for_coupling", counting)
    n = np.arange(1, 10**4 + 1)
    stack_for_coupling(np.zeros(len(n)), np.full(len(n), 0.3), n)
    assert calls == []
    # points 3, 5 and 7 are unstable, points 8 and 9 invalid (omega_c < 0):
    # each is replayed, in order, up to the first invalid one
    detuning = np.zeros(10)
    g_n = np.full(10, 0.3)
    g_n[[3, 5, 7]] = 0.9
    detuning[8:] = -1.5
    unstable, invalid = (1.0, 0.9, 100), (-0.5, 0.3, 100)
    with pytest.raises(ConfigurationError, match="must be positive"):
        stack_for_coupling(detuning, g_n, np.full(10, 100))
    assert calls == [unstable] * 3 + [invalid]
    calls.clear()
    with pytest.raises(Unstable, match="^3 of 8 operating points unstable"):
        stack_for_coupling(detuning[:8], g_n[:8], np.full(8, 100), raw=True)
    assert calls == [unstable] * 3


def test_stack_points_are_the_system_params():
    stack = stack_for_coupling([-0.2, 0.1], [0.05, 0.05], [3, 1000],
                               mu_l=2.0)
    assert stack.params() == [
        dicke_params(params_for_coupling(1.0 + det, 0.05, n, mu_l=2.0))
        for det, n in ((-0.2, 3), (0.1, 1000))]
    assert [type(p.n_electrons) for p in stack.params()] == [int, int]
