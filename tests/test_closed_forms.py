"""The (C, p) closed forms: physics invariants, array/scalar agreement, edges.

Property tests run derandomized with no example database, so every run
draws the same examples. The edge test compares with the 50-digit mpmath
reference in ``perfbench/reference.py``, which imports only mpmath and
numpy and never this package.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    DiscordBreakdown,
    DomainError,
    WMatrix,
    binary_entropy,
    concurrence_gwl_analytic,
    concurrence_pure,
    concurrence_werner,
    eof_from_concurrence,
    eof_werner,
    gwl,
    local_unitary,
    qd_gwl,
    qd_gwl_analytic,
    qd_numeric,
    qd_werner,
    random_pure_state,
    reduced_from_wmatrix,
)
from qcorr import cli
from qcorr.discord import BRANCH_EPS, _GWL_BLOCK, _gwl_kernel
from qcorr.linalg import check_range, float_or_array, xlog2x
from qcorr.states import GWL_RANGE, WERNER_RANGE

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

concurrences = st.floats(0.0, 1.0)
gwl_ps = st.floats(*GWL_RANGE)
werner_ps = st.floats(*WERNER_RANGE)


def _load_reference():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("qcorr_test_reference", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def _total_entropy(p, tol=None):
    # a GWL state's total entropy, the kernel's row 3: a function of p alone
    return float_or_array(_gwl_kernel(0.0, p, tol, rows=5)[3])


def _reduced_entropy(c, p, tol=None):
    # the entropy of either reduced side of a GWL state, the kernel's row 4
    return float_or_array(_gwl_kernel(c, p, tol, rows=5)[4])


def _mutual_information(c, p):
    return 2.0 * _reduced_entropy(c, p) - _total_entropy(p)


@PROPERTY
@given(concurrences, gwl_ps)
def test_discord_lies_between_zero_and_mutual_information(c, p):
    qd = qd_gwl(c, p)
    assert -1e-14 <= qd <= _mutual_information(c, p) + 1e-14


@PROPERTY
@given(werner_ps)
def test_werner_discord_lies_between_zero_and_mutual_information(p):
    # both reduced states of a Werner state are maximally mixed, and its
    # total entropy is that of GWL(singlet, -p)
    assert -1e-14 <= qd_werner(p) <= 2.0 - _total_entropy(-p) + 1e-14


@PROPERTY
@given(concurrences, gwl_ps)
def test_pure_limit_and_product_limit(c, p):
    assert abs(qd_gwl(c, 1.0) - eof_from_concurrence(c)) < 1e-14
    assert abs(qd_gwl(0.0, p)) < 1e-14


@PROPERTY
@given(concurrences, st.floats(0.0, 1.0))
def test_eof_vanishes_exactly_below_the_threshold(c, t):
    # every p in [-1/3, 1/(1 + 2C)] is separable: EoF is 0.0, not a rounding residue
    p = GWL_RANGE[0] + t * (1.0 / (1.0 + 2.0 * c) - GWL_RANGE[0])
    assert eof_from_concurrence(concurrence_gwl_analytic(c, p)) == 0.0


@PROPERTY
@given(st.lists(st.tuples(concurrences, gwl_ps, werner_ps), min_size=1, max_size=40))
def test_array_call_equals_scalar_calls_bit_for_bit(points):
    cs, ps, ws = (np.array(column) for column in zip(*points))
    cases = [
        (qd_gwl, (cs, ps)),
        (_reduced_entropy, (cs, ps)),
        (_total_entropy, (ps,)),
        (concurrence_gwl_analytic, (cs, ps)),
        (eof_from_concurrence, (cs,)),
        (binary_entropy, (cs,)),
        (qd_werner, (ws,)),
        (eof_werner, (ws,)),
        (concurrence_werner, (ws,)),
    ]
    for f, arrays in cases:
        whole = f(*arrays)
        for k in range(len(points)):
            one = f(*(float(a[k]) for a in arrays))
            assert type(one) is float and one == whole[k] and repr(one) != "-0.0", f.__name__
    # every (C, p) closed form at once: concurrence, EoF, discord, total,
    # reduced and conditional entropies, x0 and x1
    whole = _gwl_kernel(cs, ps, None)
    for k, (c, p, _) in enumerate(points):
        assert _gwl_kernel(c, p, None).tolist() == whole[:, k].tolist()


def test_scalar_in_float_out_for_the_wrapper():
    out = qd_gwl_analytic(random_pure_state(seed=1), 0.4)
    for name, value in vars(out).items():
        assert type(value) is float, name


def test_nan_anywhere_in_an_array_raises_domain_error():
    good, bad = np.array([0.2, 0.5]), np.array([0.2, np.nan])
    calls = [
        lambda x: qd_gwl(x, good),
        lambda x: qd_gwl(good, x),
        lambda x: _reduced_entropy(x, good),
        lambda x: _total_entropy(x),
        lambda x: concurrence_gwl_analytic(good, x),
        lambda x: eof_from_concurrence(x),
        lambda x: binary_entropy(x),
        lambda x: qd_werner(-x),
        lambda x: eof_werner(-x),
    ]
    for call in calls:
        call(good)
        with pytest.raises(DomainError):
            call(bad)


@settings(derandomize=True, database=None, deadline=None, max_examples=4)
@given(st.integers(0, 2**31 - 1), st.lists(gwl_ps, min_size=3, max_size=3))
def test_analytic_discord_matches_the_oracle_on_both_sides(seed, ps):
    psi = random_pure_state(seed=seed)
    stack = np.array([gwl(psi, p) for p in ps])
    for partition in ("A", "B"):
        oracle = qd_numeric(stack, partition=partition, grid_n=32)
        for p, value in zip(ps, oracle):
            assert abs(qd_gwl_analytic(psi, p, partition=partition).discord - value) < 1e-9


EDGE_CS = (0.0, 1e-12, 1e-8, 0.5, 1.0 - 1e-12, 1.0)
EDGE_PS = (1.0, 1.0 - 1e-15, 1.0 - 1e-9, 0.999, 0.0, -1.0 / 3.0)


def test_closed_forms_against_50_digit_reference_at_the_edges():
    ref = _load_reference()
    gwl_ref = ref.GwlReference()
    worst = 0.0
    for c in EDGE_CS:
        pure = ref.pure_from_concurrence(c)
        for p in EDGE_PS:
            want = gwl_ref.point(pure, p)
            conc = concurrence_gwl_analytic(c, p)
            for got, expected in (
                (qd_gwl(c, p), want.qd),
                (eof_from_concurrence(conc), want.eof),
                (conc, want.concurrence),
                (_total_entropy(p), want.entropy_total),
                (_reduced_entropy(c, p), want.entropy_reduced),
                (_mutual_information(c, p), want.mutual_information),
            ):
                worst = max(worst, abs(got - expected))
    for p in (-1.0, -1.0 + 1e-15, -1.0 + 1e-9, -1.0 / 3.0, 0.0, 1.0 / 3.0 - 1e-15, 1.0 / 3.0):
        want = ref.werner_point(p)
        for got, expected in (
            (qd_werner(p), want.qd),
            (eof_werner(p), want.eof),
            (concurrence_werner(p), want.concurrence),
            (_total_entropy(-p), want.entropy_total),
        ):
            worst = max(worst, abs(got - expected))
    assert worst < 1e-14


# --- the blocked kernel against the chain it replaced ---------------------
#
# The _frozen_* functions are the GWL closed forms as they stood when each
# public function validated its own arguments and took each entropy term
# from its own xlog2x call: concurrence_gwl_analytic -> eof_from_concurrence,
# and _gwl_closed_forms with qd_gwl and qd_gwl_analytic, kept verbatim as the
# frozen reference. The kernel and every wrapper must give the same bytes,
# and the same DomainError where the reference raises one.
def _frozen_xlog2x(u):
    u = np.asarray(u, dtype=float)
    pos = u > 0.0
    return np.where(pos, u * np.log2(np.where(pos, u, 1.0)), 0.0)


def _frozen_binary_entropy(x, tol=None):
    x = check_range(x, 0.0, 1.0, "binary_entropy argument", tol)
    return float_or_array(-(_frozen_xlog2x(x) + _frozen_xlog2x(1.0 - x)))


def _frozen_entropy_gwl(p, tol=None):
    p = check_range(p, *GWL_RANGE, "GWL mixing parameter", tol)
    return float_or_array(
        2.0 - 3.0 * _frozen_xlog2x(1.0 - p) / 4.0 - _frozen_xlog2x(1.0 + 3.0 * p) / 4.0
    )


def _frozen_concurrence_gwl_analytic(c_pure, p, tol=None):
    c_pure = check_range(c_pure, 0.0, 1.0, "pure-state concurrence", tol)
    p = check_range(p, *GWL_RANGE, "GWL mixing parameter", tol)
    return float_or_array(np.maximum(0.0, p * c_pure - (1.0 - p) / 2.0))


def _frozen_eof_from_concurrence(c, tol=None):
    c = check_range(c, 0.0, 1.0, "concurrence", tol)
    return _frozen_binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0, tol)


def _frozen_gwl_closed_forms(c_pure, p, tol, d=None):
    c_pure = check_range(c_pure, 0.0, 1.0, "pure-state concurrence", tol)
    p = check_range(p, *GWL_RANGE, "GWL mixing parameter", tol)
    if d is None:
        d = np.sqrt(1.0 - c_pure * c_pure)
    pd = p * d
    den0 = 1.0 - pd
    empty = den0 <= BRANCH_EPS
    x0 = np.where(empty, 1.0, p * (1.0 - d) / np.where(empty, 1.0, den0))
    x1 = p * (1.0 + d) / (1.0 + pd)
    cond = den0 / 2.0 * _frozen_binary_entropy((1.0 + x0) / 2.0, tol) + (
        1.0 + pd
    ) / 2.0 * _frozen_binary_entropy((1.0 + x1) / 2.0, tol)
    s_red = _frozen_binary_entropy((1.0 + pd) / 2.0, tol)
    return _frozen_entropy_gwl(p, tol), s_red, cond, x0, x1, d


def _frozen_qd_gwl(c_pure, p, tol=None):
    total, s_red, cond, _, _, _ = _frozen_gwl_closed_forms(c_pure, p, tol)
    return float_or_array(s_red - total + cond)


def _frozen_qd_gwl_analytic(psi, p, partition="A", tol=None):
    reduced = reduced_from_wmatrix(psi, partition)
    r00, r11 = reduced[0, 0].real, reduced[1, 1].real
    d = min(1.0, math.hypot(r00 - r11, 2.0 * abs(reduced[0, 1])) / (r00 + r11))
    parts = _frozen_gwl_closed_forms(concurrence_pure(psi), p, tol, d)
    total, s_red, cond, x0, x1, d = (float_or_array(v) for v in parts)
    return DiscordBreakdown(
        total_entropy=total,
        reduced_entropy_A=s_red,
        reduced_entropy_B=s_red,
        conditional_entropy=cond,
        mutual_information=s_red + s_red - total,
        discord=s_red - total + cond,
        x0=x0,
        x1=x1,
        amplitude=d / 2.0,
    )


def _frozen_closed_forms(c_pure, p, tol=None):
    # the kernel's rows, each as the public functions return it (-0.0 reads
    # 0.0): concurrence, EoF, discord, total, reduced and conditional
    # entropy, x0, x1
    conc = _frozen_concurrence_gwl_analytic(c_pure, p, tol)
    eof = _frozen_eof_from_concurrence(conc, tol)
    parts = _frozen_gwl_closed_forms(c_pure, p, tol)[:5]
    rows = (conc, eof, _frozen_qd_gwl(c_pure, p, tol)) + parts
    return tuple(float_or_array(v) for v in rows)


def _frozen_qd_werner(p, tol=None):
    p = check_range(p, *WERNER_RANGE, "Werner mixing parameter", tol)
    return float_or_array(
        _frozen_binary_entropy((1.0 + p) / 2.0, tol)
        - 1.0
        + _frozen_xlog2x(1.0 - 3.0 * p) / 4.0
        + 3.0 * _frozen_xlog2x(1.0 + p) / 4.0
    )


def _outcome(f, *args):
    # the result's bytes, or the message of the DomainError it raised
    try:
        return f(*args)
    except DomainError as exc:
        return str(exc)


def _same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return type(got) is type(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()


# C = 1 - 2^-52 is the largest concurrence below 1; p = 1/(1 + 2C) is the
# separability edge, p = 1 - 1e-9 the top of the p-crossing scan
EDGE_C = (0.0, 1.0, 1.0 - 2.0**-52)


def _edge_ps(c):
    return (GWL_RANGE[0], 1.0, 1.0 / (1.0 + 2.0 * c), 1.0 - 1e-9, 1.0 + 1e-12, GWL_RANGE[0] - 1e-12)


@st.composite
def _kernel_cases(draw):
    c_of = st.one_of(st.sampled_from(EDGE_C), concurrences)
    c = draw(c_of)
    p_of = st.one_of(st.sampled_from(_edge_ps(c)), gwl_ps)
    layout = draw(st.sampled_from(["scalar", "list", "arrays", "grid", "seam"]))
    if layout == "scalar":
        return c, draw(p_of)
    if layout == "list":
        return c, draw(st.lists(p_of, min_size=1, max_size=40))
    if layout == "arrays":
        n = draw(st.integers(1, 30))
        return (np.array(draw(st.lists(c_of, min_size=n, max_size=n))),
                np.array(draw(st.lists(p_of, min_size=n, max_size=n))))
    if layout == "grid":
        # a column of C against a row of p: a 2-D broadcast
        cs = draw(st.lists(c_of, min_size=1, max_size=6))
        return np.array(cs)[:, None], np.array(draw(st.lists(p_of, min_size=1, max_size=8)))
    # 2 blocks + 1 point: the walk crosses two block seams and ends on one point
    ps = np.linspace(GWL_RANGE[0], 1.0, 2 * _GWL_BLOCK + 1)
    for k in draw(st.lists(st.integers(0, ps.size - 1), max_size=6)):
        ps[k] = draw(p_of)
    cs = draw(st.one_of(st.just(c), st.just(np.full(ps.size, c))))
    return cs, ps


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=_kernel_cases(), tol=st.sampled_from([None, 1e-300]))
def test_kernel_equals_the_frozen_chain_bit_for_bit(case, tol):
    c, p = case
    want = _outcome(_frozen_closed_forms, c, p, tol)
    got = _outcome(_gwl_kernel, c, p, tol)
    if isinstance(want, str):
        # the reference checks C and p first; an entropy argument outside
        # [0, 1] would raise as binary_entropy's, here and there
        assert got == want
        return
    shape = got.shape[1:]
    for row, ref in zip(got, want):
        assert row.tobytes() == np.broadcast_to(ref, shape).tobytes()
    pairs = [
        (qd_gwl, _frozen_qd_gwl, (c, p, tol)),
        (_reduced_entropy, lambda *a: _frozen_gwl_closed_forms(*a)[1], (c, p, tol)),
        (_total_entropy, _frozen_entropy_gwl, (p, tol)),
        (concurrence_gwl_analytic, _frozen_concurrence_gwl_analytic, (c, p, tol)),
        (eof_from_concurrence, _frozen_eof_from_concurrence, (want[0], tol)),
        (binary_entropy, _frozen_binary_entropy, (c, tol)),
        (qd_werner, _frozen_qd_werner, (-np.asarray(p), tol)),
    ]
    for new, old, args in pairs:
        expected = old(*args)
        assert _same(new(*args), float_or_array(expected)), new.__name__
    assert np.asarray(cli._eof_minus_qd(c, p)).tobytes() == np.asarray(
        _frozen_eof_from_concurrence(_frozen_concurrence_gwl_analytic(c, p)) - _frozen_qd_gwl(c, p)
    ).tobytes()


def test_xlog2x_equals_the_frozen_formula():
    # xlog2x takes its log in place and multiplies only where u > 0; every
    # other input, -0.0, NaN and -inf among them, still gives 0.0
    specials = [0.0, -0.0, -1.0, -np.inf, np.nan, 5e-324, 1e-300, 0.5, 1.0, 4.0, 1e300, np.inf]
    u = np.concatenate((specials, np.random.default_rng(7).uniform(-1.0, 4.0, 1000)))
    with np.errstate(invalid="ignore"):
        for x in (u, u.reshape(4, -1), 0.25, -3.0):
            assert xlog2x(x).tobytes() == _frozen_xlog2x(x).tobytes()


def _rotated_bell(theta):
    u = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return local_unitary(WMatrix(np.eye(2) / math.sqrt(2.0)), u, u.T)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    psi=st.one_of(
        st.integers(0, 2**31 - 1).map(lambda seed: random_pure_state(seed=seed)),
        st.floats(0.0, math.pi).map(_rotated_bell),
        st.sampled_from([WMatrix(np.eye(2) / math.sqrt(2.0)), WMatrix([[1.0, 0.0], [0.0, 0.0]])]),
    ),
    p=st.one_of(st.sampled_from(_edge_ps(0.5) + (0.0,)), gwl_ps),
    partition=st.sampled_from("AB"),
    tol=st.sampled_from([None, 1e-300]),
)
def test_qd_gwl_analytic_equals_the_frozen_breakdown(psi, p, partition, tol):
    want = _outcome(_frozen_qd_gwl_analytic, psi, p, partition, tol)
    got = _outcome(qd_gwl_analytic, psi, p, partition, tol)
    if isinstance(want, str):
        assert got == want
        return
    for name, value in vars(want).items():
        assert _same(getattr(got, name), value), name
