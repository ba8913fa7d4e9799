"""The (C, p) closed forms: physics invariants, array/scalar agreement, edges.

Property tests run derandomized with no example database, so every run
draws the same examples. The edge test compares with the 50-digit mpmath
reference in ``perfbench/reference.py``, which imports only mpmath and
numpy and never this package.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    DomainError,
    binary_entropy,
    concurrence_gwl_analytic,
    concurrence_werner,
    entropy_gwl,
    eof_from_concurrence,
    eof_werner,
    gwl,
    qd_gwl,
    qd_gwl_analytic,
    qd_numeric,
    qd_werner,
    random_pure_state,
    reduced_entropy_gwl,
)
from qcorr.discord import _gwl_closed_forms
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


def _mutual_information(c, p):
    return 2.0 * reduced_entropy_gwl(c, p) - entropy_gwl(p)


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
    assert -1e-14 <= qd_werner(p) <= 2.0 - entropy_gwl(-p) + 1e-14


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
        (reduced_entropy_gwl, (cs, ps)),
        (entropy_gwl, (ps,)),
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
    # every (C, p) closed form at once: total, reduced and conditional
    # entropies, x0, x1 and d
    whole = _gwl_closed_forms(cs, ps, None)
    for k, (c, p, _) in enumerate(points):
        for one, array in zip(_gwl_closed_forms(c, p, None), whole):
            assert float(one) == array[k]


def test_scalar_in_float_out_for_the_wrapper():
    out = qd_gwl_analytic(random_pure_state(seed=1), 0.4)
    for name, value in vars(out).items():
        assert type(value) is float, name


def test_nan_anywhere_in_an_array_raises_domain_error():
    good, bad = np.array([0.2, 0.5]), np.array([0.2, np.nan])
    calls = [
        lambda x: qd_gwl(x, good),
        lambda x: qd_gwl(good, x),
        lambda x: reduced_entropy_gwl(x, good),
        lambda x: entropy_gwl(x),
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
                (entropy_gwl(p), want.entropy_total),
                (reduced_entropy_gwl(c, p), want.entropy_reduced),
                (_mutual_information(c, p), want.mutual_information),
            ):
                worst = max(worst, abs(got - expected))
    for p in (-1.0, -1.0 + 1e-15, -1.0 + 1e-9, -1.0 / 3.0, 0.0, 1.0 / 3.0 - 1e-15, 1.0 / 3.0):
        want = ref.werner_point(p)
        for got, expected in (
            (qd_werner(p), want.qd),
            (eof_werner(p), want.eof),
            (concurrence_werner(p), want.concurrence),
            (entropy_gwl(-p), want.entropy_total),
        ):
            worst = max(worst, abs(got - expected))
    assert worst < 1e-14
