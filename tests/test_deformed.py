import functools
import math
import re
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from qcorr import (
    DeformationSpec,
    DomainError,
    QuasiBellSpec,
    coherent_coefficients,
    concurrence_pure,
    concurrence_quasi_bell,
    displacement_validity,
    hard_nmax,
    overlap,
    quasi_bell_wmatrix,
    select_nmax,
)
from qcorr import deformed as deformed_module
from qcorr.deformed import MAX_NMAX

PT10 = DeformationSpec("poschl_teller", N=10)
EXC03 = DeformationSpec("exciton", kappa=0.3)
MORSE18 = DeformationSpec("morse", N=18)
HARMONIC = DeformationSpec("harmonic")


def test_spec_validation():
    with pytest.raises(DomainError):
        DeformationSpec("paul_trap")
    with pytest.raises(DomainError):
        DeformationSpec("poschl_teller")  # N missing
    with pytest.raises(DomainError):
        DeformationSpec("morse", N=0)
    with pytest.raises(DomainError):
        DeformationSpec("exciton")  # kappa missing
    with pytest.raises(DomainError):
        DeformationSpec("exciton", kappa=0.0)
    with pytest.raises(DomainError):
        DeformationSpec("morse", N=18, n_max=7)  # outside the stated window
    with pytest.raises(DomainError):
        DeformationSpec("harmonic", n_max=-1)
    # a spec keeps to the stated window; only ``beyond`` reads morse on to 2N
    with pytest.raises(DomainError):
        DeformationSpec("morse", N=18, n_max=36)
    assert len(deformed_module._f_table(MORSE18, 36, beyond=True)) == 37
    with pytest.raises(DomainError, match=r"formula window \(max 36\)"):
        deformed_module._f_table(MORSE18, 37, beyond=True)


@pytest.mark.parametrize(
    "family, kw, name",
    [
        ("harmonic", dict(N=10), "N"),
        ("harmonic", dict(kappa=0.3), "kappa"),
        ("exciton", dict(kappa=0.3, N=10), "N"),
        ("poschl_teller", dict(N=10, kappa=0.3), "kappa"),
        ("morse", dict(N=10, kappa=0.3), "kappa"),
    ],
)
def test_a_parameter_of_another_family_is_a_domain_error(family, kw, name):
    # once dropped without a word, so the state ignored it
    with pytest.raises(DomainError, match="^%s does not apply to family %s$" % (name, family)):
        DeformationSpec(family, n_max=3, **kw)


def test_hard_nmax():
    assert hard_nmax(PT10) == 10
    assert hard_nmax(EXC03) == 5
    assert hard_nmax(MORSE18) == 6
    assert hard_nmax(HARMONIC) is None
    # sqrt(2N + 1) = 3 exactly: the window is strict, so n stops at 2
    assert hard_nmax(DeformationSpec("morse", N=4)) == 2


def test_hard_nmax_of_windows_too_wide_for_a_float():
    # the exciton's saturates past MAX_NMAX; an N family's is a domain
    # error, raised when the spec is made, before any f table
    assert hard_nmax(DeformationSpec("exciton", kappa=1e-200)) == MAX_NMAX + 1
    assert hard_nmax(DeformationSpec("exciton", kappa=1e-160)) == MAX_NMAX + 1
    for family in ("poschl_teller", "morse"):
        with pytest.raises(DomainError, match="too wide for a float"):
            DeformationSpec(family, N=10**400, n_max=5)


def deformation_value(spec, n):
    # f(n), read from the one table
    return deformed_module._f_table(spec, n)[n]


def test_deformation_values():
    assert deformation_value(HARMONIC, 0) == 1.0
    assert deformation_value(HARMONIC, 57) == 1.0
    assert abs(deformation_value(PT10, 0) - 1.0024906793143211) < 1e-14
    assert abs(deformation_value(PT10, 10) - math.sqrt((math.sqrt(101.0) - 10.0) / 10.0)) < 1e-15
    assert abs(deformation_value(EXC03, 0) - 0.9139311852712282) < 1e-14
    exciton_table = [
        0.9139311853,
        0.9591255845,
        1.010753214,
        1.070341821,
        1.139946966,
        1.222401682,
    ]
    for n, expected in enumerate(exciton_table):
        assert abs(deformation_value(EXC03, n) - expected) < 1e-9
    assert abs(deformation_value(MORSE18, 0) - 1.0137937550497033) < 1e-14
    assert abs(deformation_value(MORSE18, 2) - 0.9860132971832693) < 1e-14
    with pytest.raises(DomainError):
        deformation_value(PT10, 11)
    with pytest.raises(DomainError):
        deformation_value(EXC03, 6)
    with pytest.raises(DomainError):
        deformation_value(MORSE18, 7)
    wide = deformed_module._f_table(MORSE18, 36, beyond=True)
    assert len(wide) == 37 and abs(wide[36] - 1.0 / 6.0) < 1e-14
    with pytest.raises(DomainError, match=r"formula window \(max 36\)"):
        deformed_module._f_table(MORSE18, 37, beyond=True)


def test_coherent_coefficients_harmonic_poisson():
    spec = DeformationSpec("harmonic", n_max=40)
    c = coherent_coefficients(spec, 1.0, "coherent")
    assert abs(float(np.sum(c * c)) - 1.0) < 1e-14
    assert abs(c[0] * c[0] - math.exp(-1.0)) < 1e-14
    for n in range(1, 10):
        assert abs(c[n] / c[n - 1] - 1.0 / math.sqrt(n)) < 1e-14


def test_coherent_coefficients_kind_relation():
    # dividing out the deformed factorial recovers the coherent ratios
    spec = DeformationSpec("poschl_teller", N=10, n_max=9)
    alpha = 0.65
    base = coherent_coefficients(spec, alpha, "coherent")
    ket_a = coherent_coefficients(spec, alpha, "A")
    ket_d = coherent_coefficients(spec, alpha, "D")
    f0 = deformation_value(spec, 0)
    for n in range(10):
        fact = math.prod(deformation_value(spec, m) for m in range(n + 1)) / f0
        assert abs(ket_a[n] / ket_a[0] * fact - base[n] / base[0]) < 1e-12
        assert abs(ket_d[n] / ket_d[0] / fact - base[n] / base[0]) < 1e-12


def test_coherent_coefficients_kind_and_domain():
    spec = DeformationSpec("poschl_teller", N=10, n_max=9)
    for short, kind in (("a", "A"), ("d", "D"), ("c", "coherent")):
        assert np.array_equal(
            coherent_coefficients(spec, 0.5, short), coherent_coefficients(spec, 0.5, kind)
        )
    assert not np.array_equal(
        coherent_coefficients(spec, 0.5, "A"), coherent_coefficients(spec, 0.5, "D")
    )
    assert np.array_equal(coherent_coefficients(spec, 0.0, "A"), np.eye(10)[0])
    with pytest.raises(DomainError):
        coherent_coefficients(spec, -0.5, "A")
    with pytest.raises(DomainError):
        coherent_coefficients(spec, 0.5, "spam")
    with pytest.raises(DomainError):
        coherent_coefficients(PT10, 0.5, "A")  # n_max unset


def test_non_finite_alpha_is_a_domain_error():
    spec = DeformationSpec("poschl_teller", N=10, n_max=9)
    for alpha in (float("nan"), float("inf"), -0.5):
        with pytest.raises(DomainError, match="alpha must be finite and non-negative"):
            coherent_coefficients(spec, alpha, "A")
        with pytest.raises(DomainError, match="alpha must be finite and non-negative"):
            displacement_validity(spec, alpha)


def test_overflowing_alpha_is_a_domain_error():
    # alpha^n / sqrt(n!) overflows the weights, or their squares, well before
    # n_max = 9 at these alphas: a domain error naming alpha, and no warning
    spec = DeformationSpec("poschl_teller", N=10, n_max=9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1e30, 1e100):
            for kind in ("coherent", "A", "D"):
                with pytest.raises(DomainError, match=re.escape("alpha = %r overflows" % alpha)):
                    coherent_coefficients(spec, alpha, kind)
        # the last kept level is finite but the next one's square is not: the
        # ket stands
        ket = coherent_coefficients(DeformationSpec("harmonic", n_max=1), 1e100, "coherent")
        assert np.array_equal(ket, [1e-100, 1.0])


def test_displacement_validity():
    pt = DeformationSpec("poschl_teller", N=10, n_max=9)
    assert abs(displacement_validity(pt, 0.65) - 0.4003213775038212) < 1e-12
    assert abs(displacement_validity(EXC03, 0.65, n_max=5) - 0.42469186435238554) < 1e-12
    # morse phi(n) = -n/N exactly (f^2 is linear in n), worst at n = n_max
    value = displacement_validity(MORSE18, 0.65, n_max=6)
    assert abs(value - 0.65**2 / 2.0 * (6.0 / 18.0)) < 1e-15
    assert displacement_validity(DeformationSpec("harmonic", n_max=30), 2.0) == 0.0
    assert displacement_validity(pt, 0.0) == 0.0
    with pytest.raises(DomainError):
        displacement_validity(PT10, 0.65)  # no n_max anywhere
    with pytest.raises(DomainError):
        displacement_validity(pt, -1.0)
    with pytest.raises(DomainError):
        displacement_validity(pt, 0.65, n_max=10)  # needs f(11), past the formula


def test_overlap():
    spec = DeformationSpec("harmonic", n_max=40)
    assert abs(overlap(spec, 1.0, "coherent") - math.exp(-2.0)) < 1e-12
    pt = DeformationSpec("poschl_teller", N=10, n_max=9)
    c = coherent_coefficients(pt, 0.65, "A")
    signs = (-1.0) ** np.arange(10)
    assert abs(overlap(pt, 0.65, "A") - float(np.sum(signs * c * c))) < 1e-15
    assert abs(overlap(pt, 0.65, "A") - 0.3921232579554189) < 1e-12
    assert overlap(pt, 0.0, "A") == 1.0


def test_quasi_bell_spec_validation():
    spec = DeformationSpec("poschl_teller", N=10, n_max=9)
    QuasiBellSpec(spec, 0.65, "A")
    with pytest.raises(DomainError):
        QuasiBellSpec(spec, 0.65, "spam")


def test_quasi_bell_wmatrix():
    spec = DeformationSpec("poschl_teller", N=10, n_max=9)
    qb = QuasiBellSpec(spec, 0.65, "A")
    w = quasi_bell_wmatrix(qb)
    s = overlap(spec, 0.65, "A")
    n_x = 1.0 / math.sqrt(2.0 * (1.0 + s * s))
    assert abs(w.matrix[0, 0] - n_x * (1.0 + s)) < 1e-15
    assert abs(w.matrix[1, 1] - n_x * (1.0 - s)) < 1e-15
    assert w.matrix[0, 1] == 0.0 and w.matrix[1, 0] == 0.0
    with pytest.raises(DomainError):
        quasi_bell_wmatrix(QuasiBellSpec(spec, 0.0, "A"))  # s = 1, pair undefined


def test_concurrence_quasi_bell():
    spec = DeformationSpec("poschl_teller", N=10, n_max=9)
    for alpha in (0.3, 0.65, 1.0, 1.8):
        for kind in ("A", "D", "coherent"):
            qb = QuasiBellSpec(spec, alpha, kind)
            s = overlap(spec, alpha, kind)
            expected = (1.0 - s * s) / (1.0 + s * s)
            assert abs(concurrence_quasi_bell(qb) - expected) < 1e-15
            assert abs(concurrence_pure(quasi_bell_wmatrix(qb)) - expected) < 1e-12


@pytest.mark.parametrize("alpha", [1e-3, 1e-4])
def test_concurrence_quasi_bell_keeps_its_digits_as_the_overlap_nears_1(alpha):
    # 1 - s is 2e-6 and 2e-8 here, where 1 - s * s in floats keeps only part of its digits
    spec = DeformationSpec("harmonic", n_max=20)
    s = overlap(spec, alpha, "coherent")
    with mpmath.workdps(50):
        exact = (1 - mpmath.mpf(s) ** 2) / (1 + mpmath.mpf(s) ** 2)
        c = concurrence_quasi_bell(QuasiBellSpec(spec, alpha, "coherent"))
        assert abs(c - exact) / exact < 1e-14


def test_select_nmax():
    # the bounded families stall at one level below their window
    with pytest.warns(UserWarning, match="level cap"):
        assert select_nmax(PT10, 0.65, "A") == 9
    with pytest.warns(UserWarning, match="level cap"):
        assert select_nmax(EXC03, 0.65, "A") == 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert select_nmax(HARMONIC, 0.65, "A") == 9
        assert select_nmax(HARMONIC, 1.0, "coherent") == 12
        # any preset truncation on the spec is ignored
        assert select_nmax(DeformationSpec("harmonic", n_max=3), 0.65, "A") == 9
    with pytest.raises(DomainError):
        select_nmax(DeformationSpec("exciton", kappa=0.8), 0.65, "A")  # cap < 1


def test_select_nmax_tol_none_means_the_default():
    # tol=None once raised TypeError; it means DEFAULT_TOLERANCE, 1e-10
    assert select_nmax(HARMONIC, 1.0, "coherent", tol=None) == 12
    assert select_nmax(HARMONIC, 0.65, "A", tol=None) == 9


def test_levels_and_N_pass_one_integer_check():
    pt = DeformationSpec("poschl_teller", N=10, n_max=9)
    nan, inf = float("nan"), float("inf")
    for bad in (-5, 2.7, nan, inf, MAX_NMAX + 1, "3"):
        with pytest.raises(DomainError, match="n_max must be an integer"):
            displacement_validity(pt, 0.65, n_max=bad)
        with pytest.raises(DomainError, match="n_max must be an integer"):
            DeformationSpec("harmonic", n_max=bad)
    for bad in (None, 0, 2.5, nan, inf, "18"):
        with pytest.raises(DomainError, match="morse N must be an integer"):
            DeformationSpec("morse", N=bad)
    for bad in (None, 0.0, -0.3, nan, inf):
        with pytest.raises(DomainError, match="finite kappa"):
            DeformationSpec("exciton", kappa=bad)
    # the cap itself is a valid level
    assert DeformationSpec("harmonic", n_max=MAX_NMAX).n_max == MAX_NMAX
    assert deformed_module._f_table(HARMONIC, MAX_NMAX)[MAX_NMAX] == 1.0


def test_each_call_builds_the_f_table_once(monkeypatch):
    # every operation reads f from one table, built once per call, so its
    # work grows linearly with the levels it reads
    spec = DeformationSpec("exciton", kappa=0.03, n_max=60)
    tops = []
    real = deformed_module._f_table

    def counting(spec, top, beyond=False):
        tops.append(top)
        return real(spec, top, beyond)

    monkeypatch.setattr(deformed_module, "_f_table", counting)
    for call, expected in (
        (lambda: coherent_coefficients(spec, 0.5, "A"), [60]),
        (lambda: overlap(spec, 0.5, "D"), [60]),
        (lambda: displacement_validity(spec, 0.5), [61]),
        (lambda: DeformationSpec("exciton", kappa=0.03, n_max=60), [60]),
        # the truncated spec's n_max check, then its ket: hard_nmax is 555
        (lambda: select_nmax(DeformationSpec("exciton", kappa=0.03), 0.5, "A"), [555, 555]),
    ):
        tops.clear()
        call()
        assert tops == expected


# --- one f table against the per-level evaluation it replaced -------------
#
# _laguerre, _formula_nmax, _value_limit and _f_value are the deformed
# module's per-level evaluation as it stood before the one-pass table, kept
# verbatim as the frozen reference; _frozen_hard_nmax is the hard_nmax they
# called. The only change is the cache on _formula_nmax, which keeps the
# reference at O(n^2) per table and changes none of its arithmetic. The
# table runs the same recurrences in the same order, so every f(n), every
# window, ket, tail, overlap and displacement_validity must equal (==) the
# reference's.


def _frozen_hard_nmax(spec):
    """Largest n inside the family's stated validity window (None = unbounded)."""
    if spec.family == "harmonic":
        return None
    if spec.family == "poschl_teller":
        return int(math.floor(math.sqrt(spec.N * spec.N + 1.0)))
    if spec.family == "exciton":
        x = (1.0 / (spec.kappa * spec.kappa) - 1.0) / 2.0
        n = int(math.floor(x))
        if float(n) == x:
            n -= 1
        return max(n, 0)
    # morse
    x = math.sqrt(2.0 * spec.N + 1.0)
    n = int(math.floor(x))
    if float(n) == x:
        n -= 1
    return n


def _laguerre(n, k, x):
    # associated Laguerre L^k_n(x) by the three-term upward recurrence
    lm1, l = 1.0, 1.0 + k - x
    if n == 0:
        return lm1
    for j in range(1, n):
        lm1, l = l, ((2 * j + 1 + k - x) * l - (j + k) * lm1) / (j + 1)
    return l


@functools.lru_cache(maxsize=None)
def _formula_nmax(spec):
    # largest n where f(n) is evaluable and positive: the window ``beyond`` reads
    if spec.family == "harmonic":
        return None
    if spec.family == "poschl_teller":
        return _frozen_hard_nmax(spec)
    if spec.family == "morse":
        return 2 * spec.N
    # exciton: walk up until a Laguerre factor loses positivity
    k2 = spec.kappa * spec.kappa
    n = 0
    while n < 100000:
        if _laguerre(n + 1, 0, k2) <= 0.0 or _laguerre(n + 1, 1, k2) <= 0.0:
            return n
        n += 1
    return n


def _value_limit(spec, beyond=False):
    if beyond:
        return _formula_nmax(spec)
    return _frozen_hard_nmax(spec)


def _f_value(spec, n, beyond=False):
    n = int(n)
    if n < 0:
        raise DomainError("level index must be non-negative, got %d" % n)
    limit = _value_limit(spec, beyond)
    if limit is not None and n > limit:
        raise DomainError(
            "level n=%d outside the %s validity window (max %d)" % (n, spec.family, limit)
        )
    if spec.family == "harmonic":
        return 1.0
    if spec.family == "poschl_teller":
        return math.sqrt((math.sqrt(spec.N * spec.N + 1.0) - n) / spec.N)
    if spec.family == "exciton":
        k2 = spec.kappa * spec.kappa
        return math.exp(-k2) * _laguerre(n, 1, k2) / ((n + 1) * _laguerre(n, 0, k2))
    return math.sqrt(1.0 + (1.0 - n) / (2.0 * spec.N))


def _frozen_ket(spec, alpha, kind):
    # coherent_coefficients' weights and tail on the reference's f values
    exp = {"A": -1, "D": 1, "coherent": 0}[kind]
    weights = np.empty(spec.n_max + 1)
    weights[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, spec.n_max + 1):
            weights[n] = weights[n - 1] * alpha / math.sqrt(n) * _f_value(spec, n) ** exp
        mass = float(np.sum(weights**2))
        try:
            nxt = weights[spec.n_max] * alpha / math.sqrt(spec.n_max + 1)
            nxt *= _f_value(spec, spec.n_max + 1, beyond=True) ** exp
            tail = nxt * nxt / (mass + nxt * nxt)
        except DomainError:
            tail = float("nan")
    return weights / math.sqrt(mass), tail


def _frozen_displacement_validity(spec, alpha, n_max):
    worst = 0.0
    f_sq = _f_value(spec, 0, beyond=True) ** 2
    for n in range(0, n_max + 1):
        f_sq_next = _f_value(spec, n + 1, beyond=True) ** 2
        phi = (n + 1) * f_sq_next - n * f_sq - 1.0
        worst = max(worst, abs(phi))
        f_sq = f_sq_next
    return alpha * alpha / 2.0 * worst


# (spec, wide): a wide case reads the levels up to the formula window's edge,
# through ``beyond``, the way displacement_validity does
FROZEN_SPECS = [
    (DeformationSpec("harmonic"), False),
    *((DeformationSpec("poschl_teller", N=n), False) for n in (1, 3, 10, 37)),
    *((DeformationSpec("morse", N=n), False) for n in (1, 4, 18, 50)),
    *((DeformationSpec("morse", N=n), True) for n in (3, 18)),
    *((DeformationSpec("exciton", kappa=k), False) for k in (0.3, 0.2, 0.1, 0.07, 0.05)),
    *((DeformationSpec("exciton", kappa=k), True) for k in (0.3, 0.1, 0.05)),
]
FROZEN_IDS = [
    "%s-%s%s" % (spec.family, spec.N or spec.kappa, "-wide" if wide else "")
    for spec, wide in FROZEN_SPECS
]


@pytest.mark.parametrize("spec, wide", FROZEN_SPECS, ids=FROZEN_IDS)
def test_f_table_equals_the_frozen_per_level_evaluation(spec, wide):
    assert hard_nmax(spec) == _frozen_hard_nmax(spec)
    top = _value_limit(spec, wide)
    if top is None:
        top = 300
    else:
        # the stated window ends the table with an error even where a wide case reads on
        stated = _value_limit(spec)
        with pytest.raises(DomainError, match="outside the %s validity window" % spec.family):
            deformed_module._f_table(spec, stated + 1)
    table = deformed_module._f_table(spec, top, beyond=wide)
    assert table == [_f_value(spec, n, beyond=wide) for n in range(top + 1)]
    if not wide:
        assert deformation_value(spec, top) == _f_value(spec, top)
    # ``beyond`` reads up to the formula window's edge and raises past it
    window = _formula_nmax(spec)
    if window is None:
        past = deformed_module._f_table(spec, MAX_NMAX + 1, beyond=True)
        assert past == [1.0] * (MAX_NMAX + 2)
    else:
        edge = deformed_module._f_table(spec, window, beyond=True)
        assert edge == [_f_value(spec, n, beyond=True) for n in range(window + 1)]
        with pytest.raises(DomainError, match=r"formula window \(max %d\)" % window):
            deformed_module._f_table(spec, window + 1, beyond=True)


def test_exciton_stated_and_formula_windows_equal_the_frozen_walk():
    for kappa in (0.3, 0.2, 0.1, 0.07, 0.05, 0.5, 0.577, 0.58, 0.9, 1.0, 1.3):
        spec = DeformationSpec("exciton", kappa=kappa)
        assert hard_nmax(spec) == _frozen_hard_nmax(spec)
        window = _formula_nmax(spec)
        assert len(deformed_module._f_table(spec, window, beyond=True)) == window + 1
        with pytest.raises(DomainError, match=r"formula window \(max %d\)" % window):
            deformed_module._f_table(spec, window + 1, beyond=True)
    # windows past the level cap: the stated one only
    for kappa in (1e-3, 1e-6):
        spec = DeformationSpec("exciton", kappa=kappa)
        assert hard_nmax(spec) == _frozen_hard_nmax(spec)


@pytest.mark.parametrize("spec, wide", FROZEN_SPECS, ids=FROZEN_IDS)
def test_kets_and_displacement_validity_equal_the_frozen_reference(spec, wide):
    # a ket keeps to the stated window; displacement_validity's n_max may leave it
    stated = _value_limit(spec)
    top = _value_limit(spec, wide) or 60
    for n_max in sorted({0, 1, top // 2, top}):
        ket = stated is None or n_max <= stated
        if ket:
            truncated = replace(spec, n_max=n_max)
        else:
            with pytest.raises(DomainError, match="outside the %s validity window" % spec.family):
                replace(spec, n_max=n_max)
        for alpha in (0.0, 0.65, 2.5):
            for kind in ("A", "D", "coherent") if ket else ():
                coefficients, _ = _frozen_ket(truncated, alpha, kind)
                assert np.array_equal(coherent_coefficients(truncated, alpha, kind), coefficients)
                signs = np.where(np.arange(n_max + 1) % 2 == 0, 1.0, -1.0)
                assert overlap(truncated, alpha, kind) == float(np.sum(signs * coefficients**2))
            # a truncated spec's own n_max, else the argument
            args = (truncated, alpha) if ket else (spec, alpha, n_max)
            try:
                expected = _frozen_displacement_validity(spec, alpha, n_max)
            except DomainError:
                with pytest.raises(DomainError, match="formula window"):
                    displacement_validity(*args)
            else:
                assert displacement_validity(*args) == expected
