import math
import re
import warnings

import numpy as np
import pytest

from qcorr import (
    DeformationSpec,
    DeformedKet,
    DomainError,
    QuasiBellSpec,
    coherent_coefficients,
    concurrence_pure,
    concurrence_quasi_bell,
    deformation_value,
    displacement_validity,
    hard_nmax,
    overlap,
    qd_gwl_analytic,
    quasi_bell_wmatrix,
    select_nmax,
)

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
    # override_bound stretches morse to 2N but not beyond
    DeformationSpec("morse", N=18, n_max=36, override_bound=True)
    with pytest.raises(DomainError):
        DeformationSpec("morse", N=18, n_max=37, override_bound=True)


def test_hard_nmax():
    assert hard_nmax(PT10) == 10
    assert hard_nmax(EXC03) == 5
    assert hard_nmax(MORSE18) == 6
    assert hard_nmax(HARMONIC) is None
    # sqrt(2N + 1) = 3 exactly: the window is strict, so n stops at 2
    assert hard_nmax(DeformationSpec("morse", N=4)) == 2


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
        deformation_value(PT10, -1)
    with pytest.raises(DomainError):
        deformation_value(PT10, 11)
    with pytest.raises(DomainError):
        deformation_value(EXC03, 6)
    with pytest.raises(DomainError):
        deformation_value(MORSE18, 7)
    wide = DeformationSpec("morse", N=18, override_bound=True)
    assert abs(deformation_value(wide, 36) - 1.0 / 6.0) < 1e-14
    with pytest.raises(DomainError):
        deformation_value(wide, 37)


def test_coherent_coefficients_harmonic_poisson():
    spec = DeformationSpec("harmonic", n_max=40)
    ket = coherent_coefficients(spec, 1.0, "coherent")
    c = ket.coefficients
    assert abs(float(np.sum(c * c)) - 1.0) < 1e-14
    assert abs(c[0] * c[0] - math.exp(-1.0)) < 1e-14
    for n in range(1, 10):
        assert abs(c[n] / c[n - 1] - 1.0 / math.sqrt(n)) < 1e-14


def test_coherent_coefficients_kind_relation():
    # dividing out the deformed factorial recovers the coherent ratios
    spec = DeformationSpec("poschl_teller", N=10, n_max=9)
    alpha = 0.65
    base = coherent_coefficients(spec, alpha, "coherent").coefficients
    ket_a = coherent_coefficients(spec, alpha, "A").coefficients
    ket_d = coherent_coefficients(spec, alpha, "D").coefficients
    f0 = deformation_value(spec, 0)
    for n in range(10):
        fact = math.prod(deformation_value(spec, m) for m in range(n + 1)) / f0
        assert abs(ket_a[n] / ket_a[0] * fact - base[n] / base[0]) < 1e-12
        assert abs(ket_d[n] / ket_d[0] / fact - base[n] / base[0]) < 1e-12


def test_coherent_coefficients_kind_and_domain():
    spec = DeformationSpec("poschl_teller", N=10, n_max=9)
    assert coherent_coefficients(spec, 0.5, "a").kind == "A"
    assert coherent_coefficients(spec, 0.5, "d").kind == "D"
    assert coherent_coefficients(spec, 0.5, "c").kind == "coherent"
    ket = coherent_coefficients(spec, 0.0, "A")
    assert np.array_equal(ket.coefficients, np.eye(10)[0])
    with pytest.raises(DomainError):
        coherent_coefficients(spec, -0.5, "A")
    with pytest.raises(DomainError):
        coherent_coefficients(spec, 0.5, "spam")
    with pytest.raises(DomainError):
        coherent_coefficients(PT10, 0.5, "A")  # n_max unset
    with pytest.raises(DomainError):
        DeformedKet(coefficients=np.array([1.0, 1.0]), alpha=1.0, kind="A")


def test_truncation_tail():
    spec = DeformationSpec("harmonic", n_max=5)
    ket = coherent_coefficients(spec, 1.0, "coherent")
    w6 = 1.0 / math.sqrt(math.factorial(5)) / math.sqrt(6.0)
    mass = sum(1.0 / math.factorial(n) for n in range(6))
    assert abs(ket.truncation_tail - w6 * w6 / (mass + w6 * w6)) < 1e-15
    # at the formula edge the next level is unevaluable: tail is nan
    edge = DeformationSpec("morse", N=18, n_max=36, override_bound=True)
    assert math.isnan(coherent_coefficients(edge, 0.65, "D").truncation_tail)


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
        # ket stands, and its diagnostic tail is nan
        ket = coherent_coefficients(DeformationSpec("harmonic", n_max=1), 1e100, "coherent")
        assert math.isnan(ket.truncation_tail)


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
    c = coherent_coefficients(pt, 0.65, "A").coefficients
    signs = (-1.0) ** np.arange(10)
    assert abs(overlap(pt, 0.65, "A") - float(np.sum(signs * c * c))) < 1e-15
    assert abs(overlap(pt, 0.65, "A") - 0.3921232579554189) < 1e-12
    assert overlap(pt, 0.0, "A") == 1.0


def test_quasi_bell_spec_validation():
    spec = DeformationSpec("poschl_teller", N=10, n_max=9)
    QuasiBellSpec(spec, 0.65, "A", "minus")
    with pytest.raises(DomainError):
        QuasiBellSpec(spec, 0.65, "A", "neg")
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
    flipped = quasi_bell_wmatrix(QuasiBellSpec(spec, 0.65, "A", "minus"))
    assert abs(flipped.matrix[1, 1] + n_x * (1.0 - s)) < 1e-15
    # the sign choice changes neither concurrence nor discord
    assert abs(concurrence_pure(w) - concurrence_pure(flipped)) < 1e-15
    assert abs(qd_gwl_analytic(w, 0.7).discord - qd_gwl_analytic(flipped, 0.7).discord) < 1e-14
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
