import math

import numpy as np
import pytest

from qcorr import (
    DomainError,
    NumericError,
    WMatrix,
    binary_entropy,
    concurrence_gwl_analytic,
    concurrence_mixed,
    concurrence_pure,
    concurrence_werner,
    eof_from_concurrence,
    eof_werner,
    gwl,
    local_unitary,
    pure_density,
    qd_gwl_analytic,
    qd_werner,
    random_pure_state,
    spin_flip,
    werner,
)
from qcorr.linalg import PAULI_Y, kronecker

SQ2 = math.sqrt(2.0)

PSI_PLUS = WMatrix(np.eye(2) / SQ2)
PSI3 = WMatrix(np.array([[3.0, math.sqrt(6.0)], [2.0 * math.sqrt(6.0), -1.0]]) / (2.0 * math.sqrt(10.0)))
PSI2 = WMatrix(np.array([[-3.0, -3.0 * SQ2], [2.0 * SQ2, 1.0]]) / 6.0)
PSI1 = WMatrix(np.array([[math.sqrt(7.0), math.sqrt(5.0)], [3.0 * math.sqrt(5.0), math.sqrt(7.0)]]) / 8.0)
PHI_MINUS = WMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]) / SQ2)
PRODUCT = WMatrix([[1.0, 0.0], [0.0, 0.0]])

EXEMPLARS = [(PSI_PLUS, 1.0), (PSI3, 0.75), (PSI2, 0.5), (PSI1, 0.25)]


def random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_concurrence_pure_exemplars():
    for psi, c in EXEMPLARS:
        assert abs(concurrence_pure(psi) - c) < 1e-12
    assert concurrence_pure(PRODUCT) == 0.0
    assert abs(concurrence_pure(PHI_MINUS) - 1.0) < 1e-15


def test_concurrence_pure_matches_spin_flip_overlap():
    # C = |<psi|psi~>| with |psi~> = (sy x sy)|psi*>
    flip = kronecker(PAULI_Y, PAULI_Y)
    for seed in range(20):
        psi = random_pure_state(seed=seed)
        overlap = abs(np.vdot(psi.ket, flip @ psi.ket.conj()))
        assert abs(concurrence_pure(psi) - overlap) < 1e-12


def test_concurrence_mixed_on_pure_inputs():
    for seed in range(20):
        psi = random_pure_state(seed=seed)
        res = concurrence_mixed(pure_density(psi))
        assert abs(res.value - concurrence_pure(psi)) < 1e-10
    for psi, c in EXEMPLARS:
        assert abs(concurrence_mixed(pure_density(psi)).value - c) < 1e-10


def test_concurrence_mixed_werner_and_noise():
    assert concurrence_mixed(np.eye(4) / 4.0).value == 0.0
    for p in np.arange(-1.0, 1.0 / 3.0 + 1e-9, 0.01):
        expected = max(0.0, -(3.0 * p + 1.0) / 2.0)
        assert abs(concurrence_mixed(werner(p)).value - expected) < 1e-9
    assert abs(concurrence_mixed(werner(-1.0)).value - 1.0) < 1e-12
    assert concurrence_mixed(werner(-1.0 / 3.0)).value < 1e-12


def test_concurrence_mixed_rejects_bad_spectra():
    # not density matrices: rho rho~ grows complex (resp. negative)
    # eigenvalues and the pipeline refuses both
    shifted = np.array(
        [
            [0.25, 1.0, 0.0, 0.0],
            [0.0, 0.25, 1.0, 0.0],
            [0.0, 0.0, 0.25, 1.0],
            [0.0, 0.0, 0.0, 0.25],
        ],
        dtype=complex,
    )
    with pytest.raises(NumericError, match="imaginary"):
        concurrence_mixed(shifted)
    cyclic = np.array(
        [
            [0.25, 0.3, 0.0, 0.0],
            [0.0, 0.25, 0.3, 0.0],
            [0.0, 0.0, 0.25, 0.3],
            [0.3, 0.0, 0.0, 0.25],
        ],
        dtype=complex,
    )
    with pytest.raises(NumericError, match="negative"):
        concurrence_mixed(cyclic)


def test_gwl_analytic_thresholds():
    # vanishes at p = 1/(1 + 2C) up to the rounding of p_star itself,
    # exactly zero just below, strictly positive just above
    for c, p_star in [(0.25, 2.0 / 3.0), (0.5, 0.5), (0.75, 0.4), (1.0, 1.0 / 3.0)]:
        assert abs(concurrence_gwl_analytic(c, p_star)) < 1e-15
        assert concurrence_gwl_analytic(c, p_star - 1e-6) == 0.0
        assert concurrence_gwl_analytic(c, p_star + 1e-6) > 0.0
    assert concurrence_gwl_analytic(0.0, 1.0) == 0.0
    # C = 1 collapses to the noisy-singlet form (3p - 1)/2
    for p in np.arange(-1.0 / 3.0, 1.0 + 1e-9, 0.05):
        assert abs(concurrence_gwl_analytic(1.0, p) - max(0.0, (3.0 * p - 1.0) / 2.0)) < 1e-15


def test_gwl_analytic_domain():
    with pytest.raises(DomainError):
        concurrence_gwl_analytic(1.2, 0.5)
    with pytest.raises(DomainError):
        concurrence_gwl_analytic(-0.1, 0.5)
    with pytest.raises(DomainError):
        concurrence_gwl_analytic(0.5, -0.5)
    with pytest.raises(DomainError):
        concurrence_gwl_analytic(0.5, 1.01)
    # within-tolerance excursions clamp instead of raising
    assert concurrence_gwl_analytic(1.0 + 1e-12, 1.0) <= 1.0 + 1e-9


def test_gwl_analytic_matches_mixed_pipeline():
    # the central closed-form-vs-Wootters check, including p = 1 (pure)
    p_grid = np.linspace(-1.0 / 3.0, 1.0, 41)
    for seed in range(12):
        psi = random_pure_state(seed=seed)
        c = concurrence_pure(psi)
        for p in p_grid:
            ana = concurrence_gwl_analytic(c, p)
            num = concurrence_mixed(gwl(psi, p)).value
            assert abs(ana - num) < 1e-9
    # negative p with the exemplars too
    for psi, c in EXEMPLARS:
        for p in (-1.0 / 3.0, -0.2, -0.05):
            ana = concurrence_gwl_analytic(c, p)
            num = concurrence_mixed(gwl(psi, p)).value
            assert abs(ana - num) < 1e-9


def test_gwl_sqrt_eigenvalue_structure():
    # the degenerate pair (1-p)/4 sits at the bottom for p >= 0
    for seed in range(6):
        psi = random_pure_state(seed=seed)
        for p in np.arange(0.0, 1.0 + 1e-9, 0.1):
            roots = concurrence_mixed(gwl(psi, p)).sqrt_eigenvalues
            assert abs(roots[2] - (1.0 - p) / 4.0) < 1e-9
            assert abs(roots[3] - (1.0 - p) / 4.0) < 1e-9


def test_concurrence_invariant_under_local_unitaries():
    rng = np.random.default_rng(41)
    for seed in range(10):
        psi = random_pure_state(seed=seed)
        c = concurrence_pure(psi)
        rotated = local_unitary(psi, random_unitary(rng), random_unitary(rng))
        assert abs(concurrence_pure(rotated) - c) < 1e-12
        # equal concurrence gives equal EoF, for the mixture too
        for p in (0.5, 0.8, 1.0):
            e1 = eof_from_concurrence(concurrence_gwl_analytic(c, p))
            e2 = eof_from_concurrence(concurrence_gwl_analytic(concurrence_pure(rotated), p))
            assert abs(e1 - e2) < 1e-10


def test_concurrence_werner_closed_form():
    assert concurrence_werner(-1.0) == 1.0
    assert concurrence_werner(-1.0 / 3.0) == 0.0
    assert concurrence_werner(0.2) == 0.0
    for p in np.arange(-1.0, 1.0 / 3.0 + 1e-9, 0.01):
        assert abs(concurrence_werner(p) - max(0.0, -(3.0 * p + 1.0) / 2.0)) < 1e-15
    with pytest.raises(DomainError):
        concurrence_werner(0.5)
    with pytest.raises(DomainError):
        concurrence_werner(-1.1)


def test_eof_from_concurrence_values():
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(1.0) == 1.0
    assert abs(eof_from_concurrence(0.5) - 0.3545789026652699) < 1e-14
    # monotone increasing in C
    grid = np.linspace(0.0, 1.0, 101)
    vals = [eof_from_concurrence(c) for c in grid]
    assert np.all(np.diff(vals) > 0.0)
    with pytest.raises(DomainError):
        eof_from_concurrence(1.5)
    with pytest.raises(DomainError):
        eof_from_concurrence(-0.5)
    assert eof_from_concurrence(1.0 + 1e-12) == 1.0


def test_gwl_eof_monotone_in_concurrence():
    # at fixed p in the entangled region, more pure-state concurrence
    # never means less EoF
    for p in (0.5, 0.7, 0.9, 1.0):
        vals = [eof_from_concurrence(concurrence_gwl_analytic(c, p)) for c in np.linspace(0.0, 1.0, 51)]
        assert np.all(np.diff(vals) >= 0.0)


def test_eof_werner():
    assert eof_werner(-1.0) == 1.0
    assert eof_werner(0.0) == 0.0
    # zero on the whole separable window
    for p in np.arange(-1.0 / 3.0, 1.0 / 3.0 + 1e-9, 0.01):
        assert eof_werner(p) == 0.0
    # matches the Wootters pipeline across the full range
    for p in np.arange(-1.0, 1.0 / 3.0 + 1e-9, 0.02):
        pipeline = eof_from_concurrence(concurrence_mixed(werner(p)).value)
        assert abs(eof_werner(p) - pipeline) < 1e-10
    with pytest.raises(DomainError):
        eof_werner(0.5)


def test_spin_flip_route_consistency():
    # concurrence via rho rho~ equals the analytic Werner form computed
    # from a hand-built spin flip, guarding the sign conventions
    p = -0.8
    rho = werner(p)
    rho_tilde = spin_flip(rho)
    prod = rho @ rho_tilde
    vals = np.sort(np.sqrt(np.clip(np.linalg.eigvals(prod).real, 0.0, None)))[::-1]
    by_hand = max(0.0, vals[0] - vals[1] - vals[2] - vals[3])
    assert abs(by_hand - concurrence_werner(p)) < 1e-9


def test_nan_and_inf_raise_domain_error():
    nan, inf = float("nan"), float("inf")
    calls = [
        lambda x: binary_entropy(x),
        lambda x: concurrence_werner(x),
        lambda x: eof_werner(x),
        lambda x: eof_from_concurrence(x),
        lambda x: concurrence_gwl_analytic(x, 0.5),
        lambda x: concurrence_gwl_analytic(0.5, x),
        lambda x: werner(x),
        lambda x: gwl(PSI3, x),
        lambda x: qd_werner(x),
        lambda x: qd_gwl_analytic(PSI3, x),
    ]
    for call in calls:
        for x in (nan, inf, -inf):
            with pytest.raises(DomainError):
                call(x)
    for text in ("nan 0 0 0", "inf 0 0 0"):
        with pytest.raises(DomainError), np.errstate(invalid="ignore"):
            WMatrix.from_text(text)
