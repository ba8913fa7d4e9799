import math
import warnings

import numpy as np
import pytest

from qcorr import (
    EXCHANGE,
    DomainError,
    WMatrix,
    gwl,
    local_unitary,
    partial_trace,
    pure_density,
    random_pure_state,
    reduced_from_wmatrix,
    swap_qubits,
    werner,
)
from qcorr.linalg import PAULI_Y
from qcorr.states import _SPIN_FLIP_CONJ, GWL_RANGE, WERNER_RANGE

SQ2 = math.sqrt(2.0)

# Exemplar pure states with concurrence 1, 3/4, 1/2, 1/4 (in that order).
PSI_PLUS = WMatrix(np.eye(2) / SQ2)
PSI3 = WMatrix(np.array([[3.0, math.sqrt(6.0)], [2.0 * math.sqrt(6.0), -1.0]]) / (2.0 * math.sqrt(10.0)))
PSI2 = WMatrix(np.array([[-3.0, -3.0 * SQ2], [2.0 * SQ2, 1.0]]) / 6.0)
PSI1 = WMatrix(np.array([[math.sqrt(7.0), math.sqrt(5.0)], [3.0 * math.sqrt(5.0), math.sqrt(7.0)]]) / 8.0)
PHI_MINUS = WMatrix(np.array([[0.0, 1.0], [-1.0, 0.0]]) / SQ2)


def random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_exchange_matrix():
    # F = sum_ij |ij><ji| : permutation fixing |00>, |11> and swapping |01>, |10>
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = expected[1, 2] = expected[2, 1] = 1.0
    assert np.array_equal(EXCHANGE.real, expected)
    assert np.allclose(EXCHANGE @ EXCHANGE, np.eye(4))
    # eigenvalues +1 (triplet) and -1 (singlet)
    vals = np.linalg.eigvalsh(EXCHANGE)[::-1]
    assert np.allclose(vals, [1.0, 1.0, 1.0, -1.0])
    # partial trace of F/2 is the maximally mixed single qubit
    for side in ("A", "B"):
        assert np.allclose(partial_trace(EXCHANGE / 2.0, side), np.eye(2) / 2.0)


def test_wmatrix_normalization():
    with pytest.raises(DomainError):
        WMatrix(np.eye(2))  # norm 2
    with pytest.raises(DomainError):
        WMatrix(np.zeros((2, 2)))
    with pytest.raises(DomainError):
        WMatrix(np.eye(3) / math.sqrt(3.0))
    m = PSI3.matrix
    with pytest.raises(ValueError):
        m[0, 0] = 0.0  # stored amplitudes are read-only


def test_wmatrix_ket_layout():
    # W[i, j] = <ij|psi> with ket index 2i + j
    w = WMatrix(np.array([[0.1, 0.2], [0.3j, math.sqrt(1.0 - 0.14)]], dtype=complex))
    ket = w.ket
    assert ket[0] == w.matrix[0, 0]
    assert ket[1] == w.matrix[0, 1]
    assert ket[2] == w.matrix[1, 0]
    assert ket[3] == w.matrix[1, 1]
    again = WMatrix.from_ket(ket)
    assert np.array_equal(again.matrix, w.matrix)
    with pytest.raises(DomainError):
        WMatrix.from_ket(np.array([1.0, 0.0, 0.0]))


def test_wmatrix_determinant_and_transpose():
    assert abs(PHI_MINUS.determinant() - 0.5) < 1e-15
    assert abs(PSI2.determinant() - 0.25) < 1e-15


def test_wmatrix_text_round_trip():
    rng = np.random.default_rng(23)
    for seed in range(10):
        psi = random_pure_state(seed=seed)
        # each amplitude written as its repr, "(re+imj)", reads back exactly
        again = WMatrix.from_text(" ".join(repr(z) for z in psi.ket.tolist()))
        assert np.array_equal(again.matrix, psi.matrix)
    parsed = WMatrix.from_text("0.0+0.0j 0.7071067811865476+0.0j -0.7071067811865476+0.0j 0.0+0.0j")
    assert np.max(np.abs(parsed.matrix - PHI_MINUS.matrix)) < 1e-15


def test_wmatrix_text_norm_policy():
    # off by ~1e-8: renormalized with a warning
    a = math.sqrt(0.5) * (1.0 + 1e-8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        w = WMatrix.from_text("%r+0.0j 0+0j 0+0j %r+0.0j" % (a, a))
    assert any("renormalizing" in str(c.message) for c in caught)
    assert abs(np.trace(w.matrix @ w.matrix.conj().T).real - 1.0) < 1e-12
    # off by more than 1e-6: rejected
    with pytest.raises(DomainError):
        WMatrix.from_text("1.1+0j 0+0j 0+0j 0+0j")
    with pytest.raises(DomainError):
        WMatrix.from_text("1+0j 0+0j 0+0j")  # three tokens
    with pytest.raises(DomainError):
        WMatrix.from_text("1+0j 0+0j 0+0j spam")


def test_pure_density():
    rho = pure_density(PSI_PLUS)
    expected = np.zeros((4, 4))
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 0.5
    assert np.max(np.abs(rho - expected)) < 1e-15
    assert np.max(np.abs(pure_density(WMatrix([[1.0, 0.0], [0.0, 0.0]])) - np.diag([1.0, 0, 0, 0]))) == 0.0
    # projector: rho^2 = rho, trace 1
    for psi in (PSI1, PSI2, PSI3):
        rho = pure_density(psi)
        assert np.max(np.abs(rho @ rho - rho)) < 1e-15
        assert abs(np.trace(rho).real - 1.0) < 1e-15


def test_werner_basic():
    assert np.allclose(werner(0.0), np.eye(4) / 4.0)
    # pure exactly at p = -1: the singlet projector
    rho = werner(-1.0)
    assert np.max(np.abs(rho - pure_density(PHI_MINUS))) < 1e-15
    assert np.max(np.abs(rho @ rho - rho)) < 1e-15
    vals = np.linalg.eigvalsh(werner(1.0 / 3.0))[::-1]
    assert np.allclose(vals, [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0], atol=1e-12)
    with pytest.raises(DomainError):
        werner(0.4)
    with pytest.raises(DomainError):
        werner(-1.01)


def test_werner_eigenvalues_across_range():
    # eigenvalues (1+p)/4 (x3) and (1-3p)/4; PSD over the full range
    for p in np.arange(WERNER_RANGE[0], WERNER_RANGE[1] + 1e-9, 1e-3):
        vals = np.sort(np.linalg.eigvalsh(werner(p)))
        assert vals[0] > -1e-12
        assert abs(vals[0] - min((1.0 + p) / 4.0, (1.0 - 3.0 * p) / 4.0)) < 1e-12
        assert abs(np.sum(vals) - 1.0) < 1e-12


def test_gwl_basic():
    rng_seeds = range(4)
    for seed in rng_seeds:
        psi = random_pure_state(seed=seed)
        assert np.allclose(gwl(psi, 0.0), np.eye(4) / 4.0)
        assert np.max(np.abs(gwl(psi, 1.0) - pure_density(psi))) < 1e-15
        for p in np.arange(GWL_RANGE[0], GWL_RANGE[1] + 1e-9, 1e-3):
            vals = np.linalg.eigvalsh(gwl(psi, p))
            assert vals[0] > -1e-12
        # eigenvalues (1+3p)/4 and (1-p)/4 (x3)
        vals = np.linalg.eigvalsh(gwl(psi, 0.6))[::-1]
        assert abs(vals[0] - (1.0 + 3.0 * 0.6) / 4.0) < 1e-12
        assert np.max(np.abs(vals[1:] - (1.0 - 0.6) / 4.0)) < 1e-12
    with pytest.raises(DomainError):
        gwl(PSI_PLUS, -0.5)
    with pytest.raises(DomainError):
        gwl(PSI_PLUS, 1.2)


def test_gwl_of_singlet_is_werner():
    for p in np.arange(-1.0 / 3.0, 1.0 / 3.0 + 1e-9, 0.01):
        assert np.max(np.abs(gwl(PHI_MINUS, -p) - werner(p))) < 1e-15


def spin_flip(rho):
    # (sigma_y x sigma_y) rho* (sigma_y x sigma_y)
    return _SPIN_FLIP_CONJ @ np.asarray(rho).conj() @ _SPIN_FLIP_CONJ


def test_spin_flip():
    # the singlet is spin-flip invariant
    rho = pure_density(PHI_MINUS)
    assert np.max(np.abs(spin_flip(rho) - rho)) < 1e-15
    # |00><00| maps to |11><11|
    assert np.array_equal(spin_flip(np.diag([1.0, 0, 0, 0])).real, np.diag([0.0, 0, 0, 1.0]))
    rng = np.random.default_rng(29)
    for seed in range(8):
        psi = random_pure_state(seed=seed)
        rho = gwl(psi, 0.45)
        # involution
        assert np.max(np.abs(spin_flip(spin_flip(rho)) - rho)) < 1e-12
        # GWL maps to the GWL of the flipped pure state
        flipped_ket = np.kron(PAULI_Y, PAULI_Y) @ psi.ket.conj()
        psi_flipped = WMatrix.from_ket(flipped_ket)
        assert np.max(np.abs(spin_flip(rho) - gwl(psi_flipped, 0.45))) < 1e-12


def test_reduced_from_wmatrix():
    for side in ("A", "B"):
        assert np.allclose(reduced_from_wmatrix(PSI_PLUS, side), np.eye(2) / 2.0)
        assert np.allclose(
            reduced_from_wmatrix(WMatrix([[1.0, 0.0], [0.0, 0.0]]), side),
            np.diag([1.0, 0.0]),
        )
    # PSI2 reduced eigenvalues are (1 +- Delta0)/2 with Delta0 = sqrt(1 - (1/2)^2)
    delta0 = math.sqrt(1.0 - 0.25)
    vals = np.linalg.eigvalsh(reduced_from_wmatrix(PSI2, "A"))[::-1]
    assert np.max(np.abs(vals - [(1.0 + delta0) / 2.0, (1.0 - delta0) / 2.0])) < 1e-12
    for seed in range(10):
        psi = random_pure_state(seed=seed)
        rho = pure_density(psi)
        # the Appendix-style W-matrix forms equal the partial traces
        assert np.max(np.abs(reduced_from_wmatrix(psi, "A") - partial_trace(rho, "B"))) < 1e-12
        assert np.max(np.abs(reduced_from_wmatrix(psi, "B") - partial_trace(rho, "A"))) < 1e-12
        # both reduced states share their spectrum
        va = np.linalg.eigvalsh(reduced_from_wmatrix(psi, "A"))[::-1]
        vb = np.linalg.eigvalsh(reduced_from_wmatrix(psi, "B"))[::-1]
        assert np.max(np.abs(va - vb)) < 1e-12
    with pytest.raises(DomainError):
        reduced_from_wmatrix(PSI2, "C")


def test_random_pure_state():
    a = random_pure_state(seed=42)
    b = random_pure_state(seed=42)
    c = random_pure_state(seed=43)
    assert np.array_equal(a.matrix, b.matrix)
    assert np.max(np.abs(a.matrix - c.matrix)) > 1e-3
    assert abs(np.sum(np.abs(a.ket) ** 2) - 1.0) < 1e-12


def test_local_unitary():
    rng = np.random.default_rng(31)
    psi = random_pure_state(seed=1)
    assert np.array_equal(local_unitary(psi, np.eye(2), np.eye(2)).matrix, psi.matrix)
    # global phase changes the W-matrix but not the density matrix
    phase = np.exp(0.7j) * np.eye(2)
    rotated = local_unitary(psi, phase, np.eye(2))
    assert np.max(np.abs(pure_density(rotated) - pure_density(psi))) < 1e-12
    for _ in range(20):
        u_a, u_b = random_unitary(rng), random_unitary(rng)
        rotated = local_unitary(psi, u_a, u_b)
        # W -> U_A W U_B^T is the W-matrix form of (U_A x U_B)|psi>
        direct = np.kron(u_a, u_b) @ psi.ket
        assert np.max(np.abs(rotated.ket - direct)) < 1e-12
        # |det W| is preserved
        assert abs(abs(rotated.determinant()) - abs(psi.determinant())) < 1e-12
    with pytest.raises(DomainError):
        local_unitary(psi, np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(DomainError):
        local_unitary(psi, np.eye(2), 2.0 * np.eye(2))


def test_local_unitary_names_a_nan_factor():
    # NaN fails the unitarity test; it once passed it and failed later as
    # "state norm tr(W W+) = nan is not 1"
    psi = random_pure_state(seed=1)
    nan_u = np.array([[1.0, 0.0], [0.0, np.nan]])
    with pytest.raises(DomainError, match="U_A is not unitary"):
        local_unitary(psi, nan_u, np.eye(2))
    with pytest.raises(DomainError, match="U_B is not unitary"):
        local_unitary(psi, np.eye(2), nan_u)
    with pytest.raises(DomainError, match="U_B must have shape 2x2, got shape"):
        local_unitary(psi, np.eye(2), np.eye(3))


def test_swap_qubits():
    rng = np.random.default_rng(37)
    for _ in range(10):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho_a = a @ a.conj().T
        rho_a /= np.trace(rho_a).real
        rho_b = b @ b.conj().T
        rho_b /= np.trace(rho_b).real
        swapped = swap_qubits(np.kron(rho_a, rho_b))
        assert np.max(np.abs(swapped - np.kron(rho_b, rho_a))) < 1e-12
        assert np.max(np.abs(swap_qubits(swapped) - np.kron(rho_a, rho_b))) < 1e-14
