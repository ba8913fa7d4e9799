import math
import warnings

import numpy as np
import pytest

from qcorr import (
    DomainError,
    NumericError,
    binary_entropy,
    general_eigenvalues_4x4,
    get_tolerance,
    hermitian_eigenvalues,
    is_hermitian,
    kronecker,
    partial_trace,
    set_tolerance,
    von_neumann_entropy,
)
from qcorr.linalg import DEFAULT_TOLERANCE, IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, tolerance


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def random_density(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_tolerance_plumbing():
    assert get_tolerance() == DEFAULT_TOLERANCE
    try:
        set_tolerance(1e-6)
        assert get_tolerance() == 1e-6
    finally:
        set_tolerance(DEFAULT_TOLERANCE)
    with pytest.raises(DomainError):
        set_tolerance(0.0)
    with pytest.raises(DomainError):
        set_tolerance(-1e-3)


def test_tolerance_context_restores_on_exit():
    with tolerance(1e-6):
        assert get_tolerance() == 1e-6
    assert get_tolerance() == DEFAULT_TOLERANCE
    with pytest.raises(DomainError):
        with tolerance(1e-3):
            binary_entropy(2.0)
    assert get_tolerance() == DEFAULT_TOLERANCE
    with tolerance(None):
        assert get_tolerance() == DEFAULT_TOLERANCE


def test_pauli_constants():
    for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
        assert is_hermitian(sigma)
        assert np.allclose(sigma @ sigma, IDENTITY_2)
        assert abs(np.trace(sigma)) == 0.0
    assert np.allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z)
    with pytest.raises(ValueError):
        PAULI_X[0, 0] = 5.0  # constants are write-protected


def test_is_hermitian():
    assert is_hermitian(np.eye(4))
    m = np.array([[1.0, 1j], [-1j, 2.0]])
    assert is_hermitian(m)
    assert not is_hermitian(np.array([[1.0, 1.0], [0.0, 1.0]]))
    # within-tolerance asymmetry passes
    m = np.array([[1.0, 1e-12], [0.0, 1.0]])
    assert is_hermitian(m)
    with pytest.raises(DomainError):
        is_hermitian(np.eye(3))


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy(0.25) - 0.8112781244591329) < 1e-14
    assert abs(binary_entropy(2.0 / 3.0) - 0.9182958340544895) < 1e-14


def test_binary_entropy_symmetry_and_domain():
    rng = np.random.default_rng(7)
    for x in rng.uniform(0.0, 1.0, size=200):
        assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) < 1e-12
    # values within tolerance of the edges clamp to the edge
    assert binary_entropy(-1e-12) == 0.0
    assert binary_entropy(1.0 + 1e-12) == 0.0
    with pytest.raises(DomainError):
        binary_entropy(-1e-3)
    with pytest.raises(DomainError):
        binary_entropy(1.001)


def test_hermitian_eigenvalues_random():
    rng = np.random.default_rng(11)
    for n in (2, 4):
        for _ in range(50):
            m = random_hermitian(rng, n)
            vals = hermitian_eigenvalues(m).eigenvalues
            assert np.all(np.diff(vals) <= 0.0)  # descending
            ref = np.sort(np.linalg.eigvalsh(m))[::-1]
            assert np.max(np.abs(vals - ref)) < 1e-10
            assert abs(np.sum(vals) - np.trace(m).real) < 1e-12


def test_hermitian_eigenvalues_clamp_and_warn():
    # a tiny negative eigenvalue inside the tolerance window clamps to 0
    m = np.diag([1.0, -1e-12, 0.5, 0.25]).astype(complex)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        vals = hermitian_eigenvalues(m).eigenvalues
    assert any("clamping" in str(w.message) for w in caught)
    assert np.min(vals) == 0.0
    # a genuinely negative eigenvalue passes through untouched
    m = np.diag([1.0, -0.5]).astype(complex)
    vals = hermitian_eigenvalues(m).eigenvalues
    assert vals[1] == -0.5
    with pytest.raises(DomainError):
        hermitian_eigenvalues(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_spectrum_check_density():
    hermitian_eigenvalues(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)).check_density()
    with pytest.raises(DomainError):
        hermitian_eigenvalues(np.diag([0.6, 0.6]).astype(complex)).check_density()
    with pytest.raises(DomainError):
        hermitian_eigenvalues(np.diag([1.5, -0.5]).astype(complex)).check_density()


def test_general_eigenvalues_diagonal():
    rng = np.random.default_rng(3)
    d = rng.normal(size=4) + 1j * rng.normal(size=4)
    vals = general_eigenvalues_4x4(np.diag(d))
    assert np.max(np.abs(np.sort_complex(vals) - np.sort_complex(d))) < 1e-12
    with pytest.raises(DomainError):
        general_eigenvalues_4x4(np.eye(2))


def test_general_eigenvalues_match_hermitian():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = random_hermitian(rng, 4)
        general = np.sort(general_eigenvalues_4x4(m).real)[::-1]
        hermitian = hermitian_eigenvalues(m).eigenvalues
        assert np.max(np.abs(general - hermitian)) < 1e-10


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(np.eye(4) / 4.0) == 2.0
    ket = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    assert von_neumann_entropy(np.outer(ket, ket)) == 0.0
    assert abs(von_neumann_entropy(np.diag([0.5, 0.5, 0.0, 0.0])) - 1.0) < 1e-14
    # rank-3 flat spectrum: S = log2(3)
    rho = np.diag([1.0 / 3.0] * 3 + [0.0])
    assert abs(von_neumann_entropy(rho) - math.log2(3.0)) < 1e-12


def test_von_neumann_entropy_unitary_invariance():
    rng = np.random.default_rng(13)
    for _ in range(20):
        rho = random_density(rng, 4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        rotated = q @ rho @ q.conj().T
        assert abs(von_neumann_entropy(rho) - von_neumann_entropy(rotated)) < 1e-10


def test_von_neumann_entropy_domain():
    with pytest.raises(DomainError):
        von_neumann_entropy(np.eye(4))  # trace 4
    with pytest.raises(DomainError):
        von_neumann_entropy(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(DomainError):
        von_neumann_entropy(np.diag([1.5, -0.5]))  # not PSD


def test_partial_trace_product_states():
    rng = np.random.default_rng(17)
    for _ in range(25):
        rho = random_density(rng, 2)
        sigma = random_density(rng, 2)
        joint = kronecker(rho, sigma)
        assert np.max(np.abs(partial_trace(joint, "B") - rho)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, "A") - sigma)) < 1e-12


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(19)
    for _ in range(25):
        rho = random_density(rng, 4)
        for side in ("A", "B"):
            red = partial_trace(rho, side)
            assert abs(np.trace(red).real - 1.0) < 1e-12
            assert is_hermitian(red, 1e-12)
    with pytest.raises(DomainError):
        partial_trace(np.eye(4) / 4.0, "C")
    with pytest.raises(DomainError):
        partial_trace(np.eye(2), "A")


def test_kronecker_identity_and_projector():
    assert np.array_equal(kronecker(IDENTITY_2, IDENTITY_2), np.eye(4))
    # projector onto |0> on side A, lifted: diag(1, 1, 0, 0)
    pi0 = 0.5 * (IDENTITY_2 + PAULI_Z)
    assert np.allclose(kronecker(pi0, IDENTITY_2), np.diag([1.0, 1.0, 0.0, 0.0]))
    # index convention: (A x B)[2i+j, 2k+l] = A[i,k] B[j,l]
    a = np.arange(4.0).reshape(2, 2)
    b = np.arange(4.0, 8.0).reshape(2, 2)
    full = kronecker(a, b)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    assert full[2 * i + j, 2 * k + l] == a[i, k] * b[j, l]
