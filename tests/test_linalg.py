import ast
import math
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from qcorr import (
    DomainError,
    NumericError,
    WMatrix,
    binary_entropy,
    gwl,
    mixing_after_measurement,
    partial_trace,
    qd_werner,
    random_pure_state,
    select_nmax,
    von_neumann_entropy,
)
import qcorr
from qcorr.deformed import DeformationSpec
from qcorr.linalg import DEFAULT_TOLERANCE, IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z, resolve_tolerance


def random_density(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def test_pauli_constants():
    for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
        assert np.array_equal(sigma, sigma.conj().T)
        assert np.allclose(sigma @ sigma, IDENTITY_2)
        assert abs(np.trace(sigma)) == 0.0
    assert np.allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z)
    with pytest.raises(ValueError):
        PAULI_X[0, 0] = 5.0  # constants are write-protected


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


def test_von_neumann_entropy_clamps_and_warns():
    # a tiny negative eigenvalue inside the tolerance window counts as 0, with
    # one warning that names the caller's line, here this file
    m = np.diag([0.5, -1e-12, 0.25, 0.25]).astype(complex)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert von_neumann_entropy(m) == 1.5
    assert [str(w.message) for w in caught] == ["clamping 1 eigenvalue(s) in [-1e-10, 0) to zero"]
    assert caught[0].filename == __file__
    # a genuinely negative eigenvalue is a domain error, not clamped
    with pytest.raises(DomainError, match="outside"):
        von_neumann_entropy(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(DomainError, match="not Hermitian"):
        von_neumann_entropy(np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_von_neumann_entropy_checks_the_spectrum():
    # the checks of the folded-away Spectrum.check_density: a probability
    # spectrum passes, a trace off 1 or an eigenvalue outside [0, 1] fails
    assert von_neumann_entropy(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)) == 1.0
    with pytest.raises(DomainError, match="trace"):
        von_neumann_entropy(np.diag([0.6, 0.6]).astype(complex))
    with pytest.raises(DomainError, match=r"outside \[0, 1\].*min=-0.5 max=1.5"):
        von_neumann_entropy(np.diag([1.5, -0.5]).astype(complex))
    # at unit trace, one bound broken past the tolerance and the other kept
    with pytest.raises(DomainError, match="outside"):
        von_neumann_entropy(np.diag([1.0, 0.0015, -0.0015, 0.0]), tol=1e-3)
    # the spectrum is checked before any eigenvalue is clamped, so this
    # fails without a clamping warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="outside"):
            von_neumann_entropy(np.diag([1.002, -0.0008, -0.0008, -0.0004]), tol=1e-3)


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
        joint = np.kron(rho, sigma)
        assert np.max(np.abs(partial_trace(joint, "B") - rho)) < 1e-12
        assert np.max(np.abs(partial_trace(joint, "A") - sigma)) < 1e-12


def test_partial_trace_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(19)
    for _ in range(25):
        rho = random_density(rng, 4)
        for side in ("A", "B"):
            red = partial_trace(rho, side)
            assert abs(np.trace(red).real - 1.0) < 1e-12
            assert np.max(np.abs(red - red.conj().T)) <= 1e-12
    with pytest.raises(DomainError):
        partial_trace(np.eye(4) / 4.0, "C")
    with pytest.raises(DomainError):
        partial_trace(np.eye(2), "A")


def test_no_module_rebinds_a_global():
    # a `global` statement is how a module grows state that one call can
    # leave behind for the next; every tolerance is passed as `tol=`
    for path in sorted(Path(qcorr.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Global)]
        assert not lines, "%s: global statement on line(s) %s" % (path.name, lines)


def test_each_input_check_has_one_home():
    # each check's message is written once in the package, so every module
    # that takes such an input runs the same check and gives the same error
    source = "".join(
        path.read_text(encoding="utf-8")
        for path in sorted(Path(qcorr.__file__).parent.glob("*.py"))
    )
    for message in (
        "partition must be 'A' or 'B'",
        "differs from 1 beyond tolerance",
        "%s is not Hermitian within tolerance",
        "eigenvalues outside [0, 1] beyond tolerance",
        "alpha must be finite and non-negative",
        "%s must have shape %s, got shape",
        "must be an integer in [",
        "tolerance must be finite and positive",
    ):
        assert source.count(message) == 1, message
    for message in (
        "expected a 4x4 matrix",
        "expected a %s matrix",
        "WMatrix must be 2x2",
        "ket must have 4 amplitudes",
        "%s must be 2x2",
        "expected a 4x4 density matrix or a stack of them",
    ):
        assert message not in source, message


# Hermitian with unit trace but indefinite: eigenvalues 0.25 and 0.25 +- 0.5 sqrt(2)
PAIRED = np.eye(4, dtype=complex) / 4.0
PAIRED[0, 1] = PAIRED[1, 0] = PAIRED[0, 2] = PAIRED[2, 0] = 0.5

# every library function that takes a density matrix
DENSITY_CALLS = {
    "qd_numeric": qcorr.qd_numeric,
    "luders_update": lambda rho, tol=None: qcorr.luders_update(
        rho, qcorr.MeasurementDirection(0.3, 0.2), 0, tol=tol
    ),
    "concurrence_mixed": qcorr.concurrence_mixed,
    "von_neumann_entropy": von_neumann_entropy,
}


@pytest.mark.parametrize(
    "rho", [np.diag([1.2, -0.1, -0.05, -0.05]), PAIRED], ids=["diagonal", "paired"]
)
def test_every_density_input_checks_the_spectrum(rho):
    # once qd_numeric returned a value, luders_update a branch probability
    # above 1, concurrence_mixed a NumericError and von_neumann_entropy its own
    # DomainError; now one check refuses the state with one message
    messages = set()
    for call in DENSITY_CALLS.values():
        with pytest.raises(DomainError, match=r"^density matrix eigenvalues outside \[0, 1\]") as info:
            call(rho)
        messages.add(str(info.value))
    assert len(messages) == 1
    good = qcorr.werner(-0.5)
    with pytest.raises(DomainError, match=r"^density matrix 1 eigenvalues outside \[0, 1\]"):
        qcorr.qd_numeric(np.array([good, rho, good]))


@pytest.mark.parametrize("tol", [None, 1e-3])
def test_an_eigenvalue_half_a_tolerance_below_zero_passes(tol):
    t = resolve_tolerance(tol)
    for call in DENSITY_CALLS.values():
        with warnings.catch_warnings():
            # von_neumann_entropy clamps the eigenvalue to zero with a warning
            warnings.simplefilter("ignore")
            call(np.diag([0.6 + 0.5 * t, 0.4, -0.5 * t, 0.0]), tol=tol)
        with pytest.raises(DomainError, match="eigenvalues outside"):
            call(np.diag([0.6 + 1.5 * t, 0.4, -1.5 * t, 0.0]), tol=tol)


def test_shape_errors_name_the_argument_and_the_shapes():
    cases = [
        (lambda: von_neumann_entropy(np.eye(3)), "matrix must have shape 2x2 or 4x4, got shape (3, 3)"),
        (lambda: partial_trace(np.eye(2), "A"), "matrix must have shape 4x4, got shape (2, 2)"),
        (lambda: qcorr.concurrence_mixed(np.eye(2) / 2.0), "matrix must have shape 4x4, got shape (2, 2)"),
        (lambda: WMatrix(np.eye(3)), "WMatrix must have shape 2x2, got shape (3, 3)"),
        (lambda: WMatrix.from_ket(np.ones((2, 2))), "ket must have shape 4, got shape (2, 2)"),
        (lambda: qcorr.qd_numeric(np.eye(2)), "rho must have shape 4x4 or Kx4x4, got shape (2, 2)"),
        (lambda: qcorr.qd_numeric(np.ones((2, 4, 4, 1))), "got shape (2, 4, 4, 1)"),
    ]
    for call, message in cases:
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value).endswith(message), str(info.value)


def test_every_tolerance_is_finite_and_positive():
    assert resolve_tolerance(None) == DEFAULT_TOLERANCE
    assert resolve_tolerance(1e-3) == 1e-3
    for bad in (0.0, -1.0, math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="tolerance must be finite and positive"):
            resolve_tolerance(bad)
    # once these returned 0.3333, a matrix with a negative diagonal entry, a
    # range error that misquoted the range, and the level cap with a warning
    psi = random_pure_state(seed=3)
    spec = DeformationSpec("poschl_teller", N=10)
    for call in (
        lambda: qd_werner(5.0, tol=math.inf),
        lambda: gwl(psi, 2.0, tol=math.inf),
        lambda: mixing_after_measurement(0.5, 0.3, tol=-1),
        lambda: select_nmax(spec, 0.65, "A", tol=math.nan),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="tolerance must be finite and positive"):
                call()


def test_the_public_surface_is_this_list():
    # adding or removing an export is a deliberate edit of this list
    names = {
        name
        for name, value in vars(qcorr).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == {
        "ConcurrenceResult", "DeformationSpec", "DiscordBreakdown", "DomainError", "EXCHANGE",
        "MeasurementDirection", "NumericError", "PostMeasurement", "QuasiBellSpec", "WMatrix",
        "binary_entropy", "coherent_coefficients", "concurrence_gwl_analytic",
        "concurrence_mixed", "concurrence_pure", "concurrence_quasi_bell", "concurrence_werner",
        "displacement_validity", "eof_from_concurrence", "eof_werner", "gwl",
        "hard_nmax", "lifted_projector",
        "local_unitary", "luders_update", "mixing_after_measurement", "overlap",
        "partial_trace", "pure_density", "qd_gwl", "qd_gwl_analytic", "qd_numeric",
        "qd_werner", "quasi_bell_wmatrix", "random_pure_state",
        "reduced_from_wmatrix", "select_nmax", "swap_qubits",
        "von_neumann_entropy", "werner",
    }
