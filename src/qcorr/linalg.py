"""Fixed-size complex linear algebra used throughout the package.

Everything works on plain numpy arrays of shape (2, 2) or (4, 4). The
two-qubit basis is ordered |ij> = |i>_A (x) |j>_B with row-major index
2i + j; every module in the package relies on that convention. All
entropies are in bits (log base 2).

A single module-wide tolerance (default 1e-10) governs hermiticity,
trace and positivity checks; see set_tolerance / get_tolerance, and
``tolerance`` to override it for one block of code only.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

DEFAULT_TOLERANCE = 1e-10

_tolerance = DEFAULT_TOLERANCE


class DomainError(ValueError):
    """An input lies outside the documented domain of an operation."""


class NumericError(ArithmeticError):
    """A numeric routine failed to converge or broke its own contract."""


def set_tolerance(tol):
    """Set the package-wide numeric tolerance.

    Parameters
    ----------
    tol : float
        New tolerance, must be positive.
    """
    global _tolerance
    tol = float(tol)
    if tol <= 0.0:
        raise DomainError("tolerance must be positive, got %r" % tol)
    _tolerance = tol


def get_tolerance():
    """Return the current package-wide numeric tolerance."""
    return _tolerance


@contextmanager
def tolerance(tol):
    """Use ``tol`` as the package-wide tolerance inside a ``with`` block.

    The previous value is restored on exit, also when the block raises;
    ``tol=None`` leaves the current value in force.
    """
    global _tolerance
    saved = _tolerance
    if tol is not None:
        set_tolerance(tol)
    try:
        yield
    finally:
        _tolerance = saved


def resolve_tolerance(tol=None):
    """Return ``tol`` as a float, or the package-wide default if None."""
    return _tolerance if tol is None else float(tol)


def _const(rows):
    m = np.array(rows, dtype=complex)
    m.flags.writeable = False
    return m


IDENTITY_2 = _const([[1, 0], [0, 1]])
PAULI_X = _const([[0, 1], [1, 0]])
PAULI_Y = _const([[0, -1j], [1j, 0]])
PAULI_Z = _const([[1, 0], [0, -1]])


def _as_square(m, name="matrix"):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in (2, 4):
        raise DomainError("%s must be 2x2 or 4x4, got shape %r" % (name, m.shape))
    return m


def is_hermitian(m, tol=None):
    """True when ``m`` equals its conjugate transpose within tolerance."""
    m = _as_square(m)
    return bool(np.max(np.abs(m - m.conj().T)) <= resolve_tolerance(tol))


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues of a Hermitian matrix, sorted descending."""

    eigenvalues: np.ndarray

    def check_density(self, tol=None):
        """Raise DomainError unless the eigenvalues form a probability set.

        Each eigenvalue must lie in [-tol, 1 + tol] and their sum must be
        1 within tolerance.
        """
        t = resolve_tolerance(tol)
        lo = float(np.min(self.eigenvalues))
        hi = float(np.max(self.eigenvalues))
        if lo < -t or hi > 1.0 + t:
            raise DomainError(
                "eigenvalues outside [0, 1] beyond tolerance: min=%g max=%g" % (lo, hi)
            )
        total = float(np.sum(self.eigenvalues))
        if abs(total - 1.0) > t:
            raise DomainError("eigenvalue sum %g differs from 1 beyond tolerance" % total)


def check_range(x, lo, hi, what, tol=None):
    """Validate ``x`` against [lo, hi] and return it clamped to that interval.

    ``x`` may be a scalar or an array; the result is a float64 array (or
    numpy scalar) of the same shape. Values within tolerance outside the
    interval are clamped; NaN, infinities and anything further out raise
    DomainError naming the first offending value.
    """
    t = resolve_tolerance(tol)
    x = np.asarray(x, dtype=float)
    ok = (lo - t <= x) & (x <= hi + t)
    if not ok.all():
        raise DomainError("%s %r outside [%g, %g]" % (what, float(x[~ok][0]), lo, hi))
    return np.clip(x, lo, hi)


def float_or_array(x):
    """A Python float for a scalar result, else the array; -0.0 reads 0.0."""
    x = np.asarray(x) + 0.0
    return float(x) if x.ndim == 0 else x


def xlog2x(u):
    """u log2 u elementwise, with 0 log 0 = 0 (and 0 for u <= 0)."""
    u = np.asarray(u, dtype=float)
    pos = u > 0.0
    return np.where(pos, u * np.log2(np.where(pos, u, 1.0)), 0.0)


def binary_entropy(x, tol=None):
    """Binary Shannon entropy H2(x) in bits, with 0 log 0 = 0.

    Parameters
    ----------
    x : float or array_like
        Probability. Values within tolerance outside [0, 1] are clamped;
        anything further out, or NaN, raises DomainError.
    """
    x = check_range(x, 0.0, 1.0, "binary_entropy argument", tol)
    return float_or_array(-(xlog2x(x) + xlog2x(1.0 - x)))


def hermitian_eigenvalues(m, tol=None):
    """Eigenvalues of a Hermitian 2x2 or 4x4 matrix, sorted descending.

    Eigenvalues in [-tol, 0) are clamped to zero with a warning so that
    downstream positivity-sensitive code (square roots, logs) stays in
    domain. Genuinely negative eigenvalues pass through untouched.

    Returns
    -------
    Spectrum
    """
    t = resolve_tolerance(tol)
    m = _as_square(m)
    if not is_hermitian(m, t):
        raise DomainError("input is not Hermitian within tolerance %g" % t)
    vals = np.linalg.eigvalsh(m)[::-1].copy()
    tiny = (vals < 0.0) & (vals >= -t)
    if np.any(tiny):
        warnings.warn(
            "clamping %d eigenvalue(s) in [-%g, 0) to zero" % (int(np.sum(tiny)), t),
            stacklevel=2,
        )
        vals[tiny] = 0.0
    return Spectrum(eigenvalues=vals)


def general_eigenvalues_4x4(m):
    """All four eigenvalues of a general (non-Hermitian) 4x4 matrix.

    Returned unordered and complex; callers decide how to interpret
    imaginary parts. Raises NumericError when the eigenvalue iteration
    does not converge.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise DomainError("expected a 4x4 matrix, got shape %r" % (m.shape,))
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            "eigenvalue iteration failed (%s); Frobenius norm %g"
            % (exc, float(np.linalg.norm(m)))
        ) from exc


def von_neumann_entropy(rho, tol=None):
    """Von Neumann entropy S = -tr(rho log2 rho) in bits.

    Parameters
    ----------
    rho : array_like
        Density matrix: Hermitian, positive semidefinite and unit trace
        within tolerance.
    """
    t = resolve_tolerance(tol)
    rho = _as_square(rho, "rho")
    if not is_hermitian(rho, t):
        raise DomainError("density matrix is not Hermitian within tolerance")
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > t:
        raise DomainError("density matrix trace %g differs from 1 beyond tolerance" % tr)
    spectrum = hermitian_eigenvalues(rho, t)
    if float(np.min(spectrum.eigenvalues)) < -t:
        raise DomainError("density matrix is not positive semidefinite within tolerance")
    spectrum.check_density(t)
    return eigenvalue_entropy(spectrum.eigenvalues)


def eigenvalue_entropy(eigs):
    """-sum lam log2 lam in bits over the positive eigenvalues.

    A scalar math.log2 loop in the order the eigenvalues are given: the
    oracle's values are pinned bit for bit to this summation, so it is
    not vectorized.
    """
    out = 0.0
    for lam in eigs:
        lam = float(lam)
        if lam > 0.0:
            out -= lam * math.log2(min(1.0, lam))
    return max(0.0, out)


def partial_trace(rho, partition):
    """Trace out one qubit of a two-qubit density matrix.

    Parameters
    ----------
    rho : array_like
        4x4 matrix in the |ij> = 2i + j basis.
    partition : {"A", "B"}
        The subsystem that is traced out; the other one is returned,
        so partial_trace(rho, "B") is the reduced state of A.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DomainError("expected a 4x4 matrix, got shape %r" % (rho.shape,))
    r = rho.reshape(2, 2, 2, 2)
    if partition == "A":
        return np.einsum("ijil->jl", r)
    if partition == "B":
        return np.einsum("ijkj->ik", r)
    raise DomainError("partition must be 'A' or 'B', got %r" % (partition,))


def kronecker(a, b):
    """Tensor product respecting the |ij> = |i>_A (x) |j>_B ordering."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
