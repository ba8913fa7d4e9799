"""Concurrence and entanglement of formation for the supported families.

Three routes to the concurrence live here:

* ``concurrence_pure``: 2 |det W| / tr(W W+) for a pure state given as a
  WMatrix.
* ``concurrence_mixed``: the general mixed-state formula
  C = max{0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4)} from the
  eigenvalues of rho rho~ (rho~ the spin-flipped state), computed fully
  numerically. This is the independent pipeline the closed forms are
  checked against.
* ``concurrence_gwl_analytic``: the closed form for a GWL mixture,
  which collapses to max{0, p C_pure - (1 - p)/2} and is therefore
  exactly zero on the separable side p <= 1/(1 + 2 C_pure).

EoF is the usual binary-entropy function of the concurrence. Values are
clipped only after full floating-point evaluation; no epsilon padding.

The closed forms depend on the pure component only through its
concurrence C and on the mixing parameter p (or on p alone for Werner
states), so they are plain numpy functions of (C, p) that take scalars
or broadcastable arrays: a scalar call returns a Python float. Nothing
in them depends on which side is measured or traced out, because the
two reduced states of a pure state share one spectrum,
(1 +- sqrt(1 - C^2))/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    NumericError,
    binary_entropy,
    check_range,
    float_or_array,
    general_eigenvalues_4x4,
    resolve_tolerance,
)
from .states import _SPIN_FLIP_CONJ, GWL_RANGE, WERNER_RANGE, spin_flip


@dataclass(frozen=True)
class ConcurrenceResult:
    """Mixed-state concurrence plus the sqrt-eigenvalue diagnostics.

    ``sqrt_eigenvalues`` holds sqrt(l_i) of rho rho~ sorted descending;
    ``value`` is max{0, s1 - s2 - s3 - s4}.
    """

    value: float
    sqrt_eigenvalues: np.ndarray


def concurrence_pure(psi):
    """Concurrence 2 |det W| / tr(W W+) of a pure state.

    Dividing by the norm gives the concurrence of the normalized state,
    so a W whose norm is off by rounding, such as I / sqrt(2), still
    reads exactly 1.
    """
    m = psi.matrix
    return float(2.0 * abs(psi.determinant()) / np.real(np.vdot(m, m)))


def concurrence_mixed(rho, tol=None):
    """Wootters concurrence of an arbitrary two-qubit density matrix.

    Eigenvalues of rho rho~ are taken from the general (non-symmetric)
    4x4 solver; imaginary parts beyond tolerance raise NumericError,
    real parts in [-tol, 0) are clipped to zero.

    The returned sqrt-eigenvalues come from an equivalent but better
    conditioned evaluation: with X the matrix of subnormalized
    eigenvectors of rho, the sqrt(l_i) are the singular values of the
    symmetric overlap matrix X^T (sy x sy) X. Square-rooting the
    eigenvalues of rho rho~ directly loses half the working precision
    whenever an eigenvalue underflows to the roundoff floor (rank
    deficient rho, e.g. a pure state), while singular values carry no
    such amplification.
    """
    t = resolve_tolerance(tol)
    rho = np.asarray(rho, dtype=complex)
    eigs = general_eigenvalues_4x4(rho @ spin_flip(rho))
    worst_imag = float(np.max(np.abs(eigs.imag)))
    if worst_imag > t:
        raise NumericError(
            "rho rho~ eigenvalues have imaginary parts up to %g" % worst_imag
        )
    if float(np.min(eigs.real)) < -t:
        raise NumericError(
            "rho rho~ eigenvalue %g is negative beyond tolerance"
            % float(np.min(eigs.real))
        )
    weights, vectors = np.linalg.eigh(rho)
    weights = np.clip(weights, 0.0, None)
    subnormalized = vectors * np.sqrt(weights)
    overlap = subnormalized.T @ _SPIN_FLIP_CONJ @ subnormalized
    roots = np.linalg.svd(overlap, compute_uv=False)
    value = max(0.0, float(roots[0] - roots[1] - roots[2] - roots[3]))
    return ConcurrenceResult(value=value, sqrt_eigenvalues=roots)


def concurrence_gwl_analytic(c_pure, p, tol=None):
    """Closed-form concurrence of a GWL mixture.

    Parameters
    ----------
    c_pure : float or array_like
        Concurrence of the pure component, in [0, 1].
    p : float or array_like
        Mixing parameter in [-1/3, 1]; broadcast against ``c_pure``.

    Returns
    -------
    float or ndarray
        max{0, p c_pure - (1 - p)/2}; zero exactly for
        p <= 1/(1 + 2 c_pure).
    """
    c_pure = check_range(c_pure, 0.0, 1.0, "pure-state concurrence", tol)
    p = check_range(p, *GWL_RANGE, "GWL mixing parameter", tol)
    return float_or_array(np.maximum(0.0, p * c_pure - (1.0 - p) / 2.0))


def concurrence_werner(p, tol=None):
    """Concurrence of the Werner state: max{0, -(3p + 1)/2}."""
    p = check_range(p, *WERNER_RANGE, "Werner mixing parameter", tol)
    return float_or_array(np.maximum(0.0, -(3.0 * p + 1.0) / 2.0))


def eof_from_concurrence(c, tol=None):
    """Entanglement of formation H2((1 + sqrt(1 - C^2)) / 2) in bits."""
    c = check_range(c, 0.0, 1.0, "concurrence", tol)
    return binary_entropy((1.0 + np.sqrt(1.0 - c * c)) / 2.0, tol)


def eof_werner(p, tol=None):
    """Entanglement of formation of the Werner state.

    Zero on the separable window [-1/3, 1/3]; the binary-entropy branch
    applies on [-1, -1/3).
    """
    return eof_from_concurrence(concurrence_werner(p, tol), tol)
