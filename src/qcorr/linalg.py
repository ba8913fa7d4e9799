"""Fixed-size complex linear algebra used throughout the package.

Everything works on plain numpy arrays of shape (2, 2) or (4, 4). The
two-qubit basis is ordered |ij> = |i>_A (x) |j>_B with row-major index
2i + j; every module in the package relies on that convention. All
entropies are in bits (log base 2).

Every input check has its one home here: ``check_range``,
``resolve_tolerance`` and the private ``_shaped`` (array shape),
``_side``, ``_integer`` and ``_check_densities`` (Hermitian, unit
trace, eigenvalues in [0, 1]). A bad array, side, integer or tolerance
raises DomainError with the same message in every module. The density
check returns the spectra it computed, so a caller that needs them
makes no eigen-solve of its own.

Every hermiticity, trace, positivity and range check takes ``tol``;
None means DEFAULT_TOLERANCE. The module keeps no state, so no call
changes the tolerance of a later call.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

DEFAULT_TOLERANCE = 1e-10


class DomainError(ValueError):
    """An input lies outside the documented domain of an operation."""


class NumericError(ArithmeticError):
    """A numeric routine failed to converge or broke its own contract."""


def resolve_tolerance(tol=None):
    """Return ``tol`` as a float, or DEFAULT_TOLERANCE if None.

    Any other value must be finite and positive, else DomainError.
    """
    if tol is None:
        return DEFAULT_TOLERANCE
    t = float(tol)
    if not 0.0 < t < math.inf:
        raise DomainError("tolerance must be finite and positive, got %r" % (tol,))
    return t


def _const(rows):
    m = np.array(rows, dtype=complex)
    m.flags.writeable = False
    return m


IDENTITY_2 = _const([[1, 0], [0, 1]])
PAULI_X = _const([[0, 1], [1, 0]])
PAULI_Y = _const([[0, -1j], [1j, 0]])
PAULI_Z = _const([[1, 0], [0, -1]])


def _shaped(m, what, *shapes):
    # m as a complex array of one of the shapes; a 0 in a shape is a stack
    # axis of any length
    m = np.asarray(m, dtype=complex)
    for shape in shapes:
        if m.ndim == len(shape) and all(n in (0, k) for n, k in zip(shape, m.shape)):
            return m
    names = " or ".join("x".join(str(n or "K") for n in shape) for shape in shapes)
    raise DomainError("%s must have shape %s, got shape %r" % (what, names, m.shape))


def _side(partition):
    if partition not in ("A", "B"):
        raise DomainError("partition must be 'A' or 'B', got %r" % (partition,))
    return partition


def _integer(value, what, lo, hi=math.inf):
    # NaN, infinities and fractions are domain errors, never truncated
    try:
        whole = int(value) == value
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not (whole and lo <= value <= hi):
        raise DomainError("%s must be an integer in [%d, %s], got %r" % (what, lo, hi, value))
    return int(value)


def _check_densities(rho, tol=None, single=True):
    # the ascending spectra of rho, one matrix or a (K, n, n) stack, as a
    # (K, n) array once each matrix is Hermitian with unit trace and
    # eigenvalues in [0, 1]; eigvalsh sees no matrix that failed the first two
    # checks. Unless single, a message names the first failing index.
    t = resolve_tolerance(tol)
    mats = rho.reshape(-1, *rho.shape[-2:])
    herm = np.max(np.abs(mats - mats.conj().swapaxes(1, 2)), axis=(1, 2))
    traces = np.real(np.trace(mats, axis1=1, axis2=2))
    if not (herm.max(initial=0.0) <= t and np.abs(traces - 1.0).max(initial=0.0) <= t):
        k = int(np.argmin((herm <= t) & (np.abs(traces - 1.0) <= t)))
        what = "density matrix" if single else "density matrix %d" % k
        if not herm[k] <= t:
            raise DomainError("%s is not Hermitian within tolerance" % what)
        raise DomainError("%s trace %g differs from 1 beyond tolerance" % (what, traces[k]))
    vals = np.linalg.eigvalsh(mats)
    if not (vals[:, 0].min(initial=0.0) >= -t and vals[:, -1].max(initial=0.0) <= 1.0 + t):
        k = int(np.argmin((vals[:, 0] >= -t) & (vals[:, -1] <= 1.0 + t)))
        raise DomainError(
            "%s eigenvalues outside [0, 1] beyond tolerance: min=%g max=%g"
            % ("density matrix" if single else "density matrix %d" % k, vals[k, 0], vals[k, -1])
        )
    return vals


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
    out = np.where(pos, u, 1.0)
    return np.multiply(np.log2(out, out=out), u, out=out, where=pos)


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


def _spectrum_entropy(rho, tol, stacklevel=2):
    # (descending eigenvalues, von Neumann entropy) of one 2x2 or 4x4 density
    # matrix from one checked spectrum; eigenvalues in [-tol, 0) are set to 0
    # with a warning at warnings.warn's ``stacklevel``: 2 names the caller
    t = resolve_tolerance(tol)
    vals = _check_densities(_shaped(rho, "matrix", (2, 2), (4, 4)), t)[0][::-1].copy()
    tiny = (vals < 0.0) & (vals >= -t)
    if np.any(tiny):
        warnings.warn(
            "clamping %d eigenvalue(s) in [-%g, 0) to zero" % (int(np.sum(tiny)), t),
            stacklevel=stacklevel,
        )
        vals[tiny] = 0.0
    out = 0.0
    for lam in vals:
        lam = float(lam)
        if lam > 0.0:
            out -= lam * math.log2(min(1.0, lam))
    return vals, max(0.0, out)


def von_neumann_entropy(rho, tol=None):
    """Von Neumann entropy S = -tr(rho log2 rho) in bits.

    Parameters
    ----------
    rho : array_like
        2x2 or 4x4 density matrix: Hermitian, unit trace and eigenvalues
        in [0, 1] within tolerance, else DomainError. Eigenvalues in
        [-tol, 0) count as zero, with a warning that names the caller.
    """
    return _spectrum_entropy(rho, tol, stacklevel=3)[1]


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
    r = _shaped(rho, "matrix", (4, 4)).reshape(2, 2, 2, 2)
    if _side(partition) == "A":
        return np.einsum("ijil->jl", r)
    return np.einsum("ijkj->ik", r)

