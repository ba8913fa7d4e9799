"""Two-qubit state builders: W-matrix pure states, Werner and GWL mixtures.

A pure two-qubit state |psi> = sum_ij psi_ij |ij> is carried around as
its 2x2 amplitude matrix W with W[i, j] = <ij|psi> (the WMatrix class).
That form makes the reduced states products, W W+ for side A and
(W^T)(W^T)+ for side B, and makes the pure-state concurrence 2 |det W|.

Mixed families:

* Werner:  rho_W(p)   = (1 - p)/4 * I4 + p/2 * F4,   p in [-1, 1/3],
  where F4 is the two-qubit exchange (swap) operator. The state is pure
  exactly at p = -1, where it equals the singlet Bell projector.
* GWL:     rho(psi,p) = (1 - p)/4 * I4 + p |psi><psi|, p in [-1/3, 1].
"""

from __future__ import annotations

import warnings

import numpy as np

from .linalg import DomainError, PAULI_Y, check_range, kronecker, resolve_tolerance

WERNER_RANGE = (-1.0, 1.0 / 3.0)
GWL_RANGE = (-1.0 / 3.0, 1.0)

# Reject a WMatrix text file whose norm is off by more than this; smaller
# deviations (beyond the working tolerance) renormalize with a warning.
TEXT_NORM_REJECT = 1e-6


def _build_exchange():
    f = np.zeros((4, 4), dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            f[2 * i + j, 2 * j + i] = 1.0
    f.flags.writeable = False
    return f


#: Exchange (swap) operator F4 = sum_ij |ij><ji|.
EXCHANGE = _build_exchange()

_SPIN_FLIP_CONJ = kronecker(PAULI_Y, PAULI_Y)
_SPIN_FLIP_CONJ.flags.writeable = False


class WMatrix:
    """Amplitude matrix of a normalized pure two-qubit state.

    Parameters
    ----------
    matrix : array_like
        2x2 complex array with W[i, j] = <ij|psi>. Must satisfy
        tr(W W+) = 1 within tolerance; anything else raises DomainError.
    """

    def __init__(self, matrix, tol=None):
        m = np.array(matrix, dtype=complex)
        if m.shape != (2, 2):
            raise DomainError("WMatrix must be 2x2, got shape %r" % (m.shape,))
        norm = float(np.real(np.trace(m @ m.conj().T)))
        if not abs(norm - 1.0) <= resolve_tolerance(tol):
            raise DomainError("state norm tr(W W+) = %.12g is not 1" % norm)
        m.flags.writeable = False
        self._m = m

    @property
    def matrix(self):
        """The 2x2 amplitude array (read-only)."""
        return self._m

    @property
    def ket(self):
        """Length-4 amplitude vector in the |ij> = 2i + j ordering."""
        return self._m.reshape(4)

    def determinant(self):
        m = self._m
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

    def transposed(self):
        """WMatrix of the same state with the roles of A and B swapped."""
        return WMatrix(self._m.T)

    @classmethod
    def from_ket(cls, ket, tol=None):
        ket = np.asarray(ket, dtype=complex)
        if ket.shape != (4,):
            raise DomainError("ket must have 4 amplitudes, got shape %r" % (ket.shape,))
        return cls(ket.reshape(2, 2), tol=tol)

    @classmethod
    def from_text(cls, text, tol=None):
        """Parse the four-amplitude text format.

        The format is four complex tokens (python ``re+imj`` literals) in
        row-major order, separated by whitespace. A norm off by at most
        1e-6 is renormalized with a warning; a larger deviation is
        rejected.
        """
        tokens = text.split()
        if len(tokens) != 4:
            raise DomainError("expected 4 amplitude tokens, got %d" % len(tokens))
        try:
            values = [complex(tok) for tok in tokens]
        except ValueError as exc:
            raise DomainError("unparseable amplitude token: %s" % exc) from None
        m = np.array(values, dtype=complex).reshape(2, 2)
        norm = float(np.real(np.trace(m @ m.conj().T)))
        if abs(norm - 1.0) > resolve_tolerance(tol):
            if abs(norm - 1.0) >= TEXT_NORM_REJECT:
                raise DomainError(
                    "state norm %.12g is off by %.3g, beyond the %.0e repair limit"
                    % (norm, abs(norm - 1.0), TEXT_NORM_REJECT)
                )
            warnings.warn(
                "renormalizing W-matrix with norm off by %.3g" % abs(norm - 1.0),
                stacklevel=2,
            )
            m = m / np.sqrt(norm)
        return cls(m, tol=tol)

    def to_text(self):
        """Inverse of from_text: four round-trippable tokens on one line."""
        parts = []
        for z in self.ket:
            re, im = float(z.real), float(z.imag)
            sign = "+" if im >= 0 else "-"
            parts.append("%r%s%rj" % (re, sign, abs(im)))
        return " ".join(parts)

    def __repr__(self):
        return "WMatrix(%r)" % (self._m.tolist(),)


def pure_density(psi):
    """Projector |psi><psi| as a 4x4 matrix."""
    ket = psi.ket
    return np.outer(ket, ket.conj())


def werner(p, tol=None):
    """Werner state (1 - p)/4 * I4 + p/2 * F4 for p in [-1, 1/3].

    Pure only at p = -1 (the singlet projector); maximally mixed at
    p = 0; separable on [-1/3, 1/3].
    """
    p = float(p)
    # validated only: the matrix is built from p as given
    check_range(p, *WERNER_RANGE, "Werner mixing parameter", tol)
    return (1.0 - p) / 4.0 * np.eye(4, dtype=complex) + p / 2.0 * EXCHANGE


def gwl(psi, p, tol=None):
    """Generalized Werner-like state (1 - p)/4 * I4 + p |psi><psi|."""
    p = float(p)
    check_range(p, *GWL_RANGE, "GWL mixing parameter", tol)
    return (1.0 - p) / 4.0 * np.eye(4, dtype=complex) + p * pure_density(psi)


def spin_flip(rho):
    """Spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x sigma_y)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DomainError("expected a 4x4 matrix, got shape %r" % (rho.shape,))
    return _SPIN_FLIP_CONJ @ rho.conj() @ _SPIN_FLIP_CONJ


def reduced_from_wmatrix(psi, partition):
    """Reduced state of one side of a pure state, straight from W.

    Parameters
    ----------
    psi : WMatrix
    partition : {"A", "B"}
        The subsystem that is kept: "A" returns W W+, "B" returns
        (W^T)(W^T)+. Matches partial_trace over the other subsystem.
    """
    w = psi.matrix
    if partition == "A":
        return w @ w.conj().T
    if partition == "B":
        return w.T @ w.conj()
    raise DomainError("partition must be 'A' or 'B', got %r" % (partition,))


def random_pure_state(seed):
    """Haar-ish random pure two-qubit state from a seeded generator."""
    rng = np.random.default_rng(seed)
    ket = rng.normal(size=4) + 1j * rng.normal(size=4)
    ket /= np.linalg.norm(ket)
    return WMatrix.from_ket(ket)


def local_unitary(psi, u_a, u_b, tol=None):
    """Apply local unitaries: W -> U_A W U_B^T.

    Raises DomainError when either factor fails the unitarity check.
    """
    t = resolve_tolerance(tol)
    out = psi.matrix
    for name, u in (("U_A", u_a), ("U_B", u_b)):
        u = np.asarray(u, dtype=complex)
        if u.shape != (2, 2):
            raise DomainError("%s must be 2x2, got shape %r" % (name, u.shape))
        if float(np.max(np.abs(u.conj().T @ u - np.eye(2)))) > t:
            raise DomainError("%s is not unitary within tolerance %g" % (name, t))
    out = np.asarray(u_a, dtype=complex) @ out @ np.asarray(u_b, dtype=complex).T
    return WMatrix(out, tol=tol)


def swap_qubits(rho):
    """Conjugate a 4x4 state by the exchange operator (relabel A <-> B)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DomainError("expected a 4x4 matrix, got shape %r" % (rho.shape,))
    return EXCHANGE @ rho @ EXCHANGE
