"""f-deformed coherent states and the quasi-Bell pairs built from them.

A deformation family supplies f(n) > 0; the deformed factorial is
f(n)! = f(0) f(1) ... f(n) with f(-1)! = 1. Supported families:

* harmonic:       f(n) = 1 (the ordinary oscillator, no bound on n)
* poschl_teller:  f(n) = sqrt((sqrt(N^2 + 1) - n) / N),  n < sqrt(N^2 + 1)
* exciton:        f(n) = e^{-k^2} L^1_n(k^2) / ((n + 1) L^0_n(k^2)),
                  Lamb-Dicke window k^2 (2n + 1) < 1
* morse:          f(n) = sqrt(1 + (1 - n) / (2N)),  stated window
                  n < sqrt(2N + 1) although the expression stays
                  positive up to n = 2N; ``override_bound`` unlocks the
                  wider range.

Normalized kets over Fock levels 0..n_max come in three kinds:

* ``coherent``: c_n proportional to alpha^n / sqrt(n!)
* ``A``:        c_n proportional to alpha^n / (sqrt(n!) f(n)!)
* ``D``:        c_n proportional to alpha^n f(n)! / sqrt(n!)

The symmetric quasi-Bell pair of |alpha> and |-alpha> on both modes has
the diagonal W-matrix diag(n_X (1 + s), +- n_X (1 - s)) in the even/odd
cat basis, where s = <alpha|-alpha> is the (real) overlap and
n_X = 1 / sqrt(2 (1 + s^2)); its concurrence is (1 - s^2)/(1 + s^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .discord import qd_gwl
from .linalg import DomainError, resolve_tolerance
from .states import WMatrix

FAMILIES = ("harmonic", "poschl_teller", "exciton", "morse")

#: select_nmax cap for the harmonic family, which has no physical bound.
HARMONIC_CAP = 64

#: Mixing parameter at which select_nmax compares the discord of successive levels.
SELECT_NMAX_PROBE_P = 0.9

_KINDS = {"a": "A", "d": "D", "c": "coherent", "coherent": "coherent"}


def _canonical_kind(kind):
    try:
        return _KINDS[str(kind).lower()]
    except KeyError:
        raise DomainError("kind must be one of A, D, coherent; got %r" % (kind,)) from None


def _laguerre(n, k, x):
    # associated Laguerre L^k_n(x) by the three-term upward recurrence
    lm1, l = 1.0, 1.0 + k - x
    if n == 0:
        return lm1
    for j in range(1, n):
        lm1, l = l, ((2 * j + 1 + k - x) * l - (j + k) * lm1) / (j + 1)
    return l


@dataclass(frozen=True)
class DeformationSpec:
    """One deformation family with its parameters and truncation level.

    ``n_max`` may be left None for operations that choose it themselves
    (select_nmax). ``override_bound`` relaxes the stated physical window
    to wherever the f(n) expression remains positive.
    """

    family: str
    N: int | None = None
    kappa: float | None = None
    n_max: int | None = None
    override_bound: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError("unknown family %r, expected one of %r" % (self.family, FAMILIES))
        if self.family in ("poschl_teller", "morse"):
            if self.N is None or int(self.N) < 1 or int(self.N) != self.N:
                raise DomainError("%s needs a positive integer N, got %r" % (self.family, self.N))
        if self.family == "exciton":
            if self.kappa is None or not float(self.kappa) > 0.0:
                raise DomainError("exciton needs kappa > 0, got %r" % (self.kappa,))
        if self.n_max is not None:
            if int(self.n_max) != self.n_max or int(self.n_max) < 0:
                raise DomainError("n_max must be a non-negative integer, got %r" % (self.n_max,))
            limit = _value_limit(self)
            if limit is not None and self.n_max > limit:
                raise DomainError(
                    "n_max=%d breaks the %s validity window (max %d)"
                    % (self.n_max, self.family, limit)
                )


def hard_nmax(spec):
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


def _formula_nmax(spec):
    # largest n where f(n) is evaluable and positive, for override use
    if spec.family == "harmonic":
        return None
    if spec.family == "poschl_teller":
        return hard_nmax(spec)
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
    if beyond or spec.override_bound:
        return _formula_nmax(spec)
    return hard_nmax(spec)


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


def deformation_value(spec, n):
    """The deformation function f(n).

    Levels outside the family validity window raise DomainError unless
    the spec carries ``override_bound`` (and even then only while the
    expression stays positive).
    """
    return _f_value(spec, n)


def deformed_factorial(spec, n):
    """f(n)! = f(0) f(1) ... f(n), with f(-1)! = 1."""
    n = int(n)
    if n < -1:
        raise DomainError("deformed factorial index must be >= -1, got %d" % n)
    out = 1.0
    for m in range(0, n + 1):
        out *= _f_value(spec, m)
    return out


@dataclass(frozen=True)
class DeformedKet:
    """Normalized coefficients of a (deformed) coherent state.

    ``truncation_tail`` estimates the weight of the first level beyond
    n_max relative to the kept mass (nan when that level cannot be
    evaluated); it is a diagnostic only.
    """

    coefficients: np.ndarray
    alpha: float
    kind: str
    truncation_tail: float = float("nan")

    def __post_init__(self):
        total = float(np.sum(np.abs(self.coefficients) ** 2))
        if abs(total - 1.0) > resolve_tolerance(None):
            raise DomainError("ket coefficients have norm %.12g, expected 1" % total)


def coherent_coefficients(spec, alpha, kind):
    """Normalized level amplitudes c_0..c_{n_max} for one state kind.

    alpha must be a non-negative real; spec.n_max must be set.
    """
    alpha = float(alpha)
    if alpha < 0.0:
        raise DomainError("alpha must be non-negative, got %r" % alpha)
    kind = _canonical_kind(kind)
    if spec.n_max is None:
        raise DomainError("spec.n_max must be set to build coefficients")
    exp = {"A": -1, "D": 1, "coherent": 0}[kind]
    weights = np.empty(spec.n_max + 1)
    weights[0] = 1.0
    for n in range(1, spec.n_max + 1):
        weights[n] = weights[n - 1] * alpha / math.sqrt(n) * _f_value(spec, n) ** exp
    mass = float(np.sum(weights**2))
    try:
        nxt = weights[spec.n_max] * alpha / math.sqrt(spec.n_max + 1)
        nxt *= _f_value(spec, spec.n_max + 1, beyond=True) ** exp
        tail = nxt * nxt / (mass + nxt * nxt)
    except DomainError:
        tail = float("nan")
    return DeformedKet(
        coefficients=weights / math.sqrt(mass),
        alpha=alpha,
        kind=kind,
        truncation_tail=tail,
    )


def displacement_validity(spec, alpha, n_max=None):
    """How badly the displacement-operator algebra closes on 0..n_max.

    Returns max over n of (|alpha|^2 / 2) |phi(n)| with
    phi(n) = (n + 1) f^2(n + 1) - n f^2(n) - 1; zero for the harmonic
    oscillator, small values mean the deformed displacement acts almost
    like the ordinary one. Evaluating phi(n_max) requires f one level
    past n_max, which is allowed here even when it exceeds the stated
    window (this function is the tool that quantifies that abuse).
    """
    alpha = float(alpha)
    if alpha < 0.0:
        raise DomainError("alpha must be non-negative, got %r" % alpha)
    if n_max is None:
        n_max = spec.n_max
    if n_max is None:
        raise DomainError("n_max must be given (argument or spec)")
    n_max = int(n_max)
    worst = 0.0
    f_sq = _f_value(spec, 0, beyond=True) ** 2
    for n in range(0, n_max + 1):
        f_sq_next = _f_value(spec, n + 1, beyond=True) ** 2
        phi = (n + 1) * f_sq_next - n * f_sq - 1.0
        worst = max(worst, abs(phi))
        f_sq = f_sq_next
    return alpha * alpha / 2.0 * worst


def overlap(spec, alpha, kind):
    """Real overlap s = <alpha|-alpha> of the truncated deformed states.

    Equals sum_n (-1)^n |c_n|^2 for the normalized coefficients, so it
    lies in (-1, 1] with s = 1 only at alpha = 0.
    """
    ket = coherent_coefficients(spec, alpha, kind)
    signs = np.where(np.arange(ket.coefficients.size) % 2 == 0, 1.0, -1.0)
    return float(np.sum(signs * ket.coefficients**2))


@dataclass(frozen=True)
class QuasiBellSpec:
    """A symmetric quasi-Bell pair of deformed coherent states."""

    spec: DeformationSpec
    alpha: float
    kind: str
    sign: str = "plus"

    def __post_init__(self):
        if self.sign not in ("plus", "minus"):
            raise DomainError("sign must be 'plus' or 'minus', got %r" % (self.sign,))
        _canonical_kind(self.kind)


def _wmatrix_from_overlap(s, sign, tol=None):
    if 1.0 - abs(s) <= resolve_tolerance(tol):
        raise DomainError(
            "overlap magnitude %g leaves no orthogonal component; "
            "the quasi-Bell pair is undefined" % abs(s)
        )
    n_x = 1.0 / math.sqrt(2.0 * (1.0 + s * s))
    lower = n_x * (1.0 - s)
    if sign == "minus":
        lower = -lower
    return WMatrix([[n_x * (1.0 + s), 0.0], [0.0, lower]], tol=tol)


def quasi_bell_wmatrix(qb, tol=None):
    """W-matrix of the quasi-Bell pair, diagonal in the cat-state basis."""
    s = overlap(qb.spec, qb.alpha, qb.kind)
    return _wmatrix_from_overlap(s, qb.sign, tol=tol)


def concurrence_quasi_bell(qb):
    """Closed-form concurrence (1 - s^2)/(1 + s^2) of the quasi-Bell pair."""
    s = overlap(qb.spec, qb.alpha, qb.kind)
    return (1.0 - s * s) / (1.0 + s * s)


def select_nmax(spec, alpha, kind, tol=1e-10):
    """Smallest truncation level whose quantum discord has converged.

    Compares the discord of the quasi-Bell state at the mixing parameter
    SELECT_NMAX_PROBE_P for successive levels and returns the first n
    with |QD(n) - QD(n + 1)| < tol. Bounded families cap the search at
    one level below the validity window (so n + 1 stays evaluable); the
    harmonic family caps at HARMONIC_CAP. When the difference never
    drops below tol the cap is returned with a warning. spec.n_max is
    ignored.
    """
    limit = hard_nmax(spec)
    cap = HARMONIC_CAP if limit is None else limit - 1
    if cap < 1:
        raise DomainError("family window leaves no room to compare levels (cap %d)" % cap)
    # one ket at the top level gives the overlap of every truncation n:
    # s_n = sum_{k<=n} (-1)^k c_k^2 / sum_{k<=n} c_k^2
    weights = coherent_coefficients(replace(spec, n_max=cap + 1), alpha, kind).coefficients ** 2
    signed = np.where(np.arange(weights.size) % 2 == 0, weights, -weights)
    s = np.cumsum(signed)[1:] / np.cumsum(weights)[1:]
    qd = qd_gwl((1.0 - s * s) / (1.0 + s * s), SELECT_NMAX_PROBE_P)
    converged = np.flatnonzero(np.abs(np.diff(qd)) < tol)
    if converged.size:
        return int(converged[0]) + 1
    warnings.warn(
        "discord still moving by more than %g at the level cap; returning %d" % (tol, cap),
        stacklevel=2,
    )
    return cap


def energy_level(spec, n):
    """Deformed-oscillator energy E_n = [(n+1) f^2(n+1) + n f^2(n)] / 2.

    Needs f at n + 1, so n + 1 must lie inside the validity window
    (or the spec must carry override_bound). Harmonic gives n + 1/2.
    """
    n = int(n)
    if n < 0:
        raise DomainError("level index must be non-negative, got %d" % n)
    f_here = _f_value(spec, n)
    f_next = _f_value(spec, n + 1)
    return 0.5 * ((n + 1) * f_next * f_next + n * f_here * f_here)
