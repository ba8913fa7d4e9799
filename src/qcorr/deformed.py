"""f-deformed coherent states and the quasi-Bell pairs built from them.

A deformation family supplies f(n) > 0; the deformed factorial is
f(n)! = f(0) f(1) ... f(n) with f(-1)! = 1. Supported families:

* harmonic:       f(n) = 1 (the ordinary oscillator, no bound on n)
* poschl_teller:  f(n) = sqrt((sqrt(N^2 + 1) - n) / N),  n < sqrt(N^2 + 1)
* exciton:        f(n) = e^{-k^2} L^1_n(k^2) / ((n + 1) L^0_n(k^2)),
                  Lamb-Dicke window k^2 (2n + 1) < 1
* morse:          f(n) = sqrt(1 + (1 - n) / (2N)),  stated window
                  n < sqrt(2N + 1) although the expression stays
                  positive up to n = 2N, the range displacement_validity
                  may read.

Normalized kets over Fock levels 0..n_max come in three kinds:

* ``coherent``: c_n proportional to alpha^n / sqrt(n!)
* ``A``:        c_n proportional to alpha^n / (sqrt(n!) f(n)!)
* ``D``:        c_n proportional to alpha^n f(n)! / sqrt(n!)

The symmetric quasi-Bell pair of |alpha> and |-alpha> on both modes has
the diagonal W-matrix diag(n_X (1 + s), n_X (1 - s)) in the even/odd
cat basis, where s = <alpha|-alpha> is the (real) overlap and
n_X = 1 / sqrt(2 (1 + s^2)); its concurrence is (1 - s^2)/(1 + s^2).

Every f(n) comes from one table f(0..top), built in a single upward
pass that carries the exciton's Laguerre recurrences along. Each
operation that needs f builds it once, so a ket over n levels costs
O(n), and no level exceeds MAX_NMAX.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .discord import qd_gwl
from .linalg import DomainError, _integer, resolve_tolerance
from .states import WMatrix

FAMILIES = ("harmonic", "poschl_teller", "exciton", "morse")

#: Highest truncation level: a ket holds at most MAX_NMAX + 1 levels.
MAX_NMAX = 100_000

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


def _amplitude(alpha):
    alpha = float(alpha)
    if not 0.0 <= alpha < math.inf:
        raise DomainError("alpha must be finite and non-negative, got %r" % alpha)
    return alpha


@dataclass(frozen=True)
class DeformationSpec:
    """One deformation family with its parameters and truncation level.

    ``n_max`` may be left None for operations that choose it themselves
    (select_nmax); it must lie in the family's stated window.
    """

    family: str
    N: int | None = None
    kappa: float | None = None
    n_max: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError("unknown family %r, expected one of %r" % (self.family, FAMILIES))
        for name, families in (("N", ("poschl_teller", "morse")), ("kappa", ("exciton",))):
            if getattr(self, name) is not None and self.family not in families:
                raise DomainError("%s does not apply to family %s" % (name, self.family))
        if self.family in ("poschl_teller", "morse"):
            _integer(self.N, "%s N" % self.family, 1)
            hard_nmax(self)  # an N too large for a float window fails here
        if self.family == "exciton" and not 0.0 < float(self.kappa or 0.0) < math.inf:
            raise DomainError("exciton needs a finite kappa > 0, got %r" % (self.kappa,))
        if self.n_max is not None:
            _f_table(self, _integer(self.n_max, "n_max", 0, MAX_NMAX))


def hard_nmax(spec):
    """Largest n inside the family's stated validity window (None = unbounded).

    A window too wide for a float raises DomainError for an N family. For
    the exciton it means kappa^2 underflowed, so f(n) = 1 to working
    precision, and the window saturates above MAX_NMAX, the cap on levels.
    """
    if spec.family == "harmonic":
        return None
    try:
        if spec.family == "poschl_teller":
            return math.floor(math.sqrt(spec.N * spec.N + 1.0))
        # the exciton and morse windows are strict, n < x
        if spec.family == "exciton":
            x = (1.0 / (spec.kappa * spec.kappa) - 1.0) / 2.0
        else:
            x = math.sqrt(2.0 * spec.N + 1.0)
        return max(math.ceil(x) - 1, 0)
    except (OverflowError, ZeroDivisionError):
        if spec.family == "exciton":
            return MAX_NMAX + 1
        raise DomainError(
            "%s N = %r leaves a validity window too wide for a float" % (spec.family, spec.N)
        ) from None


def _f_table(spec, top, beyond=False):
    """[f(0), ..., f(top)] from one upward pass; past the window, DomainError.

    The window is the stated validity window, or with ``beyond`` the
    formula window where f stays evaluable and positive (up to 2N for
    morse, and for the exciton up to the first non-positive Laguerre
    factor, at most MAX_NMAX); the error names the window and its max.
    """
    if spec.family == "morse" and beyond:
        limit = 2 * int(spec.N)
    elif spec.family == "exciton" and beyond:
        limit = MAX_NMAX
    else:
        limit = hard_nmax(spec)
    last = top if limit is None else min(top, limit)
    if spec.family == "harmonic":
        table = [1.0] * (last + 1)
    elif spec.family == "poschl_teller":
        root = math.sqrt(spec.N * spec.N + 1.0)
        table = [math.sqrt((root - n) / spec.N) for n in range(last + 1)]
    elif spec.family == "morse":
        table = [math.sqrt(1.0 + (1.0 - n) / (2.0 * spec.N)) for n in range(last + 1)]
    else:
        # L^k_n(x), x = kappa^2, by the three-term upward recurrence from
        # L^k_{-1} = 0 and L^k_0 = 1
        x = spec.kappa * spec.kappa
        scale = math.exp(-x)
        l0_prev, l0, l1_prev, l1 = 0.0, 1.0, 0.0, 1.0
        table = [scale]
        for n in range(1, last + 1):
            l0_prev, l0 = l0, ((2 * n - 1 - x) * l0 - (n - 1) * l0_prev) / n
            l1_prev, l1 = l1, ((2 * n - x) * l1 - n * l1_prev) / n
            if l0 <= 0.0 or l1 <= 0.0:
                break
            table.append(scale * l1 / ((n + 1) * l0))
    if len(table) <= top:
        raise DomainError(
            "level n=%d outside the %s %s window (max %d)"
            % (len(table), spec.family, "formula" if beyond else "validity", len(table) - 1)
        )
    return table


def coherent_coefficients(spec, alpha, kind):
    """Normalized level amplitudes c_0..c_{n_max} for one state kind, as an array.

    alpha must be a finite, non-negative real; spec.n_max must be set.
    """
    alpha = _amplitude(alpha)
    kind = _canonical_kind(kind)
    if spec.n_max is None:
        raise DomainError("spec.n_max must be set to build coefficients")
    exp = {"A": -1, "D": 1, "coherent": 0}[kind]
    f = _f_table(spec, spec.n_max)
    weights = np.empty(spec.n_max + 1)
    weights[0] = 1.0
    # a large alpha overflows the weights or their squares to inf, which is
    # reported as a domain error, not as numpy's overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, spec.n_max + 1):
            weights[n] = weights[n - 1] * alpha / math.sqrt(n) * f[n] ** exp
        mass = float(np.sum(weights**2))
    if not 0.0 < mass < math.inf:
        raise DomainError(
            "alpha = %r overflows the level weights of the %s ket on levels 0..%d"
            % (alpha, kind, spec.n_max)
        )
    return weights / math.sqrt(mass)


def displacement_validity(spec, alpha, n_max=None):
    """How badly the displacement-operator algebra closes on 0..n_max.

    Returns max over n of (|alpha|^2 / 2) |phi(n)| with
    phi(n) = (n + 1) f^2(n + 1) - n f^2(n) - 1; zero for the harmonic
    oscillator, small values mean the deformed displacement acts almost
    like the ordinary one. Evaluating phi(n_max) requires f one level
    past n_max, which may exceed the stated window (this function
    quantifies that abuse) but not the formula window.
    """
    alpha = _amplitude(alpha)
    n_max = spec.n_max if n_max is None else n_max
    if n_max is None:
        raise DomainError("n_max must be given (argument or spec)")
    n_max = _integer(n_max, "n_max", 0, MAX_NMAX)
    f = _f_table(spec, n_max + 1, beyond=True)
    worst = 0.0
    for n in range(n_max + 1):
        worst = max(worst, abs((n + 1) * f[n + 1] ** 2 - n * f[n] ** 2 - 1.0))
    return alpha * alpha / 2.0 * worst


def overlap(spec, alpha, kind):
    """Real overlap s = <alpha|-alpha> of the truncated deformed states.

    Equals sum_n (-1)^n |c_n|^2 for the normalized coefficients, so it
    lies in (-1, 1] with s = 1 only at alpha = 0.
    """
    c = coherent_coefficients(spec, alpha, kind)
    signs = np.where(np.arange(c.size) % 2 == 0, 1.0, -1.0)
    return float(np.sum(signs * c**2))


@dataclass(frozen=True)
class QuasiBellSpec:
    """A symmetric quasi-Bell pair of deformed coherent states, up to local unitaries."""

    spec: DeformationSpec
    alpha: float
    kind: str

    def __post_init__(self):
        _canonical_kind(self.kind)


def _concurrence_from_overlap(s):
    # (1 - s^2)/(1 + s^2), with 1 - s^2 factored so it keeps its digits as |s| -> 1
    return (1.0 - s) * (1.0 + s) / (1.0 + s * s)


def _wmatrix_from_overlap(s, tol=None):
    if 1.0 - abs(s) <= resolve_tolerance(tol):
        raise DomainError(
            "overlap magnitude %g leaves no orthogonal component; "
            "the quasi-Bell pair is undefined" % abs(s)
        )
    n_x = 1.0 / math.sqrt(2.0 * (1.0 + s * s))
    return WMatrix([[n_x * (1.0 + s), 0.0], [0.0, n_x * (1.0 - s)]], tol=tol)


def quasi_bell_wmatrix(qb, tol=None):
    """W-matrix of the quasi-Bell pair, diagonal in the cat-state basis."""
    s = overlap(qb.spec, qb.alpha, qb.kind)
    return _wmatrix_from_overlap(s, tol=tol)


def concurrence_quasi_bell(qb):
    """Closed-form concurrence (1 - s^2)/(1 + s^2) of the quasi-Bell pair."""
    return _concurrence_from_overlap(overlap(qb.spec, qb.alpha, qb.kind))


def select_nmax(spec, alpha, kind, tol=None):
    """Smallest truncation level whose quantum discord has converged.

    Compares the discord of the quasi-Bell state at the mixing parameter
    SELECT_NMAX_PROBE_P for successive levels and returns the first n
    with |QD(n) - QD(n + 1)| < tol. Bounded families cap the search at
    one level below the validity window or MAX_NMAX, whichever is lower
    (so n + 1 stays evaluable); the harmonic family caps at HARMONIC_CAP. When the difference never
    drops below tol the cap is returned with a warning. spec.n_max is
    ignored; tol None means DEFAULT_TOLERANCE.
    """
    tol = resolve_tolerance(tol)
    limit = hard_nmax(spec)
    cap = HARMONIC_CAP if limit is None else min(limit, MAX_NMAX) - 1
    if cap < 1:
        raise DomainError("family window leaves no room to compare levels (cap %d)" % cap)
    # one ket at the top level gives the overlap of every truncation n:
    # s_n = sum_{k<=n} (-1)^k c_k^2 / sum_{k<=n} c_k^2
    weights = coherent_coefficients(replace(spec, n_max=cap + 1), alpha, kind) ** 2
    signed = np.where(np.arange(weights.size) % 2 == 0, weights, -weights)
    s = np.cumsum(signed)[1:] / np.cumsum(weights)[1:]
    qd = qd_gwl(_concurrence_from_overlap(s), SELECT_NMAX_PROBE_P)
    converged = np.flatnonzero(np.abs(np.diff(qd)) < tol)
    if converged.size:
        return int(converged[0]) + 1
    warnings.warn(
        "discord still moving by more than %g at the level cap; returning %d" % (tol, cap),
        stacklevel=2,
    )
    return cap
