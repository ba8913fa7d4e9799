"""Independent reference values for the benchmark's output checks.

Nothing here imports ``qcorr``. The closed forms are evaluated with
mpmath at 50 significant digits, in a private mpmath context:

* Werner states from their spectrum, (1 + p)/4 three times and
  (1 - 3p)/4, with every projective measurement leaving a conditional
  state of spectrum (1 +- p)/2;
* GWL states (1 - p)/4 I + p |psi><psi| from the Schmidt coefficient
  d = sqrt(1 - C^2) of the pure part: spectrum (1 + 3p)/4 and (1 - p)/4,
  reduced spectra (1 +- p d)/2, and the conditional entropy taken as the
  smaller of the measurement along the Schmidt axis and the one
  orthogonal to it, each written out from the conditional spectra
  {(1 - p)/4, (1 - p)/4 + p q};
* deformed quasi-Bell pairs from the overlap s = sum_n (-1)^n |c_n|^2 of
  coefficients built from each family's own f(n), with
  C = (1 - s^2)/(1 + s^2) and d = 2|s|/(1 + s^2).

The Wootters concurrence comes from numpy eigenvalues of rho rho~, and
p-grid row counts from exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import mpmath
import numpy as np

DIGITS = 50

mp = mpmath.MPContext()
mp.dps = DIGITS
LN2 = mp.log(2)

# A grid point that overshoots the stop by less than this share of a step
# still counts: the documented slack for round-off in (stop - start) / step.
GRID_SLACK = Fraction(1, 10**9)


def _xlnx(u):
    return u * mp.ln(u) if u > 0 else mp.zero


def _h2(x):
    return -(_xlnx(x) + _xlnx(1 - x)) / LN2


def _eof(c):
    return _h2((1 + mp.sqrt(1 - c * c)) / 2) if c > 0 else mp.zero


@dataclass(frozen=True)
class Point:
    """Reference values of one state at one mixing parameter, as floats."""

    eof: float
    qd: float
    concurrence: float
    entropy_total: float
    entropy_reduced: float
    mutual_information: float
    eigenvalues: tuple


def werner_point(p):
    p = mp.mpf(p)
    triplet, singlet = (1 + p) / 4, (1 - 3 * p) / 4
    s_total = -(3 * _xlnx(triplet) + _xlnx(singlet)) / LN2
    conc = max(mp.zero, -(3 * p + 1) / 2)
    return Point(
        eof=float(_eof(conc)),
        qd=float(1 - s_total + _h2((1 + p) / 2)),
        concurrence=float(conc),
        entropy_total=float(s_total),
        entropy_reduced=1.0,
        mutual_information=float(2 - s_total),
        eigenvalues=tuple(sorted((float(triplet),) * 3 + (float(singlet),), reverse=True)),
    )


@dataclass(frozen=True)
class PureState:
    """The pure part of a GWL state: concurrence c and Schmidt coefficient d (mpf)."""

    c: object
    d: object
    # float amplitude matrix, for the numpy Wootters check
    wmatrix: np.ndarray

    @cached_property
    def q_hi(self):
        return (1 + self.d) / 2

    @cached_property
    def q_lo(self):
        return (1 - self.d) / 2


class GwlReference:
    """GWL reference points; terms that depend on p alone are computed once per p."""

    def __init__(self):
        self._per_p = {}

    def _p_terms(self, p):
        terms = self._per_p.get(p)
        if terms is None:
            a = (1 - p) / 4
            a_ln_a = _xlnx(a)
            s_total = -(_xlnx((1 + 3 * p) / 4) + 3 * a_ln_a) / LN2
            # measurement orthogonal to the Schmidt axis: q = 1/2 on both branches
            equator = 2 * (_xlnx(mp.mpf(0.5)) - a_ln_a - _xlnx(a + p / 2)) / LN2
            eigs = tuple(sorted((float((1 + 3 * p) / 4),) + (float(a),) * 3, reverse=True))
            terms = self._per_p[p] = (a, 2 * a, a_ln_a, s_total, equator, eigs)
        return terms

    def point(self, pure, p):
        p = mp.mpf(p)
        a, two_a, a_ln_a, s_total, equator, eigs = self._p_terms(p)
        # measurement along the Schmidt axis: <Pi> = (1 +- d)/2, branch weight
        # (1 - p)/2 + p <Pi>, conditional spectrum {a, a + p <Pi>} unnormalised
        pq_hi, pq_lo = p * pure.q_hi, p * pure.q_lo
        w_ln_w = _xlnx(two_a + pq_hi) + _xlnx(two_a + pq_lo)
        cond = (w_ln_w - 2 * a_ln_a - _xlnx(a + pq_hi) - _xlnx(a + pq_lo)) / LN2
        s_red = -w_ln_w / LN2
        conc = max(mp.zero, p * pure.c - two_a)
        return Point(
            eof=float(_eof(conc)),
            qd=float(s_red - s_total + min(cond, equator)),
            concurrence=float(conc),
            entropy_total=float(s_total),
            entropy_reduced=float(s_red),
            mutual_information=float(2 * s_red - s_total),
            eigenvalues=eigs,
        )


def pure_from_concurrence(c):
    c = mp.mpf(c)
    d = mp.sqrt(1 - c * c)
    w = np.diag([math.sqrt((1 + float(d)) / 2), math.sqrt((1 - float(d)) / 2)])
    return PureState(c, d, w.astype(complex))


def pure_from_wmatrix_text(text):
    w = [complex(tok) for tok in text.split()]
    z = [mp.mpc(v) for v in w]
    norm = sum(abs(v) ** 2 for v in z)
    c = 2 * abs(z[0] * z[3] - z[1] * z[2]) / norm
    r00 = (abs(z[0]) ** 2 + abs(z[1]) ** 2) / norm
    r11 = (abs(z[2]) ** 2 + abs(z[3]) ** 2) / norm
    r01 = (z[0] * mp.conj(z[2]) + z[1] * mp.conj(z[3])) / norm
    d = mp.sqrt((r00 - r11) ** 2 + 4 * abs(r01) ** 2)
    return PureState(c, d, np.array(w).reshape(2, 2))


def deformation(family, N, kappa, n):
    """f(n) of each family, from its definition."""
    if family == "harmonic":
        return mp.one
    if family == "poschl_teller":
        return mp.sqrt((mp.sqrt(mp.mpf(N) ** 2 + 1) - n) / N)
    if family == "exciton":
        k2 = mp.mpf(kappa) ** 2
        return mp.exp(-k2) * mp.laguerre(n, 1, k2) / ((n + 1) * mp.laguerre(n, 0, k2))
    if family == "morse":
        return mp.sqrt(1 + mp.mpf(1 - n) / (2 * N))
    raise ValueError("unknown family %r" % (family,))


def overlap(family, N, kappa, alpha, kind, n_max):
    """s = <alpha|-alpha> of the deformed kets truncated at n_max.

    c_n is proportional to alpha^n / sqrt(n!) times f(n)!^e with
    f(n)! = f(0) ... f(n) and e = 0, -1, +1 for kinds C, A, D.
    """
    e = {"C": 0, "A": -1, "D": 1}[kind]
    alpha = mp.mpf(alpha)
    fact = mp.one
    signed = total = mp.zero
    for n in range(n_max + 1):
        fact *= deformation(family, N, kappa, n)
        w2 = alpha ** (2 * n) / mp.factorial(n) * fact ** (2 * e)
        signed += w2 if n % 2 == 0 else -w2
        total += w2
    return signed / total


def pure_from_overlap(s):
    c = (1 - s * s) / (1 + s * s)
    d = 2 * abs(s) / (1 + s * s)
    n_x = 1.0 / math.sqrt(2.0 * (1.0 + float(s) ** 2))
    w = np.diag([n_x * (1.0 + float(s)), n_x * (1.0 - float(s))])
    return PureState(c, d, w.astype(complex))


def grid_count(start, stop, step):
    """Rows of the grid start, start + step, ... up to stop, counted exactly."""
    span, step = Fraction(stop) - Fraction(start), Fraction(step)
    n = span // step
    if (n + 1) * step - span < step * GRID_SLACK:
        n += 1
    return int(n) + 1


def grid_points(start, stop, step):
    """The grid's points as 50-digit numbers (exact for double inputs)."""
    count = grid_count(start, stop, step)
    start, step = mp.mpf(start), mp.mpf(step)
    return [start + i * step for i in range(count)]


_SY = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SY, _SY)
_SWAP = np.eye(4)[[0, 2, 1, 3]].astype(complex)


def werner_density(p):
    return (1.0 - p) / 4.0 * np.eye(4) + p / 2.0 * _SWAP


def gwl_density(pure, p):
    ket = pure.wmatrix.reshape(4)
    ket = ket / np.linalg.norm(ket)
    return (1.0 - p) / 4.0 * np.eye(4) + p * np.outer(ket, ket.conj())


def wootters(rho):
    """max{0, l1 - l2 - l3 - l4} from the numpy eigenvalues of rho rho~."""
    rr = rho @ _YY @ rho.conj() @ _YY
    lam = np.sort(np.sqrt(np.clip(np.linalg.eigvals(rr).real, 0.0, None)))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
