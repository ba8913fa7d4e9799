"""Quantum discord: closed forms for Werner/GWL states plus a numeric oracle.

Measurements are rank-1 projective on one side, parameterized as
Pi_m = 1/2 [ I + (-1)^m n . sigma ] with the Bloch direction

    n = (sin 2theta cos phi, sin 2theta sin phi, cos 2theta),

note the doubled polar angle: theta in [0, pi/2] and phi in [0, 2 pi)
already cover the whole sphere. The discord of rho with measurement on
side M is

    delta = S[rho_M] - S[rho] + min over directions of sum_m p_m S(rho_other|m).

For GWL states the minimum is analytic: each conditional state is again
a pure-state mixture with mixing weight x_m, the optimal direction
anti-aligns with the reduced Bloch vector, and the minimized average
conditional entropy is

    sum_m (1 -+ p d)/2 * H2((1 + x_m)/2),   d = sqrt(1 - C^2),

with C the concurrence of the pure component. Every GWL closed form
(entropies, x0/x1, discord, and the GWL concurrence and EoF) wraps one
private kernel of (C, p), scalars or broadcastable arrays: it checks C
and p once per call and takes the entropies of each block of up to 2048
points from one stacked xlog2x pass. A scalar call returns a Python
float. Both reduced states of a pure state share one spectrum,
(1 +- sqrt(1 - C^2))/2, so side A and side B give the same reduced
entropies, Bloch-vector length d and values. ``qd_gwl_analytic`` reads
d from the measured side's reduced Bloch vector, which keeps x0, x1 and
the amplitude precise where C rounds to just below 1.

``qd_numeric`` is the independent check: a brute-force search over
measurement directions for any two-qubit state, with no closed form on
that path. It works on the real correlation matrix

    R_ij = tr(rho sigma_i (x) sigma_j),   i, j = 0..3, sigma_0 = I,

with a = R[1:, 0], b = R[0, 1:] and T = R[1:, 1:] the Bloch vectors of
the two sides and their correlations (Luo, PRA 77, 042303 (2008); Ali,
Rau and Alber, PRA 81, 042105 (2010)). Measuring side A along n leaves
branch +- with weight p = (1 +- n.a)/2 and side B in the state of Bloch
vector (b +- T^T n)/(1 +- n.a), whose entropy is H2((1 + r)/2) for its
length r. Measuring side B is the same search on R transposed. The
kernel never forms a 2x2 matrix: one state's entries of R against an
array of directions, or columns of them against an array per state,
give each direction's average conditional entropy by elementwise
arithmetic alone, the same for every batch shape. Negating n swaps the
two branches exactly, so n and -n give the same value bit for bit, and
the grid covers only the half sphere phi in [0, pi).

The search takes each state's first minimum on a direction grid of
max(8, grid_n // 2) theta rows, none spaced in phi wider than the
equator (648 directions at grid_n 64, 159,068 at the cap MAX_GRID_N),
cached per size, and seeds a Newton refine on the sphere there. The
refine certifies the minimum, so the grid only has to choose the basin;
it keeps 8 rows below grid_n 16, since at 4 rows, 9 lines, it chose the
wrong basin of some real X states. It takes one 4x4 matrix or a stack
of K; a single matrix is a stack of one. A kernel call takes the whole
grid and as many states as fit in 2^11 state-direction pairs (at least
one).

The refine moves Bloch vectors, not angles, so the poles of (theta, phi),
where a search in those angles stalls or stops at a saddle, are ordinary
points for it. Each round takes the values at 8 points h = 1e-4 rad from
a state's direction n, along and between the two axes of a tangent frame
at n, on great circles (the exponential map). With the value at n, this
9-point stencil gives the gradient and Hessian in the tangent plane.
Along each Hessian axis, the step is Newton's where the curvature is
positive and that step is at most the cap pi/(grid_n - 1); elsewhere it
is the cap downhill, which leaves a saddle even where the gradient
vanishes. The state moves to the largest of the fractions 1, 1/2, ...,
2^-15 of the step that lowers its value. It stops once none does, the
move is under REFINE_TARGET, or a Newton step on both axes has a model
gain under 1e-18 bits, which only round-off can show. A round is two
kernel calls, the stencils and then the line searches of every state
still refining; the kernel is elementwise, so a state's value does not
depend on the rest of the stack, to the bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .entanglement import concurrence_pure
from .linalg import (
    DomainError,
    IDENTITY_2,
    NumericError,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _check_densities,
    _integer,
    _shaped,
    _side,
    binary_entropy,
    check_range,
    float_or_array,
    partial_trace,
    resolve_tolerance,
    xlog2x,
)
from .states import GWL_RANGE, WERNER_RANGE, reduced_from_wmatrix

# A state's refine stops once its Newton move falls below this (radians).
REFINE_TARGET = 1e-9

# Newton steps a state may take before qd_numeric reports it unconverged.
MAX_REFINE_STEPS = 500

# Largest oracle grid_n: its half-sphere grid of 500 rows holds 159,068 directions.
MAX_GRID_N = 1000

# State x direction elements per grid-phase call, which stacks several states
# (at least one) over the whole grid: 3 states of the default grid. Larger blocks,
# whose temporaries outgrow the CPU's cache, measured slower, and one state slower still.
_GRID_BLOCK = 1 << 11

# The refine's stencil as tangent coordinates (u1, u2), in radians: the four
# axis points at spacing _STENCIL_H, then the four diagonal ones
_STENCIL_H = 1e-4
_STENCIL = _STENCIL_H * np.array([[1, -1, 0, 0, 1, 1, -1, -1], [0, 0, 1, -1, 1, -1, 1, -1]])

# The line search's fractions of a step, largest first: 1, 1/2, ..., 2^-15
_FRACTIONS = 0.5 ** np.arange(16)

# Measurement branches with probability at or below this weight are
# treated as empty and contribute zero to entropy averages.
BRANCH_EPS = 1e-14

# Points per block of the GWL closed forms: a long grid keeps one block's temporaries.
_GWL_BLOCK = 2048


@dataclass(frozen=True)
class MeasurementDirection:
    """Projective measurement axis, angles as in the module docstring."""

    theta: float
    phi: float

    @property
    def bloch_vector(self):
        s = math.sin(2.0 * self.theta)
        return np.array(
            [s * math.cos(self.phi), s * math.sin(self.phi), math.cos(2.0 * self.theta)]
        )


@dataclass(frozen=True)
class PostMeasurement:
    """One measurement branch: weight, conditional state, mixing weight.

    ``conditional_state_B`` is the 2x2 state of the unmeasured side
    (None for an empty branch); ``mixing_x`` is the difference of its
    eigenvalues, the x of the GWL conditional-state form.
    """

    probability: float
    conditional_state_B: np.ndarray | None
    mixing_x: float


@dataclass(frozen=True)
class DiscordBreakdown:
    """All the pieces entering one analytic discord evaluation.

    Satisfies discord = reduced entropy of the measured side
    - total_entropy + conditional_entropy.
    """

    total_entropy: float
    reduced_entropy_A: float
    reduced_entropy_B: float
    conditional_entropy: float
    mutual_information: float
    discord: float
    x0: float
    x1: float
    amplitude: float


def lifted_projector(direction, m, partition="A"):
    """Pi (x) I for side A, I (x) Pi for B, with Pi = 1/2 [ I + (-1)^m n . sigma ]."""
    if m not in (0, 1):
        raise DomainError("branch index m must be 0 or 1, got %r" % (m,))
    n = direction.bloch_vector
    sign = 1.0 if m == 0 else -1.0
    pi = 0.5 * (IDENTITY_2 + sign * (n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z))
    if _side(partition) == "A":
        return np.kron(pi, IDENTITY_2)
    return np.kron(IDENTITY_2, pi)


def luders_update(rho, direction, m, partition="A", tol=None):
    """Apply one measurement branch and return the post-measurement data.

    The conditional state is the reduced state of the unmeasured side
    after the Lueders update. A branch whose probability is within
    tolerance of zero is flagged empty (conditional state None, mixing
    weight nan) so callers exclude it from entropy averages. ``rho``
    must be a 4x4 density matrix: Hermitian, unit trace and eigenvalues
    in [0, 1] within tolerance, so no branch probability leaves [0, 1]
    by more than the tolerance.
    """
    t = resolve_tolerance(tol)
    rho = _shaped(rho, "matrix", (4, 4))
    _check_densities(rho, t)
    proj = lifted_projector(direction, m, partition)
    prob = float(np.real(np.trace(proj @ rho)))
    if prob <= t:
        return PostMeasurement(
            probability=max(prob, 0.0), conditional_state_B=None, mixing_x=float("nan")
        )
    conditional = partial_trace(proj @ rho @ proj, partition) / prob
    eigs = np.linalg.eigvalsh(conditional)
    return PostMeasurement(
        probability=prob,
        conditional_state_B=conditional,
        mixing_x=float(eigs[1] - eigs[0]),
    )


def mixing_after_measurement(p, prob_pi, tol=None):
    """Mixing weight x_m of the conditional state after measuring a GWL state.

    Parameters
    ----------
    p : float
        GWL mixing parameter.
    prob_pi : float
        Expectation <Pi_m> of the projector in the pure component.

    Returns
    -------
    float
        x_m = p <Pi_m> / p_m with branch probability
        p_m = (1 - p)/2 + p <Pi_m>.
    """
    p = check_range(p, *GWL_RANGE, "GWL mixing parameter", tol)
    prob_pi = check_range(prob_pi, 0.0, 1.0, "projector expectation", tol)
    branch = (1.0 - p) / 2.0 + p * prob_pi
    if np.any(branch <= resolve_tolerance(tol)):
        raise NumericError(
            "degenerate measurement branch: probability %g within tolerance of zero"
            % np.min(branch)
        )
    return float_or_array(p * prob_pi / branch)


def _gwl_kernel(c_pure, p, tol, d=None, rows=8):
    # the first `rows` of (concurrence, EoF, discord, total, reduced and conditional
    # entropy, x0, x1) of GWL states in the broadcast shape of C and p, each checked
    # once; d is sqrt(1 - C^2) unless given. p runs flat in blocks of _GWL_BLOCK
    # points, and so do C and d unless they are one number
    c = check_range(c_pure, 0.0, 1.0, "pure-state concurrence", tol)
    p = check_range(p, *GWL_RANGE, "GWL mixing parameter", tol)
    dd = np.sqrt(1.0 - c * c) if d is None else np.float64(d)
    shape = np.broadcast_shapes(c.shape, dd.shape, p.shape)
    ops = [np.broadcast_to(a, shape).ravel() if a.ndim or not p.ndim else a for a in (c, dd, p)]
    out = np.empty((rows,) + shape)
    signs = np.array([[-1.0], [1.0]])  # the two measurement branches, as rows
    for k in (slice(i, i + _GWL_BLOCK) for i in range(0, out[0].size, _GWL_BLOCK)):
        c, dd, q = (a[k] if a.ndim else a for a in ops)
        conc = np.maximum(0.0, q * c - (1.0 - q) / 2.0)
        pd = q * dd
        # 1 -+ p d is twice a branch's weight and x its mixing weight. The x0 branch
        # vanishes only at p = 1, d = 1; there x0 is immaterial (weighted by zero)
        den = 1.0 + signs * pd
        empty = den <= BRANCH_EPS
        x = np.where(empty, 1.0, q * (1.0 + signs * dd) / np.where(empty, 1.0, den))
        # one xlog2x pass: the H2 arguments of EoF, x0, x1, reduced state; 1 - them; 1 - p, 1 + 3p
        u = np.empty((10, q.size))
        u[0], u[1:3], u[3], u[8], u[9] = np.sqrt(1.0 - conc * conc), x, pd, 1.0 - q, 1.0 + 3.0 * q
        u[:4] = (1.0 + u[:4]) / 2.0
        if not (u[:4].min() >= 0.0 and u[:4].max() <= 1.0):
            u[:4] = check_range(u[:4], 0.0, 1.0, "binary_entropy argument", tol)
        u[4:8] = 1.0 - u[:4]
        terms = xlog2x(u)
        h = -(terms[:4] + terms[4:8])
        total = 2.0 - 3.0 * terms[8] / 4.0 - terms[9] / 4.0
        cond = den[0] / 2.0 * h[1] + den[1] / 2.0 * h[2]
        forms = (conc, h[0], h[3] - total + cond, total, h[3], cond, x[0], x[1])
        out.reshape(rows, -1)[:, k] = forms[:rows]
    return out + 0.0  # -0.0 reads 0.0, as in float_or_array


def qd_werner(p, tol=None):
    """Closed-form quantum discord of the Werner state, in bits."""
    p = check_range(p, *WERNER_RANGE, "Werner mixing parameter", tol)
    return float_or_array(
        binary_entropy((1.0 + p) / 2.0, tol)
        - 1.0
        + xlog2x(1.0 - 3.0 * p) / 4.0
        + 3.0 * xlog2x(1.0 + p) / 4.0
    )


def qd_gwl(c_pure, p, tol=None):
    """Closed-form quantum discord of a GWL state from (C, p), in bits.

    ``c_pure`` is the concurrence of the pure component and ``p`` the
    mixing parameter; either may be an array and they broadcast. The
    discord is

        delta = S[rho_measured] - S[rho] + min conditional entropy,

    the same for measurements on either side.
    """
    return float_or_array(_gwl_kernel(c_pure, p, tol, rows=3)[2])


def qd_gwl_analytic(psi, p, partition="A", tol=None):
    """Closed-form quantum discord of a GWL state with full breakdown.

    A thin wrapper over the (C, p) closed forms with C the concurrence
    of ``psi``: the measurement acts on ``partition``, and both sides
    give the same values. At p = 1 the discord equals the entanglement
    of formation.

    x0, x1 and the amplitude are first order in d = sqrt(1 - C^2), which
    loses about half the digits where C rounds a few ulps away from 1.
    So d is read directly as the length of the measured side's reduced
    Bloch vector, sqrt((r00 - r11)^2 + 4 |r01|^2) / tr r, which keeps full
    precision there: a locally rotated Bell state gives x0 = p and
    amplitude 0 to within an ulp. The values can differ from
    ``qd_gwl(C, p)`` in the last bits.
    """
    reduced = reduced_from_wmatrix(psi, partition)
    r00, r11 = reduced[0, 0].real, reduced[1, 1].real
    d = min(1.0, math.hypot(r00 - r11, 2.0 * abs(reduced[0, 1])) / (r00 + r11))
    parts = _gwl_kernel(concurrence_pure(psi), p, tol, d)[3:]
    total, s_red, cond, x0, x1 = map(float_or_array, parts)
    return DiscordBreakdown(
        total_entropy=total,
        reduced_entropy_A=s_red,
        reduced_entropy_B=s_red,
        conditional_entropy=cond,
        mutual_information=s_red + s_red - total,
        discord=s_red - total + cond,
        x0=x0,
        x1=x1,
        amplitude=float(d) / 2.0,
    )


def _directions(theta, phi):
    """Bloch vectors n, stacked as (nx, ny, nz), for arrays of (theta, phi)."""
    s = np.sin(2.0 * theta)
    return np.stack((s * np.cos(phi), s * np.sin(phi), np.cos(2.0 * theta)))


@functools.lru_cache(maxsize=2)
def _direction_grid(rows):
    # the Bloch vectors of the half-sphere grid, shared by every state: row i, at 2 theta =
    # pi i/(rows - 1) from +z, holds m = ceil(rows sin 2theta) >= 1 azimuths phi = pi j/m,
    # none wider spaced than the equator (1e-9 absorbs its round-off). phi < pi: -n has n's value
    thetas = np.linspace(0.0, math.pi / 2.0, rows)
    counts = np.maximum(1, np.ceil(rows * np.sin(2.0 * thetas) - 1e-9)).astype(int)
    phis = np.concatenate([math.pi * np.arange(m) / m for m in counts])
    n = _directions(np.repeat(thetas, counts), phis)
    n.flags.writeable = False
    return n


def _exp_map(n, e1, e2, u):
    # exp_n(u1 e1 + u2 e2) about each n of (3, A), along great circles, for tangent
    # coordinates u of shape (2, M) or (2, A, M); np.sinc(r / pi) is sin(r)/r, 1 at 0
    r = np.hypot(u[0], u[1])
    v = e1[..., None] * u[0] + e2[..., None] * u[1]
    return n[..., None] * np.cos(r) + v * np.sinc(r / np.pi)


def _avg_conditional_entropy(corr, n):
    """Average conditional entropy of side B after measuring side A along n.

    ``corr[i, j]`` is R_ij = tr(rho sigma_i (x) sigma_j) with sigma_0 = I
    and ``n[0], n[1], n[2]`` are the Bloch components of the directions;
    their trailing axes broadcast: (A, 1) columns of A states against the
    (N,) grid, or against the (A, M) stencil or line-search points of those
    states. Branch +- has weight (R_00 +- n.a)/2, with R_00 = tr rho = 1,
    and the unnormalized B-side Bloch vector b +- T^T n; negating n swaps
    them exactly, bit for bit.
    """
    # u = (n.a, T^T n) = sum_k n_k R[k, :], summed over k = 1, 2, 3 in order; rows (R_00, b) +- u
    # give (2 x weight, Bloch vector) of the two branches, one at a time, the second in u's buffer
    u = corr[1] * n[0]
    u += corr[2] * n[1]
    u += corr[3] * n[2]
    ent = _branch_entropy(*(corr[0] + u))
    ent += _branch_entropy(*np.subtract(corr[0], u, out=u))
    return ent


def _branch_entropy(s, x, y, z):
    # weight times entropy of the branch state (s I + (x, y, z).sigma)/4: weight s/2,
    # Bloch length r = |(x, y, z)|/s, eigenvalues (1 +- r)/2; zero at weight <= BRANCH_EPS.
    # The plain formulas' operations, in their order and mostly in place: the same bits
    r = x * x
    r += y * y
    r += z * z
    np.sqrt(r, out=r)
    r /= np.maximum(s, BRANCH_EPS)
    np.minimum(r, 1.0, out=r)
    r *= 0.5  # r/2, once for both eigenvalues
    hi = 0.5 + r
    lo = np.subtract(0.5, r, out=r)
    hi *= np.log2(hi)
    lo *= np.log2(lo, out=np.zeros_like(lo), where=lo > 0.0)
    hi += lo
    hi *= -0.5 * s  # -weight
    hi[0.5 * s <= BRANCH_EPS] = 0.0  # an empty branch
    return hi


def _grid_phase(corr, grid_n):
    # each state's first minimum on the grid of max(8, grid_n // 2) rows, the refine's
    # seed: (values, Bloch vectors), from one kernel call per block of states
    n = corr.shape[2]
    grid = _direction_grid(max(8, grid_n // 2))
    b = max(1, _GRID_BLOCK // grid.shape[1])
    best = np.empty(n)
    first = np.empty(n, dtype=int)
    for i in range(0, n, b):
        vals = _avg_conditional_entropy(corr[:, :, i : i + b, None], grid)
        first[i : i + b] = vals.argmin(axis=1)
        best[i : i + b] = vals.min(axis=1)
    return best, grid[:, first]


def _correlation_matrices(stack):
    # R[i, j, k] = tr(rho_k sigma_i (x) sigma_j), state axis last: the
    # Pauli coefficients of each B-side block, then of those over side A
    def pauli(m):
        # tr(m sigma_i), i = 0..3, for the 2x2 matrices on the first two axes
        m00, m01, m10, m11 = m[0, 0], m[0, 1], m[1, 0], m[1, 1]
        return np.stack((m00 + m11, m01 + m10, 1j * (m01 - m10), m00 - m11))

    # split[a, b, c, d, k] = <ab| rho_k |cd>
    split = stack.reshape(-1, 2, 2, 2, 2).transpose(1, 2, 3, 4, 0)
    per_block = pauli(split.transpose(1, 3, 0, 2, 4))  # [j, a, c, k]
    return np.real(pauli(per_block.transpose(1, 2, 0, 3)))


def qd_numeric(rho, partition="A", grid_n=64, tol=None):
    """Brute-force quantum discord by measurement minimization.

    The first minimum on a deterministic grid over [0, pi/2] x [0, pi) in
    (theta, phi), m = max(8, grid_n // 2) rows of theta with
    ceil(m sin 2theta) values of phi each, seeds Newton steps on the
    sphere, which stop once a move falls below 1e-9 radians or only
    round-off could lower the value. Rank-1 projective measurements only;
    no closed-form shortcuts anywhere on this path. The half range of phi
    covers every direction up to sign, and a direction and its negative
    give the same value (see the module docstring). A state still refining
    after MAX_REFINE_STEPS (500) Newton steps raises NumericError for the
    lowest-index such state, with its index as ``index`` and the best
    value found as ``best_value``.

    ``rho`` may be one 4x4 matrix or a stack of K of them. The grid
    phase runs several states per kernel call over a direction grid that
    every state shares, and the refine runs the whole stack together; the
    module docstring gives the full account. A state's value does not depend on the rest of the
    stack, to the bit. Measuring side B uses R transposed.

    Parameters
    ----------
    rho : array_like
        4x4 density matrix, or a (K, 4, 4) stack of them (each
        Hermitian, unit trace and eigenvalues in [0, 1] within
        tolerance). All of them are validated before the search starts,
        and in a stack a DomainError names the first failing index.
    partition : {"A", "B"}
        The measured side.
    grid_n : int
        From 8 to ``MAX_GRID_N`` (1000). The grid has max(8, grid_n // 2)
        theta rows, and a refine step is at most pi / (grid_n - 1) radians.

    Returns
    -------
    float for a single matrix, else an array of K floats.
    """
    t = resolve_tolerance(tol)
    grid_n = _integer(grid_n, "grid_n", 8, MAX_GRID_N)
    rho = _shaped(rho, "rho", (4, 4), (0, 4, 4))
    single = rho.ndim == 2
    stack = rho[None] if single else rho
    _side(partition)
    spectra = _check_densities(stack, t, single)
    n = len(stack)
    # corr[i, j, k] is R_ij of state k with the measured side first; the
    # state axis is last, so one index picks a state's entries or a column
    corr = _correlation_matrices(stack)
    if partition == "B":
        corr = corr.swapaxes(0, 1)

    # S(rho_M) - S(rho); rho_M = (R_00 I + a.sigma)/2 is a "branch" of
    # weight R_00 = 1 in the kernel's terms
    s_total = -np.sum(xlog2x(np.clip(spectra, 0.0, 1.0)), axis=1)
    offset = _branch_entropy(*(2.0 * corr[:, 0])) - s_total

    best, bn = _grid_phase(corr, grid_n)

    # Newton steps on the sphere, every state still refining in each kernel call
    spacing = math.pi / (grid_n - 1)  # the step cap; grid_n also sets the grid's rows
    done = np.zeros(n, dtype=bool)
    for _ in range(MAX_REFINE_STEPS):
        act = np.flatnonzero(~done)
        if act.size == 0:
            break
        x, f0 = bn[:, act], best[act]
        # an orthonormal tangent frame (e1, e2) at each n, smooth across both
        # poles (Duff et al., JCGT 6(1), 2017)
        sz = np.where(x[2] >= 0.0, 1.0, -1.0)
        a = -1.0 / (sz + x[2])
        b = x[0] * x[1] * a
        e1 = np.stack((1.0 + sz * x[0] * x[0] * a, sz * b, -sz * x[0]))
        e2 = np.stack((b, sz + x[1] * x[1] * a, -x[1]))
        f = _avg_conditional_entropy(corr[:, :, act, None], _exp_map(x, e1, e2, _STENCIL))
        g = np.stack((f[:, 0] - f[:, 1], f[:, 2] - f[:, 3])) / (2.0 * _STENCIL_H)
        hxx = (f[:, 0] + f[:, 1] - 2.0 * f0) / (_STENCIL_H * _STENCIL_H)
        hyy = (f[:, 2] + f[:, 3] - 2.0 * f0) / (_STENCIL_H * _STENCIL_H)
        hxy = (f[:, 4] - f[:, 5] - f[:, 6] + f[:, 7]) / (4.0 * _STENCIL_H * _STENCIL_H)
        # along each axis of the Hessian, a Newton step where the curvature is
        # positive and the step is at most the cap, else the cap downhill: a
        # saddle is left even where the gradient is zero
        mid, rad = (hxx + hyy) / 2.0, np.hypot((hxx - hyy) / 2.0, hxy)
        psi = 0.5 * np.arctan2(2.0 * hxy, hxx - hyy)
        axes = np.array([[np.cos(psi), -np.sin(psi)], [np.sin(psi), np.cos(psi)]])
        lam = np.stack((mid + rad, mid - rad))
        gv = (axes * g[:, None]).sum(axis=0)
        newton = np.abs(gv) <= spacing * lam
        coef = np.where(newton, -gv / np.where(lam > 0.0, lam, 1.0), np.copysign(spacing, -gv))
        step = (axes * coef).sum(axis=1)
        # the largest fraction of the step that lowers the value, if any. No move, one under
        # REFINE_TARGET, or a two-axis Newton step of model gain under 1e-18 bits ends it
        points = _exp_map(x, e1, e2, step[:, :, None] * _FRACTIONS)
        vals = _avg_conditional_entropy(corr[:, :, act, None], points)
        lower = vals < f0[:, None]
        hit = lower.any(axis=1)
        j = np.argmax(lower, axis=1)
        rows = np.arange(act.size)
        best[act] = np.where(hit, vals[rows, j], f0)
        bn[:, act] = np.where(hit, points[:, rows, j], x)
        gain = np.where(newton.all(axis=0), (lam * coef * coef).sum(axis=0) / 2.0, np.inf)
        done[act] = ~hit | (np.hypot(*step) * _FRACTIONS[j] < REFINE_TARGET) | (gain < 1e-18)

    unconverged = np.flatnonzero(~done)
    if unconverged.size:
        k = int(unconverged[0])
        result = float(offset[k] + best[k])
        err = NumericError(
            "measurement minimization%s did not reach %g rad in %d Newton steps; "
            "best value %r"
            % ("" if single else " of state %d" % k, REFINE_TARGET, MAX_REFINE_STEPS, result)
        )
        err.index = k
        err.best_value = result
        raise err

    values = offset + best
    return float(values[0]) if single else values
