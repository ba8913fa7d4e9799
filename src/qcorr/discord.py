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
here (total, reduced and conditional entropies, x0/x1, discord) is
therefore a plain numpy function of (C, p) alone, taking scalars or
broadcastable arrays: a scalar call returns a Python float, and an
array call returns elementwise the same values. Measuring side A or
side B gives the same numbers because the two reduced states of a pure
state share one spectrum, (1 +- sqrt(1 - C^2))/2, so the reduced
entropies and the Bloch-vector length d agree. ``qd_gwl_analytic``
reads d itself from the measured side's reduced Bloch vector, which
keeps x0, x1 and the amplitude precise where C rounds to just below 1.

``qd_numeric`` is the independent check: a deterministic direction grid
followed by compass refinement down to 1e-9 radians, no closed forms
involved anywhere on that path. It takes one 4x4 matrix or a stack of
K of them; a single matrix is a stack of one. Both phases share one
kernel, which works on the entries of 2x2 blocks rather than on stacks
of 2x2 matrices. With B_ik the B-side blocks of rho, rho_B their
partial trace and pi_ki the entries of Pi_0, the unnormalized branch
states are, entry by entry,

    m0[r, s] = pi00 B00[r, s] + pi10 B01[r, s] + pi01 B10[r, s] + pi11 B11[r, s],
    m1[r, s] = rho_B[r, s] - m0[r, s],

and each branch's p_m S(conditional) follows from its trace and
determinant. The grid phase runs state by state: the block entries are
scalars and the projector terms are arrays over a direction grid that
is computed once per grid size and cached. The refine phase runs the
whole stack in lockstep: the block entries are columns over the states
still refining and the terms hold their four compass moves, so one call
evaluates a whole poll, while each state keeps its own best move,
acceptance test and step halving.

Every value is therefore the one a search on that state alone gives,
bit for bit: each element of the kernel's output goes through the same
IEEE operations in the same order, whatever the shape of the batch it
is computed in, and the cached real terms pi00, pi11 are stored as the
complex128 values numpy's float -> complex promotion gives them. The
tests hold a one-state serial search as the reference and compare with
``==``.
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
    binary_entropy,
    check_range,
    eigenvalue_entropy,
    float_or_array,
    kronecker,
    partial_trace,
    resolve_tolerance,
    xlog2x,
)
from .states import EXCHANGE, GWL_RANGE, WERNER_RANGE, reduced_from_wmatrix

# Refinement stops once both angular steps drop below this (radians).
REFINE_TARGET = 1e-9

# Measurement branches with probability at or below this weight are
# treated as empty and contribute zero to entropy averages.
BRANCH_EPS = 1e-14


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


def entropy_werner(p, tol=None):
    """Total von Neumann entropy of the Werner state, in bits."""
    p = check_range(p, *WERNER_RANGE, "Werner mixing parameter", tol)
    return float_or_array(2.0 - xlog2x(1.0 - 3.0 * p) / 4.0 - 3.0 * xlog2x(1.0 + p) / 4.0)


def entropy_gwl(p, tol=None):
    """Total von Neumann entropy of a GWL state, in bits.

    Depends on p only; the eigenvalues are (1 + 3p)/4 and (1 - p)/4
    (threefold) regardless of the pure component.
    """
    p = check_range(p, *GWL_RANGE, "GWL mixing parameter", tol)
    return float_or_array(2.0 - 3.0 * xlog2x(1.0 - p) / 4.0 - xlog2x(1.0 + 3.0 * p) / 4.0)


def measurement_projector(direction, m):
    """Rank-1 projector 1/2 [ I + (-1)^m n . sigma ] as a 2x2 matrix."""
    if m not in (0, 1):
        raise DomainError("branch index m must be 0 or 1, got %r" % (m,))
    n = direction.bloch_vector
    sign = 1.0 if m == 0 else -1.0
    return 0.5 * (IDENTITY_2 + sign * (n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z))


def lifted_projector(direction, m, partition="A"):
    """The projector acting on the full pair: Pi (x) I for side A."""
    pi = measurement_projector(direction, m)
    if partition == "A":
        return kronecker(pi, IDENTITY_2)
    if partition == "B":
        return kronecker(IDENTITY_2, pi)
    raise DomainError("partition must be 'A' or 'B', got %r" % (partition,))


def luders_update(rho, direction, m, partition="A", tol=None):
    """Apply one measurement branch and return the post-measurement data.

    The conditional state is the reduced state of the unmeasured side
    after the Lueders update. A branch whose probability is within
    tolerance of zero is flagged empty (conditional state None, mixing
    weight nan) so callers exclude it from entropy averages.
    """
    t = resolve_tolerance(tol)
    rho = np.asarray(rho, dtype=complex)
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


def _gwl_closed_forms(c_pure, p, tol, d=None):
    # (total, reduced, conditional entropy, x0, x1, d) on validated,
    # clamped and broadcast (C, p), with d = sqrt(1 - C^2) unless the
    # caller has d itself
    c_pure = check_range(c_pure, 0.0, 1.0, "pure-state concurrence", tol)
    p = check_range(p, *GWL_RANGE, "GWL mixing parameter", tol)
    if d is None:
        d = np.sqrt(1.0 - c_pure * c_pure)
    pd = p * d
    # the x0 branch has probability (1 - p d)/2, which vanishes only at
    # p = 1, d = 1; there the branch is empty and x0 is immaterial
    # (its entropy is weighted by zero)
    den0 = 1.0 - pd
    empty = den0 <= BRANCH_EPS
    x0 = np.where(empty, 1.0, p * (1.0 - d) / np.where(empty, 1.0, den0))
    x1 = p * (1.0 + d) / (1.0 + pd)
    cond = den0 / 2.0 * binary_entropy((1.0 + x0) / 2.0, tol) + (
        1.0 + pd
    ) / 2.0 * binary_entropy((1.0 + x1) / 2.0, tol)
    s_red = binary_entropy((1.0 + pd) / 2.0, tol)
    return entropy_gwl(p, tol), s_red, cond, x0, x1, d


def reduced_entropy_gwl(c_pure, p, tol=None):
    """Entropy of either reduced side of a GWL state, in bits.

    The reduced eigenvalues are (1 +- p sqrt(1 - c^2))/2.
    """
    return float_or_array(_gwl_closed_forms(c_pure, p, tol)[1])


def conditional_entropy_gwl_analytic(c_pure, p, tol=None):
    """Minimized average conditional entropy for a GWL state, in bits.

    Parameters
    ----------
    c_pure : float or array_like
        Concurrence of the pure component, in [0, 1].
    p : float or array_like
        Mixing parameter in [-1/3, 1]; broadcast against ``c_pure``.

    Returns
    -------
    (value, x0, x1)
        The minimum of sum_m p_m S(conditional_m) over measurement
        directions on either side, and the two conditional mixing
        weights at the optimum.
    """
    _, _, cond, x0, x1, _ = _gwl_closed_forms(c_pure, p, tol)
    return float_or_array(cond), float_or_array(x0), float_or_array(x1)


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
    total, s_red, cond, _, _, _ = _gwl_closed_forms(c_pure, p, tol)
    return float_or_array(s_red - total + cond)


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
    parts = _gwl_closed_forms(concurrence_pure(psi), p, tol, d)
    total, s_red, cond, x0, x1, d = (float_or_array(v) for v in parts)
    return DiscordBreakdown(
        total_entropy=total,
        reduced_entropy_A=s_red,
        reduced_entropy_B=s_red,
        conditional_entropy=cond,
        mutual_information=s_red + s_red - total,
        discord=s_red - total + cond,
        x0=x0,
        x1=x1,
        amplitude=d / 2.0,
    )


def _projector_terms(theta, phi):
    """Entries pi00, pi11, pi01, pi10 of Pi_0 for arrays of directions."""
    s = np.sin(2.0 * theta)
    nx = s * np.cos(phi)
    ny = s * np.sin(phi)
    nz = np.cos(2.0 * theta)
    return 0.5 * (1.0 + nz), 0.5 * (1.0 - nz), 0.5 * (nx - 1j * ny), 0.5 * (nx + 1j * ny)


# the (row, column) order in which the oracle kernel lists 2x2 entries
_ENTRIES = ((0, 0), (0, 1), (1, 0), (1, 1))


@functools.lru_cache(maxsize=2)
def _direction_grid(grid_n):
    # the flattened (theta, phi) grid, its projector terms and its two
    # spacings; every state measured on the same grid_n shares them. The
    # real terms pi00, pi11 are stored as complex128, which is the value
    # numpy's own float -> complex promotion would give them in the
    # kernel's products, so the cast moves no bit and is paid once
    thetas = np.linspace(0.0, math.pi / 2.0, grid_n)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * grid_n, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    terms = tuple(x.astype(complex) for x in _projector_terms(tt, pp))
    for a in (tt, pp) + terms:
        a.flags.writeable = False
    return tt, pp, terms, float(thetas[1] - thetas[0]), float(phis[1] - phis[0])


def _avg_conditional_entropy(blocks, rho_b, terms):
    """Average conditional entropy after measuring side A, entry by entry.

    ``blocks[i, k, r, s]`` is entry (r, s) of the B-side block (i, k) of
    rho and ``rho_b[r, s]`` the same entry of their partial trace; each
    entry is a scalar or an array that broadcasts against the projector
    entries ``terms`` of ``_projector_terms``. The conditional state of
    branch m is sum_ik Pi_m[k, i] blocks[i, k] / p_m; branch 1 follows
    from branch 0 by Pi_1 = I - Pi_0.
    """
    pi00, pi11, pi01, pi10 = terms
    m0 = [
        pi00 * blocks[0, 0, r, s]
        + pi10 * blocks[0, 1, r, s]
        + pi01 * blocks[1, 0, r, s]
        + pi11 * blocks[1, 1, r, s]
        for r, s in _ENTRIES
    ]
    m1 = [rho_b[rs] - m for rs, m in zip(_ENTRIES, m0)]
    return _branch_entropy(*m0) + _branch_entropy(*m1)


def _branch_entropy(m00, m01, m10, m11):
    # p_m * S(conditional) from the entries of unnormalized 2x2 branch
    # states, each entry an array over directions
    tr = np.real(m00 + m11)
    det = np.real(m00 * m11 - m01 * m10)
    disc = np.sqrt(np.clip(tr * tr - 4.0 * det, 0.0, None))
    safe_tr = np.maximum(tr, BRANCH_EPS)
    mu = np.clip(0.5 * (tr + disc) / safe_tr, 0.0, 1.0)
    ent = np.zeros_like(mu)
    inner = (mu > 0.0) & (mu < 1.0)
    mu_in = mu[inner]
    ent[inner] = -(mu_in * np.log2(mu_in) + (1.0 - mu_in) * np.log2(1.0 - mu_in))
    return np.where(tr > BRANCH_EPS, tr * ent, 0.0)


def _check_densities(stack, t, single):
    # every matrix is checked before any oracle work starts
    herm = np.max(np.abs(stack - stack.conj().swapaxes(1, 2)), axis=(1, 2))
    traces = np.real(np.trace(stack, axis1=1, axis2=2))
    for k in range(len(stack)):
        what = "density matrix" if single else "density matrix %d" % k
        if not herm[k] <= t:
            raise DomainError("%s is not Hermitian within tolerance" % what)
        if not abs(traces[k] - 1.0) <= t:
            raise DomainError(
                "%s trace %g differs from 1 beyond tolerance" % (what, traces[k])
            )


def qd_numeric(rho, partition="A", grid_n=64, refine_iters=500, tol=None):
    """Brute-force quantum discord by measurement minimization.

    A deterministic (theta, phi) grid of grid_n x 2 grid_n points over
    [0, pi/2] x [0, 2 pi) seeds a compass search whose steps halve until
    both fall below 1e-9 radians. Rank-1 projective measurements only;
    no closed-form shortcuts anywhere on this path.

    ``rho`` may be one 4x4 matrix or a stack of K of them. A stack is
    searched in lockstep: the grid phase runs state by state over one
    shared direction grid, then each compass poll evaluates the four
    moves of every still-active state in one vectorized call. Each
    state's own best move, acceptance test and step halving are those of
    a search run on it alone. Both phases evaluate the conditional
    entropies with one entry-wise kernel (see the module docstring) that
    applies the same elementwise operations in the same order whatever
    the batch shape: scalar block entries against the 2 grid_n^2 grid
    directions, or a column of them against four moves per state. So a
    state's value does not depend on the rest of the stack, to the bit.

    Parameters
    ----------
    rho : array_like
        4x4 density matrix, or a (K, 4, 4) stack of them (each
        Hermitian, unit trace within tolerance). All of them are
        validated before the search starts.
    partition : {"A", "B"}
        The measured side.
    grid_n : int
        Polar grid count, at least 8.
    refine_iters : int
        Cap on refinement polls. Exceeding it raises NumericError for
        the lowest-index state still refining, with its index attached
        as ``index`` and the best value found as ``best_value``.

    Returns
    -------
    float for a single matrix, else an array of K floats.
    """
    t = resolve_tolerance(tol)
    grid_n = int(grid_n)
    if grid_n < 8:
        raise DomainError("grid_n must be at least 8, got %d" % grid_n)
    rho = np.asarray(rho, dtype=complex)
    single = rho.ndim == 2
    stack = rho[None] if single else rho
    if stack.ndim != 3 or stack.shape[1:] != (4, 4):
        raise DomainError(
            "expected a 4x4 density matrix or a stack of them, got shape %r" % (rho.shape,)
        )
    if partition not in ("A", "B"):
        raise DomainError("partition must be 'A' or 'B', got %r" % (partition,))
    _check_densities(stack, t, single)
    if partition == "B":
        stack = EXCHANGE @ stack @ EXCHANGE
    n = len(stack)
    # split[k, i, j, l, m] = <ij| rho_k |lm>; blocks[i, l, j, m, k] is entry
    # (j, m) of the B-side block (i, l) of state k, state axis last so that
    # one index picks a state's scalar entries or a column of them
    split = stack.reshape(n, 2, 2, 2, 2)
    blocks = split.transpose(1, 3, 2, 4, 0)
    rho_b = blocks[0, 0] + blocks[1, 1]

    eig_total = np.clip(np.linalg.eigvalsh(stack), 0.0, 1.0)
    eig_meas = np.clip(np.linalg.eigvalsh(np.einsum("kijlj->kil", split)), 0.0, 1.0)
    offset = [
        eigenvalue_entropy(eig_meas[k]) - eigenvalue_entropy(eig_total[k])
        for k in range(n)
    ]

    tt, pp, terms, h_t0, h_p0 = _direction_grid(grid_n)
    best = np.empty(n)
    bt = np.empty(n)
    bp = np.empty(n)
    for k in range(n):
        vals = _avg_conditional_entropy(blocks[..., k], rho_b[..., k], terms)
        j = int(np.argmin(vals))
        best[k], bt[k], bp[k] = vals[j], tt[j], pp[j]

    h_t = np.full(n, h_t0)
    h_p = np.full(n, h_p0)
    polls = 0
    while True:
        act = np.flatnonzero((h_t >= REFINE_TARGET) | (h_p >= REFINE_TARGET))
        if act.size == 0:
            break
        if polls >= refine_iters:
            k = int(act[0])
            result = offset[k] + float(best[k])
            err = NumericError(
                "measurement minimization%s did not reach %g rad in %d polls; "
                "best value %r"
                % ("" if single else " of state %d" % k, REFINE_TARGET, refine_iters, result)
            )
            err.index = k
            err.best_value = result
            raise err
        t0, p0, ht, hp = bt[act], bp[act], h_t[act], h_p[act]
        move_t = np.stack((t0 + ht, t0 - ht, t0, t0), axis=1)
        move_p = np.stack((p0, p0, p0 + hp, p0 - hp), axis=1)
        mvals = _avg_conditional_entropy(
            blocks[..., act, None], rho_b[..., act, None], _projector_terms(move_t, move_p)
        )
        rows = np.arange(act.size)
        j = np.argmin(mvals, axis=1)
        vj = mvals[rows, j]
        won = vj < best[act]
        best[act[won]] = vj[won]
        bt[act[won]] = move_t[rows, j][won]
        bp[act[won]] = move_p[rows, j][won]
        h_t[act[~won]] *= 0.5
        h_p[act[~won]] *= 0.5
        polls += 1

    values = [offset[k] + float(best[k]) for k in range(n)]
    return values[0] if single else np.array(values)
