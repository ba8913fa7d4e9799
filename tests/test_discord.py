import functools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorr import (
    DeformationSpec,
    DomainError,
    MeasurementDirection,
    NumericError,
    QuasiBellSpec,
    WMatrix,
    concurrence_mixed,
    concurrence_pure,
    eof_from_concurrence,
    entropy_gwl,
    gwl,
    lifted_projector,
    local_unitary,
    luders_update,
    mixing_after_measurement,
    partial_trace,
    pure_density,
    qd_gwl_analytic,
    qd_numeric,
    qd_werner,
    quasi_bell_wmatrix,
    random_pure_state,
    reduced_entropy_gwl,
    reduced_from_wmatrix,
    swap_qubits,
    von_neumann_entropy,
    werner,
)
from qcorr import discord as discord_module
from qcorr.discord import BRANCH_EPS, MAX_GRID_N, REFINE_TARGET
from qcorr.linalg import PAULI_X, PAULI_Y, PAULI_Z, is_hermitian, resolve_tolerance
from qcorr.states import GWL_RANGE

SQ2 = math.sqrt(2.0)

PSI_PLUS = WMatrix(np.eye(2) / SQ2)
PSI3 = WMatrix(np.array([[3.0, math.sqrt(6.0)], [2.0 * math.sqrt(6.0), -1.0]]) / (2.0 * math.sqrt(10.0)))
PSI2 = WMatrix(np.array([[-3.0, -3.0 * SQ2], [2.0 * SQ2, 1.0]]) / 6.0)
PRODUCT = WMatrix([[1.0, 0.0], [0.0, 0.0]])


def random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def aligned_direction(psi):
    # measurement direction along the Bloch vector of the measured side
    reduced = reduced_from_wmatrix(psi, "A")
    r = np.array(
        [
            np.trace(reduced @ PAULI_X).real,
            np.trace(reduced @ PAULI_Y).real,
            np.trace(reduced @ PAULI_Z).real,
        ]
    )
    norm = np.linalg.norm(r)
    if norm < 1e-14:
        return MeasurementDirection(0.0, 0.0)
    n = r / norm
    theta = 0.5 * math.acos(min(1.0, max(-1.0, n[2])))
    phi = math.atan2(n[1], n[0]) % (2.0 * math.pi)
    return MeasurementDirection(theta, phi)


def test_entropy_closed_forms_match_eigendecomposition():
    with warnings.catch_warnings():
        # the zero eigenvalue at either range edge rounds slightly
        # negative and triggers the clamp warning
        warnings.simplefilter("ignore", UserWarning)
        # Werner(p) is GWL(singlet, -p), whose total entropy is entropy_gwl(-p)
        for p in np.arange(-1.0, 1.0 / 3.0 + 1e-9, 0.02):
            assert abs(entropy_gwl(-p) - von_neumann_entropy(werner(p))) < 1e-12
        assert abs(entropy_gwl(-1.0 / 3.0) - math.log2(3.0)) < 1e-12
        assert entropy_gwl(0.0) == 2.0
        for seed in range(5):
            psi = random_pure_state(seed=seed)
            c = concurrence_pure(psi)
            for p in np.arange(-1.0 / 3.0, 1.0 + 1e-9, 0.05):
                rho = gwl(psi, p)
                assert abs(entropy_gwl(p) - von_neumann_entropy(rho)) < 1e-12
                red = partial_trace(rho, "B")
                assert abs(reduced_entropy_gwl(c, p) - von_neumann_entropy(red)) < 1e-12
    with pytest.raises(DomainError):
        entropy_gwl(-0.5)
    with pytest.raises(DomainError):
        reduced_entropy_gwl(1.5, 0.5)


def test_measurement_projector():
    # the side-A factor Pi of Pi (x) I is its upper-left 2x2 block over 1
    rng = np.random.default_rng(43)
    for _ in range(20):
        direction = MeasurementDirection(rng.uniform(0.0, math.pi / 2.0), rng.uniform(0.0, 2.0 * math.pi))
        assert abs(np.linalg.norm(direction.bloch_vector) - 1.0) < 1e-12
        lifted0 = lifted_projector(direction, 0)
        lifted1 = lifted_projector(direction, 1)
        assert np.max(np.abs(lifted0 @ lifted0 - lifted0)) < 1e-12  # idempotent
        assert np.max(np.abs(lifted0 + lifted1 - np.eye(4))) < 1e-12
        assert abs(np.trace(lifted0).real - 2.0) < 1e-12
    # theta = 0 is the z axis (the polar angle is doubled)
    assert np.allclose(lifted_projector(MeasurementDirection(0.0, 0.0), 0), np.diag([1.0, 1.0, 0.0, 0.0]))
    assert np.allclose(
        lifted_projector(MeasurementDirection(math.pi / 4.0, 0.0), 0),
        np.kron(0.5 * (np.eye(2) + PAULI_X), np.eye(2)),
    )
    for m in (2, -1, 0.5):
        with pytest.raises(DomainError, match="branch index m must be 0 or 1"):
            lifted_projector(MeasurementDirection(0.0, 0.0), m)


def test_lifted_projector():
    direction = MeasurementDirection(0.3, 1.1)
    pi0 = lifted_projector(direction, 0, "A")[::2, ::2]
    assert np.array_equal(lifted_projector(direction, 0, "A"), np.kron(pi0, np.eye(2)))
    assert np.array_equal(lifted_projector(direction, 0, "B"), np.kron(np.eye(2), pi0))
    assert np.allclose(lifted_projector(MeasurementDirection(0.0, 0.0), 0, "B"), np.diag([1.0, 0.0, 1.0, 0.0]))
    with pytest.raises(DomainError):
        lifted_projector(direction, 0, "C")


def test_luders_update_branches():
    rng = np.random.default_rng(47)
    for seed in range(6):
        psi = random_pure_state(seed=seed)
        rho = gwl(psi, 0.6)
        direction = MeasurementDirection(rng.uniform(0.0, math.pi / 2.0), rng.uniform(0.0, 2.0 * math.pi))
        branches = [luders_update(rho, direction, m) for m in (0, 1)]
        assert abs(branches[0].probability + branches[1].probability - 1.0) < 1e-12
        for m, b in enumerate(branches):
            cond = b.conditional_state_B
            assert abs(np.trace(cond).real - 1.0) < 1e-12
            assert np.min(np.linalg.eigvalsh(cond)) > -1e-12
            # the mixing weight matches the projector expectation formula
            proj = lifted_projector(direction, m)
            exp_pure = float(np.real(np.vdot(psi.ket, proj @ psi.ket)))
            assert abs(b.mixing_x - abs(mixing_after_measurement(0.6, exp_pure))) < 1e-12


def test_luders_update_empty_branch():
    rho = pure_density(PRODUCT)  # |00><00|
    result = luders_update(rho, MeasurementDirection(0.0, 0.0), 1)
    assert result.probability == 0.0
    assert result.conditional_state_B is None
    assert math.isnan(result.mixing_x)


def test_mixing_constraint():
    # sum_m x_m / (1 - x_m) = 2p / (1 - p) for any measurement direction
    rng = np.random.default_rng(53)
    p = 0.6
    for seed in range(5):
        psi = random_pure_state(seed=seed)
        rho = gwl(psi, p)
        for _ in range(10):
            direction = MeasurementDirection(rng.uniform(0.0, math.pi / 2.0), rng.uniform(0.0, 2.0 * math.pi))
            total = 0.0
            for m in (0, 1):
                proj = lifted_projector(direction, m)
                exp_pure = float(np.real(np.vdot(psi.ket, proj @ psi.ket)))
                x = mixing_after_measurement(p, exp_pure)
                total += x / (1.0 - x)
            assert abs(total - 2.0 * p / (1.0 - p)) < 1e-12


def test_mixing_after_measurement_domain():
    with pytest.raises(DomainError):
        mixing_after_measurement(0.5, 1.5)
    with pytest.raises(DomainError):
        mixing_after_measurement(0.5, -0.5)
    with pytest.raises(DomainError):
        mixing_after_measurement(1.5, 0.5)
    with pytest.raises(NumericError):
        mixing_after_measurement(1.0, 0.0)  # empty branch
    with pytest.raises(DomainError):
        mixing_after_measurement(0.5, float("nan"))


def test_amplitude():
    # the breakdown's A = sqrt(1 - C^2)/2 is half the Bloch-vector length
    # of the measured side's reduced state, on either side
    assert qd_gwl_analytic(PSI_PLUS, 0.5).amplitude < 1e-15
    assert abs(qd_gwl_analytic(PRODUCT, 0.5).amplitude - 0.5) < 1e-15
    for seed in range(10):
        psi = random_pure_state(seed=seed)
        for side in ("A", "B"):
            reduced = reduced_from_wmatrix(psi, side)
            bloch = [np.trace(reduced @ pauli).real for pauli in (PAULI_X, PAULI_Y, PAULI_Z)]
            expected = 0.5 * np.linalg.norm(bloch)
            assert abs(qd_gwl_analytic(psi, 0.5, partition=side).amplitude - expected) < 1e-12


def test_breakdown_keeps_full_precision_near_a_bell_state():
    # a locally rotated Bell state has C an ulp or so below 1, where
    # sqrt(1 - C^2) is ~1e-8 off; x0, x1 and the amplitude must not be
    rng = np.random.default_rng(71)
    for _ in range(20):
        psi = local_unitary(PSI_PLUS, random_unitary(rng), random_unitary(rng))
        for side in ("A", "B"):
            out = qd_gwl_analytic(psi, 0.7, partition=side)
            assert abs(out.x0 - 0.7) < 1e-15 and abs(out.x1 - 0.7) < 1e-15
            assert out.amplitude < 1e-15


def test_conditional_entropy_against_explicit_measurement():
    # the analytic minimum equals the branch-entropy average at the
    # direction aligned with the reduced Bloch vector
    for seed in range(8):
        psi = random_pure_state(seed=seed)
        for p in (0.25, 0.6, 0.9):
            rho = gwl(psi, p)
            direction = aligned_direction(psi)
            avg = 0.0
            xs = []
            for m in (0, 1):
                b = luders_update(rho, direction, m)
                avg += b.probability * von_neumann_entropy(b.conditional_state_B)
                xs.append(b.mixing_x)
            out = qd_gwl_analytic(psi, p)
            assert abs(out.conditional_entropy - avg) < 1e-10
            assert abs(min(xs) - min(out.x0, out.x1)) < 1e-10
            assert abs(max(xs) - max(out.x0, out.x1)) < 1e-10


def test_conditional_entropy_limits():
    for seed in range(5):
        psi = random_pure_state(seed=seed)
        # p = 0: the conditional state is maximally mixed either way
        out = qd_gwl_analytic(psi, 0.0)
        assert abs(out.conditional_entropy - 1.0) < 1e-14
        assert out.x0 == 0.0 and out.x1 == 0.0
        # p = 1: rank-1 measurement of a pure state leaves pure
        # conditionals, zero entropy, both mixing weights at 1
        out = qd_gwl_analytic(psi, 1.0)
        assert out.conditional_entropy == 0.0
        assert out.x0 == 1.0 and out.x1 == 1.0
    assert qd_gwl_analytic(PRODUCT, 1.0).conditional_entropy == 0.0


def test_qd_werner_endpoints_and_oracle():
    assert abs(qd_werner(-1.0) - 1.0) < 1e-12
    assert abs(qd_werner(0.0)) < 1e-12
    assert abs(qd_werner(1.0 / 3.0) - 1.0 / 3.0) < 1e-12
    for p in (-1.0, -0.7, -0.4, 0.15, 1.0 / 3.0):
        assert abs(qd_werner(p) - qd_numeric(werner(p))) < 1e-9
    with pytest.raises(DomainError):
        qd_werner(0.5)


def test_qd_gwl_breakdown_consistency():
    for seed in range(8):
        psi = random_pure_state(seed=seed)
        c = concurrence_pure(psi)
        for p in (0.0, 0.3, 0.7, 1.0):
            out = qd_gwl_analytic(psi, p)
            assert abs(out.discord - (out.reduced_entropy_A - out.total_entropy + out.conditional_entropy)) < 1e-14
            assert abs(out.mutual_information - (out.reduced_entropy_A + out.reduced_entropy_B - out.total_entropy)) < 1e-14
            assert abs(out.total_entropy - entropy_gwl(p)) < 1e-14
            assert abs(out.amplitude - math.sqrt(1.0 - c * c) / 2.0) < 1e-14
            # measuring either side gives the same discord for a GWL
            assert abs(out.discord - qd_gwl_analytic(psi, p, partition="B").discord) < 1e-14
        assert abs(qd_gwl_analytic(psi, 0.0).discord) < 1e-12
        # at p = 1 the discord equals the entanglement of formation
        assert abs(qd_gwl_analytic(psi, 1.0).discord - eof_from_concurrence(c)) < 1e-12
    with pytest.raises(DomainError):
        qd_gwl_analytic(PSI3, 0.5, partition="X")
    with pytest.raises(DomainError):
        qd_gwl_analytic(PSI3, -0.5)


def test_qd_gwl_product_states_have_zero_discord():
    for p in np.arange(-1.0 / 3.0, 1.0 + 1e-9, 0.05):
        assert abs(qd_gwl_analytic(PRODUCT, p).discord) < 1e-12


def test_qd_analytic_matches_numeric():
    for psi in (PSI3, PSI2):
        for p in (0.3, 0.7, 0.95, 1.0):
            ana = qd_gwl_analytic(psi, p).discord
            num = qd_numeric(gwl(psi, p))
            assert abs(ana - num) < 1e-9
    # partition B with an asymmetrically-written input
    ana = qd_gwl_analytic(PSI3, 0.8, partition="B").discord
    num = qd_numeric(gwl(PSI3, 0.8), partition="B")
    assert abs(ana - num) < 1e-9


def _luo_bell_diagonal_discord(c):
    # Luo, PRA 77, 042303 (2008): the discord of (I + sum_i c_i sigma_i (x)
    # sigma_i)/4 is I - C, with I = 2 + sum over the four Bell-basis
    # eigenvalues of lam log2 lam and C = sum_pm (1 pm m)/2 log2(1 pm m),
    # m = max |c_i|; at 50 digits
    with mpmath.workdps(50):
        c1, c2, c3 = (mpmath.mpf(x) for x in c)
        lams = (
            (1 - c1 - c2 - c3) / 4,
            (1 - c1 + c2 + c3) / 4,
            (1 + c1 - c2 + c3) / 4,
            (1 + c1 + c2 - c3) / 4,
        )
        mutual = 2 + sum(lam * mpmath.log(lam, 2) for lam in lams)
        m = max(abs(c1), abs(c2), abs(c3))
        classical = ((1 - m) * mpmath.log(1 - m, 2) + (1 + m) * mpmath.log(1 + m, 2)) / 2
        return float(mutual - classical)


def test_qd_numeric_matches_luo_on_rotated_bell_diagonal_states():
    # an independent reference off the GWL family: Bell-diagonal states
    # with distinct |c_i| and every eigenvalue at least 0.02, turned by
    # random local unitaries, which leave the discord unchanged
    rng = np.random.default_rng(97)
    cases, stack = [], []
    while len(cases) < 12:
        c = rng.uniform(-0.9, 0.9, size=3)
        rho = 0.25 * (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, (PAULI_X, PAULI_Y, PAULI_Z))))
        if np.min(np.diff(np.sort(np.abs(c)))) > 0.05 and np.min(np.linalg.eigvalsh(rho)) > 0.02:
            if cases:
                u = np.kron(random_unitary(rng), random_unitary(rng))
                rho = u @ rho @ u.conj().T
            cases.append(c)
            stack.append(rho)
    # two or three equal |c_i| make a circle or a sphere of minima, where the
    # Hessian is singular along the minima
    for c in ((0.5, 0.5, -0.2), (-0.6, 0.6, 0.3), (0.2, 0.2, 0.0), (0.4, -0.4, 0.4)):
        cases.append(c)
        stack.append(0.25 * (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, (PAULI_X, PAULI_Y, PAULI_Z)))))
    expected = np.array([_luo_bell_diagonal_discord(c) for c in cases])
    for partition in ("A", "B"):
        values = qd_numeric(np.array(stack), partition=partition)
        assert np.max(np.abs(values - expected)) <= 1e-13, partition


def test_qd_numeric_near_the_poles_matches_the_closed_form():
    # W = [[0.8, eps e^(i a)], [0, 0.6]], normalized, puts the optimum within
    # about eps of +-z: there the grid's best point is often a pole, where
    # a search in (theta, phi) stalls, hits its cap or stops short
    ps = np.array([-0.3, -0.233, 0.2, 0.6, 0.9])
    for eps in (5e-4, 1e-3, 2e-3, 5e-3, 0.01, 0.02):
        for a in np.linspace(0.0, math.pi, 7):
            w = np.array([[0.8, eps * np.exp(1j * a)], [0.0, 0.6]])
            psi = WMatrix(w / np.linalg.norm(w))
            for side in ("A", "B"):
                exact = [qd_gwl_analytic(psi, p, side).discord for p in ps]
                error = np.max(np.abs(qd_numeric(gwl(psi, ps), partition=side) - exact))
                assert error <= 1e-12, (eps, a, side, error)


def _x_saddle():
    # a real X state, symmetric under (nx, ny, nz) -> (-nx, -ny, nz), so +-z
    # is a stationary point; here a saddle, and the grid's best point
    d = np.array([5.85606e-4, 0.998996, 3.14934e-4, 1.03844e-4])
    rho = np.diag(d / d.sum())
    rho[0, 3] = rho[3, 0] = 2.19084e-4
    rho[1, 2] = rho[2, 1] = -0.0160714
    return rho


X_SADDLE = _x_saddle()


def _x_state_discord_50_digits(rho, partition, margin=False):
    # For a real X state, T is diagonal and a, b lie along z, so at fixed nz
    # the two branches' squared Bloch lengths are affine in nx^2, with
    # ny^2 = 1 - nz^2 - nx^2. The binary entropy is concave in r^2, so the
    # minimum lies at nx = 0 or ny = 0, in the yz- or the xz-plane (Lu, Ma,
    # Xi and Wang, PRA 83, 012327 (2011)). A scan and a golden-section search
    # over the polar angle in each plane find it at 50 digits. With margin,
    # also how far it lies below the best of the x, y and z axes
    with mpmath.workdps(50):
        paulis = [np.eye(2), PAULI_X, PAULI_Y, PAULI_Z]
        r = mpmath.matrix(4, 4)
        for i in range(4):
            for j in range(4):
                op = np.kron(paulis[i], paulis[j]).T.ravel()
                r[i, j] = mpmath.re(sum(mpmath.mpf(x) * complex(o) for x, o in zip(rho.ravel(), op)))
        if partition == "B":
            r = r.T

        def h2(length):
            hi, lo = (1 + length) / 2, (1 - length) / 2
            return -sum(q * mpmath.log(q, 2) for q in (hi, lo) if q > 0)

        def cond(n):
            total = 0
            for sign in (1, -1):
                s = 1 + sign * sum(n[k] * r[k + 1, 0] for k in range(3))
                vec = [r[0, j] + sign * sum(n[k] * r[k + 1, j] for k in range(3)) for j in (1, 2, 3)]
                total += s / 2 * h2(mpmath.sqrt(sum(v * v for v in vec)) / s)
            return total

        def plane_minimum(axis):
            # n = (sin t, 0, cos t) for axis 0, (0, sin t, cos t) for axis 1
            def f(t):
                n = [0, 0, mpmath.cos(t)]
                n[axis] = mpmath.sin(t)
                return cond(n)

            step = mpmath.pi / 64
            lo = min(range(64), key=lambda i: f(i * step)) * step - step
            hi = lo + 2 * step
            g = (mpmath.sqrt(5) - 1) / 2
            for _ in range(140):
                a, b = hi - g * (hi - lo), lo + g * (hi - lo)
                if f(a) < f(b):
                    hi = b
                else:
                    lo = a
            return f((lo + hi) / 2)

        best = min(plane_minimum(0), plane_minimum(1))
        lam = mpmath.eigsy(mpmath.matrix(rho.real.tolist()))[0]
        s_total = -sum(x * mpmath.log(x, 2) for x in lam if x > 0)
        s_measured = h2(mpmath.sqrt(sum(r[k, 0] ** 2 for k in (1, 2, 3))))
        value = float(s_measured - s_total + best)
        if margin:
            return value, float(min(cond(axis) for axis in ([1, 0, 0], [0, 1, 0], [0, 0, 1])) - best)
        return value


@pytest.mark.parametrize("partition", ["A", "B"])
def test_qd_numeric_leaves_the_x_state_saddle_at_the_pole(partition):
    # the optimum lies off +-z in the yz-plane, 2.4e-7 bits below the pole
    exact = _x_state_discord_50_digits(X_SADDLE, partition)
    assert abs(qd_numeric(X_SADDLE, partition=partition) - exact) <= 1e-13


def _real_x_states(rng, count):
    # real X states: a Dirichlet(0.3) diagonal, which puts most weight on one
    # or two levels, and rho_03, rho_12 anywhere that keeps rho positive
    diag = rng.dirichlet(np.full(4, 0.3), size=count)
    rho = np.zeros((count, 4, 4))
    rho[:, range(4), range(4)] = diag
    corner = rng.uniform(-1.0, 1.0, size=(2, count)) * np.sqrt(diag[:, [0, 1]] * diag[:, [3, 2]]).T
    rho[:, 0, 3] = rho[:, 3, 0] = corner[0]
    rho[:, 1, 2] = rho[:, 2, 1] = corner[1]
    return rho


@pytest.mark.parametrize("partition", ["A", "B"])
def test_qd_numeric_finds_the_interior_optima_of_real_x_states(partition):
    # A real X state's optimum lies in the xz- or the yz-plane, and for about
    # one in a hundred of these draws it lies inside a plane, off every axis
    # (Lu, Ma, Xi and Wang, PRA 83, 012327 (2011); Huang, PRA 88, 014302
    # (2013)). Only the grid chooses that basin. A scan of both planes picks
    # the candidates; the 50-digit search keeps those whose optimum beats the
    # best axis by more than 1e-6 bits, and is the reference for them
    rng = np.random.default_rng(83)
    stack = _real_x_states(rng, 600)
    corr = discord_module._correlation_matrices(stack)
    if partition == "B":
        corr = corr.swapaxes(0, 1)
    # n = (sin t, 0, cos t), then (0, sin t, cos t): columns 0, 64 and 193 are z, x and y
    t = np.linspace(0.0, math.pi, 129)
    zero = np.zeros_like(t)
    planes = np.concatenate(([np.sin(t), zero, np.cos(t)], [zero, np.sin(t), np.cos(t)]), axis=1)
    vals = discord_module._avg_conditional_entropy(corr[:, :, :, None], np.repeat(planes[:, None], len(stack), axis=1))
    candidates = np.flatnonzero(vals[:, [0, 64, 193]].min(axis=1) - vals.min(axis=1) > 5e-7)
    kept, exact = [], []
    for k in candidates:
        value, margin = _x_state_discord_50_digits(stack[k], partition, margin=True)
        if margin > 1e-6:
            kept.append(stack[k])
            exact.append(value)
    assert len(kept) >= 3, len(kept)
    error = np.abs(qd_numeric(np.array(kept), partition=partition) - exact)
    assert np.max(error) <= 1e-13, error


def _bits(eigs):
    eigs = eigs[eigs > 0.0]
    return float(-np.sum(eigs * np.log2(eigs)))


def _koashi_winter_discord(g, partition):
    # rho_AB = g g^dagger is rank 2, so psi[a, b, c] = g[2a + b, c] purifies
    # it into a qubit C. Koashi and Winter (PRA 69, 022309 (2004)): the least
    # conditional entropy of B after a measurement on A is the EoF of
    # rho_BC, so D_A = S(rho_A) - S(rho_AB) + E_f(rho_BC); side B uses rho_AC.
    # S(rho_AB) = S(rho_C), the spectrum of g^dagger g
    psi = g.reshape(2, 2, 2)
    if partition == "B":
        psi = psi.transpose(1, 0, 2)
    x = psi.reshape(2, 4)  # row a is side a's unnormalized ket of the other two
    s_measured = _bits(np.linalg.eigvalsh(x @ x.conj().T))
    s_total = _bits(np.linalg.eigvalsh(g.conj().T @ g))
    # Wootters' concurrence of rho_BC = x^T x^*: its square roots of the
    # eigenvalues of rho rho~ are the singular values of x (sy (x) sy) x^T
    sv = np.linalg.svd(x @ np.kron(PAULI_Y, PAULI_Y) @ x.T, compute_uv=False)
    c = max(0.0, sv[0] - sv[1])
    eof = _bits(np.array([1.0 + math.sqrt(1.0 - c * c), 1.0 - math.sqrt(1.0 - c * c)]) / 2.0)
    return s_measured - s_total + eof


def _optimum_direction(rho, partition):
    # the kernel's best direction to about 2e-3 rad: a 128 x 128 grid, then
    # two 9 x 9 patches of tangent offsets about the best point so far
    corr = discord_module._correlation_matrices(rho[None])
    if partition == "B":
        corr = corr.swapaxes(0, 1)
    tt, pp = np.meshgrid(np.linspace(0.0, math.pi / 2.0, 128), np.linspace(0.0, math.pi, 128))
    n = discord_module._directions(tt.ravel(), pp.ravel())
    best = n[:, np.argmin(discord_module._avg_conditional_entropy(corr[:, :, 0, None], n))]
    for width in (0.03, 0.008):
        e1 = np.cross(best, [0.3, 0.5, 0.8])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(best, e1)
        u = np.linspace(-width, width, 9)
        n = best[:, None, None] + e1[:, None, None] * u[:, None] + e2[:, None, None] * u
        n = (n / np.linalg.norm(n, axis=0)).reshape(3, -1)
        best = n[:, np.argmin(discord_module._avg_conditional_entropy(corr[:, :, 0, None], n))]
    return best


def _rotation(m, t):
    # the SU(2) element whose Bloch rotation takes the unit vector m to t
    axis = np.cross(m, t)
    sin, cos = np.linalg.norm(axis), float(np.dot(m, t))
    if sin == 0.0:
        return np.eye(2)
    half = 0.5 * math.atan2(sin, cos)
    k = axis / sin
    return math.cos(half) * np.eye(2) - 1j * math.sin(half) * (k[0] * PAULI_X + k[1] * PAULI_Y + k[2] * PAULI_Z)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(("pole", "equator", "random")),
    st.floats(0.0, 0.018),
    st.floats(0.0, 2.0 * math.pi),
    st.sampled_from((1.0, -1.0)),
)
def test_qd_numeric_matches_koashi_winter_on_rank_two_states(seed, place, dist, azimuth, pole):
    # a random rank-2 state, turned on the measured side so that its optimum
    # lies within 0.02 rad of +-z, on the equator or anywhere
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    g /= np.linalg.norm(g)
    if place == "pole":
        target = np.array([math.sin(dist) * math.cos(azimuth), math.sin(dist) * math.sin(azimuth), pole * math.cos(dist)])
    elif place == "equator":
        target = np.array([math.cos(azimuth), math.sin(azimuth), 0.0])
    else:
        target = rng.normal(size=3)
        target /= np.linalg.norm(target)
    for partition in ("A", "B"):
        m = _optimum_direction(g @ g.conj().T, partition)
        # n and -n give the same value: turn m to the nearer of +-target
        u = _rotation(m, target if np.dot(m, target) >= 0.0 else -target)
        h = (np.kron(u, np.eye(2)) if partition == "A" else np.kron(np.eye(2), u)) @ g
        value = qd_numeric(h @ h.conj().T, partition=partition)
        assert abs(value - _koashi_winter_discord(h, partition)) <= 1e-12, partition


def test_qd_numeric_one_sided_classical_state():
    # classical on A (orthogonal markers) but not on B (overlapping states)
    plus = np.array([1.0, 1.0]) / SQ2
    rho = 0.5 * np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) + 0.5 * np.kron(
        np.diag([0.0, 1.0]), np.outer(plus, plus)
    )
    assert qd_numeric(rho, partition="A") < 1e-9
    assert qd_numeric(rho, partition="B") > 0.05


def test_qd_numeric_input_validation():
    with pytest.raises(DomainError):
        qd_numeric(werner(-0.5), grid_n=4)
    with pytest.raises(DomainError):
        qd_numeric(np.eye(4))  # trace 4
    with pytest.raises(DomainError):
        qd_numeric(np.triu(np.ones((4, 4))) / 2.5)  # not Hermitian
    with pytest.raises(DomainError):
        qd_numeric(werner(-0.5), partition="C")
    with pytest.raises(DomainError):
        qd_numeric(np.eye(2) / 2.0)


@pytest.mark.parametrize(
    "rho, match",
    [
        (2.0 * werner(-0.9), "trace 2 differs from 1"),  # once read as probability 1.0
        (werner(-0.9) + np.triu(np.full((4, 4), 0.1), 1), "not Hermitian"),
        (np.eye(2) / 2.0, "must have shape 4x4"),  # once numpy's ValueError
    ],
    ids=["trace-2", "non-hermitian", "2x2"],
)
def test_luders_update_checks_its_density_matrix(rho, match):
    with pytest.raises(DomainError, match=match):
        luders_update(rho, MeasurementDirection(0.3, 0.2), 0)


@pytest.mark.parametrize(
    "kw",
    [
        dict(grid_n=math.nan),  # once ValueError
        dict(grid_n=math.inf),  # once OverflowError
        dict(grid_n=8.9),  # once run at 8
        dict(refine_iters=math.nan),  # once ValueError
        dict(refine_iters=-3),  # once NumericError "... in -3 polls"
        dict(refine_iters=0),  # once NumericError "... in 0 Newton steps", even when isotropic
    ],
    ids=["grid-nan", "grid-inf", "grid-fraction", "iters-nan", "iters-negative", "iters-zero"],
)
def test_qd_numeric_counts_are_integers_in_range(kw):
    (name,) = kw
    with pytest.raises(DomainError, match="%s must be an integer in" % name):
        qd_numeric(werner(-0.5), **kw)


def test_qd_numeric_caps_the_grid_before_building_it(monkeypatch):
    def no_grid(grid_n):
        raise AssertionError("the direction grid was built for grid_n=%d" % grid_n)

    monkeypatch.setattr(discord_module, "_direction_grid", no_grid)
    for grid_n in (MAX_GRID_N + 1, 10**6):
        with pytest.raises(DomainError, match="grid_n must be an integer in"):
            qd_numeric(werner(-0.5), grid_n=grid_n)
    # the cap itself is allowed: the search goes on to build its grid, of
    # MAX_GRID_N // 2 rows
    with pytest.raises(AssertionError, match="grid_n=%d" % (MAX_GRID_N // 2)):
        qd_numeric(werner(-0.5), grid_n=MAX_GRID_N)


def test_qd_numeric_refinement_cap():
    # an anisotropic GWL state needs more than one Newton step
    try:
        qd_numeric(gwl(PSI3, 0.8), refine_iters=1)
    except NumericError as err:
        assert hasattr(err, "best_value")
        assert abs(err.best_value - qd_gwl_analytic(PSI3, 0.8).discord) < 1e-3
    else:
        raise AssertionError("expected NumericError from the step cap")


# --- Newton refine against the compass search it replaced ----------------
#
# _lockstep_qd_numeric is qd_numeric as it stood while its refine was a
# compass search in (theta, phi) making one poll per kernel call, and the
# grid phase one call per state, kept verbatim as the frozen reference.
# qd_numeric now refines by Newton steps on the sphere, which reach the same
# minima by other directions, so its values must lie within SERIAL_BOUND
# (below) of the reference's wherever the compass converges. A stack's
# outcome, its values or a step-cap error with its index and best value,
# must still equal (==) what single-state calls give.


@functools.lru_cache(maxsize=2)
def _frozen_direction_grid(grid_n):
    # _direction_grid as it stood with the lockstep search, flattened angles
    # included; qd_numeric now keeps only the two axes
    d = discord_module
    thetas = np.linspace(0.0, math.pi / 2.0, grid_n)
    phis = np.linspace(0.0, math.pi, grid_n, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    n = d._directions(tt, pp)
    for a in (tt, pp, n):
        a.flags.writeable = False
    return tt, pp, n, float(thetas[1] - thetas[0]), float(phis[1] - phis[0])


def _lockstep_qd_numeric(rho, partition="A", grid_n=64, refine_iters=500, tol=None):
    d = discord_module
    t = resolve_tolerance(tol)
    grid_n = int(grid_n)
    if not 8 <= grid_n <= MAX_GRID_N:
        raise DomainError("grid_n must be in [8, %d], got %d" % (MAX_GRID_N, grid_n))
    rho = np.asarray(rho, dtype=complex)
    single = rho.ndim == 2
    stack = rho[None] if single else rho
    if stack.ndim != 3 or stack.shape[1:] != (4, 4):
        raise DomainError(
            "expected a 4x4 density matrix or a stack of them, got shape %r" % (rho.shape,)
        )
    if partition not in ("A", "B"):
        raise DomainError("partition must be 'A' or 'B', got %r" % (partition,))
    d._check_densities(stack, t, single)
    n = len(stack)
    corr = d._correlation_matrices(stack)
    if partition == "B":
        corr = corr.swapaxes(0, 1)

    eig = np.clip(np.linalg.eigvalsh(stack), 0.0, 1.0)
    s_total = -np.sum(eig * np.log2(eig, out=np.zeros_like(eig), where=eig > 0.0), axis=1)
    offset = d._branch_entropy(*(2.0 * corr[:, 0])) - s_total

    tt, pp, grid, h_t0, h_p0 = _frozen_direction_grid(grid_n)
    best = np.empty(n)
    bt = np.empty(n)
    bp = np.empty(n)
    for k in range(n):
        vals = d._avg_conditional_entropy(corr[:, :, k, None], grid)
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
            result = float(offset[k] + best[k])
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
        mvals = d._avg_conditional_entropy(corr[:, :, act, None], d._directions(move_t, move_p))
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

    values = offset + best
    return float(values[0]) if single else values


def _outcome(search, rho, **kw):
    # the value's bits, or what a poll-cap error carries
    try:
        return np.float64(search(rho, **kw)).tobytes()
    except NumericError as err:
        return (str(err), err.index, np.float64(err.best_value).tobytes())


def _mixed_stack():
    # Werner, random GWL, deformed and kernel-edge states in one stack
    rng = np.random.default_rng(11)
    stack = [werner(-0.5), werner(0.25)]
    stack += [gwl(random_pure_state(seed=int(rng.integers(1 << 30))), p) for p in (-0.2, 0.55, 0.97)]
    spec = DeformationSpec("poschl_teller", N=10, n_max=9)
    stack.append(gwl(quasi_bell_wmatrix(QuasiBellSpec(spec, 1.1, "A")), 0.7))
    return np.array(stack + list(EDGE_STATES))


@pytest.mark.parametrize("partition", ["A", "B"])
@pytest.mark.parametrize("refine_iters", [1, 7, 16, 17, 30, 500])
@pytest.mark.parametrize("grid_n", [8, 9, 33, 64])
def test_qd_numeric_equals_the_one_level_lockstep_search(grid_n, refine_iters, partition):
    # grid_n sets the grid's best points and the downhill step's length;
    # refine_iters caps the Newton steps: one step stops every anisotropic
    # state, and seven let every state of the stack finish
    stack = _mixed_stack()
    kw = dict(grid_n=grid_n, refine_iters=refine_iters, partition=partition)
    singles = [_outcome(qd_numeric, rho, **kw) for rho in stack]
    capped = [k for k, out in enumerate(singles) if isinstance(out, tuple)]
    tall = np.concatenate([stack] * 4)
    if capped:
        # the stack reports its lowest-index capped state, as that state alone does
        k = capped[0]
        message, index, best = _outcome(qd_numeric, stack, **kw)
        assert (index, best) == (k, singles[k][2])
        assert message == singles[k][0].replace("minimization", "minimization of state %d" % k)
        assert _outcome(qd_numeric, tall, **kw) == (message, index, best)
    else:
        values = qd_numeric(stack, **kw)
        assert [np.float64(v).tobytes() for v in values] == singles
        assert qd_numeric(tall, **kw).tobytes() == np.tile(values, 4).tobytes()
        reference = _lockstep_qd_numeric(stack, grid_n=grid_n, partition=partition)
        assert np.max(np.abs(values - reference)) <= SERIAL_BOUND
    assert bool(capped) == (refine_iters == 1)


def _count_kernel_calls(monkeypatch):
    calls = []
    kernel = discord_module._avg_conditional_entropy

    def counted(corr, n):
        calls.append(n.shape)
        return kernel(corr, n)

    monkeypatch.setattr(discord_module, "_avg_conditional_entropy", counted)
    return calls


def test_refine_polls_several_halving_levels_per_kernel_call(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    # a Newton round is two kernel calls for every state still refining: the
    # 8-point stencil about each state, then the 16 halving fractions of each
    # step. No fraction lowers the isotropic Werner state's value, so it
    # stops after one round. The grid phase before it is one call on the
    # 648-direction grid of 32 rows
    qd_numeric(werner(-0.5))
    assert calls == [(3, 648), (3, 1, 8), (3, 1, 16)]
    # a random-GWL stack: grid calls of a few states each, then at most four
    # rounds for the whole stack, where the compass made one call per poll of
    # its longest search
    rng = np.random.default_rng(5)
    psi = random_pure_state(seed=8)
    stack = np.array([gwl(psi, p) for p in rng.uniform(-1.0 / 3.0, 1.0, size=20)])
    del calls[:]
    qd_numeric(stack)
    coarse = math.ceil(20 / (discord_module._GRID_BLOCK // 648))
    assert calls[:coarse] == [(3, 648)] * coarse
    refine = calls[coarse:]
    assert refine[:2] == [(3, 20, 8), (3, 20, 16)]
    assert [shape[2] for shape in refine] == [8, 16] * (len(refine) // 2)
    assert len(refine) <= 2 * 4
    del calls[:]
    _lockstep_qd_numeric(stack)
    assert len(calls) - len(stack) > 20


def test_grid_phase_chunks_keep_the_first_minimum(monkeypatch):
    # a kernel call takes the whole grid: 17,309 directions at grid_n 330 and
    # the 648 of 32 rows at the default, where directions tie on the product
    # and maximally mixed states. Blocks of one element give each state calls
    # of its own, and blocks of 2^20 put many states in one call on either grid
    d = discord_module
    stack = _mixed_stack()
    assert d._direction_grid(165).shape[1] == 17309
    assert d._direction_grid(32).shape[1] == 648
    large = {p: qd_numeric(stack, grid_n=330, partition=p) for p in "AB"}
    default = {p: qd_numeric(stack, partition=p) for p in "AB"}
    assert np.max(np.abs(large["A"] - _lockstep_qd_numeric(stack, grid_n=330))) <= SERIAL_BOUND
    for value in (1, 1 << 20):
        monkeypatch.setattr(d, "_GRID_BLOCK", value)
        for partition in ("A", "B"):
            assert qd_numeric(stack, grid_n=330, partition=partition).tobytes() == large[partition].tobytes()
            assert qd_numeric(stack, partition=partition).tobytes() == default[partition].tobytes()
    monkeypatch.undo()
    # past 2^16 directions, 159,068 at grid_n 1000, the search over chunks of 2^16
    # directions that the whole-grid call replaced gives the same bits
    cap = {p: qd_numeric(stack, grid_n=1000, partition=p) for p in "AB"}
    monkeypatch.setattr(d, "_grid_phase", lambda corr, g: _exhaustive_grid_phase(corr, max(8, g // 2)))
    for partition in ("A", "B"):
        assert qd_numeric(stack, grid_n=1000, partition=partition).tobytes() == cap[partition].tobytes()
    monkeypatch.undo()
    # a kernel that ties every direction: the refine must still start from
    # the grid's first direction, theta = phi = 0, the z axis, so its first
    # stencil points are (+-h, 0) and (0, +-h) along x and y about it
    seen = []

    def flat(corr, n):
        seen.append(n)
        return np.zeros(np.broadcast_shapes(corr.shape[2:], n.shape[1:]))

    monkeypatch.setattr(d, "_avg_conditional_entropy", flat)
    qd_numeric(werner(-0.5))
    stencil = seen[1]  # after one grid call
    assert np.array_equal(stencil[1, 0, :2], [0.0, 0.0])
    assert np.array_equal(stencil[0, 0, 2:4], [0.0, 0.0])
    assert np.all(stencil[2, 0, :4] == math.cos(discord_module._STENCIL_H))


def test_grid_phase_memory_is_bounded_at_the_grid_cap():
    # the direction grids are a cache; at the cap, a grid of 159,068
    # directions, the search's own temporaries are those of one state's
    # pass over the whole grid
    rho = werner(0.2)
    grids = discord_module._direction_grid
    grids.cache_clear()
    try:
        first = qd_numeric(rho, grid_n=MAX_GRID_N)
        # the cache holds the 3 x 159,068 Bloch components of the grid of
        # MAX_GRID_N // 2 rows only; a second call finds it there
        assert grids.cache_info().currsize == 1
        held = grids(MAX_GRID_N // 2).nbytes
        assert held == 8 * 3 * 159068, held
        before = grids.cache_info()
        tracemalloc.start()
        try:
            again = qd_numeric(rho, grid_n=MAX_GRID_N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        after = grids.cache_info()
    finally:
        grids.cache_clear()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert again == first
    assert peak < 16 * 2**20, peak


def _exhaustive_grid_phase(corr, grid_n):
    # the grid phase as it stood before the coarse pass, verbatim: each state
    # alone over the whole grid_n grid, chunk by chunk, keeping its first minimum
    d = discord_module
    n = corr.shape[2]
    grid = d._direction_grid(grid_n)
    best = np.empty(n)
    bn = np.empty((3, n))
    for k in range(n):
        for s in range(0, grid.shape[1], 1 << 16):
            vals = d._avg_conditional_entropy(corr[:, :, k, None], grid[:, s : s + (1 << 16)])
            j = int(np.argmin(vals))
            if s == 0 or vals[j] < best[k]:
                best[k], bn[:, k] = vals[j], grid[:, s + j]
    return best, bn


@pytest.mark.parametrize("grid_n", [8, 9, 64, 330])
def test_coarse_to_fine_seeds_keep_the_exhaustive_grid_values(grid_n, monkeypatch):
    # the refine from each state's first minimum on the grid of max(8,
    # grid_n // 2) rows must end where the refine from its first minimum over
    # the whole grid_n grid does, to SERIAL_BOUND, which also bounds how far
    # above it a value may lie. Random
    # states of every rank, and real X states, whose basins can lie 1e-6 bits
    # apart; a stack's values are its states' own, bit for bit
    rng = np.random.default_rng(43)
    states = []
    for rank in (1, 2, 3, 4):
        for _ in range(6):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            states.append(g @ g.conj().T / np.linalg.norm(g) ** 2)
    stack = np.concatenate((states, _real_x_states(rng, 24)))
    kw = dict(grid_n=grid_n)
    found = {p: qd_numeric(stack, partition=p, **kw) for p in "AB"}
    for p in "AB":
        singles = [qd_numeric(rho, partition=p, **kw) for rho in stack]
        assert np.array(singles).tobytes() == found[p].tobytes()
    monkeypatch.setattr(discord_module, "_grid_phase", _exhaustive_grid_phase)
    for p in "AB":
        assert np.max(np.abs(found[p] - qd_numeric(stack, partition=p, **kw))) <= SERIAL_BOUND, p


def _covering_radius(grid, v):
    # the largest angle from a unit vector of v (rows) to its nearest line +-n of the grid
    cos = np.concatenate([np.abs(v[i : i + 500] @ grid).max(axis=1) for i in range(0, len(v), 500)])
    return float(np.arccos(np.minimum(cos, 1.0)).max())


@pytest.mark.parametrize("grid_n", [8, 9, 33, 64])
def test_direction_grid_covers_the_sphere_as_the_lattice_did(grid_n):
    # each theta row holds ceil(grid_n sin 2theta) azimuths over [0, pi), no
    # row spaced wider than the equator's, so the grid covers the sphere up
    # to sign as closely as the grid_n x grid_n lattice, with fewer directions
    grid = discord_module._direction_grid(grid_n)
    lattice = _frozen_direction_grid(grid_n)[2]
    assert grid.shape[1] < lattice.shape[1]
    v = np.random.default_rng(grid_n).normal(size=(20000, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    radius = _covering_radius(grid, v)
    assert radius <= _covering_radius(lattice, v)
    if grid_n == 64:
        assert grid.shape == (3, 2594) and radius < 0.035
    # the first direction is +z, where the first minimum of a flat kernel lands
    assert np.array_equal(grid[:, 0], [0.0, 0.0, 1.0])
    # closed under n -> -n, row by row: the rows at 2 theta and pi - 2 theta
    # hold the same azimuths, so -n of one row is the other's n turned by pi in
    # phi, and with -n each row's azimuths space its whole circle evenly
    rows = np.split(grid, np.flatnonzero(np.diff(grid[2])) + 1, axis=1)
    assert len(rows) == grid_n
    for row, mirror in zip(rows, rows[::-1]):
        assert row.shape == mirror.shape
        assert np.allclose(row * [[1.0], [1.0], [-1.0]], mirror, rtol=0.0, atol=1e-15)
        full = np.sort(np.arctan2(*np.concatenate((row, -row), axis=1)[1::-1]) % (2.0 * math.pi))
        if len(full) > 2:
            assert np.allclose(np.diff(full), 2.0 * math.pi / len(full), rtol=0.0, atol=1e-14)


def _frozen_avg_conditional_entropy(corr, n):
    # _avg_conditional_entropy and _branch_entropy as they stood with the
    # grid_n x grid_n lattice, verbatim: the kernel now allocates less but
    # must give the same bits
    u = corr[1:] * n[:, None]
    u = u[0] + u[1] + u[2]
    if u.ndim == 2:
        return _frozen_branch_entropy(*(corr[0] + u)) + _frozen_branch_entropy(*(corr[0] - u))
    ent = _frozen_branch_entropy(*(corr[0, :, None] + np.multiply.outer((1.0, -1.0), u).swapaxes(0, 1)))
    return ent[0] + ent[1]


def _frozen_branch_entropy(s, x, y, z):
    weight = 0.5 * s
    r = np.minimum(np.sqrt(x * x + y * y + z * z) / np.maximum(s, BRANCH_EPS), 1.0)
    hi = 0.5 + 0.5 * r
    lo = 0.5 - 0.5 * r
    log_lo = np.log2(lo, out=np.zeros_like(lo), where=lo > 0.0)
    return np.where(weight > BRANCH_EPS, -weight * (hi * np.log2(hi) + lo * log_lo), 0.0)


def test_kernel_equals_the_frozen_kernel_bit_for_bit():
    d = discord_module
    rng = np.random.default_rng(29)
    # random states of every rank, then the edge states: the product state's
    # branch on the grid's +z direction is empty, and the Bell state's branches
    # are pure, r = 1 and lo = 0
    states = []
    for rank in (1, 2, 3, 4):
        for _ in range(3):
            g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
            states.append(g @ g.conj().T / np.linalg.norm(g) ** 2)
    stack = np.array(states + list(EDGE_STATES))
    for partition in ("A", "B"):
        corr = d._correlation_matrices(stack)
        if partition == "B":
            corr = corr.swapaxes(0, 1)
        chunk = d._direction_grid(330)[:, : 1 << 16]
        for k in range(len(stack)):
            for grid in (d._direction_grid(64), chunk):
                got = d._avg_conditional_entropy(corr[:, :, k, None], grid)
                assert got.tobytes() == _frozen_avg_conditional_entropy(corr[:, :, k, None], grid).tobytes()
        # the refine's stencil and line search: (3, A, 8) and (3, A, 16) points
        for m in (8, 16):
            n = rng.normal(size=(3, len(stack), m))
            n /= np.linalg.norm(n, axis=0)
            n[:, -4:, 0] = [[0.0], [0.0], [1.0]]
            got = d._avg_conditional_entropy(corr[:, :, :, None], n)
            assert got.shape == (len(stack), m)
            assert got.tobytes() == _frozen_avg_conditional_entropy(corr[:, :, :, None], n).tobytes()
        # the reduced states' entropies, which qd_numeric reads the same way
        rows = 2.0 * corr[:, 0]
        assert d._branch_entropy(*rows).tobytes() == _frozen_branch_entropy(*rows).tobytes()
    # branch weights s/2 about BRANCH_EPS, and Bloch lengths r = 1 and beyond
    eps = BRANCH_EPS
    s = np.array([0.0, eps, 2.0 * eps, np.nextafter(2.0 * eps, 1.0), 3.0 * eps, 1e-300, 1.0, 1.0, 2.0, 0.5])
    x = np.array([0.0, eps, 2.0 * eps, 2.0 * eps, eps, 0.0, 1.0, 0.6, 2.0, 0.7])
    y = np.array([0.0, 0.0, 0.0, 0.0, eps, 0.0, 0.0, 0.8, 0.0, 0.0])
    z = np.zeros_like(s)
    got = d._branch_entropy(s, x, y, z)
    assert got.tobytes() == _frozen_branch_entropy(s, x, y, z).tobytes()
    assert got[0] == got[6] == 0.0 and got[3] > 0.0


# --- stacked oracle against the serial search it replaced -----------------
#
# _serial_qd_numeric is the one-state qd_numeric as it stood before the
# stacked lockstep search, kept verbatim as the frozen reference. It works
# on complex 2x2 blocks over the full (theta, phi) grid; the oracle now
# works on the real correlation matrix over a half-sphere grid, which
# rounds differently, so every state must lie within SERIAL_BOUND of it.
# Batch independence is exact: a state's value in a stack must equal (==)
# the value a single-state call gives it.
SERIAL_BOUND = 1e-13


def _serial_entropy_from_eigenvalues(eigs):
    out = 0.0
    for lam in eigs:
        lam = float(lam)
        if lam > 0.0:
            out -= lam * math.log2(min(1.0, lam))
    return max(0.0, out)


def _serial_avg_conditional_entropy(blocks, rho_b, theta, phi):
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    s = np.sin(2.0 * theta)
    nx = s * np.cos(phi)
    ny = s * np.sin(phi)
    nz = np.cos(2.0 * theta)
    pi00 = 0.5 * (1.0 + nz)
    pi11 = 0.5 * (1.0 - nz)
    pi01 = 0.5 * (nx - 1j * ny)
    pi10 = 0.5 * (nx + 1j * ny)
    m0 = (
        pi00[..., None, None] * blocks[0, 0]
        + pi10[..., None, None] * blocks[0, 1]
        + pi01[..., None, None] * blocks[1, 0]
        + pi11[..., None, None] * blocks[1, 1]
    )
    m1 = rho_b - m0
    return _serial_branch_entropy(m0) + _serial_branch_entropy(m1)


def _serial_branch_entropy(m):
    tr = np.real(m[..., 0, 0] + m[..., 1, 1])
    det = np.real(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])
    disc = np.sqrt(np.clip(tr * tr - 4.0 * det, 0.0, None))
    safe_tr = np.maximum(tr, BRANCH_EPS)
    mu = np.clip(0.5 * (tr + disc) / safe_tr, 0.0, 1.0)
    ent = np.zeros_like(mu)
    inner = (mu > 0.0) & (mu < 1.0)
    mu_in = mu[inner]
    ent[inner] = -(mu_in * np.log2(mu_in) + (1.0 - mu_in) * np.log2(1.0 - mu_in))
    return np.where(tr > BRANCH_EPS, tr * ent, 0.0)


def _serial_qd_numeric(rho, partition="A", grid_n=64, refine_iters=500, tol=None):
    t = resolve_tolerance(tol)
    grid_n = int(grid_n)
    if grid_n < 8:
        raise DomainError("grid_n must be at least 8, got %d" % grid_n)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DomainError("expected a 4x4 density matrix, got shape %r" % (rho.shape,))
    if not is_hermitian(rho, t):
        raise DomainError("density matrix is not Hermitian within tolerance")
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > t:
        raise DomainError("density matrix trace %g differs from 1 beyond tolerance" % tr)
    if partition == "B":
        rho = swap_qubits(rho)
    elif partition != "A":
        raise DomainError("partition must be 'A' or 'B', got %r" % (partition,))

    s_total = _serial_entropy_from_eigenvalues(np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0))
    rho_meas = partial_trace(rho, "B")
    s_meas = _serial_entropy_from_eigenvalues(np.clip(np.linalg.eigvalsh(rho_meas), 0.0, 1.0))

    blocks = rho.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    rho_b = blocks[0, 0] + blocks[1, 1]

    thetas = np.linspace(0.0, math.pi / 2.0, grid_n)
    phis = np.linspace(0.0, 2.0 * math.pi, 2 * grid_n, endpoint=False)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    vals = _serial_avg_conditional_entropy(blocks, rho_b, tt.ravel(), pp.ravel())
    k = int(np.argmin(vals))
    best = float(vals[k])
    bt = float(tt.ravel()[k])
    bp = float(pp.ravel()[k])

    h_t = float(thetas[1] - thetas[0])
    h_p = float(phis[1] - phis[0])
    polls = 0
    while h_t >= REFINE_TARGET or h_p >= REFINE_TARGET:
        if polls >= refine_iters:
            result = s_meas - s_total + best
            err = NumericError(
                "measurement minimization did not reach %g rad in %d polls; "
                "best value %r" % (REFINE_TARGET, refine_iters, result)
            )
            err.best_value = result
            raise err
        moves = ((bt + h_t, bp), (bt - h_t, bp), (bt, bp + h_p), (bt, bp - h_p))
        mvals = [float(_serial_avg_conditional_entropy(blocks, rho_b, ct, cp)) for ct, cp in moves]
        j = int(np.argmin(mvals))
        if mvals[j] < best:
            best = mvals[j]
            bt, bp = moves[j]
        else:
            h_t *= 0.5
            h_p *= 0.5
        polls += 1

    return s_meas - s_total + best


def _assert_stack_matches_serial(stack, **kw):
    values = qd_numeric(stack, **kw)
    assert isinstance(values, np.ndarray) and values.shape == (len(stack),)
    assert np.max(np.abs(values - _lockstep_qd_numeric(stack, **kw))) <= SERIAL_BOUND
    for k, rho in enumerate(stack):
        assert abs(values[k] - _serial_qd_numeric(rho, **kw)) <= SERIAL_BOUND, k
        assert values[k] == qd_numeric(rho, **kw), k


def test_qd_numeric_stack_equals_serial_werner_grid():
    _assert_stack_matches_serial(np.array([werner(p) for p in np.linspace(-1.0, 1.0 / 3.0, 26)]))


@pytest.mark.parametrize("partition", ["A", "B"])
def test_qd_numeric_stack_equals_serial_random_gwl(partition):
    rng = np.random.default_rng(2024)
    for _ in range(5):
        psi = random_pure_state(seed=int(rng.integers(1 << 30)))
        ps = np.sort(rng.uniform(-1.0 / 3.0, 1.0, size=12))
        stack = np.array([gwl(psi, p) for p in np.append(ps, 1.0)])
        _assert_stack_matches_serial(stack, partition=partition)


@pytest.mark.parametrize("partition", ["A", "B"])
def test_qd_numeric_stack_equals_serial_deformed(partition):
    specs = (
        DeformationSpec("poschl_teller", N=10, n_max=9),
        DeformationSpec("morse", N=10, n_max=3),
        DeformationSpec("exciton", kappa=0.3, n_max=5),
    )
    stack = [
        gwl(quasi_bell_wmatrix(QuasiBellSpec(spec, alpha, kind)), p)
        for spec in specs
        for kind, alpha in (("C", 0.7), ("A", 1.1), ("D", 1.4))
        for p in (0.2, 0.9)
    ]
    # the one-sided classical state of the test above is not symmetric in A and B
    plus = np.array([1.0, 1.0]) / SQ2
    stack.append(
        0.5 * np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        + 0.5 * np.kron(np.diag([0.0, 1.0]), np.outer(plus, plus))
    )
    _assert_stack_matches_serial(np.array(stack), partition=partition, grid_n=16)


# The kernel's edges: on the z row of the grid one branch of |00> is
# empty (trace at or below BRANCH_EPS); the Bell state's conditional
# states are pure, so mu clips to 1; I/4 leaves every branch maximally
# mixed; the rank-2 mixture is neither symmetric in A and B nor a GWL.
EDGE_STATES = (
    pure_density(PRODUCT),
    pure_density(PSI_PLUS),
    np.eye(4) / 4.0,
    0.6 * pure_density(PSI3) + 0.4 * pure_density(PRODUCT),
)


@pytest.mark.parametrize("partition", ["A", "B"])
@pytest.mark.parametrize("grid_n", [9, 33])
def test_qd_numeric_stack_equals_serial_at_kernel_edges(grid_n, partition):
    _assert_stack_matches_serial(np.array(EDGE_STATES), partition=partition, grid_n=grid_n)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    st.integers(0, 2**31 - 1),
    st.floats(*GWL_RANGE, allow_nan=False),
    st.integers(0, 2**31 - 1),
)
def test_oracle_and_concurrence_are_local_unitary_invariant(seed, p, rotation_seed):
    rho = gwl(random_pure_state(seed=seed), p)
    rng = np.random.default_rng(rotation_seed)
    u = np.kron(random_unitary(rng), random_unitary(rng))
    rotated = u @ rho @ u.conj().T
    for partition in ("A", "B"):
        before, after = qd_numeric(np.array([rho, rotated]), partition=partition)
        assert abs(before - after) < 1e-9
    assert abs(concurrence_mixed(rho).value - concurrence_mixed(rotated).value) < 1e-9


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 4),
    st.sampled_from(("A", "B")),
    st.floats(0.0, math.pi / 2.0),
    st.floats(0.0, 2.0 * math.pi),
)
def test_kernel_gives_a_direction_and_its_negative_the_same_value(seed, rank, partition, theta, phi):
    # the half-sphere grid rests on f(n) == f(-n), bit for bit
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    corr = discord_module._correlation_matrices(rho[None])
    if partition == "B":
        corr = corr.swapaxes(0, 1)
    n = discord_module._directions(np.array([theta]), np.array([phi]))
    plus = discord_module._avg_conditional_entropy(corr, n)
    minus = discord_module._avg_conditional_entropy(corr, -n)
    assert plus.shape == (1,) and plus[0] == minus[0]


def test_qd_numeric_stack_of_one_equals_single_matrix():
    rho = gwl(PSI3, 0.8)
    single = qd_numeric(rho, partition="B")
    assert type(single) is float
    stacked = qd_numeric(rho[None], partition="B")
    assert stacked.shape == (1,) and stacked[0] == single
    assert qd_numeric(np.empty((0, 4, 4))).shape == (0,)
    assert qd_numeric(np.empty((0, 4, 4)), partition="B").shape == (0,)


def test_qd_numeric_stack_rejects_bad_matrix_before_searching(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search started before validation finished")

    monkeypatch.setattr(discord_module, "_avg_conditional_entropy", no_search)
    good = werner(-0.5)
    non_hermitian = np.triu(np.ones((4, 4))) / 4.0
    for bad, what in ((non_hermitian, "not Hermitian"), (np.eye(4), "trace")):
        with pytest.raises(DomainError, match="density matrix 2 .*%s" % what):
            qd_numeric(np.array([good, good, bad, good]))
    with pytest.raises(DomainError, match="not Hermitian"):
        qd_numeric(werner(-0.5) + np.diag([0.0, 0.0, 0.0, np.nan]))
    with pytest.raises(DomainError, match="rho must have shape 4x4 or Kx4x4"):
        qd_numeric(np.zeros((2, 2, 4, 4)))


def test_qd_numeric_stack_cap_reports_lowest_unconverged_state():
    psi = random_pure_state(seed=3)
    # the GWL states take three Newton steps, the X saddle six
    stack = np.array([gwl(psi, 0.7), X_SADDLE, gwl(psi, 0.9)])
    # one step leaves every state unconverged: state 0 is reported
    with pytest.raises(NumericError) as info:
        qd_numeric(stack, refine_iters=1)
    with pytest.raises(NumericError) as ref:
        qd_numeric(stack[0], refine_iters=1)
    assert info.value.index == 0
    assert info.value.best_value == ref.value.best_value
    # four steps finish the GWL states but not the saddle
    assert qd_numeric(stack[0], refine_iters=4) == qd_numeric(stack[0])
    with pytest.raises(NumericError, match="of state 1 ") as info:
        qd_numeric(stack, refine_iters=4)
    with pytest.raises(NumericError) as ref:
        qd_numeric(stack[1], refine_iters=4)
    assert info.value.index == 1
    assert info.value.best_value == ref.value.best_value
