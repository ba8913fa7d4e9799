import math
import warnings

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
    conditional_entropy_gwl_analytic,
    eof_from_concurrence,
    entropy_gwl,
    entropy_werner,
    gwl,
    kronecker,
    lifted_projector,
    local_unitary,
    luders_update,
    measurement_projector,
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
from qcorr.discord import BRANCH_EPS, REFINE_TARGET
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
        for p in np.arange(-1.0, 1.0 / 3.0 + 1e-9, 0.02):
            assert abs(entropy_werner(p) - von_neumann_entropy(werner(p))) < 1e-12
        assert abs(entropy_werner(1.0 / 3.0) - math.log2(3.0)) < 1e-12
        assert entropy_werner(0.0) == 2.0
        for seed in range(5):
            psi = random_pure_state(seed=seed)
            c = concurrence_pure(psi)
            for p in np.arange(-1.0 / 3.0, 1.0 + 1e-9, 0.05):
                rho = gwl(psi, p)
                assert abs(entropy_gwl(p) - von_neumann_entropy(rho)) < 1e-12
                red = partial_trace(rho, "B")
                assert abs(reduced_entropy_gwl(c, p) - von_neumann_entropy(red)) < 1e-12
    with pytest.raises(DomainError):
        entropy_werner(0.5)
    with pytest.raises(DomainError):
        entropy_gwl(-0.5)
    with pytest.raises(DomainError):
        reduced_entropy_gwl(1.5, 0.5)


def test_measurement_projector():
    rng = np.random.default_rng(43)
    for _ in range(20):
        direction = MeasurementDirection(rng.uniform(0.0, math.pi / 2.0), rng.uniform(0.0, 2.0 * math.pi))
        assert abs(np.linalg.norm(direction.bloch_vector) - 1.0) < 1e-12
        p0 = measurement_projector(direction, 0)
        p1 = measurement_projector(direction, 1)
        assert np.max(np.abs(p0 @ p0 - p0)) < 1e-12  # idempotent
        assert np.max(np.abs(p0 + p1 - np.eye(2))) < 1e-12
        assert abs(np.trace(p0).real - 1.0) < 1e-12
    # theta = 0 is the z axis (the polar angle is doubled)
    assert np.allclose(measurement_projector(MeasurementDirection(0.0, 0.0), 0), np.diag([1.0, 0.0]))
    assert np.allclose(
        measurement_projector(MeasurementDirection(math.pi / 4.0, 0.0), 0),
        0.5 * (np.eye(2) + PAULI_X),
    )
    with pytest.raises(DomainError):
        measurement_projector(MeasurementDirection(0.0, 0.0), 2)


def test_lifted_projector():
    direction = MeasurementDirection(0.3, 1.1)
    pi0 = measurement_projector(direction, 0)
    assert np.array_equal(lifted_projector(direction, 0, "A"), kronecker(pi0, np.eye(2)))
    assert np.array_equal(lifted_projector(direction, 0, "B"), kronecker(np.eye(2), pi0))
    assert np.allclose(lifted_projector(MeasurementDirection(0.0, 0.0), 0, "A"), np.diag([1.0, 1.0, 0.0, 0.0]))
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
            value, x0, x1 = conditional_entropy_gwl_analytic(concurrence_pure(psi), p)
            assert abs(value - avg) < 1e-10
            assert abs(min(xs) - min(x0, x1)) < 1e-10
            assert abs(max(xs) - max(x0, x1)) < 1e-10


def test_conditional_entropy_limits():
    for seed in range(5):
        psi = random_pure_state(seed=seed)
        # p = 0: the conditional state is maximally mixed either way
        c = concurrence_pure(psi)
        value, x0, x1 = conditional_entropy_gwl_analytic(c, 0.0)
        assert abs(value - 1.0) < 1e-14
        assert x0 == 0.0 and x1 == 0.0
        # p = 1: rank-1 measurement of a pure state leaves pure
        # conditionals, zero entropy, both mixing weights at 1
        value, x0, x1 = conditional_entropy_gwl_analytic(c, 1.0)
        assert value == 0.0
        assert x0 == 1.0 and x1 == 1.0
    value, _, _ = conditional_entropy_gwl_analytic(0.0, 1.0)
    assert value == 0.0


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


def test_qd_numeric_one_sided_classical_state():
    # classical on A (orthogonal markers) but not on B (overlapping states)
    plus = np.array([1.0, 1.0]) / SQ2
    rho = 0.5 * kronecker(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])) + 0.5 * kronecker(
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


def test_qd_numeric_refinement_cap():
    try:
        qd_numeric(werner(-0.5), refine_iters=1)
    except NumericError as err:
        assert hasattr(err, "best_value")
        assert abs(err.best_value - qd_werner(-0.5)) < 1e-3
    else:
        raise AssertionError("expected NumericError from the poll cap")


# --- stacked oracle against the serial search it replaced -----------------
#
# _serial_qd_numeric is the one-state qd_numeric as it stood before the
# stacked lockstep search, kept verbatim as the reference: the stacked
# search must give every state exactly (==) the value this gives it.


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
    for k, rho in enumerate(stack):
        assert values[k] == _serial_qd_numeric(rho, **kw), k


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
        0.5 * kronecker(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]))
        + 0.5 * kronecker(np.diag([0.0, 1.0]), np.outer(plus, plus))
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
    u = kronecker(random_unitary(rng), random_unitary(rng))
    rotated = u @ rho @ u.conj().T
    for partition in ("A", "B"):
        before, after = qd_numeric(np.array([rho, rotated]), partition=partition)
        assert abs(before - after) < 1e-9
    assert abs(concurrence_mixed(rho).value - concurrence_mixed(rotated).value) < 1e-9


def test_qd_numeric_stack_of_one_equals_single_matrix():
    rho = gwl(PSI3, 0.8)
    single = qd_numeric(rho, partition="B")
    assert type(single) is float
    stacked = qd_numeric(rho[None], partition="B")
    assert stacked.shape == (1,) and stacked[0] == single
    assert qd_numeric(np.empty((0, 4, 4))).shape == (0,)


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
    with pytest.raises(DomainError, match="stack"):
        qd_numeric(np.zeros((2, 2, 4, 4)))


def test_qd_numeric_stack_cap_reports_lowest_unconverged_state():
    psi = random_pure_state(seed=3)
    stack = np.array([werner(-0.5), gwl(psi, 0.7), gwl(psi, 0.9)])
    # one poll leaves every state unconverged: state 0 is reported
    with pytest.raises(NumericError) as info:
        qd_numeric(stack, refine_iters=1)
    with pytest.raises(NumericError) as ref:
        _serial_qd_numeric(stack[0], refine_iters=1)
    assert info.value.index == 0
    assert info.value.best_value == ref.value.best_value
    # 30 polls finish the isotropic Werner state but not the GWL ones
    assert qd_numeric(stack[0], refine_iters=30) == _serial_qd_numeric(stack[0])
    with pytest.raises(NumericError, match="of state 1 ") as info:
        qd_numeric(stack, refine_iters=30)
    with pytest.raises(NumericError) as ref:
        _serial_qd_numeric(stack[1], refine_iters=30)
    assert info.value.index == 1
    assert info.value.best_value == ref.value.best_value
