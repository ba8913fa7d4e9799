"""Exact EoF and quantum-discord formulas for Werner-like two-qubit states.

The package computes the entanglement of formation and the quantum
discord of Werner and generalized Werner-like (GWL) mixtures in closed
form, checks every closed form against a brute-force measurement
minimization, and applies the formulas to quasi-Bell pairs of
f-deformed coherent states. See the module docstrings of ``linalg``,
``states``, ``entanglement``, ``discord``, ``deformed`` and ``cli``.
"""

from .deformed import (
    DeformationSpec,
    DeformedKet,
    QuasiBellSpec,
    coherent_coefficients,
    concurrence_quasi_bell,
    deformation_value,
    deformed_factorial,
    displacement_validity,
    energy_level,
    hard_nmax,
    overlap,
    quasi_bell_wmatrix,
    select_nmax,
)
from .discord import (
    DiscordBreakdown,
    MeasurementDirection,
    PostMeasurement,
    conditional_entropy_gwl_analytic,
    entropy_gwl,
    entropy_werner,
    lifted_projector,
    luders_update,
    measurement_projector,
    mixing_after_measurement,
    qd_gwl,
    qd_gwl_analytic,
    qd_numeric,
    qd_werner,
    reduced_entropy_gwl,
)
from .entanglement import (
    ConcurrenceResult,
    concurrence_gwl_analytic,
    concurrence_mixed,
    concurrence_pure,
    concurrence_werner,
    eof_from_concurrence,
    eof_werner,
)
from .linalg import (
    DomainError,
    NumericError,
    Spectrum,
    binary_entropy,
    general_eigenvalues_4x4,
    get_tolerance,
    hermitian_eigenvalues,
    is_hermitian,
    kronecker,
    partial_trace,
    set_tolerance,
    von_neumann_entropy,
)
from .states import (
    EXCHANGE,
    WMatrix,
    gwl,
    local_unitary,
    pure_density,
    random_pure_state,
    reduced_from_wmatrix,
    spin_flip,
    swap_qubits,
    werner,
)

__version__ = "0.1.0"
