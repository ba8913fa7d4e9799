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
    QuasiBellSpec,
    coherent_coefficients,
    concurrence_quasi_bell,
    displacement_validity,
    hard_nmax,
    overlap,
    quasi_bell_wmatrix,
    select_nmax,
)
from .discord import (
    DiscordBreakdown,
    MeasurementDirection,
    PostMeasurement,
    lifted_projector,
    luders_update,
    mixing_after_measurement,
    qd_gwl,
    qd_gwl_analytic,
    qd_numeric,
    qd_werner,
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
    binary_entropy,
    partial_trace,
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
    swap_qubits,
    werner,
)

__version__ = "0.1.0"
