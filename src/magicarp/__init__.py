"""Quantum optimal control via adjoint-matrix shooting, with a GRAPE baseline."""

from .bench import (
    BenchmarkRecord,
    BenchmarkSpec,
    campaign_summary,
    derive_seed,
    minimal_duration,
    run_campaign,
)
from .grape import GrapeConfig, grape_gradient, grape_objective, grape_optimize
from .optimizer import OptimizationReport
from .propagation import (
    PropagationResult,
    PulseSchedule,
    bloch_trajectory,
    gate_fidelity,
    normalized_infidelity,
    propagate,
    verify_adjoint_constancy,
)
from .qudit import (
    AdjointMatrix,
    ControlSet,
    GeneratorBasis,
    generalized_pauli_pair,
    nearest_neighbor_control_set,
    target_gate,
    tau_qsl,
)
from .shooting import (
    CertificateResult,
    DegenerateEnvelopeError,
    MagicarpConfig,
    ShootingContext,
    optimality_certificate,
    optimize,
    pulses_from_adjoint,
    restarted_optimize,
    reverse_gradient,
)

__all__ = [
    "AdjointMatrix",
    "BenchmarkRecord",
    "BenchmarkSpec",
    "CertificateResult",
    "ControlSet",
    "DegenerateEnvelopeError",
    "GeneratorBasis",
    "GrapeConfig",
    "MagicarpConfig",
    "OptimizationReport",
    "PropagationResult",
    "PulseSchedule",
    "ShootingContext",
    "bloch_trajectory",
    "campaign_summary",
    "derive_seed",
    "gate_fidelity",
    "generalized_pauli_pair",
    "grape_gradient",
    "grape_objective",
    "grape_optimize",
    "minimal_duration",
    "nearest_neighbor_control_set",
    "normalized_infidelity",
    "optimality_certificate",
    "optimize",
    "propagate",
    "pulses_from_adjoint",
    "restarted_optimize",
    "reverse_gradient",
    "run_campaign",
    "target_gate",
    "tau_qsl",
    "verify_adjoint_constancy",
]

__version__ = "0.1.0"
