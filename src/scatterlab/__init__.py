"""scatterlab: multichannel resonant scattering on tight-binding lattices.

Detects in-gap edge states of Hermitian and non-Hermitian scattering
centers through transmission profiles, reflection scans, and wave-packet
dynamics.
"""

from .analytic import (
    NHLevel,
    edge_state_amplitudes,
    nh_spectrum,
    nh_transmission_profile,
    predicted_probabilities,
    reflection_theory,
    visibility_theory,
    zero_mode_amplitudes,
)
from .dynamics import (
    PropagatorConfig,
    TrajectoryRecord,
    WavePacketSpec,
    init_gaussian,
    propagate,
    run_experiment,
    stop_time,
    visibility,
)
from .errors import ConfigError, NumericalError, PhysicsError, ScatterlabError
from .lattice import (
    CustomCenter,
    Hamiltonian,
    LeadSpec,
    NetworkSpec,
    NonHermitianSSHCenter,
    SSHCenter,
    assemble_network,
    center_matrix,
    dispersion,
    group_velocity,
)
from .steady import (
    ResonanceScan,
    ScatteringSolution,
    eigenfunction_from_transmissions,
    mu_scan,
    resonant_eigenvalues,
    solve_multichannel,
    two_lead_solve,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "CustomCenter",
    "Hamiltonian",
    "LeadSpec",
    "NHLevel",
    "NetworkSpec",
    "NonHermitianSSHCenter",
    "NumericalError",
    "PhysicsError",
    "PropagatorConfig",
    "ResonanceScan",
    "ScatterlabError",
    "ScatteringSolution",
    "SSHCenter",
    "TrajectoryRecord",
    "WavePacketSpec",
    "assemble_network",
    "center_matrix",
    "dispersion",
    "edge_state_amplitudes",
    "eigenfunction_from_transmissions",
    "group_velocity",
    "init_gaussian",
    "mu_scan",
    "nh_spectrum",
    "nh_transmission_profile",
    "predicted_probabilities",
    "propagate",
    "reflection_theory",
    "resonant_eigenvalues",
    "run_experiment",
    "solve_multichannel",
    "stop_time",
    "two_lead_solve",
    "visibility",
    "visibility_theory",
    "zero_mode_amplitudes",
]
