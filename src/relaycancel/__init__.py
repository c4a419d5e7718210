"""Design toolkit and simulator for digital coupling-wave cancelers in
single-frequency full-duplex relay stations."""

from .lti import (
    StateSpace,
    hinf_norm,
    interconnect,
    is_stable,
    zoh_discretize,
)
from .relay import (
    CouplingChannel,
    GeneralizedPlantSpec,
    RelayParams,
    build_generalized_plant,
    build_perturbed_plant,
    rotation_matrix,
    scalar_block,
    uncertainty_weight,
)
from .lifting import (
    LiftedPlant,
    closed_loop_norms,
    fsfh_lift,
    lifted_closed_loop,
    sampled_data_norm,
)
from .synthesis import (
    Controller,
    SynthesisError,
    build_robust_plant,
    robust_stability_sweep,
    synthesize_nominal,
    synthesize_robust,
    verify_design,
)
from .sim import (
    InputSpec,
    SimConfig,
    SimulationTrace,
    generate_input,
    metrics,
    simulate_closed_loop,
)

__version__ = "0.1.0"
