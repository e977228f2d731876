"""Deterministic multi-agent simulator of data-to-knowledge translation.

Three team roles (experimenting, mining, labeling) pass data, patterns, and
claims down a pipeline whose provenance channels can be opened or closed per
run. Because the generative ground truth is known to the simulator, the
true-minus-false openness score of the emitted knowledge is exactly
computable, and the effect of each channel can be measured on paired seeds.
"""

from .config import (
    ChannelPolicy,
    PeerAccess,
    ScenarioConfig,
    TeamSpec,
    TeamsSpec,
    Wiring,
    default_scenario,
    scenario_from_dict,
)
from .errors import ConfigError
from .experimenting import (
    Dataset,
    Datasheet,
    ExperimentDesign,
    ExperimentSpec,
    Selection,
    design_experiment,
    export_dataset,
    sample_dataset,
)
from .knowledge import (
    AgentPool,
    AgentSpec,
    GroundTruth,
    KnowledgeBase,
    Role,
    Team,
    build_ground_truth,
    rectify,
    sample_agent_pool,
    sample_agent_prior,
)
from .labeling import (
    EffectivePrior,
    LabeledKnowledge,
    LabelingParams,
    build_effective_prior,
    label,
    reinterpret,
)
from .metrics import (
    MonotonicityReport,
    OpennessReport,
    OracleReport,
    SignTestResult,
    correlation_oracle,
    openness,
    paired_sign_test,
    validate_monotonicity,
)
from .mining import (
    Information,
    InfoSheet,
    MiningParams,
    PatternTable,
    correct_attenuation,
    mine,
    phi_coefficient,
)
from .orchestrator import (
    RunResult,
    SweepResult,
    replicate_seed,
    run,
    sweep,
    write_run_outputs,
    write_sweep_outputs,
)

__version__ = "0.1.0"
