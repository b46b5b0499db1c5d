"""Evolving per-neuron parameters in random-weight networks."""

from .architecture import Architecture, count_parameters
from .cartpole import BatchedSwingUp, SwingUpParams
from .errors import (
    CheckpointError,
    ConfigError,
    DomainError,
    EvaluationError,
    EvoUnitsError,
)
from .genome import decode, encode, initial_genome
from .harness import EvalReport, LayerProbe, evaluate, probe_layer
from .network import (
    BatchedPolicy,
    load_champion,
    sample_weights,
    save_champion,
    weight_checksum,
)
from .neural_unit import NeuronMode
from .optimizers import (
    CmaEs,
    GeneticAlgorithm,
    OpenEs,
    PipelineConfig,
    PipelineRunner,
)

__version__ = "0.1.0"
