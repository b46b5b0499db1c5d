"""Evolving per-neuron parameters in random-weight networks."""

from .architecture import Architecture, count_parameters
from .cartpole import BatchedSwingUp, SwingUpParams
from .errors import CheckpointError, ConfigError, DomainError, EvaluationError, EvoUnitsError
from .genome import decode, initial_genome
from .harness import EvalReport, LayerProbe, evaluate, probe_layer
from .network import BatchedPolicy
from .neural_unit import NeuronMode
from .optimizers import CmaEs, GeneticAlgorithm, OpenEs, PipelineConfig, PipelineRunner
from .rundir import load_champion, save_champion

__version__ = "0.1.0"
