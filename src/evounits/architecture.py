"""Network shape description and parameter counting."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .neural_unit import PARAMS_PER_NEURON, NeuronMode


@dataclass(frozen=True)
class Architecture:
    """Layer sizes, per-neuron mode and the frozen-weight seed of a network.

    ``neuron_mode`` PLAIN_TANH selects the weight-trainable baseline network;
    the other two modes select random-weight networks with evolvable units.
    """

    layer_sizes: tuple
    neuron_mode: NeuronMode
    weight_seed: int = 0
    weight_std: float = 0.5

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ConfigError("layer_sizes: need at least input and output layers")
        if any(s < 1 for s in sizes):
            raise ConfigError(f"layer_sizes: every layer size must be >= 1, got {sizes}")
        if not (0 <= int(self.weight_seed) < 2**64):
            raise ConfigError("weight_seed: must fit in an unsigned 64-bit integer")
        if self.weight_std <= 0:
            raise ConfigError("weight_std: must be positive")

    @property
    def n_neurons(self) -> int:
        return sum(self.layer_sizes)

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes)

    @property
    def obs_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def action_dim(self) -> int:
        return self.layer_sizes[-1]


def count_parameters(arch: Architecture) -> int:
    """Number of evolvable parameters for an architecture.

    Unit modes pay per neuron (6 recurrent, 2 simple); the plain-tanh
    baseline pays for every weight and bias.
    """
    sizes = arch.layer_sizes
    if arch.neuron_mode is NeuronMode.PLAIN_TANH:
        return sum(
            fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes, sizes[1:])
        )
    return PARAMS_PER_NEURON[arch.neuron_mode] * sum(sizes)
