"""Network shape description, its frozen weights and parameter counting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .neural_unit import PARAMS_PER_NEURON, NeuronMode
from .schema import at_least, check_fields, positive


@dataclass(frozen=True)
class Architecture:
    """Layer sizes, per-neuron mode and the frozen-weight seed of a network.

    ``neuron_mode`` PLAIN_TANH selects the weight-trainable baseline network;
    the other two modes select random-weight networks with evolvable units.
    """

    layer_sizes: tuple[int, ...]
    neuron_mode: NeuronMode
    weight_seed: int = at_least(0, 0)
    weight_std: float = positive(0.5)

    def __post_init__(self):
        check_fields(self)
        sizes = self.layer_sizes
        if len(sizes) < 2:
            raise ConfigError("layer_sizes: need at least input and output layers")
        if any(s < 1 for s in sizes):
            raise ConfigError(f"layer_sizes: every layer size must be >= 1, got {sizes}")
        if self.weight_seed >= 2**64:
            raise ConfigError("weight_seed: must fit in an unsigned 64-bit integer")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes)


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


def sample_weights(arch: Architecture):
    """Frozen weight matrices, one per layer gap, shape (fan_out, fan_in).

    Each layer draws from its own stream keyed by (weight_seed, layer index),
    so appending layers never perturbs earlier matrices.
    """
    weights = []
    for k, (fan_in, fan_out) in enumerate(zip(arch.layer_sizes, arch.layer_sizes[1:])):
        rng = np.random.default_rng(np.random.SeedSequence((arch.weight_seed, k)))
        weights.append(rng.normal(0.0, arch.weight_std, size=(fan_out, fan_in)))
    return weights
