"""Flat-vector encoding of all evolvable parameters.

Layout is frozen: layer by layer, neuron by neuron within a layer, row-major
within each neuron's matrix. For the plain-tanh baseline the per-layer order
is the weight matrix row-major followed by the bias vector.
"""

from __future__ import annotations

import numpy as np

from .architecture import Architecture, count_parameters
from .errors import ConfigError
from .neural_unit import PARAMS_PER_NEURON, NeuronMode


def decode(genomes, arch: Architecture, dtype=np.float64):
    """Unflatten genomes into per-layer parameter arrays of ``dtype``.

    ``genomes`` is one genome of shape (dim,) or a batch of shape (..., dim);
    the leading axes pass through to every array returned. Unit modes return
    one array per layer: (..., n, 2, 3) recurrent or (..., n, 2) simple.
    Plain-tanh returns [(W, b), ...] per weight layer, with W (..., out, in)
    and b (..., out).
    """
    g = np.atleast_1d(np.asarray(genomes, dtype=dtype))
    expected = count_parameters(arch)
    if g.shape[-1] != expected:
        raise ConfigError(
            f"genome length mismatch: architecture {arch.layer_sizes} in mode "
            f"{arch.neuron_mode.value} needs {expected} values, got {g.shape[-1]}"
        )
    lead = g.shape[:-1]
    sizes = arch.layer_sizes
    out = []
    pos = 0
    if arch.neuron_mode is NeuronMode.PLAIN_TANH:
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            w = g[..., pos : pos + fan_in * fan_out].reshape(lead + (fan_out, fan_in))
            pos += fan_in * fan_out
            out.append((w, g[..., pos : pos + fan_out]))
            pos += fan_out
        return out
    per = PARAMS_PER_NEURON[arch.neuron_mode]
    shape = (2, 3) if arch.neuron_mode is NeuronMode.RECURRENT else (2,)
    for n in sizes:
        out.append(g[..., pos : pos + n * per].reshape(lead + (n,) + shape))
        pos += n * per
    return out


def initial_genome(arch: Architecture) -> np.ndarray:
    """Starting point for the search: the zero genome."""
    return np.zeros(count_parameters(arch))
