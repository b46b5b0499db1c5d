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


def _check_length(arch, n):
    expected = count_parameters(arch)
    if n != expected:
        raise ConfigError(
            f"genome length mismatch: architecture {arch.layer_sizes} in mode "
            f"{arch.neuron_mode.value} needs {expected} values, got {n}"
        )


def decode(genomes, arch: Architecture):
    """Unflatten genomes into per-layer parameter arrays.

    ``genomes`` is one genome of shape (dim,) or a batch of shape (..., dim);
    the leading axes pass through to every array returned. Unit modes return
    one array per layer: (..., n, 2, 3) recurrent or (..., n, 2) simple.
    Plain-tanh returns [(W, b), ...] per weight layer, with W (..., out, in)
    and b (..., out).
    """
    g = np.atleast_1d(np.asarray(genomes, dtype=np.float64))
    _check_length(arch, g.shape[-1])
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


def encode(structured, arch: Architecture) -> np.ndarray:
    """Inverse of :func:`decode`; concatenates in the frozen layout order."""
    parts = []
    if arch.neuron_mode is NeuronMode.PLAIN_TANH:
        if len(structured) != arch.n_layers - 1:
            raise ConfigError(
                f"expected {arch.n_layers - 1} (W, b) pairs, got {len(structured)}"
            )
        for k, (w, b) in enumerate(structured):
            w = np.asarray(w, dtype=np.float64)
            b = np.asarray(b, dtype=np.float64)
            fan_out, fan_in = arch.layer_sizes[k + 1], arch.layer_sizes[k]
            if w.shape != (fan_out, fan_in) or b.shape != (fan_out,):
                raise ConfigError(
                    f"layer {k}: expected W {(fan_out, fan_in)} and b {(fan_out,)}, "
                    f"got {w.shape} and {b.shape}"
                )
            parts.append(w.ravel())
            parts.append(b.ravel())
    else:
        if len(structured) != arch.n_layers:
            raise ConfigError(
                f"expected {arch.n_layers} per-layer arrays, got {len(structured)}"
            )
        shape = (2, 3) if arch.neuron_mode is NeuronMode.RECURRENT else (2,)
        for k, layer in enumerate(structured):
            layer = np.asarray(layer, dtype=np.float64)
            if layer.shape != (arch.layer_sizes[k],) + shape:
                raise ConfigError(
                    f"layer {k}: expected shape {(arch.layer_sizes[k],) + shape}, "
                    f"got {layer.shape}"
                )
            parts.append(layer.ravel())
    genome = np.concatenate(parts)
    _check_length(arch, genome.size)
    return genome


def initial_genome(arch: Architecture, seed=None, std: float = 0.0) -> np.ndarray:
    """Starting point for the search: zeros by default, seeded normals if std > 0."""
    n = count_parameters(arch)
    if std > 0.0:
        return np.random.default_rng(seed).normal(0.0, std, size=n)
    return np.zeros(n)
