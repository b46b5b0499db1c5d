"""Per-neuron math: the stateful recurrent unit and its simple ablation.

A recurrent unit holds a 2x3 parameter matrix that maps the column vector
[input, state, 1] through tanh to [output, new_state]. The simple variant
keeps only a scale and a bias on the input, with no state feedback.
Every unit, the network's output units included, squashes with tanh.
"""

from __future__ import annotations

import enum

import numpy as np


class NeuronMode(enum.Enum):
    RECURRENT = "recurrent"
    SIMPLE = "simple"
    PLAIN_TANH = "tanh"


PARAMS_PER_NEURON = {
    NeuronMode.RECURRENT: 6,
    NeuronMode.SIMPLE: 2,
}


def parameter_major(values, mode: NeuronMode):
    """Unit parameters with each coefficient as one contiguous plane.

    Moves the per-unit coefficient axes to the front: (..., n, 2, 3) becomes
    (2, 3, ..., n) for recurrent units and (..., n, 2) becomes (2, ..., n)
    for simple ones, the layout the layer steps below expect.
    """
    k = 2 if mode is NeuronMode.RECURRENT else 1
    nd = values.ndim
    return np.ascontiguousarray(np.moveaxis(values, range(nd - k, nd), range(k)))


def layer_step_recurrent(values, x, h):
    """Vectorized recurrent step for a whole layer (or batch of layers).

    values: (2, 3, ..., n), parameter-major (see :func:`parameter_major`);
    x and h: (..., n). Returns (out, h_new).
    """
    z = values[:, 0] * x + values[:, 1] * h + values[:, 2]  # (2, ..., n)
    out, h_new = np.tanh(z)
    return out, h_new


def layer_step_simple(values, x):
    """Vectorized simple step: values (2, ..., n) holds the [scale, bias] planes."""
    return np.tanh(values[0] * x + values[1])
