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


def layer_step_recurrent(values, x, out, tmp):
    """Vectorized recurrent step for a whole layer (or batch of layers),
    written into ``out`` without allocating.

    values: (2, 3, ..., n), each coefficient as one contiguous plane;
    x and the scratch ``tmp``: (..., n); ``out``: (2, ..., n) holds
    [output, state] and receives [output, new state]. Each plane reads the
    state before it writes that plane, and is squashed on its own, so that
    a view of the first rows of larger planes runs as contiguous planes.
    """
    for i, plane in enumerate(out):
        np.multiply(values[i, 1], out[1], out=tmp)
        np.multiply(values[i, 0], x, out=plane)
        plane += tmp
        plane += values[i, 2]
        np.tanh(plane, out=plane)


def layer_step_simple(values, x, out, tmp=None):
    """The stateless :func:`layer_step_recurrent` (``tmp`` unused): values
    (2, ..., n) holds the [scale, bias] planes; ``out`` (1, ..., n)."""
    np.multiply(values[0], x, out=out[0])
    out += values[1]
    np.tanh(out, out=out)
